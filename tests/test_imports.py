"""Every module-level import in the package is used in its module or
re-exported through its `__all__`, every module-level private name is
used somewhere in the package, every public one has a caller outside the
tests but for the acceptance suite, p(t) and h(t) are walked only by
`attack.marginals` and `attack.hazards`, the oracle sums future costs in
one function, refuses work in one and walks its graph forward in one,
and only the array modules import numpy when they are imported: lint
checks that need no linter.  And the package namespace, whose
array-backed names are bound on first access, stays complete."""

import ast
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

import probesched
import probesched.cli
import probesched.oracle
import probesched.sim
from helpers import child_env

MODULES = sorted(pathlib.Path(probesched.__file__).parent.glob("*.py"))


def _unused_imports(tree) -> list:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used | exported)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\n__all__ = ['tau']\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "pi")]


def _module_names(tree) -> dict:
    """{module-level name but a dunder: the statement that defines it}."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return {name: node for name, node in names.items() if not name.startswith("__")}


def _private_names(tree) -> dict:
    return {name: node for name, node in _module_names(tree).items() if name.startswith("_")}


def _references(tree) -> Counter:
    """Names read, attributes read, and names imported from other modules."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


def _dead_private_names(trees) -> list:
    """Private names read nowhere in `trees` but in their own definitions."""
    used = sum(map(_references, trees), Counter())
    return sorted(name for tree in trees for name, node in _private_names(tree).items()
                  if used[name] == _references(node)[name])


def test_every_private_name_is_used():
    # a dedup that leaves a dead helper behind fails here
    assert _dead_private_names([ast.parse(path.read_text()) for path in MODULES]) == []


def test_the_check_sees_a_dead_private_name():
    trees = [ast.parse("def _used(): pass\ndef _dead(n): return _dead(n - 1)\n"
                       "_X: int = 1\n_y = _used\n__all__ = []\n"),
             ast.parse("from m import _y\n")]
    assert _dead_private_names(trees) == ["_X", "_dead"]


def _dead_public_names(trees, acceptance) -> list:
    """Public names read nowhere in `trees` but in their own definitions
    and not imported by `acceptance`."""
    used = sum(map(_references, trees), Counter())
    imported = {a.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    return sorted(name for tree in trees for name, node in _module_names(tree).items()
                  if not name.startswith("_") and name not in imported
                  and used[name] == _references(node)[name])


def test_every_public_name_has_a_caller():
    # a name only the tests read belongs in tests/helpers.py; the package's
    # re-export in `__init__` is no caller
    trees = [ast.parse(path.read_text()) for path in MODULES if path.name != "__init__.py"]
    acceptance = ast.parse(pathlib.Path(__file__).with_name("test_acceptance.py").read_text())
    assert _dead_public_names(trees, acceptance) == []


def test_the_check_sees_a_dead_public_name():
    trees = [ast.parse("def used(): pass\ndef dead(n): return dead(n - 1)\n"
                       "X: int = 1\nY = used\nclass Z: pass\n_w = 2\n"),
             ast.parse("from m import Y\n")]
    acceptance = ast.parse("from m import Z\n")
    assert _dead_public_names(trees, acceptance) == ["X", "dead"]


# the scalar views of the one walk; stepping them over t repeats the walk
_SCALAR_VIEWS = {"marginal_p", "hazard"}
_REPEATED = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)


def _scalar_walks(tree, walks=()) -> list:
    """Lines that reference `marginal_p` or `hazard` inside a loop, a
    comprehension or a `map`/`partial` call, outside the functions `walks`."""
    found = set()

    def visit(node, repeated):
        if isinstance(node, ast.FunctionDef) and node.name in walks:
            return
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if repeated and name in _SCALAR_VIEWS:
            found.add(node.lineno)
        repeated = repeated or isinstance(node, _REPEATED) or (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("map", "partial"))
        for child in ast.iter_child_nodes(node):
            visit(child, repeated)

    visit(tree, False)
    return sorted(found)


def test_only_the_walk_steps_the_marginals():
    # every per-arm table reads `attack.marginals` (or `hazards`) through islice
    walks = {path.name: _scalar_walks(ast.parse(path.read_text()),
                                      ("marginals", "hazards") if path.name == "attack.py" else ())
             for path in MODULES}
    assert {name: lines for name, lines in walks.items() if lines} == {}


def test_the_check_sees_a_scalar_walk():
    tree = ast.parse("def marginals(p):\n    for t in count(): yield marginal_p(p, t)\n"
                     "a = [hazard(p, t) for t in r]\nb = map(partial(marginal_p, p), r)\n"
                     "while True:\n    c = m.marginal_p(p, 1)\nd = marginal_p(p, 1)\n")
    assert _scalar_walks(tree, ("marginals",)) == [3, 4, 6]


def _sites(tree, found) -> list:
    """The function around each node `found` accepts, in source order; ""
    for one outside every function."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if found(node):
            sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "")
    return sites


def _attribute(module: str, name: str):
    """A test for a reference to `module.name`."""
    return lambda node: (isinstance(node, ast.Attribute) and node.attr == name
                         and isinstance(node.value, ast.Name) and node.value.id == module)


def _raise_of(name: str):
    """A test for a `raise` of `name` or of a call to it."""
    def found(node):
        exc = node.exc if isinstance(node, ast.Raise) else None
        exc = exc.func if isinstance(exc, ast.Call) else exc
        return isinstance(exc, ast.Name) and exc.id == name
    return found


def _oracle_tree():
    return ast.parse(pathlib.Path(probesched.oracle.__file__).read_text())


def test_the_oracle_has_one_backward_induction():
    # every value-to-go, of the optimum and of each policy at every horizon,
    # is summed by the one value iteration
    assert _sites(_oracle_tree(), _attribute("np", "add")) == ["_iterate"]


def test_the_check_sees_a_second_induction():
    tree = ast.parse("def f(v):\n    return functools.reduce(np.add, v)\nclass C:\n"
                     "    def g(self, v):\n        return np.add.reduce(v)\n"
                     "h = np.add\nnp.bincount(w, v)\n")
    assert _sites(tree, _attribute("np", "add")) == ["f", "g", ""]


def _reads(name: str):
    """A test for a read of the name `name`."""
    return lambda node: (isinstance(node, ast.Name) and node.id == name
                         and isinstance(node.ctx, ast.Load))


def test_the_oracle_has_one_forward_walk():
    # the graph's builder and the value iteration read the outcomes'
    # children; every reachable layer comes from the walk
    sites = _sites(_oracle_tree(), _reads("child"))
    assert set(sites) == {"_graph", "_iterate", "_layers"}


def test_the_check_sees_a_second_forward_walk():
    tree = ast.parse("def _layers(parts):\n    g, child = parts\n    yield child[0]\n"
                     "class T:\n    def walk(self, child):\n        return child[1]\n"
                     "def other(edges):\n    child = edges\nx = child\n")
    assert _sites(tree, _reads("child")) == ["_layers", "walk", ""]


def test_the_oracle_has_one_guard():
    # every exact op is refused by the one graph guard, which counts the
    # value iterations the op will run too
    sites = _sites(_oracle_tree(), _raise_of("SearchSpaceError"))
    assert sites and set(sites) == {"_graph"}


def test_the_check_sees_a_second_guard():
    tree = ast.parse("def _graph(n):\n    if n:\n        raise SearchSpaceError(n, 1, 'x')\n"
                     "def check(n):\n    raise SearchSpaceError(n, 1, 'y')\n"
                     "def other():\n    raise ValueError('z')\nraise SearchSpaceError\n")
    assert _sites(tree, _raise_of("SearchSpaceError")) == ["_graph", "check", ""]


# the modules that work on numpy arrays; every other one runs without numpy
ARRAY_MODULES = {"oracle", "policies", "sim"}


def _array_imports(tree) -> list:
    """(line, module) of each import of numpy or of an array module that
    runs when the module is imported: any outside a function body."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            found.extend((node.lineno, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            found.extend((node.lineno, base if node.module else base + a.name)
                         for a in node.names)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return [(line, name) for line, name in found
            if name.split(".")[0] == "numpy"
            or name.lstrip(".").removeprefix("probesched.").split(".")[0] in ARRAY_MODULES]


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem not in ARRAY_MODULES],
                         ids=lambda p: p.name)
def test_only_the_array_modules_import_numpy(path):
    assert _array_imports(ast.parse(path.read_text())) == []


def test_the_check_sees_an_array_import():
    tree = ast.parse("import numpy.random\nfrom .sim import run\nfrom . import oracle, arm\n"
                     "from probesched.policies import x\nfrom .arm import y\n"
                     "class C:\n    import numpy as np\n"
                     "def f():\n    import numpy as np\n    from .sim import run\n")
    assert _array_imports(tree) == [(1, "numpy.random"), (2, ".sim"), (3, ".oracle"),
                                    (4, "probesched.policies"), (7, "numpy")]


def test_the_lazy_namespace_is_complete():
    # `dir` in a fresh interpreter, where no array-backed name is bound yet
    code = ("import sys, probesched; print(set(probesched.__all__) - set(dir(probesched)), "
            "'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=child_env(),
                          check=True, text=True)
    assert proc.stdout.split() == ["set()", "False"]
    for name in probesched.__all__:
        getattr(probesched, name)
    for module in (probesched, probesched.cli):
        with pytest.raises(AttributeError):
            getattr(module, "no_such_name")


def test_one_search_space_error(monkeypatch, capsys):
    # the class `oracle` re-exports is the one every guard raises and
    # `cli.main` maps to exit 3
    from probesched.oracle import SearchSpaceError

    assert SearchSpaceError is probesched.SearchSpaceError is probesched.cli.SearchSpaceError
    assert SearchSpaceError is probesched.sim.SearchSpaceError

    def refuse(*args):
        raise SearchSpaceError(2, 1, "states")

    monkeypatch.setattr(probesched.oracle, "_graph", refuse)
    assert probesched.cli.main(["oracle", "--preset", "fig3"]) == 3
    assert capsys.readouterr().err.startswith("refused: search space too large: 2 states")

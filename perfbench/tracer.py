"""Outside-in tracing of probesched's layers, from the benchmark's side.

Public functions are wrapped where each calling module looks them up (for
example `probesched.cli.dp_optimal` or `probesched.subsidy.index_values`),
so a call is attributed to the layer boundary it crosses.  Boundary calls
become spans with parent links; the hot leaves (`marginal_p`, `hazard`,
`belief_abnormal`, `whittle_index`) are only counted, because timing each
of their millions of calls would dominate what is measured.

A hook whose attribute the program no longer has is skipped and listed in
`missing`, so the benchmark keeps running across refactors and its counts
show what disappeared.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _sim_sizes(values, args, kwargs, _result):
    cfg = _arg(args, kwargs, 0, "config")
    r, n, t = cfg.replications, len(cfg.specs), cfg.horizon
    extra = cfg.policy == "random"  # its (R, T, N) policy draws and one stream per replication
    values["sim.generators"] += r * n + (r if extra else 0)
    values["sim.uniform_bytes"] += 8 * r * n * t * (2 if extra else 1)
    values["sim.slots"] += t


def _index_terms(values, args, kwargs, _result):
    values["subsidy.index_terms"] += _arg(args, kwargs, 1, "horizon")


def _dp_states(values, _args, _kwargs, result):
    values["oracle.dp_states"] += len(result[1])


# (module, attribute, span name, hook(values, args, kwargs, result) or None)
TIMED = [
    ("probesched.cli", "run", "sim.run", _sim_sizes),
    ("probesched.cli", "ensure_within_guard", "oracle.ensure_within_guard", None),
    ("probesched.cli", "dp_optimal", "oracle.dp_optimal", _dp_states),
    ("probesched.cli", "policy_evaluate_exact", "oracle.policy_evaluate_exact", None),
    ("probesched.cli", "solve_lambda_star", "subsidy.solve_lambda_star", None),
    ("probesched.sim", "index_values", "whittle.index_values", None),
    ("probesched.whittle", "index_values", "whittle.index_values", None),
    ("probesched.subsidy", "index_values", "whittle.index_values", _index_terms),
    ("probesched.subsidy", "optimal_stopping", "subsidy.optimal_stopping", None),
    ("probesched.policies", "select_whittle", "policies.select_whittle", None),
    ("probesched.policies", "select_myopic", "policies.select_myopic", None),
]
# (module, attribute, counter name)
COUNTED = [
    ("probesched.subsidy", "marginal_p", "subsidy.walk_steps"),
    ("probesched.sim", "hazard", "attack.hazard.calls"),
    ("probesched.oracle", "belief_abnormal", "arm.belief_abnormal.calls"),
    ("probesched.policies", "belief_abnormal", "arm.belief_abnormal.calls"),
    ("probesched.policies", "whittle_index", "whittle.whittle_index.calls"),
    ("probesched.subsidy", "whittle_index", "whittle.whittle_index.calls"),
]


class Tracer:
    """Spans and counts kept in memory while installed.

    A span is (name, parent span index or -1, op index, start, end).
    """

    def __init__(self):
        self.spans = []
        self.values = defaultdict(int)
        self.missing = []
        self.op = -1
        self._stack = []
        self._counters = defaultdict(itertools.count)
        self._saved = []

    def timed(self, name, fn, hook=None):
        spans, stack, values = self.spans, self._stack, self.values
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, parent, self.op, start, end)
            if hook is not None:
                hook(values, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        tick = self._counters[name].__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        for module, attr, name, hook in TIMED:
            self._patch(module, attr, lambda fn, n=name, h=hook: self.timed(n, fn, h))
        for module, attr, name in COUNTED:
            self._patch(module, attr, lambda fn, n=name: self._counted(n, fn))

    def _patch(self, module, attr, make):
        mod = importlib.import_module(module)
        if not hasattr(mod, attr):
            self.missing.append(f"{module}.{attr}")
            return
        fn = getattr(mod, attr)
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, make(fn))

    def uninstall(self):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def counts(self) -> dict:
        # next() on an itertools.count returns how many ticks preceded it
        return {name: next(c) for name, c in self._counters.items()}

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds (duration
        minus the time covered by its direct child spans)."""
        child = [0.0] * len(self.spans)
        for name, parent, _op, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for idx, (name, _parent, _op, start, end) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["s"] += end - start
            s["self_s"] += end - start - child[idx]
        return out

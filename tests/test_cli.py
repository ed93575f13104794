import csv
import functools
import json
import math
import operator
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import probesched
from probesched.cli import COMMANDS, main
from probesched.presets import FIG2, FIG3, FIG4, PRESETS
from helpers import child_env


def _run(args, capsys=None):
    return main(args)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_preset_parameters_golden():
    # transcribed verbatim; any drift in the presets is an error
    assert FIG2["components"] == [
        {"kind": "table", "p": [0.5, 0.7, 0.85, 0.95, 0.97, 0.975, 0.978, 0.98],
         "cost": 1.0}
    ]
    assert FIG2["horizon"] == 7
    assert FIG3["K"] == 1
    assert [c["cost"] for c in FIG3["components"]] == [0.8, 1.0, 1.2, 0.9]
    assert FIG3["components"][0]["p"] == [0.5, 0.7, 0.85, 0.95, 0.97, 0.975]
    assert FIG3["components"][1]["p"] == [0.3, 0.4, 0.48, 0.54, 0.57, 0.59]
    assert FIG3["components"][2]["p"] == [0.36, 0.46, 0.5, 0.53, 0.55, 0.56]
    assert FIG3["components"][3]["p"] == [0.6, 0.78, 0.9, 0.96, 0.98, 0.99]
    assert FIG4["K"] == 2 and len(FIG4["components"]) == 8
    assert [c["q"] for c in FIG4["components"]] == [0.2, 0.3, 0.3, 0.5, 0.6, 0.7, 0.7, 0.8]
    assert [c["cost"] for c in FIG4["components"]] == [2.5, 2.0, 1.8, 1.5, 1.2, 1.0, 0.6, 0.5]
    assert set(PRESETS) == {"fig2", "fig3", "fig4"}


def test_index_preset_output(tmp_path):
    out = tmp_path / "idx.csv"
    assert main(["index", "--preset", "fig2", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 14  # both branches over t = 1..7
    by_state = {(r["state_i"], r["state_t"]): r["index"] for r in rows}
    for t in range(2, 8):
        assert by_state[("1", str(t))] == by_state[("0", str(t - 1))]
    assert float(by_state[("1", "1")]) == 0.0
    assert float(by_state[("0", "1")]) == pytest.approx(0.375)


def test_index_single_markov_component(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "mode": "index",
        "components": [{"kind": "markov", "q": 0.5, "cost": 1.0}],
        "horizon": 2,
    })
    out = tmp_path / "idx.csv"
    assert main(["index", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out)
    vals = {(r["state_i"], r["state_t"]): float(r["index"]) for r in rows}
    assert vals[("0", "1")] == pytest.approx(0.4)
    assert vals[("0", "2")] == pytest.approx(0.888889, abs=1e-6)
    assert vals[("1", "1")] == 0.0
    assert vals[("1", "2")] == pytest.approx(0.4)


def test_zero_horizon_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "mode": "index",
        "components": [{"kind": "markov", "q": 0.5, "cost": 1.0}],
        "horizon": 0,
    })
    assert main(["index", "--config", cfg]) == 2


def test_schema_errors_name_the_field(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, {
        "mode": "index",
        "components": [{"kind": "markov", "cost": 1.0}],
        "horizon": 3,
    })
    assert main(["index", "--config", cfg]) == 2
    assert "components[0]" in capsys.readouterr().err


def test_simulate_deterministic_bytes(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "mode": "simulate",
        "components": [
            {"kind": "markov", "q": 0.4, "cost": 1.0},
            {"kind": "markov", "q": 0.7, "cost": 2.0},
        ],
        "K": 1,
        "horizon": 20,
        "replications": 30,
        "seed": 5,
        "policies": ["whittle", "myopic", "random"],
    })
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = _read_csv(out1)
    assert {r["policy"] for r in rows} == {"whittle", "myopic", "random"}
    assert len(rows) == 60


def test_simulate_zero_hazard_zero_columns(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "mode": "simulate",
        "components": [
            {"kind": "table", "p": [0.0], "cost": 1.0},
            {"kind": "table", "p": [0.0], "cost": 1.0},
        ],
        "K": 1,
        "horizon": 10,
        "replications": 5,
        "seed": 1,
        "policies": ["random"],
    })
    out = tmp_path / "z.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert all(float(r["mean_cumulative_cost"]) == 0.0 for r in _read_csv(out))


def test_oracle_small_homogeneous_gap_zero(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "mode": "oracle",
        "components": [{"kind": "markov", "q": 0.3, "cost": 1.0}] * 3,
        "K": 1,
        "horizon": 4,
        "policies": ["whittle"],
    })
    out = tmp_path / "o.csv"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    for row in _read_csv(out):
        assert float(row["whittle_rel_gap"]) == pytest.approx(0.0, abs=1e-9)


def test_oracle_gap_over_a_zero_optimum_is_infinite(tmp_path):
    # myopic, tied at belief 0, probes the never-abnormal arm in slot 1, so
    # the other is abnormal in slot 2; the optimum probes that one and pays
    # nothing, and myopic's cost of 1 once read as a 0.0 gap
    cfg = _write_cfg(tmp_path, {
        "components": [{"kind": "table", "p": [0.0], "cost": 1.0},
                       {"kind": "table", "p": [0.0, 1.0], "cost": 1.0}],
        "K": 1,
        "horizon": 2,
        "policies": ["whittle", "myopic"],
    })
    out = tmp_path / "o.csv"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    assert [[row[f] for f in ("optimal_cost", "whittle_rel_gap", "myopic_cost",
                              "myopic_rel_gap")] for row in _read_csv(out)] == [
        ["0.0", "0.0", "0.0", "0.0"], ["0.0", "0.0", "1.0", "inf"]]


def test_oracle_guard_exit_code(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "mode": "oracle",
        "components": [{"kind": "markov", "q": 0.4, "cost": 1.0}] * 8,
        "K": 2,
        "horizon": 500,
        "policies": ["whittle"],
    })
    assert main(["oracle", "--config", cfg]) == 3
    # Again, traced, now that the parser is built and the array modules are
    # loaded: the branch-entries guard refuses slot 3 at the peak that a
    # guard on the union of reachable states reached on this instance.
    tracemalloc.start()
    try:
        assert main(["oracle", "--config", cfg]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 75.8 * 2**20


def test_subsidy_homogeneous_pair(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "mode": "subsidy",
        "components": [{"kind": "markov", "q": 0.5, "cost": 1.0}] * 2,
        "K": 1,
    })
    out = tmp_path / "s.csv"
    assert main(["subsidy", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 2
    assert float(rows[0]["lambda_star"]) == pytest.approx(0.4, abs=1e-9)
    assert sum(float(r["activation_rate"]) for r in rows) == pytest.approx(1.0, abs=1e-6)


def test_subsidy_rejects_full_budget(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "mode": "subsidy",
        "components": [{"kind": "markov", "q": 0.5, "cost": 1.0}] * 2,
        "K": 2,
    })
    assert main(["subsidy", "--config", cfg]) == 2


_ARMS = [{"kind": "markov", "q": 0.5, "cost": 1.0}] * 2


def test_queueing_matches_direct_config(tmp_path):
    qcfg = _write_cfg(tmp_path, {
        "mode": "queueing",
        "queueing": {
            "servers": 1,
            "classes": [
                {"arrival": {"kind": "bernoulli", "q": 0.2}, "holding_cost": 1.0},
                {"arrival": {"kind": "bernoulli", "q": 0.5}, "holding_cost": 1.0},
                {"arrival": {"kind": "bernoulli", "q": 0.8}, "holding_cost": 2.0},
            ],
        },
        "horizon": 15,
        "replications": 10,
        "seed": 3,
        "policies": ["whittle"],
    }, "q.json")
    dcfg = _write_cfg(tmp_path, {
        "mode": "simulate",
        "components": [
            {"kind": "markov", "q": 0.2, "cost": 1.0},
            {"kind": "markov", "q": 0.5, "cost": 1.0},
            {"kind": "markov", "q": 0.8, "cost": 2.0},
        ],
        "K": 1,
        "horizon": 15,
        "replications": 10,
        "seed": 3,
        "policies": ["whittle"],
    }, "d.json")
    out_q, out_d = tmp_path / "q.csv", tmp_path / "d.csv"
    assert main(["simulate", "--config", qcfg, "--out", str(out_q)]) == 0
    assert main(["simulate", "--config", dcfg, "--out", str(out_d)]) == 0
    assert out_q.read_bytes() == out_d.read_bytes()


_CLASSES = [
    {"arrival": {"kind": "bernoulli", "q": 0.2}, "holding_cost": 1.0},
    {"arrival": {"kind": "bernoulli", "q": 0.5}, "holding_cost": 1.0},
]


def test_queueing_rejects_too_many_servers(tmp_path, capsys):
    # every subcommand reads the network, so each refuses it
    cfg = _write_cfg(tmp_path, {"mode": "queueing", "horizon": 5, "policies": ["whittle"],
                                "queueing": {"servers": 2, "classes": _CLASSES}})
    for command in COMMANDS:
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config.queueing: need an integer 1 <= servers")
        assert err.count("\n") == 1


@pytest.mark.parametrize("both", [{"components": _ARMS}, {"K": 1},
                                  {"components": _ARMS, "K": 1}],
                         ids=["components", "K", "components-and-K"])
def test_a_config_with_both_forms_is_refused(tmp_path, capsys, both):
    cfg = _write_cfg(tmp_path, {"horizon": 5, "queueing": {"servers": 1, "classes": _CLASSES},
                                **both})
    for command in COMMANDS:
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err == ("error: config.queueing: give a network or "
                                           "components and K, not both\n")


# (command, config file text or None for no file, extra flags, message)
@pytest.mark.parametrize("command, text, flags, message", [
    ("index", "{}", ["--preset", "fig2"], "give either --preset or --config, not both"),
    ("index", None, [], "cannot read config {path}: "),
    ("index", "{", [], "{path} is not valid JSON: "),
    ("index", "[]", [], "{path}: top-level JSON value must be an object"),
    ("simulate", json.dumps({"components": _ARMS, "K": 3, "horizon": 2}), [],
     "config.K: K=3 exceeds the 2 configured components"),
    ("simulate", json.dumps({"components": _ARMS, "K": 1, "horizon": 2, "policies": []}), [],
     "config.policies: expected a nonempty list of policy names"),
    ("simulate", json.dumps({"components": _ARMS, "K": 1, "horizon": 2, "policies": "whittle"}),
     [], "config.policies: expected a nonempty list of policy names"),
    ("simulate", json.dumps({"queueing": None, "horizon": 2}), [],
     "config.queueing: expected a network descriptor object, got None"),
    ("index", json.dumps({"components": _ARMS[0], "horizon": 2}), [],
     "config.components: expected list, got {"),
    ("index", json.dumps({"components": [], "K": 1, "horizon": 2}), [],
     "config.components: must not be empty"),
], ids=["preset-and-config", "unreadable", "invalid-json", "top-level-array", "k-above-n",
        "empty-policies", "policies-not-list", "no-queueing", "components-not-list",
        "components-empty"])
def test_invalid_config_exits_2(tmp_path, capsys, command, text, flags, message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert main([command, "--config", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message.replace("{path}", str(path)))
    assert err.count("\n") == 1


def test_flag_overrides(tmp_path):
    out = tmp_path / "short.csv"
    assert main(["simulate", "--preset", "fig4", "--horizon", "3",
                 "--replications", "4", "--seed", "2", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 6  # two policies x three slots


def test_missing_config_and_preset_rejected():
    assert main(["index"]) == 2


def test_unknown_preset_rejected():
    assert main(["index", "--preset", "fig9"]) == 2


def test_evaluate_mode(tmp_path):
    cfg = _write_cfg(tmp_path, {
        "mode": "evaluate",
        "components": [
            {"kind": "markov", "q": 0.5, "cost": 1.0},
            {"kind": "markov", "q": 0.3, "cost": 1.0},
        ],
        "K": 1,
        "horizon": 3,
        "policies": ["whittle", "myopic"],
    })
    out = tmp_path / "e.csv"
    assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert [r["policy"] for r in rows] == ["whittle", "myopic"]
    assert float(rows[0]["expected_cost"]) <= float(rows[1]["expected_cost"]) + 1e-9


def test_output_lines_end_with_lf(tmp_path):
    out = tmp_path / "lf.csv"
    assert main(["index", "--preset", "fig2", "--out", str(out)]) == 0
    data = out.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    assert data.splitlines()[0] == b"component,state_i,state_t,index"


@pytest.mark.parametrize("command", ["oracle", "evaluate"])
@pytest.mark.parametrize("horizon", [1, 2])
@pytest.mark.parametrize("n, k", [(16, 8), (30, 15)])
def test_oversized_layer_is_refused_before_expansion(tmp_path, capsys, command, horizon, n, k):
    # 30 arms with K = 15 once died listing the K-subsets with a MemoryError
    # traceback; 16 arms with K = 8 ran for minutes within the bound
    cfg = _write_cfg(tmp_path, {
        "components": [{"kind": "markov", "q": 0.3, "cost": 1.0}] * n,
        "K": k,
        "horizon": horizon,
    })
    start = time.perf_counter()
    assert main([command, "--config", cfg]) == 3
    assert time.perf_counter() - start < 1.0
    assert "refused" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["oracle", "evaluate"])
@pytest.mark.parametrize("bound", ["big", 0, 2.5])
def test_bad_bound_rejected(tmp_path, capsys, command, bound):
    cfg = _write_cfg(tmp_path, {
        "components": [{"kind": "markov", "q": 0.5, "cost": 1.0}] * 2,
        "K": 1,
        "horizon": 2,
        "bound": bound,
    })
    assert main([command, "--config", cfg]) == 2
    assert "config.bound" in capsys.readouterr().err


@pytest.mark.parametrize("policy", ["random", "queue"])
def test_oracle_rejects_inexact_policies(tmp_path, capsys, policy):
    cfg = _write_cfg(tmp_path, {
        "components": [{"kind": "markov", "q": 0.5, "cost": 1.0}] * 2,
        "K": 1,
        "horizon": 2,
        "policies": ["whittle", policy],
    })
    assert main(["oracle", "--config", cfg]) == 2
    assert "config.policies" in capsys.readouterr().err


@pytest.mark.parametrize("queueing", [False, True], ids=["evaluate", "queueing"])
def test_exact_evaluation_refuses_a_policy_before_building(tmp_path, capsys, monkeypatch,
                                                           queueing):
    # `evaluate` once built the graph and solved whittle before refusing queue
    builds = []
    monkeypatch.setattr(probesched.oracle, "_graph", lambda *args: builds.append(args))
    arms = [{"kind": "markov", "q": 0.5, "cost": 1.0}] * 2
    cfg = {"horizon": 2, "policies": ["whittle", "queue"]}
    if queueing:
        cfg.update(queueing={"servers": 1, "classes": [
            {"arrival": {"kind": "bernoulli", "q": 0.5}, "holding_cost": 1.0}] * 2})
    else:
        cfg.update(components=arms, K=1)
    assert main(["evaluate", "--config", _write_cfg(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == ("error: config.policies: exact evaluation supports "
                                       "whittle|myopic, got 'queue'\n")
    assert builds == []


@pytest.mark.parametrize("command", ["index", "simulate", "evaluate", "oracle", "subsidy"])
def test_infinite_cost_rejected(tmp_path, capsys, command):
    # JSON's Infinity once passed validation and came out as nan/inf rows
    cfg = _write_cfg(tmp_path, {
        "components": [{"kind": "markov", "q": 0.3, "cost": float("inf")},
                       {"kind": "markov", "q": 0.5, "cost": 1.0}],
        "K": 1,
        "horizon": 3,
    })
    assert "Infinity" in (tmp_path / "cfg.json").read_text()
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config.components[0]" in err and "cost" in err


@pytest.mark.parametrize("command", ["index", "simulate", "evaluate", "oracle", "subsidy"])
@pytest.mark.parametrize("component", ["cost", ["cost"]], ids=["string", "list"])
def test_component_that_is_no_object_rejected(tmp_path, capsys, command, component):
    # "cost" in a string or list once passed, and `obj.get` raised a traceback
    cfg = _write_cfg(tmp_path, {"components": [component], "K": 1, "horizon": 3})
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(
        "error: config.components[0]: a component descriptor must be a JSON object")


def test_config_nested_past_the_parser_limit_rejected(tmp_path, capsys):
    # once a RecursionError traceback out of `json.load`
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["index", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (f"error: {path} nests deeper than the JSON parser "
                                       "can read\n")


def test_module_entry_point_prints_csv(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "probesched.cli", "index", "--preset", "fig2"],
        capture_output=True, env=child_env(), check=False,
    )
    out = tmp_path / "idx.csv"
    assert main(["index", "--preset", "fig2", "--out", str(out)]) == 0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_bytes()


def test_evaluate_long_horizon_exits_cleanly(tmp_path, capsys):
    # the exact evaluator once recursed one level per slot and died with a
    # RecursionError traceback from horizon ~1000 on
    cfg = _write_cfg(tmp_path, {
        "components": [{"kind": "markov", "q": 0.3, "cost": 1.0}],
        "K": 1,
        "horizon": 3000,
    })
    out = tmp_path / "e.csv"
    assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert [r["horizon"] for r in _read_csv(out)] == ["3000"]


# Values that no field accepts as valid input of its own kind.
_JUNK = st.sampled_from([None, "x", -1, 0, 2.5, True, [], {}, float("nan"), float("inf"),
                         10**400])
_PROB = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_COST = st.floats(0.0, 5.0)


def _fields(value, path=()):
    """The path of every field and list entry of a JSON value, at any depth."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield (*path, key)
        yield from _fields(item, (*path, key))


@st.composite
def _config(draw, command):
    """A small config for `command`, its arms as components and K or as a
    queueing network: all fields valid, or (half the time) one of them,
    chosen by the draw at any depth, junk or missing, so a field read late
    is reached as often as one read first.  Sizes keep every example cheap:
    R·N·T <= 2·10^4 for simulations, N <= 3 and T <= 12 for the oracle,
    and T <= 1500 for `evaluate` with N <= 2, except that two arms sharing
    one probe (whose all-subsets layers grow with T) stop at 60."""
    dirty = draw(st.booleans())
    queueing = draw(st.booleans())
    relaxed = queueing or command == "subsidy"  # K < N

    def component():
        if draw(st.booleans()):
            return {"kind": "markov", "q": draw(_PROB), "cost": draw(_COST)}
        p = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
        return {"kind": "table", "p": sorted(p), "cost": draw(_COST)}

    n_max = 2 if command == "evaluate" else 3
    n = draw(st.integers(2 if relaxed else 1, n_max))
    specs = [component() for _ in range(n)]
    k = draw(st.integers(1, n - 1 if relaxed else n))
    if command == "evaluate":
        t_max = 60 if n == 2 and k == 1 else 1500
    else:
        t_max = 12 if command == "oracle" else 200
    horizon = draw(st.integers(1, t_max))
    if queueing:
        classes = [{"holding_cost": c.pop("cost"),
                    "arrival": {**c, "kind": "bernoulli"} if "q" in c else c} for c in specs]
        cfg = {"queueing": {"servers": k, "classes": classes}}
    else:
        cfg = {"components": specs, "K": k}
    cfg["horizon"] = horizon
    cfg["replications"] = draw(st.integers(1, 20_000 // (n * horizon)))
    cfg["seed"] = draw(st.integers(0, 2**32))
    names = (["whittle", "myopic"] if command in ("evaluate", "oracle")
             else ["whittle", "myopic", "queue", "random"])
    cfg["policies"] = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        cfg["bound"] = draw(st.integers(1, 10**7))
    if dirty:
        *parents, key = draw(st.sampled_from(list(_fields(cfg))))
        holder = functools.reduce(operator.getitem, parents, cfg)
        if isinstance(holder, dict) and draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = draw(_JUNK)
    return cfg


@pytest.mark.parametrize("command", ["index", "simulate", "evaluate", "oracle", "subsidy"])
def test_cli_fuzz_exits_with_a_documented_code(tmp_path, capsys, command):
    path = tmp_path / "cfg.json"
    codes = []

    @settings(derandomize=True, max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_config(command))
    def check(cfg):
        path.write_text(json.dumps(cfg))
        code = main([command, "--config", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (cfg, err)
        assert "Traceback" not in err
        codes.append(code)

    check()
    assert 0 in codes and 2 in codes  # both valid and invalid configs were run


@pytest.mark.parametrize("command", ["simulate", "evaluate", "oracle"])
def test_overflowing_costs_rejected(tmp_path, capsys, command):
    # finite costs this large once printed inf/nan rows with exit 0
    cfg = _write_cfg(tmp_path, {
        "components": [{"kind": "markov", "q": 0.3, "cost": 1e308},
                       {"kind": "markov", "q": 0.5, "cost": 1e308}],
        "K": 1,
        "horizon": 3,
        "replications": 4,
    })
    assert main([command, "--config", cfg]) == 2
    assert "config.components" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "evaluate", "oracle"])
def test_large_costs_below_the_limit_stay_finite(tmp_path, command):
    cfg = _write_cfg(tmp_path, {
        "components": [{"kind": "markov", "q": 0.3, "cost": 1e150},
                       {"kind": "markov", "q": 0.5, "cost": 2e150}],
        "K": 1,
        "horizon": 3,
        "replications": 4,
    })
    out = tmp_path / "big.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    values = [float(v) for row in _read_csv(out) for k, v in row.items()
              if k not in ("policy", "slot", "horizon")]
    assert values and all(math.isfinite(v) for v in values)


# the columns that are costs, and scale with them
_COST_COLUMNS = {"mean_cumulative_cost", "stderr", "expected_cost", "optimal_cost", "whittle_cost",
                 "myopic_cost", "lambda_star"}


@pytest.mark.parametrize("e", [-40, 30])
def test_a_power_of_two_cost_scale_scales_exactly_the_cost_columns(tmp_path, e):
    # every cost enters linearly, so with every cost x 2^e each cost column
    # (means, standard errors, exact costs, lambda*) is the unscaled one x
    # 2^e bit for bit, and every other column keeps its bytes; an absolute
    # tie margin once made the optimum pick other subsets at small scales
    runs = [("simulate", FIG4, ["--horizon", "60", "--replications", "200"]),
            ("oracle", FIG3, ["--horizon", "8"]), ("evaluate", FIG3, ["--horizon", "8"]),
            ("subsidy", FIG4, [])]
    scaled = 0
    for command, preset, flags in runs:
        tables = []
        for scale in (0, e):
            cfg = dict(preset, components=[dict(c, cost=math.ldexp(c["cost"], scale))
                                           for c in preset["components"]])
            out = tmp_path / f"{command}{scale}.csv"
            assert main([command, "--config", _write_cfg(tmp_path, cfg), *flags,
                         "--out", str(out)]) == 0
            tables.append(_read_csv(out))
        for want, got in zip(*tables, strict=True):
            assert list(got) == list(want)
            for column, value in want.items():
                if column in _COST_COLUMNS:
                    assert float(got[column]) == math.ldexp(float(value), e), (command, column)
                    scaled += 1
                else:
                    assert got[column] == value, (command, column)
    assert scaled > 200


def test_simulate_refuses_an_oversized_uniform_block(capsys):
    # R·N·T = 2000 · 8 · 2e6 uniforms: once a 238 GiB allocation and a traceback
    start = time.perf_counter()
    assert main(["simulate", "--preset", "fig4", "--horizon", "2000000"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "refused" in capsys.readouterr().err


def test_simulate_refuses_many_streams_at_horizon_one(capsys):
    # R·N = 2^23 streams draw only 2^23 uniforms at T = 1, but the guard
    # counts each one's state as 20 draws (160 B; it peaks at about 128 B)
    start = time.perf_counter()
    argv = ["simulate", "--preset", "fig4", "--replications", str(2**20), "--horizon", "1"]
    assert main(argv) == 3
    assert time.perf_counter() - start < 1.0
    assert "refused" in capsys.readouterr().err


def test_index_refuses_an_oversized_table(capsys):
    # 2 x N x horizon rows: once a MemoryError traceback with exit 1
    start = time.perf_counter()
    assert main(["index", "--preset", "fig2", "--horizon", "100000000"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "refused" in capsys.readouterr().err


def test_rows_stream_out_as_they_are_made(tmp_path):
    # 50,000 index rows, held whole, take about 5 MiB; streamed, the
    # write peaks near 0.2 MiB
    out = tmp_path / "idx.csv"
    main(["index", "--preset", "fig2", "--horizon", "1", "--out", str(out)])  # builds the parser
    tracemalloc.start()
    try:
        assert main(["index", "--preset", "fig2", "--horizon", "25000", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.read_bytes().splitlines()) == 1 + 50_000
    assert peak < 2**20


def test_index_errors_come_before_the_first_byte(tmp_path):
    out = tmp_path / "out.csv"
    good = {"kind": "markov", "q": 0.5, "cost": 1.0}
    bad = _write_cfg(tmp_path, {"components": [good, {"kind": "markov", "cost": 1.0}],
                                "horizon": 3})
    assert main(["index", "--config", bad, "--out", str(out)]) == 2
    assert main(["index", "--preset", "fig2", "--horizon", "100000000", "--out", str(out)]) == 3
    assert not out.exists()


def test_an_unwritable_out_path_is_a_validation_error(tmp_path, capsys):
    # a missing directory and a directory: one error line, exit 2, no traceback
    for out in (tmp_path / "missing" / "out.csv", tmp_path):
        assert main(["index", "--preset", "fig2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_a_closed_stdout_is_a_validation_error():
    # a reader that stops after the header once met a BrokenPipeError
    # traceback and exit 1; the flush at exit must stay quiet too
    proc = subprocess.Popen(
        [sys.executable, "-m", "probesched.cli", "index", "--preset", "fig2",
         "--horizon", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    assert proc.stdout.readline() == b"component,state_i,state_t,index\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == b"error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_simulate_errors_come_before_the_first_byte(tmp_path, monkeypatch):
    # the rows stream out policy by policy, so every policy's config, the
    # size guard and the cost bound are checked before any run starts
    out = tmp_path / "out.csv"
    runs = []
    monkeypatch.setattr(probesched.cli, "run", runs.append)
    arms = [{"kind": "markov", "q": 0.5, "cost": 1.0}] * 2
    base = {"components": arms, "K": 1, "horizon": 3, "replications": 2}
    for bad, code in (({"policies": ["whittle", "optimal"]}, 2),
                      ({"seed": -1}, 2),
                      ({"components": [{"kind": "markov", "q": 0.5, "cost": 1e300}] * 2}, 2),
                      ({"horizon": 2**27}, 3)):
        cfg = _write_cfg(tmp_path, {**base, **bad})
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == code
    queue = {"queueing": {"servers": 1, "classes": [
        {"arrival": {"kind": "bernoulli", "q": 0.5}, "holding_cost": 1.0}] * 2}}
    cfg = _write_cfg(tmp_path, {**queue, "horizon": 2**27, "replications": 2})
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    assert not out.exists()
    assert runs == []


def test_simulate_negative_seed_exits_promptly(capsys):
    start = time.perf_counter()
    assert main(["simulate", "--preset", "fig4", "--seed", "-1"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: config.seed: must be >= 0, got -1\n"


# Imports the CLI, then runs each op in argv[2] (JSON) with --out
# argv[1]/<op>.csv; prints whether numpy was loaded after the import and
# after each op.
_NUMPY_FREE_CHILD = """
import json, sys
import probesched.cli as cli
loaded = ["numpy" in sys.modules]
for op, argv in json.loads(sys.argv[2]).items():
    assert cli.main([*argv, "--out", f"{sys.argv[1]}/{op}.csv"]) == 0
    loaded.append("numpy" in sys.modules)
print(*loaded)
"""
# A benchmark tracer's view: the hooked names resolve on the module before
# any op runs, and a wrapper set on `dp_optimal` is what `oracle` calls.
_TRACER_CHILD = """
import sys
import probesched.cli as cli
hooks = ("dp_optimal", "policy_evaluate_exact", "run", "solve_lambda_star")
resolved = [callable(getattr(cli, name)) for name in hooks]
solve, horizons = cli.dp_optimal, []
def counted(specs, initial, k, horizon, *rest):
    horizons.append(horizon)
    return solve(specs, initial, k, horizon, *rest)
cli.dp_optimal = counted
code = cli.main(["oracle", "--preset", "fig3", "--horizon", "4", "--out", sys.argv[1]])
print(*resolved, code, *horizons)
"""


def test_index_and_subsidy_run_without_numpy(tmp_path):
    cfg = _write_cfg(tmp_path, {"components": [{"kind": "markov", "q": 0.3, "cost": 1.0},
                                               {"kind": "table", "p": [0.2, 0.5], "cost": 0.7}],
                                "K": 1})
    ops = {"index": ["index", "--preset", "fig2"], "subsidy": ["subsidy", "--config", cfg]}
    child, here = tmp_path / "child", tmp_path / "here"
    child.mkdir()
    here.mkdir()
    proc = subprocess.run([sys.executable, "-c", _NUMPY_FREE_CHILD, str(child), json.dumps(ops)],
                          capture_output=True, env=child_env(), check=True, text=True)
    assert proc.stdout.split() == ["False", "False", "False"]
    for op, argv in ops.items():
        assert main([*argv, "--out", str(here / f"{op}.csv")]) == 0
        assert (child / f"{op}.csv").read_bytes() == (here / f"{op}.csv").read_bytes()

    out = tmp_path / "oracle.csv"
    proc = subprocess.run([sys.executable, "-c", _TRACER_CHILD, str(out)],
                          capture_output=True, env=child_env(), check=True, text=True)
    assert proc.stdout.split() == ["True"] * 4 + ["0", "4", "3", "2", "1"]
    assert main(["oracle", "--preset", "fig3", "--horizon", "4",
                 "--out", str(here / "oracle.csv")]) == 0
    assert out.read_bytes() == (here / "oracle.csv").read_bytes()


def test_simulate_leaves_numpy_random_unloaded(tmp_path):
    # every simulator stream is an array PCG64 inside `sim`, so no numpy
    # Generator is built: fig4's preset, then the queue and random policies
    cfg = _write_cfg(tmp_path, {**FIG4, "policies": ["queue", "random"]})
    tiny = ["--replications", "3", "--horizon", "6", "--out", str(tmp_path / "sim.csv")]
    code = ("import sys; from probesched.cli import main; "
            f"codes = [main(['simulate', '--preset', 'fig4', *{tiny!r}]), "
            f"main(['simulate', '--config', {cfg!r}, *{tiny!r}])]; "
            "print(*codes, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, env=child_env(), check=True, text=True)
    assert proc.stdout.split() == ["0", "0", "False"]


def test_flag_override_does_not_carry_over_to_the_next_call(tmp_path):
    # one parser serves every call of a process; each call parses afresh
    short, default = tmp_path / "short.csv", tmp_path / "default.csv"
    assert main(["index", "--preset", "fig2", "--horizon", "3", "--out", str(short)]) == 0
    assert main(["index", "--preset", "fig2", "--out", str(default)]) == 0
    assert len(_read_csv(short)) == 6
    assert len(_read_csv(default)) == 2 * FIG2["horizon"]


def test_bad_argv_leaves_the_next_call_unchanged(tmp_path, capsys):
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    argv = ["subsidy", "--config", _write_cfg(tmp_path, {
        "components": [{"kind": "markov", "q": 0.3, "cost": 1.0},
                       {"kind": "markov", "q": 0.6, "cost": 0.7}],
        "K": 1,
    })]
    assert main([*argv, "--out", str(first)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["index", "--horizon", "three", "--bogus"])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err
    assert main([*argv, "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


def test_cli_import_builds_no_parser():
    # the parser is built by the first `main` call, not at import
    proc = subprocess.run(
        [sys.executable, "-c",
         "import probesched.cli as cli; print(cli._parser.cache_info().currsize)"],
        capture_output=True, env=child_env(), check=True, text=True,
    )
    assert proc.stdout.strip() == "0"


# The config fields each subcommand reads that a flag may override.
_FLAGS_READ = {"index": ["horizon"], "simulate": ["seed", "replications", "horizon"],
               "evaluate": ["horizon"], "oracle": ["horizon"], "subsidy": []}


@pytest.mark.parametrize("command", _FLAGS_READ)
def test_each_subcommand_takes_only_the_flags_it_reads(tmp_path, capsys, command):
    reads = _FLAGS_READ[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = {word for word in capsys.readouterr().out.split() if word.startswith("--")}
    assert listed == {"--help", "--config", "--preset", "--out", *(f"--{f}" for f in reads)}

    # an unknown flag is reported with this subcommand's usage, which lists its flags
    for flag in ["bogus", *{"seed", "replications", "horizon"}.difference(reads)]:
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "fig3", f"--{flag}", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: probesched {command} [-h] [--config CONFIG]")
        assert err.endswith(f"probesched {command}: error: unrecognized arguments: --{flag} 2\n")

    # each flag it reads overrides its field, as the field set in the config would
    base = {"components": FIG3["components"][:3], "K": 1, "horizon": 3, "replications": 4,
            "seed": 1}
    values = {"seed": 5, "replications": 2, "horizon": 2}
    flagged, edited, plain = (tmp_path / f"{n}.csv" for n in ("flagged", "edited", "plain"))
    cfg = _write_cfg(tmp_path, base)
    flags = [arg for f in reads for arg in (f"--{f}", str(values[f]))]
    assert main([command, "--config", cfg, *flags, "--out", str(flagged)]) == 0
    assert main([command, "--config", cfg, "--out", str(plain)]) == 0
    edited_cfg = _write_cfg(tmp_path, {**base, **{f: values[f] for f in reads}}, "edited.json")
    assert main([command, "--config", edited_cfg, "--out", str(edited)]) == 0
    assert flagged.read_bytes() == edited.read_bytes()
    assert (flagged.read_bytes() != plain.read_bytes()) == bool(reads)


_TOP_USAGE = "usage: probesched [-h] {index,simulate,evaluate,oracle,subsidy} ...\n"
# argv -> (exit code, stdout, stderr) at 80 columns, recorded when every
# argv went through the top-level parser and its subparsers; parsing a known
# subcommand with its own parser alone must give the same bytes.
_PARSES = {
    "index --preset fig2 --horizon 2": (0, (
        "component,state_i,state_t,index\n"
        "0,0,1,0.3749999999999999\n"
        "0,0,2,0.7956521739130433\n"
        "0,1,1,0.0\n"
        "0,1,2,0.3749999999999999\n"), ""),
    "simulate --preset fig4 --horizon 2 --replications 3 --seed 4": (0, (
        "policy,slot,mean_cumulative_cost,stderr\n"
        "whittle,1,4.366666666666667,0.5206833117271106\n"
        "whittle,2,9.666666666666666,0.8192137151629679\n"
        "myopic,1,4.366666666666667,0.5206833117271106\n"
        "myopic,2,9.299999999999999,0.871779788708135\n"), ""),
    "evaluate --preset fig3 --horizon 2": (0, (
        "policy,horizon,expected_cost\n"
        "whittle,2,3.4000000000000004\n"
        "myopic,2,3.4000000000000004\n"), ""),
    "oracle --preset fig3 --horizon 2": (0, (
        "horizon,optimal_cost,whittle_cost,whittle_rel_gap,myopic_cost,myopic_rel_gap\n"
        "1,1.672,1.672,0.0,1.672,0.0\n"
        "2,3.4000000000000004,3.4000000000000004,0.0,3.4000000000000004,0.0\n"), ""),
    "subsidy --preset fig4": (0, (
        "arm,t0_star,activation_rate,mixing,lambda_star\n"
        "0,2,0.3606974362014823,0.6343911958714348,1.1524822695035453\n"
        "1,2,0.39840637450199207,0.0,1.1524822695035453\n"
        "2,3,0.27344818156959255,0.0,1.1524822695035453\n"
        "3,2,0.36363636363636365,0.0,1.1524822695035453\n"
        "4,2,0.35211267605633806,0.0,1.1524822695035453\n"
        "5,3,0.2516989680342311,0.0,1.1524822695035453\n"
        "6,10000,0.0,0.0,1.1524822695035453\n"
        "7,10000,0.0,0.0,1.1524822695035453\n"), ""),
    "subsidy -h": (0, (
        "usage: probesched subsidy [-h] [--config CONFIG] [--preset PRESET] [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help       show this help message and exit\n"
        "  --config CONFIG  JSON experiment config\n"
        "  --preset PRESET  built-in preset: fig2 | fig3 | fig4\n"
        "  --out OUT        output CSV path (default: stdout)\n"), ""),
    "subsidy --preset fig4 --bogus 1": (2, "", (
        "usage: probesched subsidy [-h] [--config CONFIG] [--preset PRESET] [--out OUT]\n"
        "probesched subsidy: error: unrecognized arguments: --bogus 1\n")),
    "index --preset": (2, "", (
        "usage: probesched index [-h] [--config CONFIG] [--preset PRESET]\n"
        "                        [--horizon HORIZON] [--out OUT]\n"
        "probesched index: error: argument --preset: expected one argument\n")),
    "": (2, "", _TOP_USAGE + (
        "probesched: error: the following arguments are required: command\n")),
    "bogus --preset fig4": (2, "", _TOP_USAGE + (
        "probesched: error: argument command: invalid choice: 'bogus' "
        "(choose from 'index', 'simulate', 'evaluate', 'oracle', 'subsidy')\n")),
    "-h": (0, _TOP_USAGE + (
        "\n"
        "Index-policy probe scheduling: indices, simulation, exact oracles.\n"
        "\n"
        "positional arguments:\n"
        "  {index,simulate,evaluate,oracle,subsidy}\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"), ""),
}


@pytest.mark.parametrize("argv", _PARSES)
def test_each_argv_gives_the_recorded_exit_and_output(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == _PARSES[argv]


@pytest.mark.parametrize("command", ["simulate", "evaluate", "oracle"])
def test_a_policy_listed_twice_is_refused(tmp_path, capsys, command):
    # it once wrote the policy's `oracle` columns twice and ran it twice in `simulate`
    cfg = _write_cfg(tmp_path, {"components": _ARMS, "K": 1, "horizon": 2,
                                "policies": ["whittle", "myopic", "whittle"]})
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == ("error: config.policies: 'whittle' is listed "
                                       "more than once\n")


_HUGE = 10**400  # a JSON integer past float range


@pytest.mark.parametrize("command", ["index", "simulate", "evaluate", "oracle"])
def test_a_horizon_past_float_range_is_refused(tmp_path, capsys, command):
    # simulate, evaluate and oracle once died with an OverflowError traceback
    code, message = (3, "refused: ") if command == "index" else (
        2, "error: config.horizon or config.replications: ")
    for horizon, flags in ((_HUGE, []), (3, ["--horizon", str(_HUGE)])):
        cfg = _write_cfg(tmp_path, {"components": _ARMS, "K": 1, "horizon": horizon})
        assert main([command, "--config", cfg, *flags]) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1


def test_replications_past_float_range_are_refused(tmp_path, capsys):
    for cfg_reps, flags in ((_HUGE, []), (2, ["--replications", str(_HUGE)])):
        cfg = _write_cfg(tmp_path, {"components": _ARMS, "K": 1, "horizon": 3,
                                    "replications": cfg_reps})
        assert main(["simulate", "--config", cfg, *flags]) == 2
        assert capsys.readouterr().err == ("error: config.horizon or config.replications: "
                                           "int too large to convert to float\n")


@pytest.mark.parametrize("command", _FLAGS_READ)
def test_a_component_number_past_float_range_is_refused(tmp_path, capsys, command):
    # a cost, q or table entry past float range once raised an OverflowError
    # traceback, in a component and in a queueing class alike
    good = {"kind": "markov", "q": 0.5, "cost": 1.0}
    for bad in ({"kind": "markov", "q": _HUGE, "cost": 1.0},
                {"kind": "markov", "q": 0.5, "cost": _HUGE},
                {"kind": "table", "p": [0.5, _HUGE], "cost": 1.0}):
        cls = {"holding_cost": bad["cost"],
               "arrival": {k: v for k, v in bad.items() if k != "cost"}}
        for cfg, where in (({"components": [bad, good], "K": 1}, "config.components[0]: "),
                           ({"queueing": {"servers": 1, "classes": [cls, cls]}},
                            "config.queueing: classes[0]: ")):
            path = _write_cfg(tmp_path, {**cfg, "horizon": 3})
            assert main([command, "--config", path]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: " + where) and err.count("\n") == 1


@pytest.mark.parametrize("command", ["index", "evaluate"])
@pytest.mark.parametrize("bad, field", [
    ({"kind": "table", "p": {"0.3": 0, "0.6": 0}, "cost": 1.0}, "a list of numbers 'p'"),
    ({"kind": "table", "p": "1", "cost": 1.0}, "a list of numbers 'p'"),
    ({"kind": "table", "p": [0.2, True], "cost": 1.0}, "a list of numbers 'p'"),
    ({"kind": "markov", "q": "0.5", "cost": 1.0}, "a number 'q'"),
    ({"kind": "markov", "q": 0.5, "cost": "2"}, "a number 'cost'"),
    ({"kind": "markov", "q": 0.5, "cost": True}, "a number 'cost'"),
], ids=["p-object", "p-string", "p-bool", "q-string", "cost-string", "cost-bool"])
def test_a_component_field_that_is_no_number_is_refused(tmp_path, capsys, command, bad, field):
    # each was once read through `float` or `tuple`, and the op exited 0;
    # a class's cost is its `holding_cost`, and its message once said 'cost'
    good = {"kind": "markov", "q": 0.5, "cost": 1.0}
    cls = {"holding_cost": bad["cost"], "arrival": {k: v for k, v in bad.items() if k != "cost"}}
    for cfg, where, name in (({"components": [bad, good], "K": 1}, "config.components[0]: ", field),
                             ({"queueing": {"servers": 1, "classes": [cls, cls]}},
                              "config.queueing: classes[0]: ",
                              field.replace("'cost'", "'holding_cost'"))):
        path = _write_cfg(tmp_path, {**cfg, "horizon": 3})
        assert main([command, "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + where) and name in err and err.count("\n") == 1


@pytest.mark.parametrize("cost", ["-1", "NaN", "Infinity", "1e400"])
def test_a_holding_cost_out_of_range_is_named(tmp_path, capsys, cost):
    # each was once reported as 'cost', the component field a class maps it to
    cls = '{"arrival": {"kind": "bernoulli", "q": 0.5}, "holding_cost": %s}' % cost
    path = tmp_path / "cfg.json"
    path.write_text('{"queueing": {"servers": 1, "classes": [%s, %s]}, "horizon": 2}' % (cls, cls))
    for command in COMMANDS:
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: config.queueing: classes[0]: class needs a number 'holding_cost', finite "
            "and nonnegative, got ")


def test_readme_json_examples_run_under_simulate(tmp_path):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    examples = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    assert len(examples) >= 2  # the components form and the queueing form
    for idx, text in enumerate(examples):
        cfg = tmp_path / f"readme{idx}.json"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--out", os.devnull]) == 0, text

import functools
import hashlib
import itertools
import json
import os
import re
import time
import tracemalloc

import numpy as np
import pytest

from probesched import (
    ArmState,
    ComponentSpec,
    MarkovIID,
    SearchSpaceError,
    Table,
    belief_abnormal,
    dp_optimal,
    policy_evaluate_exact,
)
import probesched.oracle
import probesched.policies
from probesched.cli import main
from probesched.oracle import (DEFAULT_BOUND, EXACT_POLICIES, _caps, _chosen, _graph, _iterate,
                               _rank_picks, exact_graph)
from probesched.policies import belief_codes, queue_init, select_whittle, whittle_policy
from probesched.presets import FIG3
from probesched.subsidy import relaxed_select, single_arm_q, solve_lambda_star
from probesched.whittle import index_rows, index_values
from helpers import markov_spec, myopic_policy


def _fresh(n):
    return [ArmState(0, 1)] * n


def value_monotonicity_probe(specs, k, horizon, trials, seed=0):
    """Check that the index policy's exact value never decreases when one
    arm's elapsed time (hence its abnormal belief) is bumped up.  Random
    joint states; True iff no violation is found."""
    rng = np.random.default_rng(seed)
    pol = whittle_policy(specs, k)
    n = len(specs)
    for _ in range(trials):
        base = [
            ArmState(int(rng.integers(0, 2)), int(rng.integers(1, 5)))
            for _ in range(n)
        ]
        arm = int(rng.integers(0, n))
        bump = int(rng.integers(1, 3))
        bumped = list(base)
        bumped[arm] = ArmState(base[arm].i, base[arm].t + bump)
        v_base = policy_evaluate_exact(specs, base, k, horizon, pol)
        v_bump = policy_evaluate_exact(specs, bumped, k, horizon, pol)
        if v_bump < v_base - 1e-9:
            return False
    return True


@pytest.mark.parametrize("call, message", [
    (lambda: dp_optimal([markov_spec()] * 2, [ArmState(0, 1)] * 2, 1, horizon=0),
     "horizon must be >= 1, got 0"),
    (lambda: index_values(markov_spec(), -1), "horizon must be >= 0, got -1"),
    (lambda: list(index_rows(markov_spec(), 0)), "horizon must be >= 1, got 0"),
    (lambda: single_arm_q(markov_spec(), 0.5, ArmState(0, 1), 0), "horizon must be >= 1, got 0"),
    (lambda: single_arm_q(markov_spec(), 0.5, ArmState(0, 0), 5), "undefined at the (0,0) sentinel"),
    (lambda: select_whittle([markov_spec()] * 2, [ArmState(0, 1)], 1), "2 specs but 1 states"),
    # a 4th state was once ignored, a 2nd short one a numpy broadcast error
    (lambda: dp_optimal([markov_spec(0.3)] * 3, _fresh(4), 1, 3), "3 specs but 4 states"),
    (lambda: dp_optimal([markov_spec(0.3)] * 3, _fresh(2), 1, 3), "3 specs but 2 states"),
    (lambda: relaxed_select([markov_spec(0.3)] * 3, _fresh(4),
                            solve_lambda_star([markov_spec(0.3)] * 3, 1), None),
     "3 specs but 4 states"),
    # once "'NoneType' object is not callable", after the uncapped twin was built
    (lambda: policy_evaluate_exact(_fig3_specs(), _fresh(4), 1, 8, None), "unknown policy None"),
    (lambda: queue_init(0, []), "need N >= 1, got 0"),
    # each was once read through `float`: ("0.3", True) was (0.3, 1.0)
    (lambda: Table(("0.3", 0.5)), "p(1) must be a number, got '0.3'"),
    (lambda: Table((0.3, True)), "p(2) must be a number, got True"),
    (lambda: ComponentSpec(MarkovIID(0.3), "2"), "cost must be a number, got '2'"),
    (lambda: ComponentSpec(MarkovIID(0.3), True), "cost must be a number, got True"),
], ids=["dp-horizon-0", "index-values-negative", "index-rows-0", "single-arm-horizon-0",
        "single-arm-sentinel", "select-short-states", "dp-long-states", "dp-short-states",
        "relaxed-long-states", "evaluate-no-policy", "queue-no-arms", "table-string",
        "table-bool", "cost-string", "cost-bool"])
def test_library_rejects_invalid_arguments(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_single_slot_cost_is_sum_of_beliefs():
    specs = [markov_spec(0.5), markov_spec(0.3)]
    value, _ = dp_optimal(specs, _fresh(2), 1, 1)
    assert value == pytest.approx(0.8, abs=1e-12)


def test_graph_slot_costs_match_the_scalar_beliefs():
    # each union state's slot cost, bitwise, against beliefs computed one arm at a time
    rng = np.random.default_rng(5)
    count = 0
    for _ in range(30):
        n = int(rng.integers(1, 4))
        specs = [markov_spec(float(rng.uniform(0.05, 0.95)), float(rng.uniform(0, 3)))
                 if rng.random() < 0.5 else
                 ComponentSpec(Table(tuple(np.sort(rng.uniform(0, 1, 3)).tolist())),
                               float(rng.uniform(0, 3)))
                 for _ in range(n)]
        initial = [ArmState(int(rng.integers(0, 2)), int(rng.integers(1, 5))) for _ in range(n)]
        k, horizon = int(rng.integers(1, n + 1)), int(rng.integers(1, 5))
        width, _s, states, costs, ends, _e = _graph(specs, initial, k, horizon, 10**7)
        assert len(costs) == len(states) == ends[-1] and len(ends) == horizon
        for codes, got in zip(states.tolist(), costs.tolist()):
            want = sum(s.cost * belief_abnormal(s, ArmState(*divmod(c, width)))
                       for s, c in zip(specs, codes))
            assert repr(got) == repr(want)
            count += 1
    assert count > 200


def test_single_slot_all_policies_equal():
    specs = [markov_spec(0.5), markov_spec(0.3), markov_spec(0.7)]
    opt, _ = dp_optimal(specs, _fresh(3), 1, 1)
    for pol in (whittle_policy(specs, 1), myopic_policy(specs, 1)):
        assert policy_evaluate_exact(specs, _fresh(3), 1, 1, pol) == pytest.approx(
            opt, abs=1e-12
        )


def test_zero_hazard_means_zero_cost():
    specs = [ComponentSpec(Table((0.0,)), 1.0)] * 2
    opt, _ = dp_optimal(specs, _fresh(2), 1, 5)
    assert opt == 0.0
    val = policy_evaluate_exact(specs, _fresh(2), 1, 5, myopic_policy(specs, 1))
    assert val == 0.0


def test_dp_lower_bounds_every_policy():
    rng = np.random.default_rng(3)
    for trial in range(6):
        n = int(rng.integers(2, 4))
        specs = [markov_spec(float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.5, 2))) for _ in range(n)]
        k = int(rng.integers(1, n))
        horizon = int(rng.integers(2, 5))
        opt, _ = dp_optimal(specs, _fresh(n), k, horizon)
        for pol in (whittle_policy(specs, k), myopic_policy(specs, k)):
            val = policy_evaluate_exact(specs, _fresh(n), k, horizon, pol)
            assert val >= opt - 1e-9


def test_dp_invariant_under_relabeling():
    specs = [markov_spec(0.3, 1.0), markov_spec(0.6, 2.0), markov_spec(0.8, 0.5)]
    initial = [ArmState(0, 2), ArmState(1, 3), ArmState(0, 1)]
    base, _ = dp_optimal(specs, initial, 1, 4)
    for perm in itertools.permutations(range(3)):
        value, _ = dp_optimal([specs[p] for p in perm], [initial[p] for p in perm], 1, 4)
        assert value == pytest.approx(base, abs=1e-9)


def test_homogeneous_whittle_is_optimal():
    specs = [markov_spec(0.5)] * 2
    opt, _ = dp_optimal(specs, _fresh(2), 1, 2)
    val = policy_evaluate_exact(specs, _fresh(2), 1, 2, whittle_policy(specs, 1))
    assert val == pytest.approx(opt, abs=1e-9)

    specs = [markov_spec(0.3)] * 3
    opt, _ = dp_optimal(specs, _fresh(3), 1, 5)
    val = policy_evaluate_exact(specs, _fresh(3), 1, 5, whittle_policy(specs, 1))
    assert val == pytest.approx(opt, abs=1e-9)

    # past criterion 4's T <= 6
    for n, k, q, horizon in [(3, 1, 0.3, 10), (4, 2, 0.5, 8)]:
        specs = [markov_spec(q)] * n
        opt, _ = dp_optimal(specs, _fresh(n), k, horizon)
        val = policy_evaluate_exact(specs, _fresh(n), k, horizon, whittle_policy(specs, k))
        assert val == pytest.approx(opt, abs=1e-9)


def test_guard_refuses_oversized_instances():
    specs = [markov_spec(0.4)] * 8
    with pytest.raises(SearchSpaceError) as err:
        dp_optimal(specs, _fresh(8), 2, 500)
    assert err.value.count > 0
    with pytest.raises(SearchSpaceError):
        policy_evaluate_exact(
            specs, _fresh(8), 2, 500, whittle_policy(specs, 2)
        )


def test_guard_bounds_the_branch_entries_of_all_layers(tmp_path):
    # every layer of this instance passes a per-layer check; the graph once
    # grew to 3.99M states (~32M branch entries, ~3 s, ~290 MiB) unrefused
    specs = [markov_spec(0.3), markov_spec(0.6)]
    start = time.perf_counter()
    with pytest.raises(SearchSpaceError, match="branch entries"):
        dp_optimal(specs, _fresh(2), 1, 1000)
    assert time.perf_counter() - start < 2.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "components": [{"kind": "markov", "q": q, "cost": 1.0} for q in (0.3, 0.6)],
        "K": 1,
        "horizon": 1000,
    }))
    start = time.perf_counter()
    assert main(["oracle", "--config", str(cfg)]) == 3
    assert time.perf_counter() - start < 2.0


def _markov_cfg(tmp_path, qs, horizon):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"components": [{"kind": "markov", "q": q, "cost": 1.0} for q in qs],
                               "K": 1, "horizon": horizon}))
    return str(cfg)


def test_guard_charges_each_slot(tmp_path):
    # one Markov arm holds 2 states a slot, so it passed both counts up to
    # T = 10^6 (2M belief entries, about 4M branch entries), at about 107 us
    # and 1.1 KB a slot: 4.3 s and a 73 MiB peak at T = 40,000
    start = time.perf_counter()
    assert main(["evaluate", "--config", _markov_cfg(tmp_path, [0.3], 50_000)]) == 3
    assert time.perf_counter() - start < 1.0
    with pytest.raises(SearchSpaceError, match="branch entries"):
        dp_optimal([markov_spec(0.3)], _fresh(1), 1, 10**6)


def test_guard_refuses_before_building_any_table():
    # K = N = 16 fails slot 0's count, yet its 2^K outcome table (8 MB) was
    # once built before the count was checked
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceError, match="branch entries"):
            dp_optimal([markov_spec(0.3)] * 16, _fresh(16), 16, 1, bound=10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_oracle_op_bounds_its_sweeps(tmp_path, capsys):
    # one value iteration per method gives every horizon, where the op once
    # swept every horizon's prefix again, so its time grew with T^2: one arm
    # at T = 1000 took 10.9 s and was refused, two arms at T = 500 17.3 s
    out = str(tmp_path / "oracle.csv")
    for qs, horizon, code in [([0.3], 1000, 0), ([0.3, 0.4], 500, 0), ([0.3, 0.4], 700, 3),
                              ([0.3], 100, 0)]:
        start = time.perf_counter()
        assert main(["oracle", "--config", _markov_cfg(tmp_path, qs, horizon), "--out", out]) == code
        assert time.perf_counter() - start < 2.0
        assert ("sweep entries" in capsys.readouterr().err) == (code == 3)
    # (0, 1) has two branches and (1, 1), seen abnormal, one; step h reads
    # those of depth <= 250 - h: 3 each in steps 2..249, 2 in step 250
    with pytest.raises(SearchSpaceError, match="sweep entries") as err:
        exact_graph([markov_spec(0.3)], _fresh(1), 1, 250, bound=500_000, solves=3)
    assert err.value.count == 3 * (1024 * 250 + 248 * 3 + 2) == 770_238
    exact_graph([markov_spec(0.3)], _fresh(1), 1, 250, bound=500_000)


def _refusal(err: str):
    """(count, what) of a refusal's stderr line, or None."""
    match = re.match(r"refused: search space too large: (\d+) (\w+ entries)", err)
    return match and (int(match[1]), match[2])


@pytest.mark.parametrize("command, horizon, refusal", [
    ("oracle", 15, None), ("oracle", 17, None), ("oracle", 68, None),
    ("oracle", 69, (10_044_300, "sweep entries")),
    ("evaluate", 16, None), ("evaluate", 177, None),
    ("evaluate", 178, (10_003_304, "branch entries"))])
def test_fig3_exact_limits(capsys, command, horizon, refusal):
    # the capped graph holds 7,009 states from T = 12 on, so the counts grow
    # only by the steps that read them; oracle's three solves (the optimum,
    # whittle, myopic) refuse T = 69 by their sweeps
    code = main([command, "--preset", "fig3", "--horizon", str(horizon), "--out", os.devnull])
    assert code == (0 if refusal is None else 3)
    assert _refusal(capsys.readouterr().err) == refusal


@pytest.mark.parametrize("n, k, limits", [(2, 1, {"evaluate": 759, "oracle": 462}),
                                          (3, 2, {"evaluate": 258, "oracle": 181}),
                                          (4, 3, {"evaluate": 96, "oracle": 79})])
def test_single_horizon_limits(tmp_path, capsys, n, k, limits):
    # fresh Markov arms that rarely repeat a state; at the default bound the
    # largest horizon passes and the next is refused, `oracle` by its sweeps
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"components": [{"kind": "markov", "q": 0.05 + 0.1 * i,
                                               "cost": 1 + 0.1 * i} for i in range(n)],
                               "K": k, "policies": ["whittle", "myopic"]}))
    for command, limit in limits.items():
        for horizon, code in [(limit, 0), (limit + 1, 3)]:
            assert main([command, "--config", str(cfg), "--horizon", str(horizon),
                         "--out", os.devnull]) == code
        what = "sweep entries" if command == "oracle" else "branch entries"
        assert _refusal(capsys.readouterr().err)[1] == what


def test_guard_bound_is_configurable():
    specs = [markov_spec(0.4)] * 2
    with pytest.raises(SearchSpaceError):
        dp_optimal(specs, _fresh(2), 1, 6, bound=10)


def test_policy_table_selections_are_valid():
    specs = [markov_spec(0.5), markov_spec(0.2)]
    _, table = dp_optimal(specs, _fresh(2), 1, 3)
    assert table
    for (slot, state), sel in table.items():
        assert 0 <= slot < 3
        assert len(sel) == 1
        assert all(0 <= a < 2 for a in sel)


def test_value_monotonicity_homogeneous():
    specs = [markov_spec(0.4)] * 3
    assert value_monotonicity_probe(specs, 1, 4, trials=60, seed=2)


def test_value_monotonicity_single_arm():
    specs = [markov_spec(0.5)]
    assert value_monotonicity_probe(specs, 1, 4, trials=30, seed=3)


def test_value_monotonicity_trivial_horizon():
    specs = [markov_spec(0.5)] * 2
    assert value_monotonicity_probe(specs, 1, 1, trials=20, seed=4)


def test_relaxed_constraint_lower_bounds_strict_optimum():
    # the time-averaged budget can only do better than the per-slot one
    specs = [markov_spec(0.3)] * 3
    k = 1
    plan = solve_lambda_star(specs, k)
    relaxed_cost = sum(plan.cost_rates)
    horizon = 10
    opt, _ = dp_optimal(specs, _fresh(3), k, horizon)
    assert relaxed_cost <= opt / horizon + 0.05


def test_evaluate_matches_brute_force_enumeration():
    # independent check of the expectation tree: enumerate all world paths
    specs = [markov_spec(0.6, 1.5), markov_spec(0.3, 1.0)]
    k, horizon = 1, 3
    pol = myopic_policy(specs, k)

    def brute(states, remaining):
        if remaining == 0:
            return 0.0
        cost = sum(s.cost * belief_abnormal(s, st) for s, st in zip(specs, states))
        sel = pol(states)
        total = 0.0
        outcomes = [(0, 1)] * len(sel)
        for combo in itertools.product(*outcomes):
            pr = 1.0
            nxt = list(states)
            for arm, obs in zip(sel, combo):
                b = belief_abnormal(specs[arm], states[arm])
                pr *= b if obs else 1.0 - b
                nxt[arm] = ArmState(obs, 1)
            if pr == 0.0:
                continue
            for arm in range(len(states)):
                if arm not in sel:
                    nxt[arm] = ArmState(states[arm].i, states[arm].t + 1)
            total += pr * brute(nxt, remaining - 1)
        return cost + total

    expected = brute(_fresh(2), horizon)
    val = policy_evaluate_exact(specs, _fresh(2), k, horizon, pol)
    assert val == pytest.approx(expected, abs=1e-12)


def test_single_arm_policy_value_equals_optimum_bitwise_at_long_horizon():
    # N = K = 1 leaves one selection, so both passes do the same arithmetic;
    # a recursive evaluator would exceed the interpreter's stack here
    specs = [markov_spec(0.3)]
    opt, _ = dp_optimal(specs, _fresh(1), 1, 3000)
    assert policy_evaluate_exact(specs, _fresh(1), 1, 3000, whittle_policy(specs, 1)) == opt


def test_policy_is_called_once_per_reachable_state():
    specs = [markov_spec(0.5), markov_spec(0.2), markov_spec(0.35)]
    pol = whittle_policy(specs, 1)
    seen = []

    def counting(states):
        seen.append(tuple(states))
        return pol(states)

    val = policy_evaluate_exact(specs, _fresh(3), 1, 6, counting)
    assert val == policy_evaluate_exact(specs, _fresh(3), 1, 6, pol)
    assert len(seen) == len(set(seen)) > 6


def test_fig3_callable_is_asked_the_recorded_states():
    # a callable is asked once for each state its own picks reach, slot by
    # slot; asking every expanded state instead made 6,529 calls at T = 8
    specs = [ComponentSpec(Table(tuple(c["p"])), c["cost"]) for c in FIG3["components"]]
    graph, pol = exact_graph(specs, _fresh(4), 1, 14), whittle_policy(specs, 1)
    for horizon, calls in [(1, 1), (2, 3), (6, 63), (8, 239), (10, 519), (12, 707), (14, 787)]:
        seen = []

        def counting(states):
            seen.append(tuple(states))
            return pol(states)

        policy_evaluate_exact(specs, _fresh(4), 1, horizon, counting, graph=graph)
        assert len(seen) == len(set(seen)) == calls


# sha256 of the fig3 `oracle` and `evaluate` CSV bytes, recorded before the
# oracle moved from dicts of state tuples onto arrays of state codes
_GOLDEN_FIG3 = [
    ("oracle", 4, "ef748bd38b6552ac1fb631b1f3d72b2c04826c90c9dd4c84c92ea6fe314743b8"),
    ("oracle", 6, "4617304df7769b3df5197fbb7e1f90d3af1d561f6a9c04375fa0344bba28ac93"),
    ("oracle", 8, "0202cb847ef9e914a7dc20485fc009eb4a58865919fae6a76a8dbad110380afa"),
    ("evaluate", 6, "8fdbd5f9a82154c21564b4dfa0c3f244eb47deb504efd631ff5fc35907da9840"),
    ("evaluate", 8, "afc554fdf75c7076e5785e3a5856ef4c587a2d2cab32f90b4c8a868a3342aa27"),
    # recorded on the layered graph, before the union graph replaced it
    ("oracle", 10, "810494aa051c9dac7ae0cac05d62dbd4b08b4f20f47935a2adeb559ea9cf3245"),
    ("oracle", 12, "92512395f3adbf8fe80798e628808956d4e9faeee55b6719d04ca42c7345791b"),
    ("evaluate", 10, "1f1688d63d9ed1092aa45fbd20bdfa9ed46bd48c63f2c8e2626a0704323321d2"),
    ("evaluate", 12, "a51b33cb6e9020ec0c607ad8e87e48eb494ebcce6f5c96ff5806455efa5713fc"),
]


@pytest.mark.parametrize("command, horizon, digest", _GOLDEN_FIG3,
                         ids=[f"{c}-T{h}" for c, h, _ in _GOLDEN_FIG3])
def test_fig3_csv_bytes_are_golden(tmp_path, command, horizon, digest):
    out = tmp_path / "out.csv"
    assert main([command, "--preset", "fig3", "--horizon", str(horizon), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_dp_table_is_golden():
    # non-fresh initial states; recorded with the fig3 digests above
    specs = [markov_spec(0.3, 1.0), markov_spec(0.6, 2.0), markov_spec(0.8, 0.5)]
    initial = [ArmState(0, 2), ArmState(1, 3), ArmState(0, 1)]
    value, table = dp_optimal(specs, initial, 1, 4)
    assert repr(value) == "7.099849999999999"
    assert hashlib.sha256(repr(sorted(table.items())).encode()).hexdigest() == (
        "c3579e9a470f060a9c8c227f9b4699131740b9b24643667c695056e5202db564")


@pytest.mark.parametrize("command, horizon, digest", [_GOLDEN_FIG3[2], _GOLDEN_FIG3[4]],
                         ids=["oracle-T8", "evaluate-T8"])
def test_cli_makes_no_scalar_policy_call(tmp_path, monkeypatch, command, horizon, digest):
    # the CLI names its policies, so every pick comes from the rank table
    def scalar(*args):
        raise AssertionError("a scalar policy call")

    for name in ("select_whittle", "select_myopic", "whittle_index", "belief_abnormal"):
        monkeypatch.setattr(probesched.policies, name, scalar)
    out = tmp_path / "out.csv"
    assert main([command, "--preset", "fig3", "--horizon", str(horizon), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_rank_names_equal_their_callables():
    # repeated specs and states make the chain's ties occur; a largest
    # initial t > 1 makes the code width differ from the horizon's
    rng = np.random.default_rng(5)
    pool = [markov_spec(0.3), markov_spec(0.3, 2.0), ComponentSpec(Table((0.4, 0.6, 0.7)), 1.0)]
    cases = 0
    for trial in range(12):
        n = int(rng.integers(1, 6))
        specs = [pool[j] for j in rng.integers(0, len(pool), n)]
        initial = [ArmState(int(rng.integers(0, 2)), int(rng.integers(1, 4))) for _ in range(n)]
        initial[int(rng.integers(0, n))] = ArmState(0, 3)
        horizon = 4 if n <= 3 else 3
        for k in range(1, n + 1):
            for name, make in (("whittle", whittle_policy), ("myopic", myopic_policy)):
                pol, asked = make(specs, k), {}

                def counting(states):
                    asked[tuple(states)] = pol(states)
                    return asked[tuple(states)]

                value = policy_evaluate_exact(specs, initial, k, horizon, name)
                assert repr(value) == repr(policy_evaluate_exact(specs, initial, k, horizon, pol))
                assert repr(value) == repr(policy_evaluate_exact(specs, initial, k, horizon,
                                                                 counting))
                width, subsets, union, *_ = _graph(specs, initial, k, horizon, 10**7)
                picks = _rank_picks(name, specs, k, width, union)
                for codes, j in zip(union.tolist(), picks.tolist()):
                    states = tuple(ArmState(c // width, c % width) for c in codes)
                    if states in asked:
                        assert subsets[j] == asked[states]
                        cases += 1
    assert cases > 1000


def _lexsort_unique(rows):
    """The reference: distinct rows in `np.lexsort` order, and each row's position."""
    order = np.lexsort(rows.T)
    rows = rows[order]
    first = np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]
    position = np.empty(len(rows), dtype=np.int32)
    position[order] = np.cumsum(first) - 1
    return rows[first], position


def _loop_graph(specs, initial, k, horizon):
    """The reference: `_graph` without its guards, expanding one K-subset at
    a time and concatenating the parts, with `_lexsort_unique`'s rows."""
    n = len(specs)
    width = max(st.t for st in initial) + horizon
    beliefs = belief_codes(specs, width)
    outcomes = np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1) & 1
    subsets = list(itertools.combinations(range(n), k))
    layers = [np.array([[st.i * width + st.t for st in initial]], dtype=np.int32)]
    costs, edges = [], []
    for slot in range(horizon):
        layer = layers[-1]
        costs.append(sum(s.cost * beliefs[a, layer[:, a]] for a, s in enumerate(specs)))
        if slot + 1 == horizon:
            return width, costs, subsets, layers, edges
        parts = []
        for j, arms in enumerate(subsets):
            b = beliefs[arms, layer[:, arms]][:, None, :]
            factors = np.where(outcomes == 1, b, 1.0 - b)  # (states, 2^K, K)
            pr = functools.reduce(np.multiply, np.moveaxis(factors, -1, 0))
            parent, branch = np.nonzero((factors != 0.0).all(axis=-1))
            child = layer[parent] + 1
            child[:, arms] = outcomes[branch] * width + 1
            parts.append((parent * len(subsets) + j, branch, child, pr[parent, branch]))
        group, branch, child, pr = (np.concatenate(col) for col in zip(*parts))
        nxt, child = _lexsort_unique(child)
        layers.append(nxt)
        edges.append((group, branch, child, pr))


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_union_holds_the_layers(got, want):
    """Each layer of the layered reference `want` is a set of states of the
    union graph `got` with bitwise equal slot costs and outcome blocks:
    each of a state's (outcome, subset) slots holds the child codes and
    probability of the reference's edge, or child -1 and probability 0.0
    exactly where the reference drops that outcome; depth chunk d is layer
    d without the states of earlier layers.  Returns the counts of slots
    kept and dropped."""
    width, subsets, states, costs, ends, (child, pr) = got
    _w, ref_costs, _s, layers, ref_edges = want
    assert width == want[0] and subsets == want[2]
    c, outcomes = len(subsets), 2 ** len(subsets[0])
    assert len(ends) == len(layers) and len(ref_edges) == len(layers) - 1
    assert child.shape == pr.shape == (outcomes, ends[-2], c)
    ids = {row.tobytes(): s for s, row in enumerate(states)}
    assert len(ids) == len(states)
    seen, kept, dropped = set(), 0, 0
    for d, (layer, cost) in enumerate(zip(layers, ref_costs, strict=True)):
        at = np.array([ids[row.tobytes()] for row in layer], dtype=np.intp)
        _assert_bitwise(costs[at], cost)
        fresh = np.array([row.tobytes() not in seen for row in layer], dtype=bool)
        _assert_bitwise(states[ends[d - 1] if d else 0:ends[d]], layer[fresh])
        seen.update(row.tobytes() for row in layer)
        if d == len(ref_edges):
            break
        ref_group, ref_branch, ref_child, ref_pr = ref_edges[d]
        nxt = np.array([ids[row.tobytes()] for row in layers[d + 1]], dtype=np.intp)
        want_child = np.full((outcomes, len(layer), c), -1, dtype=np.intp)
        want_pr = np.zeros(want_child.shape)
        parent, j = np.divmod(ref_group, c)
        want_child[ref_branch, parent, j] = nxt[ref_child]
        want_pr[ref_branch, parent, j] = ref_pr
        _assert_bitwise(child[:, at], want_child)
        _assert_bitwise(pr[:, at], want_pr)
        kept += len(ref_group)
        dropped += want_child.size - len(ref_group)
    assert len(seen) == len(states)
    return kept, dropped


def test_graph_expands_every_subset_as_the_per_subset_loop_did():
    # beliefs of exactly 0.0 (any arm just seen abnormal, a table's 0.0) and
    # 1.0 (a table's 1.0) drop outcomes; a largest initial t > 1 widens the codes
    rng = np.random.default_rng(17)
    pool = [markov_spec(0.3), markov_spec(0.55, 2.0), ComponentSpec(Table((0.0, 1.0)), 1.5),
            ComponentSpec(Table((0.0, 0.4, 1.0)), 0.7), ComponentSpec(Table((0.2, 0.5, 0.6)), 1.0)]
    dropped = kept = 0
    for trial in range(40):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(n, 3) + 1))
        specs = [pool[j] for j in rng.integers(0, len(pool), n)]
        initial = [ArmState(int(rng.integers(0, 2)), int(rng.integers(1, 6))) for _ in range(n)]
        horizon = int(rng.integers(2, 7 if n <= 3 else 5))
        got = _graph(specs, initial, k, horizon, 10**7)
        counts = _assert_union_holds_the_layers(got, _loop_graph(specs, initial, k, horizon))
        kept, dropped = kept + counts[0], dropped + counts[1]
    assert kept > 10_000 and dropped > 10_000


def test_refused_graph_stays_under_its_recorded_peak():
    # 6 Markov arms, K = 2, T = 7: the guard refuses slot 5's expansion; the
    # per-subset loop with `np.concatenate` peaked at 140.7 MiB on the way
    specs = [markov_spec(0.1 + 0.13 * i) for i in range(6)]
    tracemalloc.start()
    try:
        with pytest.raises(SearchSpaceError, match="branch entries"):
            dp_optimal(specs, _fresh(6), 2, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 140.7 * 2**20


@pytest.mark.parametrize("name", ["queue", "random", "Whittle"])
def test_unknown_policy_name_is_refused(name):
    with pytest.raises(ValueError, match="whittle, myopic"):
        policy_evaluate_exact([markov_spec(0.3)] * 2, _fresh(2), 1, 2, name)


@pytest.mark.parametrize("selection", [(5,), (), (0, 0), (-1,), (0, 1)])
def test_policy_selection_must_be_k_distinct_arm_ids(selection):
    specs = [markov_spec(0.3)] * 3
    with pytest.raises(ValueError, match=r"ArmState\(i=0, t=1\)"):
        policy_evaluate_exact(specs, _fresh(3), 1, 3, lambda states: selection)


def test_guard_counts_the_belief_table():
    # the per-code belief table spans the largest initial t plus the horizon
    specs = [markov_spec(0.3)] * 2
    with pytest.raises(SearchSpaceError, match="belief entries"):
        dp_optimal(specs, [ArmState(0, 10**7), ArmState(0, 1)], 1, 2)
    value, _ = dp_optimal(specs, [ArmState(0, 10**4), ArmState(0, 1)], 1, 2)
    assert value == pytest.approx(1.3 + 0.51, abs=1e-12)  # probe the abnormal arm, then 0 + p(2)


def test_sentinel_is_not_an_initial_state():
    with pytest.raises(ValueError, match="sentinel"):
        dp_optimal([markov_spec(0.3)] * 2, [ArmState(0, 0), ArmState(0, 1)], 1, 2)


def test_underflowing_branch_stays_in_the_graph():
    # each probe sees 1 with probability 1e-200, so that joint outcome's
    # probability underflows to 0.0; it is still possible, and so is its state
    specs = [ComponentSpec(Table((1e-200, 0.5)), 1.0)] * 2
    _, table = dp_optimal(specs, _fresh(2), 2, 2)
    assert (1, ((1, 1), (1, 1))) in table
    # its slot (both probes see 1, from the initial state) keeps its child
    width, _s, states, _c, _e, (child, pr) = _graph(specs, _fresh(2), 2, 2, DEFAULT_BOUND)
    assert pr[3, 0, 0] == 0.0 and child[3, 0, 0] >= 0
    assert states[child[3, 0, 0]].tolist() == [width + 1] * 2


def test_impossible_outcomes_are_the_empty_slots():
    # a just-repaired arm at (1, 1) has belief 0 and Table((1.0,)) belief 1:
    # a slot is empty (child -1, probability 0.0) exactly where one of its
    # belief factors, from the scalar beliefs, is 0 or 1
    rng = np.random.default_rng(41)
    pool = [markov_spec(0.3), ComponentSpec(Table((1.0,)), 1.2),
            ComponentSpec(Table((0.0, 0.6)), 0.8), ComponentSpec(Table((0.2, 0.5, 0.7)), 1.0)]
    empty = full = 0
    for trial in range(30):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(n, 3) + 1))
        specs = [pool[j] for j in rng.integers(0, len(pool), n)]
        initial = [ArmState(int(rng.integers(0, 2)), int(rng.integers(1, 4))) for _ in range(n)]
        initial[int(rng.integers(0, n))] = ArmState(1, 1)
        horizon = int(rng.integers(2, 5))
        width, subsets, states, _c, _e, (child, pr) = _graph(specs, initial, k, horizon, 10**7)
        for s, codes in enumerate(states[:child.shape[1]].tolist()):
            b = [belief_abnormal(spec, ArmState(*divmod(c, width)))
                 for spec, c in zip(specs, codes)]
            for j, arms in enumerate(subsets):
                for o, bits in enumerate(itertools.product((0, 1), repeat=k)):
                    factors = [b[a] if bit else 1.0 - b[a] for a, bit in zip(arms, bits)]
                    if 0.0 in factors:
                        assert child[o, s, j] == -1 and pr[o, s, j] == 0.0
                        empty += 1
                    else:
                        assert 0 <= child[o, s, j] < len(states)
                        full += 1
    assert empty > 1000 and full > 1000


def test_near_tie_keeps_the_first_subset():
    # probing the dearer arm is better by less than the 1e-15 tie margin
    specs = [markov_spec(0.5, 1.0), markov_spec(0.5, 1.0 + 4.5e-16)]
    _, table = dp_optimal(specs, _fresh(2), 1, 2)
    assert table[(0, ((0, 1), (0, 1)))] == (0,)


def _count_builds(monkeypatch):
    builds = []
    build = probesched.oracle._graph

    def counted(*args):
        builds.append(args[3])  # the horizon built for
        return build(*args)

    monkeypatch.setattr(probesched.oracle, "_graph", counted)
    return builds


def _count_ranks(monkeypatch):
    ranked = []
    rank = probesched.oracle.rank_table

    def counted(policy, *args):
        ranked.append(policy)
        return rank(policy, *args)

    monkeypatch.setattr(probesched.oracle, "rank_table", counted)
    return ranked


def test_evaluate_op_builds_a_single_graph(tmp_path, monkeypatch):
    # one graph and one rank table per policy, both policies reading them
    builds, ranked = _count_builds(monkeypatch), _count_ranks(monkeypatch)
    out = tmp_path / "evaluate.csv"
    assert main(["evaluate", "--preset", "fig3", "--horizon", "8", "--out", str(out)]) == 0
    assert builds == [8]
    assert ranked == ["whittle", "myopic"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_FIG3[4][2]


def test_oracle_op_builds_one_graph(tmp_path, monkeypatch):
    # once per op, for its longest horizon, where each of the 8 horizons
    # once built its own graph for `dp_optimal` and each policy; and one
    # rank table per policy, where each horizon once ranked both (16 tables)
    builds, ranked = _count_builds(monkeypatch), _count_ranks(monkeypatch)
    for run in range(2):
        out = tmp_path / f"oracle{run}.csv"
        assert main(["oracle", "--preset", "fig3", "--horizon", "8", "--out", str(out)]) == 0
        assert builds == [8] * (run + 1)
        assert ranked == ["whittle", "myopic"] * (run + 1)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_FIG3[2][2]
    # outside the scope a library call builds its own graph
    specs = [markov_spec(0.4)] * 3
    dp_optimal(specs, _fresh(3), 1, 4)
    dp_optimal(specs, _fresh(3), 1, 4)
    assert builds == [8, 8, 4, 4]


def test_graph_prefixes_give_each_horizon_its_own_bits(monkeypatch):
    # non-fresh initial states with a largest t > 1: the code width depends
    # on the horizon, so shorter horizons read codes of a wider graph, and a
    # rank policy's name reads picks made once on all of its layers
    rng = np.random.default_rng(11)
    for trial in range(8):
        n = int(rng.integers(2, 4))
        specs = [markov_spec(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.5, 2)))
                 for _ in range(n)]
        k = int(rng.integers(1, n))
        big = int(rng.integers(2, 6))
        initial = [ArmState(int(rng.integers(0, 2)), int(rng.integers(1, 6))) for _ in range(n)]
        initial[0] = ArmState(0, 7)
        pols = [whittle_policy(specs, k), myopic_policy(specs, k), *EXACT_POLICIES]
        alone = [(dp_optimal(specs, initial, k, h),
                  [policy_evaluate_exact(specs, initial, k, h, pol) for pol in pols])
                 for h in range(1, big + 1)]
        builds, ranked = _count_builds(monkeypatch), _count_ranks(monkeypatch)
        graph = exact_graph(specs, initial, k, big)
        shared = [(dp_optimal(specs, initial, k, h, graph=graph),
                   [policy_evaluate_exact(specs, initial, k, h, pol, graph=graph) for pol in pols])
                  for h in range(big, 0, -1)][::-1]
        assert builds == [big]
        assert ranked == list(EXACT_POLICIES)
        monkeypatch.undo()
        for ((v0, t0), p0), ((v1, t1), p1) in zip(alone, shared):
            assert repr(v1) == repr(v0)
            assert [repr(v) for v in p1] == [repr(v) for v in p0]
            assert sorted(t1.items()) == sorted(t0.items())
            assert len(t1) == len(list(t1.items())) == len(t0)


def test_graph_refuses_another_instance_or_a_longer_horizon(monkeypatch):
    builds = _count_builds(monkeypatch)
    specs = [markov_spec(0.3), markov_spec(0.6)]
    graph = exact_graph(specs, _fresh(2), 1, 3)
    for other in [(specs[::-1], _fresh(2), 1, 2, DEFAULT_BOUND),  # other specs
                  (specs, [ArmState(0, 2)] * 2, 1, 2, DEFAULT_BOUND),  # other initial states
                  (specs, _fresh(2), 2, 2, DEFAULT_BOUND),  # another K
                  (specs, _fresh(2), 1, 2, 10**6)]:  # another bound
        with pytest.raises(ValueError, match="another instance"):
            dp_optimal(*other, graph)
    for horizon in (0, 4):
        with pytest.raises(ValueError, match="horizon"):
            policy_evaluate_exact(specs, _fresh(2), 1, horizon, "whittle", graph=graph)
    assert dp_optimal(specs, _fresh(2), 1, 2, graph=graph)[0] == dp_optimal(specs, _fresh(2), 1, 2)[0]
    assert builds == [3, 2]


def test_the_twin_is_built_once(monkeypatch):
    # fig3 at T = 8 caps every arm: the optimum and the names read the
    # capped graph, policy tables and callables at every horizon one twin
    specs, builds = _fig3_specs(), _count_builds(monkeypatch)
    graph = exact_graph(specs, _fresh(4), 1, 8)
    for t in (8, 5):
        dp_optimal(specs, _fresh(4), 1, t, graph=graph)
    for name in EXACT_POLICIES:
        policy_evaluate_exact(specs, _fresh(4), 1, 8, name, graph=graph)
    assert builds == [8]
    for t in (8, 5):
        table = dp_optimal(specs, _fresh(4), 1, t, graph=graph)[1]
        assert len(dict(table.items())) == len(table)
    for t in (8, 3):
        policy_evaluate_exact(specs, _fresh(4), 1, t, whittle_policy(specs, 1), graph=graph)
    assert builds == [8, 8]
    assert graph.twin is not graph
    markov = exact_graph([markov_spec(0.3), markov_spec(0.6)], _fresh(2), 1, 4)
    assert markov.twin is markov and builds == [8, 8, 4]


def test_policy_table_is_built_on_first_read():
    specs = [markov_spec(0.5), markov_spec(0.2)]
    _, table = dp_optimal(specs, _fresh(2), 1, 3)
    assert len(table) == 17  # 1 + 4 + 12 reachable (slot, state) pairs
    assert "_entries" not in vars(table)
    assert table[(0, ((0, 1), (0, 1)))] == (0,)
    assert "_entries" in vars(table)
    assert len(list(table)) == 17
    with pytest.raises(TypeError):
        table[(0, ((0, 1), (0, 1)))] = (1,)


def _layered_value(specs, initial, k, horizon, policy=None):
    """The reference: backward induction over `_loop_graph`'s layers, each
    layer's future costs summed edge by edge (`np.add.at`).  The optimum's
    value and table ({(slot, state): selection}), or a rank policy's value."""
    width, costs, subsets, layers, edges = _loop_graph(specs, initial, k, horizon)
    table = {}
    for slot in range(horizon - 1, -1, -1):
        layer = layers[slot]
        future = np.zeros((len(layer), len(subsets)))
        if slot < len(edges):
            group, _branch, child, pr = edges[slot]
            np.add.at(future.reshape(-1), group, pr * values[child])
        if policy is None:  # the first subset beating every earlier one by > 1e-15 of it
            pick = []
            for row in future.tolist():
                best = 0
                for j in range(1, len(row)):
                    if row[j] < row[best] - 1e-15 * row[best]:
                        best = j
                pick.append(best)
            pick = np.array(pick, dtype=np.intp)
        else:
            pick = _rank_picks(policy, specs, k, width, layer)
        values = costs[slot] + future[np.arange(len(layer)), pick]
        pairs = [tuple(divmod(c, width) for c in row) for row in layer.tolist()]
        table.update(((slot, state), subsets[j]) for state, j in zip(pairs, pick.tolist()))
    return float(values[0]), table


def test_every_horizon_is_bitwise_equal_three_ways():
    # every V_h read from one graph equals the same call without a graph and
    # a backward induction over the layers of its own horizon; non-fresh
    # initial states make the code widths differ
    rng = np.random.default_rng(23)
    pool = [markov_spec(0.3), markov_spec(0.6, 2.0), ComponentSpec(Table((0.0, 0.4, 0.7)), 0.8),
            ComponentSpec(Table((0.2, 0.5, 0.6)), 1.3)]
    checked = 0
    for trial in range(20):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(n, 3) + 1))
        specs = [pool[j] for j in rng.integers(0, len(pool), n)]
        initial = [ArmState(int(rng.integers(0, 2)), int(rng.integers(1, 5))) for _ in range(n)]
        horizon = int(rng.integers(2, 7 if n <= 3 else 5))
        graph = exact_graph(specs, initial, k, horizon)
        for h in range(horizon, 0, -1):
            value, table = _layered_value(specs, initial, k, h)
            for passed in (graph, None):
                got, got_table = dp_optimal(specs, initial, k, h, graph=passed)
                assert repr(got) == repr(value)
                assert len(got_table) == len(table) and dict(got_table.items()) == table
                for name in EXACT_POLICIES:
                    want = _layered_value(specs, initial, k, h, name)[0]
                    got = policy_evaluate_exact(specs, initial, k, h, name, graph=passed)
                    assert repr(got) == repr(want)
            checked += 1
    assert checked > 50


def test_fig3_table_lengths_are_the_layered_pairs():
    # the layered (slot, state) pairs: their sums over t = 1..8 are the
    # 37,864 `oracle.dp_states` of a traced fig3 op
    specs = [ComponentSpec(Table(tuple(c["p"])), c["cost"]) for c in FIG3["components"]]
    graph = exact_graph(specs, _fresh(4), 1, 8)
    lengths = [1, 9, 65, 361, 1473, 4361, 10369, 21225]
    assert [len(dp_optimal(specs, _fresh(4), 1, t, graph=graph)[1]) for t in range(8, 0, -1)] \
        == lengths[::-1]
    assert [len(dp_optimal(specs, _fresh(4), 1, t)[1]) for t in range(1, 9)] == lengths
    assert sum(lengths) == 37_864


def test_keys_past_int64_stay_exact():
    # rows of codes below 2 x 1004 number (2 x 1004)^6 = 6.6e19 > 2^63, but
    # rows of the codes these arms reach within 4 slots only 10 x 7^5;
    # recorded on the layered graph
    specs = [ComponentSpec(MarkovIID(0.05 + 0.1 * i), 1 + 0.1 * i) for i in range(6)]
    initial = [ArmState(0, 1000)] + _fresh(5)
    assert (2 * 1004) ** 6 > 2**63
    value, table = dp_optimal(specs, initial, 1, 4)
    assert value.hex() == "0x1.c2e66f9335d25p+3"
    assert policy_evaluate_exact(specs, initial, 1, 4, "whittle").hex() == "0x1.c2e66f9335d25p+3"
    assert len(table) == len(list(table)) == 1075


def test_python_int_keys_equal_the_layered_reference():
    # each arm reaches 7 codes within 3 slots: (0, 3..5), (0, 1..2) and
    # (1, 1..2), so 23 arms' keys run to 7^23 = 2.7e19 > 2^62
    specs = [ComponentSpec(MarkovIID(0.05 + 0.04 * i), 1 + 0.05 * i) for i in range(23)]
    initial = [ArmState(0, 3)] * 23
    assert 7**23 > 2**62
    value, table = dp_optimal(specs, initial, 1, 3)
    want, want_table = _layered_value(specs, initial, 1, 3)
    assert repr(value) == repr(want)
    assert len(table) == len(want_table) and dict(table.items()) == want_table
    for name in EXACT_POLICIES:
        got = policy_evaluate_exact(specs, initial, 1, 3, name)
        assert repr(got) == repr(_layered_value(specs, initial, 1, 3, name)[0])


def test_sorted_keys_build_the_same_graph_as_the_key_table(monkeypatch):
    # past `_KEY_TABLE` keys a graph looks its states up in sorted keys
    rng = np.random.default_rng(29)
    pool = [markov_spec(0.3), ComponentSpec(Table((0.0, 0.4, 1.0)), 0.7),
            ComponentSpec(Table((0.2, 0.5, 0.6)), 1.0)]
    fig3 = [ComponentSpec(Table(tuple(c["p"])), c["cost"]) for c in FIG3["components"]]
    cases = [(fig3, _fresh(4), 1, 8)]
    for trial in range(20):
        n = int(rng.integers(1, 5))
        cases.append(([pool[j] for j in rng.integers(0, len(pool), n)],
                      [ArmState(int(rng.integers(0, 2)), int(rng.integers(1, 5))) for _ in range(n)],
                      int(rng.integers(1, min(n, 3) + 1)), int(rng.integers(1, 6))))
    tables = [_graph(*case, 10**7) for case in cases]
    monkeypatch.setattr(probesched.oracle, "_KEY_TABLE", 0)
    for case, want in zip(cases, tables):
        got = _graph(*case, 10**7)
        assert got[:2] == want[:2]
        for array, ref in zip([*got[2:5], *got[5]], [*want[2:5], *want[5]], strict=True):
            _assert_bitwise(array, ref)


def _fig3_specs():
    return [ComponentSpec(Table(tuple(c["p"])), c["cost"]) for c in FIG3["components"]]


def test_capped_graph_gives_the_uncapped_values():
    # tables shorter than the horizon, flat tails, initial t past a table's
    # end, Markov arms and identical table arms: every horizon's optimum and
    # rank values on the capped graph, and the policy table and callables on
    # its twin, against the layered reference on true clocks
    rng = np.random.default_rng(37)
    pool = [ComponentSpec(Table((0.2, 0.5, 0.5, 0.5)), 1.0), ComponentSpec(Table((0.3, 0.6)), 1.4),
            ComponentSpec(Table((0.1, 0.4, 0.7)), 0.9), ComponentSpec(Table((0.45,)), 1.1),
            ComponentSpec(Table((0.0, 0.35, 0.35)), 2.0), markov_spec(0.3), markov_spec(0.55, 0.7)]
    tail = dict(zip(pool, [2, 2, 3, 1, 2]))  # the clock each table is constant from
    capped = merged = twins = 0
    for trial in range(40):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(n, 3) + 1))
        specs = [pool[j] for j in rng.integers(0, len(pool), n)]
        initial = [ArmState(int(rng.integers(0, 2)), int(rng.integers(1, 9))) for _ in range(n)]
        horizon = int(rng.integers(2, 7 if n <= 2 else 5))
        caps = _caps(specs, initial, horizon, DEFAULT_BOUND)
        # each arm's largest clock; a cap must merge clocks, and two identical
        # arms that both reach their cap tie there
        tops = [st.t - st.i + horizon - 1 for st in initial]
        for a, (spec, c) in enumerate(zip(specs, caps)):
            if spec not in tail or tops[a] <= tail[spec]:
                assert c is None
            elif any(specs[b] == spec and tops[b] >= tail[spec] for b in range(n) if b != a):
                assert c is None
                twins += 1
            else:
                assert c in (None, tail[spec])
        capped += caps.count(None) < n
        graph = exact_graph(specs, initial, k, horizon)
        for h in range(horizon, 0, -1):
            value, table = _layered_value(specs, initial, k, h)
            got, got_table = dp_optimal(specs, initial, k, h, graph=graph)
            assert repr(got) == repr(value)
            assert len(got_table) == len(table) and dict(got_table.items()) == table
            for name, make in (("whittle", whittle_policy), ("myopic", myopic_policy)):
                want = repr(_layered_value(specs, initial, k, h, name)[0])
                assert repr(policy_evaluate_exact(specs, initial, k, h, name, graph=graph)) == want
                got = policy_evaluate_exact(specs, initial, k, h, make(specs, k), graph=graph)
                assert repr(got) == want
        merged += len(graph.parts[2]) < len(graph.twin.parts[2])
    assert capped > 25 and merged > 15 and twins > 8


def test_a_tie_past_the_cap_keeps_both_clocks():
    # myopic ranks the capped codes of both arms (p = 0.5, cost-weighted
    # 0.5) equal, so probe age settles the tie; capped anyway, the policy
    # would read 2.84025 where it costs 2.78
    specs = [ComponentSpec(Table((0.2, 0.5)), 1.0), ComponentSpec(Table((0.1, 0.4, 0.5)), 1.0)]
    initial = [ArmState(1, 3), ArmState(0, 4)]
    assert _caps(specs, initial, 5, DEFAULT_BOUND) == [None, None]
    want = _layered_value(specs, initial, 1, 5, "myopic")[0]
    assert repr(policy_evaluate_exact(specs, initial, 1, 5, "myopic")) == repr(want)
    assert repr(want) == "2.7800000000000002"
    forced = _graph(specs, initial, 1, 5, DEFAULT_BOUND, 1, [2, 3])
    picks = _rank_picks("myopic", specs, 1, forced[0], forced[2][:forced[4][-2]])
    assert repr(_iterate(forced, _chosen(forced[5], picks), 5)[0][-1]) == "2.84025"


def test_fig3_graph_is_stationary():
    # each arm's clock stops at its table's length, 6: 7,009 states from
    # T = 12 on, where every clock kept held 129,281 at T = 15
    specs = _fig3_specs()
    assert _caps(specs, _fresh(4), 12, DEFAULT_BOUND) == [6] * 4
    assert [len(exact_graph(specs, _fresh(4), 1, t).parts[2]) for t in (12, 15)] == [7009, 7009]


def test_table_arms_far_past_their_end_build_a_narrow_graph():
    # capped initial codes set the code width; from t = 10^6 the belief table
    # once held 2N x (10^6 + T) entries, 0.23 s of the call
    specs = [ComponentSpec(Table((0.3, 0.6)), 1.0), ComponentSpec(Table((0.2, 0.5, 0.7)), 1.5)]
    far = [ArmState(0, 10**6)] * 2
    start = time.perf_counter()
    value, _ = dp_optimal(specs, far, 1, 3)
    assert time.perf_counter() - start < 0.1
    assert repr(value) == repr(dp_optimal(specs, [ArmState(0, 2), ArmState(0, 3)], 1, 3)[0])
    assert exact_graph(specs, far, 1, 3).parts[0] == 3 + 3  # the largest capped t + T


def test_fig3_oracle_reaches_horizon_30(tmp_path):
    out = {t: tmp_path / f"oracle{t}.csv" for t in (15, 30)}
    for t, path in out.items():
        start = time.perf_counter()
        assert main(["oracle", "--preset", "fig3", "--horizon", str(t), "--out", str(path)]) == 0
        assert time.perf_counter() - start < 1.0
    rows = {t: path.read_bytes().splitlines(keepends=True) for t, path in out.items()}
    assert len(rows[30]) == 31 and rows[30][:16] == rows[15]

import itertools

import numpy as np
import pytest

from probesched import (
    ArmState,
    ComponentSpec,
    SearchSpaceError,
    Table,
    belief_abnormal,
    dp_optimal,
    policy_evaluate_exact,
    value_monotonicity_probe,
)
from probesched.policies import myopic_policy, whittle_policy
from probesched.subsidy import average_cost_rate, solve_lambda_star
from helpers import markov_spec


def _fresh(n):
    return [ArmState(0, 1)] * n


def test_single_slot_cost_is_sum_of_beliefs():
    specs = [markov_spec(0.5), markov_spec(0.3)]
    value, _ = dp_optimal(specs, _fresh(2), 1, 1)
    assert value == pytest.approx(0.8, abs=1e-12)


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


def test_guard_refuses_oversized_instances():
    specs = [markov_spec(0.4)] * 8
    with pytest.raises(SearchSpaceError) as err:
        dp_optimal(specs, _fresh(8), 2, 500)
    assert err.value.count > 0
    with pytest.raises(SearchSpaceError):
        policy_evaluate_exact(
            specs, _fresh(8), 2, 500, whittle_policy(specs, 2)
        )


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
    relaxed_cost = sum(
        average_cost_rate(s, plan.lambda_star, g) for s, g in zip(specs, plan.mixing)
    )
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

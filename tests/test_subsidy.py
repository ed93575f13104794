import bisect
import dataclasses
import hashlib
import json
import math
import random
import threading
import time
from itertools import islice

import numpy as np
import pytest

import probesched.subsidy
from probesched import (
    ArmState,
    ComponentSpec,
    MarkovIID,
    SearchSpaceError,
    Table,
    marginal_p,
    optimal_stopping,
    relaxed_select,
    solve_lambda_star,
    whittle_index,
)
from probesched.attack import marginals
from probesched.subsidy import (
    T_CAP,
    _arm_table,
    _marginals,
    _policy_rates,
    _stop,
    single_arm_q,
)
from probesched.cli import main
from probesched.whittle import index_values
from helpers import (
    component_to_json,
    concave_spec,
    markov_spec,
    random_relaxed_instances,
    random_strict_specs,
    reference_policy_rates,
    reference_solve_lambda_star,
)


def _criterion_8_instances():
    """Acceptance criterion 8's 20 instances as (specs, K)."""
    rng = np.random.default_rng(88)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        yield random_strict_specs(n, seed=5_000 + trial), k


def _criterion_8_specs():
    """The arm sets of acceptance criterion 8's 20 instances."""
    for specs, _k in _criterion_8_instances():
        yield specs


def _rates(spec, lam, gamma):
    """(activation rate, cost rate) of the threshold-with-mixing policy."""
    return _policy_rates(spec, lam, gamma, _arm_table(spec))[:2]


def test_negative_subsidy_probes_immediately():
    for spec in (markov_spec(0.5), concave_spec()):
        pol = optimal_stopping(spec, -1.0)
        assert (pol.t0_star, pol.t1_star) == (1, 1)


def test_zero_subsidy_probes_immediately():
    pol = optimal_stopping(markov_spec(0.5), 0.0)
    assert pol.t0_star == 1
    assert pol.t1_star == 2


def test_stopping_between_indices():
    spec = markov_spec(0.5)
    pol = optimal_stopping(spec, 0.6)  # between W(0,1)=0.4 and W(0,2)=0.889
    assert pol.t0_star == 2
    assert pol.t1_star == 3


def test_stopping_consistent_with_index_everywhere():
    for spec in random_strict_specs(8, seed=3):
        w = [whittle_index(spec, ArmState(0, t)) for t in range(0, 10)]
        for t in range(1, 9):
            lam = 0.5 * (w[t] + w[t + 1])
            assert optimal_stopping(spec, lam).t0_star == t + 1


def test_gain_values_by_hand():
    spec = markov_spec(0.5)
    assert optimal_stopping(spec, 0.0).g == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert optimal_stopping(spec, -1.0).g == pytest.approx(-2.0 / 3.0, abs=1e-12)


def test_gain_envelope_at_cap_saturation():
    spec = markov_spec(0.5)
    lam = 50.0
    res = optimal_stopping(spec, lam)
    assert res.t0_star == T_CAP
    assert res.g <= lam
    assert lam - res.g <= lam / T_CAP + spec.cost


def test_stopping_time_nondecreasing_in_subsidy():
    for spec in random_strict_specs(6, seed=9):
        top = whittle_index(spec, ArmState(0, 12))
        grid = np.linspace(-0.1, float(top) * 1.1, 200)
        t0s = [optimal_stopping(spec, float(lam)).t0_star for lam in grid]
        assert all(a <= b for a, b in zip(t0s, t0s[1:]))


def test_gain_convex_and_nondecreasing():
    for spec in random_strict_specs(4, seed=17):
        top = whittle_index(spec, ArmState(0, 10))
        grid = np.linspace(0.0, float(top), 41)
        vals = [optimal_stopping(spec, float(lam)).g for lam in grid]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        for k in range(1, len(vals) - 1):
            assert vals[k] <= 0.5 * (vals[k - 1] + vals[k + 1]) + 1e-9


def test_activation_rate_values():
    spec = markov_spec(0.5)
    assert optimal_stopping(spec, 0.0).activation_rate == pytest.approx(2.0 / 3.0, abs=1e-12)
    p1 = marginal_p(spec.process, 1)
    assert optimal_stopping(spec, -0.5).activation_rate == pytest.approx(1.0 / (1.0 + p1),
                                                                         abs=1e-12)


def test_activation_rate_cap_saturation():
    spec = markov_spec(0.5)
    rate = optimal_stopping(spec, 1e6).activation_rate
    assert rate == pytest.approx(1.0 / (T_CAP + marginal_p(spec.process, T_CAP)), abs=1e-12)


def test_activation_rate_nonincreasing():
    for spec in random_strict_specs(4, seed=29):
        top = whittle_index(spec, ArmState(0, 12))
        grid = np.linspace(0.0, float(top), 80)
        rates = [optimal_stopping(spec, float(lam)).activation_rate for lam in grid]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))


# Specs of the stopping-rule pin: fast, slow and float-zero memoryless arms;
# a concave table; a table clamped flat before its end; one reaching 1.0.
_PIN_SPECS = [
    markov_spec(0.5, cost=1.0),
    markov_spec(0.3, cost=2.0),
    markov_spec(0.01, cost=0.7),
    markov_spec(1e-175, cost=2.0),
    concave_spec(cost=1.0),
    ComponentSpec(Table((0.2, 0.45, 0.6, 0.6, 0.6)), 1.5),
    ComponentSpec(Table((0.5, 1.0)), 0.8),
]
# (spec, lam, t0_star, t1_star, g, activation rate), recorded from separate
# gain and activation-rate functions that each scanned the arm; a t0_star of
# 10000 is T_CAP.
_STOPPING_PIN = [
    (0, -0.5, 1, 1, "-0x1.0000000000000p-1", "0x1.5555555555555p-1"),
    (0, 0.0, 1, 2, "-0x1.5555555555555p-2", "0x1.5555555555555p-1"),
    (0, 0.4, 1, 2, "-0x1.9999999999999p-3", "0x1.5555555555555p-1"),
    (0, 0.95, 3, 4, "0x1.4069b4069b404p-3", "0x1.0842108421084p-2"),
    (0, 3.0, 10000, 10001, "0x1.fff97272383c3p+0", "0x1.a3637230afb37p-14"),
    (0, 50.0, 10000, 10001, "0x1.87f62bab52e3ep+5", "0x1.a3637230afb37p-14"),
    (0, 1e6, 10000, 10001, "0x1.e83b60538ccfcp+19", "0x1.a3637230afb37p-14"),
    (1, -0.5, 1, 1, "-0x1.2762762762763p-1", "0x1.89d89d89d89d8p-1"),
    (1, 0.0, 1, 2, "-0x1.d89d89d89d89ep-2", "0x1.89d89d89d89d8p-1"),
    (1, 0.4, 1, 2, "-0x1.7a17a17a17a19p-2", "0x1.89d89d89d89d8p-1"),
    (1, 0.95, 2, 3, "-0x1.2eb65c9bd8055p-4", "0x1.97f7d73404147p-2"),
    (1, 3.0, 5, 6, "0x1.6fc4c9226da43p+0", "0x1.5f2b91f3b8e2ep-3"),
    (1, 50.0, 10000, 10001, "0x1.7ff7205000316p+5", "0x1.a3637230afb37p-14"),
    (1, 1e6, 10000, 10001, "0x1.e83b40575f627p+19", "0x1.a3637230afb37p-14"),
    (2, -0.5, 1, 1, "-0x1.8552a13436c00p-7", "0x1.faee41e6a7498p-1"),
    (2, 0.0, 1, 2, "-0x1.c635bc123fdffp-8", "0x1.faee41e6a7498p-1"),
    (2, 0.4, 11, 12, "0x1.4b80263ab9cdbp-2", "0x1.70daa636fd2cap-4"),
    (2, 0.95, 17, 18, "0x1.abbb58e2ecc38p-1", "0x1.dd789ea55e3f5p-5"),
    (2, 3.0, 33, 34, "0x1.66da4f12ca5d7p+1", "0x1.ec462ce5f8087p-6"),
    (2, 50.0, 250, 251, "0x1.8adb53f81a9d7p+5", "0x1.052f17470f463p-8"),
    (2, 1e6, 10000, 10001, "0x1.e83b6a24d99e8p+19", "0x1.a3637230afb37p-14"),
    (3, -0.5, 1, 1, "-0x0.0p+0", "0x1.0000000000000p+0"),
    (3, 0.0, 1, 2, "0x0.0p+0", "0x1.0000000000000p+0"),
    (3, 0.4, 10000, 10001, "0x1.998f1d3ed527fp-2", "0x1.a36e2eb1c432dp-14"),
    (3, 0.95, 10000, 10001, "0x1.e659f2ba9d1f5p-1", "0x1.a36e2eb1c432dp-14"),
    (3, 3.0, 10000, 10001, "0x1.7ff62b6ae7d56p+1", "0x1.a36e2eb1c432dp-14"),
    (3, 50.0, 10000, 10001, "0x1.8ff5c28f5c28fp+5", "0x1.a36e2eb1c432dp-14"),
    (3, 1e6, 10000, 10001, "0x1.e83b800000000p+19", "0x1.a36e2eb1c432dp-14"),
    (4, -0.5, 1, 1, "-0x1.0000000000000p-1", "0x1.5555555555555p-1"),
    (4, 0.0, 1, 2, "-0x1.5555555555555p-2", "0x1.5555555555555p-1"),
    (4, 0.4, 2, 3, "-0x1.8a6dfc3518a6cp-3", "0x1.7b425ed097b42p-2"),
    (4, 0.95, 3, 4, "0x1.5dc17f00aa395p-3", "0x1.09f959c427e56p-2"),
    (4, 3.0, 10000, 10001, "0x1.028bbf529d83ap+1", "0x1.a363a927a6237p-14"),
    (4, 50.0, 10000, 10001, "0x1.881f1c0ba80f5p+5", "0x1.a363a927a6237p-14"),
    (4, 1e6, 10000, 10001, "0x1.e83b60f5aafd9p+19", "0x1.a363a927a6237p-14"),
    (5, -0.5, 1, 1, "-0x1.5555555555556p-2", "0x1.aaaaaaaaaaaabp-1"),
    (5, 0.0, 1, 2, "-0x1.0000000000001p-2", "0x1.aaaaaaaaaaaabp-1"),
    (5, 0.4, 2, 3, "-0x1.4a3010b7e6ec4p-3", "0x1.a1f58d0fac687p-2"),
    (5, 0.95, 3, 4, "0x1.527d27d27d27bp-3", "0x1.1c71c71c71c72p-2"),
    (5, 3.0, 10000, 10001, "0x1.0cc771584a02bp+1", "0x1.a367bd86a1ef9p-14"),
    (5, 50.0, 10000, 10001, "0x1.88c2d7140b293p+5", "0x1.a367bd86a1ef9p-14"),
    (5, 1e6, 10000, 10001, "0x1.e83b63657799fp+19", "0x1.a367bd86a1ef9p-14"),
    (6, -0.5, 1, 1, "-0x1.bbbbbbbbbbbbcp-2", "0x1.5555555555555p-1"),
    (6, 0.0, 1, 2, "-0x1.1111111111111p-2", "0x1.5555555555555p-1"),
    (6, 0.4, 1, 2, "-0x1.1111111111111p-3", "0x1.5555555555555p-1"),
    (6, 0.95, 2, 3, "0x1.ddddddddddddbp-3", "0x1.5555555555555p-2"),
    (6, 3.0, 10000, 10001, "0x1.1993b3cd31b72p+1", "0x1.a3637230afb37p-14"),
    (6, 50.0, 10000, 10001, "0x1.898f9b54943d7p+5", "0x1.a3637230afb37p-14"),
    (6, 1e6, 10000, 10001, "0x1.e83b66b94b74cp+19", "0x1.a3637230afb37p-14"),
]


def test_stopping_rule_keeps_its_bits():
    for spec, lam, t0, t1, g, rate in _STOPPING_PIN:
        pol = optimal_stopping(_PIN_SPECS[spec], lam)
        assert (pol.t0_star, pol.t1_star, pol.g.hex(), pol.activation_rate.hex()) == (
            t0, t1, g, rate), (spec, lam)


def test_lambda_star_homogeneous_pair():
    spec = markov_spec(0.5)
    plan = solve_lambda_star([spec, spec], 1)
    assert plan.lambda_star == pytest.approx(0.4, abs=1e-12)
    assert sum(plan.rates) == pytest.approx(1.0, abs=1e-6)
    assert plan.mixing[0] == pytest.approx(0.6, abs=1e-6)
    assert plan.mixing == (plan.mixing[0],) * 2  # symmetry


def test_lambda_star_homogeneous_rate_split():
    specs = [markov_spec(0.3)] * 4
    plan = solve_lambda_star(specs, 2)
    for r in plan.rates:
        assert r == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("budgets", [(1,), (2, 3)], ids=["K=1", "K|N"])
def test_homogeneous_bound_is_the_queue_rotation_cost(budgets):
    # N identical memoryless arms, K | N: the relaxed bound equals the
    # long-run cost of probing each arm every M = N / K slots, where an
    # arm seen abnormal (stationary share pi1) is one repair slot behind
    rng = np.random.default_rng(len(budgets))
    for _ in range(100):
        q, c = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.3, 3.0))
        k = int(rng.choice(budgets))
        m = int(rng.integers(2, 9 if k == 1 else 7))
        p = [marginal_p(MarkovIID(q), t) for t in range(m + 1)]
        pi1 = p[m] / (1.0 - p[m - 1] + p[m])
        per_arm = c * ((1.0 - pi1) * sum(p) + pi1 * sum(p[:m])) / m
        plan = solve_lambda_star([ComponentSpec(MarkovIID(q), c)] * (k * m), k)
        assert sum(plan.cost_rates) == pytest.approx(k * m * per_arm, rel=1e-12, abs=0.0)


def test_lambda_star_zero_boundary_with_negligible_arm():
    lazy = ComponentSpec(Table((0.0,)), 1.0)  # never becomes abnormal
    busy = markov_spec(0.6)
    plan = solve_lambda_star([busy, lazy], 1)
    assert plan.lambda_star == 0.0
    assert sum(plan.rates) == pytest.approx(1.0, abs=1e-6)


def test_lambda_star_random_instances_meet_budget():
    rng = np.random.default_rng(77)
    for trial in range(8):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        specs = random_strict_specs(n, seed=1000 + trial)
        plan = solve_lambda_star(specs, k)
        assert sum(plan.rates) == pytest.approx(k, abs=1e-6)
        assert plan.lambda_star >= 0.0


def test_lambda_star_rejects_bad_budget():
    specs = [markov_spec(0.4)] * 3
    with pytest.raises(ValueError):
        solve_lambda_star(specs, 3)
    with pytest.raises(ValueError):
        solve_lambda_star(specs, 0)


def test_walk_rates_match_direct_simulation():
    spec = markov_spec(0.5)
    lam = whittle_index(spec, ArmState(0, 1))
    for gamma in (0.0, 0.6, 1.0):
        analytic, _ = _rates(spec, lam, gamma)
        rng = np.random.default_rng(5)
        i, t, acts = 0, 1, 0
        slots = 200_000
        for _ in range(slots):
            w = whittle_index(spec, ArmState(i, t))
            if w > lam or (w == lam and rng.random() < gamma):
                acts += 1
                obs = 1 if rng.random() < marginal_p(spec.process, t - i) else 0
                i, t = obs, 1
            else:
                t += 1
        assert acts / slots == pytest.approx(analytic, abs=0.005)


def test_relaxed_select_threshold_behaviour():
    spec = markov_spec(0.5)
    plan = solve_lambda_star([spec, spec], 1)
    rng = np.random.default_rng(0)
    # indices above lambda* activate regardless of the generator
    sel = relaxed_select([spec, spec], [ArmState(0, 3), ArmState(0, 4)], plan, rng)
    assert sel == (0, 1)
    # fresh repairs sit below lambda* and stay passive
    sel = relaxed_select([spec, spec], [ArmState(1, 1), ArmState(1, 1)], plan, rng)
    assert sel == ()


def test_relaxed_select_pure_threshold_when_mixing_zero():
    spec = markov_spec(0.5)
    plan = solve_lambda_star([spec, spec], 1)
    frozen = dataclasses.replace(plan, mixing=(0.0, 0.0))
    rng = np.random.default_rng(1)
    boundary = [ArmState(0, 1), ArmState(0, 1)]  # index == lambda*
    for _ in range(50):
        assert relaxed_select([spec, spec], boundary, frozen, rng) == ()


def test_relaxed_long_run_average_activations():
    spec = markov_spec(0.5)
    specs = [spec, spec]
    plan = solve_lambda_star(specs, 1)
    rng = np.random.default_rng(123)
    states = [ArmState(0, 1), ArmState(0, 1)]
    total = 0
    slots = 100_000
    for _ in range(slots):
        sel = relaxed_select(specs, states, plan, rng)
        total += len(sel)
        nxt = []
        for idx, st in enumerate(states):
            if idx in sel:
                obs = 1 if rng.random() < marginal_p(spec.process, st.t - st.i) else 0
                nxt.append(ArmState(obs, 1))
            else:
                nxt.append(ArmState(st.i, st.t + 1))
        states = nxt
    assert total / slots == pytest.approx(1.0, abs=0.01)


def test_single_arm_q_matches_repair_equivalence():
    # (1, t+1) and (0, t) are behaviourally identical states
    spec = markov_spec(0.5)
    for lam in (0.0, 0.4, 0.7):
        q1 = single_arm_q(spec, lam, ArmState(1, 3), 120)
        q0 = single_arm_q(spec, lam, ArmState(0, 2), 120)
        assert q1[0] == pytest.approx(q0[0], abs=1e-9)
        assert q1[1] == pytest.approx(q0[1], abs=1e-9)


def test_average_cost_rate_matches_renewal_formula():
    spec = markov_spec(0.4, cost=2.0)
    for lam in (0.05, 0.3, 0.9):
        t0 = optimal_stopping(spec, lam).t0_star
        p = lambda t: marginal_p(spec.process, t)
        expected = 2.0 * sum(p(k) for k in range(1, t0 + 1)) / (t0 + p(t0))
        assert _rates(spec, lam, 0.0)[1] == pytest.approx(expected, abs=1e-9)


def test_walk_matches_renewal_formula_at_index_multipliers():
    # At lam = W(0, t) the threshold policy probes t0 = t + 1 slots after a
    # healthy observation when ties stay passive (gamma = 0) and t0 = t when
    # they activate (gamma = 1); the walk must reproduce 1 / (t0 + p(t0))
    # and c sum_{k<=t0} p(k) / (t0 + p(t0)).  Where neighbouring indices
    # are well separated, t0 = t + 1 is also the subsidy-optimal delay.
    checked = 0
    for specs in _criterion_8_specs():
        for spec in specs:
            p = lambda t: marginal_p(spec.process, t)
            w = lambda t: whittle_index(spec, ArmState(0, t))
            table = _arm_table(spec)
            t = 1
            while t < _stop(spec.process) and w(t + 1) > w(t):
                for gamma, t0 in ((0.0, t + 1), (1.0, t)):
                    rate, cost_rate, _t0 = _policy_rates(spec, w(t), gamma, table)
                    cycle = t0 + p(t0)
                    cum = sum(p(k) for k in range(1, t0 + 1))
                    assert rate == pytest.approx(1.0 / cycle, rel=1e-12, abs=0.0)
                    assert cost_rate == pytest.approx(spec.cost * cum / cycle,
                                                      rel=1e-12, abs=0.0)
                if w(t + 1) - w(t) > 1e-6:
                    mid = 0.5 * (w(t) + w(t + 1))
                    pol = optimal_stopping(spec, mid)
                    assert pol.t0_star == t + 1
                    assert _policy_rates(spec, mid, 0.0, table)[0] == pytest.approx(
                        pol.activation_rate, rel=1e-12, abs=0.0)
                checked += 1
                t += 1
    assert checked > 1000


def _walk_pin_specs():
    """Seeded Markov arms and random nondecreasing tables: some start with
    0.0 or end at 1.0, and most break concavity, so W(0, .) may drop."""
    rng = np.random.default_rng(32)
    for k in range(48):
        cost = float(rng.uniform(0.3, 3.0))
        if k % 4 == 0:
            yield ComponentSpec(MarkovIID(float(rng.uniform(0.1, 0.95))), cost)
            continue
        n = int(rng.integers(1, 13))
        vals = np.sort(rng.uniform(0.0, 1.0, n))
        vals[: int(rng.integers(0, n + 1)) // 2] = 0.0
        if k % 3 == 0:
            vals[-1] = 1.0
        yield ComponentSpec(Table(tuple(vals.tolist())), cost)


def test_walk_matches_the_full_walk_bit_for_bit():
    # The walk scans past the leading slots whose index is below lam; the
    # reference puts every slot through the arithmetic.  Same rate, cost
    # rate and t0*, bit for bit, at lam on each W(0, t), between them, at
    # 0 and above the largest, for gammas down to 2^-60.
    walks = 0
    for spec in _walk_pin_specs():
        table = _arm_table(spec)
        w = sorted(set(table[1]))
        lams = [0.0, *w, *(0.5 * (a + b) for a, b in zip(w, w[1:])), w[-1] + 1.0]
        for lam in lams:
            for gamma in (0.0, 2.0**-60, 0.5, 1.0):
                got = _policy_rates(spec, lam, gamma, table)
                assert repr(got) == repr(reference_policy_rates(spec, lam, gamma, table)), (
                    spec, lam, gamma)
                walks += 1
    assert walks > 2000, walks


def _terminates(fn, *args, seconds=10.0):
    out = []
    worker = threading.Thread(target=lambda: out.append(fn(*args)), daemon=True)
    worker.start()
    worker.join(seconds)
    assert out, f"{fn.__name__}{args} did not return within {seconds} s"
    return out[0]


@pytest.mark.parametrize("gamma", [1e-30, 0.3, 1.0])
def test_tie_in_converged_tail_is_a_geometric_series(gamma):
    # Every index below the table's last entry lies under lam = W(0, L), and
    # from L on the index equals lam, so each slot probes with probability
    # gamma: E[gap after 0] = L - 1 + 1/gamma, and the gap after a 1 is one
    # slot longer with the same cost.  (1 - 1e-30) == 1.0, so a slot-by-slot
    # walk would never shed the unprobed mass.
    spec = concave_spec(cost=1.5)
    big_l = len(spec.process.values)
    p = lambda t: marginal_p(spec.process, t)
    lam = whittle_index(spec, ArmState(0, big_l))
    assert all(whittle_index(spec, ArmState(0, t)) < lam for t in range(big_l))
    extra = 1.0 / gamma - 1.0
    if gamma == 0.3:
        series = sum(gamma * (1.0 - gamma) ** (j - 1) * (j - 1) for j in range(1, 400))
        assert series == pytest.approx(extra, rel=1e-12)
    tail_p = p(big_l)
    e_len = big_l + extra + tail_p  # (1 - theta) e0 + theta (e0 + 1), theta = p_inf
    cum = sum(p(k) for k in range(1, big_l + 1)) + tail_p * extra
    rate, cost_rate = _terminates(_rates, spec, lam, gamma)
    assert math.isfinite(rate) and rate > 0.0
    assert rate == pytest.approx(1.0 / e_len, rel=1e-12, abs=0.0)
    assert cost_rate == pytest.approx(spec.cost * cum / e_len, rel=1e-12, abs=0.0)


def test_parked_arm_reports_zero_rate_and_cap():
    # criterion 8's trial 7: arm 2's index never reaches lambda*
    specs = random_strict_specs(4, seed=5_007)
    plan = solve_lambda_star(specs, 1)
    assert plan.rates[2] == 0.0
    assert plan.t0_star[2] == T_CAP
    assert [r > 0.0 for r in plan.rates] == [True, True, False, True]
    assert sum(plan.rates) == pytest.approx(1.0, abs=1e-6)


def test_float_zero_markov_arm_converges_at_once():
    # 1 - 1e-175 == 1.0, so the middle arm's p(t) is 0.0 at every t and its
    # index is 0; each of its walks once ran to T_CAP (about 3 s a solve).
    # The plan is the one those full walks gave, bit for bit.
    specs = [markov_spec(0.3, cost=1.0), markov_spec(1e-175, cost=2.0), markov_spec(0.6, cost=0.7)]
    start = time.perf_counter()
    plan = solve_lambda_star(specs, 1)
    assert time.perf_counter() - start < 0.5
    assert plan.lambda_star == float.fromhex("0x1.5ad6b5ad6b5b1p-2")
    assert plan.mixing == (0.0, 0.0, float.fromhex("0x1.e64bcc97992f2p-1"))
    assert plan.t0_star == (2, T_CAP, 1)
    assert plan.rates == (float.fromhex("0x1.97f7d73404147p-2"), 0.0,
                          float.fromhex("0x1.34041465fdf5cp-1"))


@pytest.mark.parametrize("spec", [markov_spec(0.3, cost=1.5), concave_spec(cost=0.7)])
@pytest.mark.parametrize("gamma", [0.25, 0.7])
def test_zero_subsidy_mixes_at_the_fresh_repair(spec, gamma):
    # At lam = 0 every (0, t) state probes, and the fresh repair (1, 1) sits
    # at W(0, 0) = 0 = lam, so it probes with probability gamma.  The gap
    # after a 0 is one slot (abnormal w.p. p(1)); after a 1 it is one slot
    # w.p. gamma (the repaired component is healthy), else two slots
    # (abnormal w.p. p(1)).  theta is the stationary share of 1-observations.
    p1 = marginal_p(spec.process, 1)
    assert whittle_index(spec, ArmState(0, 1)) > 0.0
    e0, b0, c0 = 1.0, p1, spec.cost * p1
    e1, b1, c1 = 2.0 - gamma, (1.0 - gamma) * p1, (1.0 - gamma) * spec.cost * p1
    theta = b0 / (1.0 - b1 + b0)
    e_len = (1.0 - theta) * e0 + theta * e1
    rate, cost_rate = _rates(spec, 0.0, gamma)
    assert rate == pytest.approx(1.0 / e_len, rel=1e-12, abs=0.0)
    assert cost_rate == pytest.approx(((1.0 - theta) * c0 + theta * c1) / e_len,
                                      rel=1e-12, abs=0.0)


def test_plan_t0_star_is_the_first_slot_the_plan_may_probe():
    # relaxed_select probes (0, t) when W(0, t) > lam*, or when W(0, t) =
    # lam* and the arm mixes; t0_star is the first such t >= 1, and T_CAP
    # for a parked arm.  Criterion 8's 20 instances.
    rng = np.random.default_rng(88)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        specs = random_strict_specs(n, seed=5_000 + trial)
        plan = solve_lambda_star(specs, int(rng.integers(1, n)))
        lam = plan.lambda_star
        for idx, spec in enumerate(specs):
            def may_probe(t):
                w = whittle_index(spec, ArmState(0, t))
                return w > lam or (w == lam and plan.mixing[idx] > 0.0)

            first = next((t for t in range(1, T_CAP + 1) if may_probe(t)),
                         T_CAP)
            assert plan.t0_star[idx] == first, (trial, idx, plan)
            assert (plan.rates[idx] == 0.0) == (not may_probe(first))


def _late_converging_pair(slow_q=0.3, slow_cost=0.1):
    # the first arm's marginals converge late (slot 78 at q = 0.3); the
    # second is probed almost every slot, so the first carries ~1% of K
    return [markov_spec(slow_q, cost=slow_cost), ComponentSpec(Table((0.01, 0.1)), 5.0)]


def test_lambda_star_reaches_past_slot_64_of_a_late_converging_arm():
    # Arm 0 first converges at slot 78.  A candidate scan of only each
    # arm's first 64 slots lands on arm 1's W(0, 1) = 0.4133, which parks
    # arm 0 and sums the rates to 0.990099; lambda* is arm 0's W(0, 78).
    specs = _late_converging_pair()
    arm0 = specs[0]
    assert _stop(arm0.process) == 78
    plan = solve_lambda_star(specs, 1)
    assert sum(plan.rates) == pytest.approx(1.0, abs=1e-6)
    assert plan.lambda_star == index_values(arm0, 78)[78]
    assert 0.0 < plan.mixing[0] < 1.0
    assert plan.mixing[1] == 0.0


def test_lambda_star_is_the_smallest_candidate_within_budget():
    # Candidates taken from every positive W(0, t), t <= T_CAP, of
    # every arm: lambda* is 0 or a candidate, the gamma = 0 rates sum to at
    # most K there, and at the largest candidate below it they sum to more.
    # Criterion 8's instances, the late-converging pair, and the pair with
    # a q = 0.01 arm in its first place.
    instances = [*_criterion_8_instances(), (_late_converging_pair(), 1),
                 (_late_converging_pair(slow_q=0.01, slow_cost=0.01), 1)]
    for specs, k in instances:
        plan = solve_lambda_star(specs, k)
        cands = sorted({v for s in specs for v in index_values(s, T_CAP) if v > 0.0})
        tables = [_arm_table(s) for s in specs]
        total = lambda lam: sum(_policy_rates(s, lam, 0.0, table)[0]
                                for s, table in zip(specs, tables))
        assert plan.lambda_star == 0.0 or plan.lambda_star in cands, (specs, plan)
        assert total(plan.lambda_star) <= k + 1e-12, (specs, plan)
        below = bisect.bisect_left(cands, plan.lambda_star)
        assert below == 0 or total(cands[below - 1]) > k + 1e-12, (specs, plan)


def test_arm_table_indices_match_index_values():
    # The arm table evaluates W(0, t) from the marginals it already holds,
    # plus p(stop + 1); index_values takes each p(t) itself.  Same bits.
    # Criterion 8's arms, a q = 0.01 arm (stop 2750) and the q = 1e-175 arm.
    specs = [s for specs in _criterion_8_specs() for s in specs]
    specs += [markov_spec(0.01, cost=0.7), markov_spec(1e-175, cost=2.0)]
    for spec in specs:
        p, w = _arm_table(spec)
        assert len(w) == len(p)
        assert [x.hex() for x in w] == [x.hex() for x in index_values(spec, len(p) - 1)]


def test_solve_matches_the_reference_solve_bit_for_bit():
    # The solve walks only the arms whose rate moves with the mixing
    # probability and stops the bisection at its fixed point; the reference
    # walks every arm at each of 100 steps.  The plans agree in every bit:
    # 500 random instances (repeated arms, tiny q, the q = 1e-175 arm),
    # criterion 8's, the late-converging pairs and the hex-pinned triple.
    instances = [
        *random_relaxed_instances(500, seed=14),
        *_criterion_8_instances(),
        (_late_converging_pair(), 1),
        (_late_converging_pair(slow_q=0.01, slow_cost=0.01), 1),
        ([markov_spec(0.3, cost=1.0), markov_spec(1e-175, cost=2.0),
          markov_spec(0.6, cost=0.7)], 1),
    ]
    zero = mixed = 0
    for specs, k in instances:
        plan = solve_lambda_star(specs, k)
        assert repr(plan) == repr(reference_solve_lambda_star(specs, k)), (specs, k)
        zero += plan.lambda_star == 0.0
        mixed += any(plan.mixing)
    assert zero >= 50 and mixed >= 300, (zero, mixed)


def _converged_walk(proc) -> int:
    """The slot a walk of p stops at: the first t >= 1 with 1 - p(t) <=
    1e-12, or p(t) = 0.0, or t at a table's length; T_CAP if none is."""
    for t, p_t in enumerate(islice(marginals(proc), 1, T_CAP + 1), 1):
        if t >= len(proc.values) if isinstance(proc, Table) else 1.0 - p_t <= 1e-12 or p_t == 0.0:
            return t
    return T_CAP


def test_walk_length_is_counted_without_walking():
    # `_stop` counts an arm's last slot from its process alone, and
    # `_marginals` holds p up to it.  It is the slot a walk of p stops at:
    # never earlier, and not one later where 1 - p(t) rounds down to the
    # bound while (1 - q)^t is still above it (q = 0.999, t = 4).
    assert _stop(MarkovIID(0.999)) == _converged_walk(MarkovIID(0.999)) == 4
    rng = random.Random(28)
    longer_than_the_cap = tuple(t / (T_CAP + 5) for t in range(T_CAP + 5))
    tables = [Table(values) for values in ((0.2,), (0.1, 0.5, 0.5), (0.0,) * 7 + (0.9,),
                                           longer_than_the_cap)]
    assert [_stop(proc) for proc in tables] == [1, 3, 8, T_CAP]
    qs = [1e-175, 1e-17, 1e-6, 0.5, 1.0 - 2**-53] + [10 ** rng.uniform(-17, -1e-5)
                                                      for _ in range(200)]
    for proc in [*tables, *map(MarkovIID, qs)]:
        assert _stop(proc) == _converged_walk(proc), proc
        assert len(_marginals(proc)) == _stop(proc) + 1
    assert [_stop(MarkovIID(q)) for q in qs[:4]] == [1, 1, T_CAP, 40]


def test_the_guard_counts_the_slots_the_tables_hold(monkeypatch):
    # On criterion 8's instances the slots `solve_lambda_star` counts
    # before it builds a table are the slots its arm tables hold: the
    # count is S x (1 + log2(S) + 100), increasing in S.
    held = []

    def arm_table(spec):
        p, w = _arm_table(spec)
        held.append(len(p))
        return p, w

    monkeypatch.setattr(probesched.subsidy, "_arm_table", arm_table)
    for specs, k in _criterion_8_instances():
        held.clear()
        solve_lambda_star(specs, k)
        slots = sum(held)
        assert len(held) == len(specs)
        with monkeypatch.context() as m:
            m.setattr(probesched.subsidy, "DEFAULT_BOUND", 0)
            with pytest.raises(SearchSpaceError) as exc:
                solve_lambda_star(specs, k)
        assert exc.value.count == slots * (1 + slots.bit_length() + 100)


def test_subsidy_refuses_slow_arms_before_any_table(tmp_path, capsys, monkeypatch):
    # 10,000 arms of q = 1e-6, each walked to T_CAP, once would have taken
    # about 14 GiB; as components and as a queueing network alike
    tables = []
    monkeypatch.setattr(probesched.subsidy, "_arm_table", tables.append)
    arm, n = {"kind": "markov", "q": 1e-6, "cost": 1.0}, 10_000
    cls = {"arrival": {"kind": "bernoulli", "q": 1e-6}, "holding_cost": 1.0}
    path = tmp_path / "cfg.json"
    for cfg in ({"components": [arm] * n, "K": n // 2},
                {"queueing": {"servers": n // 2, "classes": [cls] * n}}):
        path.write_text(json.dumps(cfg))
        start = time.perf_counter()
        assert main(["subsidy", "--config", str(path)]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith(
            f"refused: search space too large: {n * 10_001 * 128} arm-table slots")
    assert tables == []


def test_subsidy_guard_passes_eight_slow_arms_and_refuses_nine():
    # T_CAP + 1 slots each, held and walked by 1 + 17 + 100 passes
    specs = [markov_spec(1e-6 * (1 + 0.01 * i), cost=1.0) for i in range(9)]
    plan = solve_lambda_star(specs[:8], 4)
    assert sum(plan.rates) == pytest.approx(4.0, abs=1e-6)
    with pytest.raises(SearchSpaceError) as exc:
        solve_lambda_star(specs, 4)
    assert exc.value.count == 9 * 10_001 * 118 > exc.value.bound > 8 * 10_001 * 118


_TRIAL_3 = list(_criterion_8_instances())[3]
# (name, subcommand, config, sha256 of the CSV bytes), recorded before the
# relaxed plan kept its cost rates: criterion 8's trial 3, where one arm
# mixes; four arms whose q = 1e-175 arm is parked; and a queueing network
# under `simulate`.
_GOLDEN_CSV = [
    ("criterion-8-trial-3", "subsidy",
     {"components": [component_to_json(s) for s in _TRIAL_3[0]], "K": _TRIAL_3[1]},
     "c4d18c4daf55f7586882c69b7874a53b297bef04b429ac1edfc8e01933d7e4db"),
    ("parked-float-zero-arm", "subsidy",
     {"components": [{"kind": "markov", "q": 0.3, "cost": 1.0},
                     {"kind": "markov", "q": 1e-175, "cost": 2.0},
                     {"kind": "markov", "q": 0.6, "cost": 0.7},
                     {"kind": "table", "p": [0.5, 0.7, 0.85, 0.95, 0.97, 0.975, 0.978, 0.98],
                      "cost": 1.2}],
      "K": 2},
     "b37cde58d5783907119fcb0d8ca73ac715c0bbe0a397ee46a0efea9cad1da1d0"),
    ("queueing-default-mode", "simulate",
     {"queueing": {"servers": 1, "classes": [
         {"arrival": {"kind": "bernoulli", "q": 0.2}, "holding_cost": 1.0},
         {"arrival": {"kind": "bernoulli", "q": 0.5}, "holding_cost": 1.0},
         {"arrival": {"kind": "table", "p": [0.3, 0.5, 0.6]}, "holding_cost": 2.0}]},
      "horizon": 30, "replications": 40, "seed": 7, "policies": ["whittle", "queue"]},
     "c5ae7c8f13c800af7b024aa058369a89d1b97bf6cb240ee688d326b3749be981"),
]


@pytest.mark.parametrize("name, command, cfg, digest", _GOLDEN_CSV,
                         ids=[g[0] for g in _GOLDEN_CSV])
def test_csv_bytes_are_golden(tmp_path, name, command, cfg, digest):
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

import dataclasses
import tracemalloc
from collections import deque
from itertools import accumulate, islice

import numpy as np
import pytest

from probesched import (
    ArmState,
    ComponentSpec,
    Table,
    belief_abnormal,
    check_c1,
    indifference_gap,
    optimal_stopping,
    whittle_index,
)
import probesched.whittle
from probesched.attack import marginals
from probesched.subsidy import _objective
from probesched.whittle import index_rows, index_values
from helpers import concave_spec, markov_spec, random_strict_specs


def test_origin_and_fresh_repair_are_zero():
    for spec in (markov_spec(0.2), concave_spec(2.0)):
        assert whittle_index(spec, ArmState(0, 0)) == 0.0
        assert whittle_index(spec, ArmState(1, 1)) == 0.0


def test_closed_form_values():
    spec = markov_spec(0.5)
    assert whittle_index(spec, ArmState(0, 1)) == pytest.approx(0.4, abs=1e-12)
    assert whittle_index(spec, ArmState(0, 2)) == pytest.approx(0.888889, abs=1e-6)
    assert whittle_index(concave_spec(), ArmState(0, 1)) == pytest.approx(0.375, abs=1e-12)


def test_repair_branch_identity_is_bitwise():
    for spec in (markov_spec(0.31), concave_spec(1.7)):
        for t in range(1, 51):
            assert whittle_index(spec, ArmState(1, t)) == whittle_index(
                spec, ArmState(0, t - 1)
            )


def test_cost_linearity_is_exact():
    base = markov_spec(0.4, cost=1.3)
    doubled = markov_spec(0.4, cost=2.6)
    for t in range(1, 20):
        assert whittle_index(doubled, ArmState(0, t)) == 2.0 * whittle_index(
            base, ArmState(0, t)
        )


def _strictly_increasing(spec, horizon):
    w = index_values(spec, horizon)
    return all(a < b for a, b in zip(w, w[1:]))


def test_strict_indexability_examples():
    assert _strictly_increasing(markov_spec(0.5), 30)
    assert _strictly_increasing(concave_spec(), 7)
    flat = ComponentSpec(Table((0.5, 0.5, 0.5, 0.5)), 1.0)
    assert not _strictly_increasing(flat, 3)


def test_strict_increase_under_c1():
    for spec in random_strict_specs(12, seed=5):
        horizon = 12
        assert check_c1(spec.process, horizon)
        w = index_values(spec, horizon - 1)
        assert all(a < b for a, b in zip(w, w[1:]))


_SHAPES = ("zero prefix", "plateau", "final 1.0", "S-shape", "step")


def _nondecreasing_table(rng, shape: str) -> Table:
    """A random nondecreasing table of 1..8 entries (a plateau repeats one
    of them up to 3 more times), of one of `_SHAPES`."""
    n = int(rng.integers(1, 9))
    grow = np.sort(rng.uniform(0.0, 1.0, n))
    if shape == "zero prefix":
        vals = np.where(np.arange(n) < rng.integers(1, n + 1), 0.0, grow)
    elif shape == "plateau":
        k = int(rng.integers(0, n))
        vals = np.insert(grow, k, [grow[k]] * int(rng.integers(1, 4)))
    elif shape == "final 1.0":
        vals = np.append(grow, 1.0)
    elif shape == "S-shape":
        mid, steep, top = rng.uniform(1, n + 1), rng.uniform(0.5, 4.0), rng.uniform(0.3, 1.0)
        vals = top / (1.0 + np.exp(-steep * (np.arange(1, n + 1) - mid)))
    else:
        top = 1.0 if rng.random() < 0.3 else rng.uniform()
        vals = np.where(np.arange(n) < rng.integers(0, n), 0.0, top)
    return Table(tuple(vals.tolist()))


# W(0, 1..3) of this table once dropped by an ulp of the terms each
# subtracts; on the nearly periodic one the finite-horizon indifference gap
# swings with the horizon
_FLAT = (Table((0.00022528330471449642,) * 2), 1.8672351802106297)
_PERIODIC = (Table((0, 0, 0, 0, 0, 0, 0.9449940099230699)), 1.0)


def test_closed_form_on_nondecreasing_tables():
    # C1 (strict concavity) is sufficient; these tables break it.  Past a
    # table's end W(0, .) is exactly constant.  Elsewhere it may drop by
    # rounding where the true increase is below it: W(0, t) subtracts terms
    # of up to c (t + 1) p(t + 1) and rounds relative to them, not to
    # itself, so the 1e-12 allowance is relative to that scale.
    rng = np.random.default_rng(20_261_019)
    cases = [(_nondecreasing_table(rng, _SHAPES[j % len(_SHAPES)]), float(rng.uniform(0.3, 3.0)))
             for j in range(1000)]
    checks = 0
    for table, cost in [*cases, _FLAT, _PERIODIC]:
        spec, p = ComponentSpec(table, cost), table.values
        w = index_values(spec, len(p) + 2)
        for t, (now, later) in enumerate(zip(w, w[1:])):
            assert later >= now - 1e-12 * spec.cost * (t + 2) * p[min(t + 2, len(p)) - 1]
        assert w[len(p):] == [w[len(p)]] * 3, (table, cost)
        # horizon-free indifference: at lam = W(0, t) the cycle rewards of
        # probing at t and at t + 1 tie, up to rounding of their terms
        pt = list(islice(marginals(table), len(w) + 1))
        cum = list(accumulate(pt))
        for t in range(1, len(w)):
            lam, scale = w[t], abs(w[t]) * (t + 1) + spec.cost * cum[t + 1]
            gap = (_objective(spec, lam, t, pt[t], cum[t])
                   - _objective(spec, lam, t + 1, pt[t + 1], cum[t + 1]))
            assert scale == 0.0 or abs(gap) <= 1e-12 * scale, (table, cost, t)
        # below the plateau the stopping rule probes at the first index above
        # lam; at lam = W(0, t) probing at t and at t + 1 tie, so that is skipped
        for lam in (w[-1] * np.arange(1, 13) / 13).tolist():
            if lam > 0.0 and all(abs(v - lam) > 1e-12 * lam for v in w):
                first = next(t for t in range(1, len(w)) if w[t] > lam)
                assert optimal_stopping(spec, lam).t0_star == first, (table, spec.cost, lam)
                checks += 1
    assert checks > 10_000
    assert index_values(ComponentSpec(*_FLAT), 3)[1:] == [9.47669793037101e-08] * 3


def test_index_table_layout():
    spec = markov_spec(0.5)
    rows = list(index_rows(spec, 2))
    assert [(i, t) for i, t, _ in rows] == [(0, 1), (0, 2), (1, 1), (1, 2)]
    vals = {(i, t): w for i, t, w in rows}
    assert vals[(0, 1)] == pytest.approx(0.4, abs=1e-12)
    assert vals[(0, 2)] == pytest.approx(0.888889, abs=1e-6)
    assert vals[(1, 1)] == 0.0
    assert vals[(1, 2)] == vals[(0, 1)]


def test_index_table_repair_rows_match():
    rows = {(i, t): w for i, t, w in index_rows(concave_spec(), 7)}
    for t in range(2, 8):
        assert rows[(1, t)] == rows[(0, t - 1)]
    assert rows[(1, 1)] == 0.0


def test_index_table_single_row_horizon():
    rows = list(index_rows(markov_spec(0.3), 1))
    assert len(rows) == 2
    assert rows[1] == (1, 1, 0.0)


def test_index_nonnegative_on_reachable_states():
    for spec in random_strict_specs(10, seed=11):
        for t in range(1, 12):
            assert whittle_index(spec, ArmState(0, t)) > 0.0
            assert whittle_index(spec, ArmState(1, t)) >= 0.0


def test_index_order_matches_belief_order():
    # sorting states by index and by abnormal belief must agree, ties included
    for spec in random_strict_specs(8, seed=23):
        states = [ArmState(i, t) for i in (0, 1) for t in range(1, 12)]
        pairs = [
            (whittle_index(spec, s), belief_abnormal(spec, s)) for s in states
        ]
        by_w = sorted(range(len(pairs)), key=lambda k: pairs[k][0])
        beliefs_in_w_order = [pairs[k][1] for k in by_w]
        assert beliefs_in_w_order == sorted(beliefs_in_w_order)
        for a in range(len(pairs)):
            for b in range(len(pairs)):
                if pairs[a][0] == pairs[b][0]:
                    assert pairs[a][1] == pairs[b][1]


def test_clamped_tail_indices_tie():
    # constant marginals beyond the table give a constant index (up to the
    # rounding drift of the running sum)
    spec = ComponentSpec(Table((0.3, 0.5, 0.6)), 1.0)
    tail = [whittle_index(spec, ArmState(0, t)) for t in range(3, 8)]
    assert all(v == pytest.approx(tail[0], abs=1e-12) for v in tail)


def test_index_is_the_indifference_subsidy():
    # the definitional check: at lam = W(i,t) a long-horizon subsidy bandit
    # is indifferent between probing now and waiting one slot
    for spec in (markov_spec(0.5), markov_spec(0.2, cost=2.0), concave_spec()):
        for i, t in ((0, 1), (0, 2), (0, 5), (1, 2), (1, 4)):
            state = ArmState(i, t)
            lam = whittle_index(spec, state)
            assert indifference_gap(spec, state, lam, horizon=200) <= 1e-6
            assert indifference_gap(spec, state, lam, horizon=400) <= 1e-6


def test_off_index_subsidy_is_not_indifferent():
    spec = markov_spec(0.5)
    state = ArmState(0, 1)
    assert indifference_gap(spec, state, 0.2, horizon=200) > 1e-3
    assert indifference_gap(spec, state, 0.6, horizon=200) > 1e-3


def test_monotone_index_for_fixed_branch():
    for spec in random_strict_specs(6, seed=40):
        w0 = [whittle_index(spec, ArmState(0, t)) for t in range(1, 12)]
        w1 = [whittle_index(spec, ArmState(1, t)) for t in range(1, 12)]
        assert all(a < b for a, b in zip(w0, w0[1:]))
        assert all(a < b for a, b in zip(w1, w1[1:]))


@pytest.mark.parametrize("spec", [markov_spec(0.3), concave_spec()], ids=["markov", "table"])
def test_index_values_takes_each_marginal_once(monkeypatch, spec):
    # p(t + 1) is carried forward as the next slot's p(t): the walk is drawn
    # once, p(0) skipped and p(1)..p(horizon + 1) each read once
    drawn = []

    def counted(process):
        for t, p in enumerate(marginals(process)):
            drawn.append(t)
            yield p

    horizon = 40
    expected = index_values(spec, horizon)
    monkeypatch.setattr(probesched.whittle, "marginals", counted)
    assert index_values(spec, horizon) == expected
    assert drawn == list(range(horizon + 2))


@pytest.mark.parametrize("spec", [markov_spec(0.3), concave_spec()], ids=["markov", "table"])
@pytest.mark.parametrize("horizon", [1, 2, 300])
def test_index_rows_read_index_values_bitwise(spec, horizon):
    # row (i, t) is W(0, t - i), each pass over the marginals its own
    w = index_values(spec, horizon)
    expected = [(i, t, w[t - i]) for i in (0, 1) for t in range(1, horizon + 1)]
    assert [(i, t, x.hex()) for i, t, x in index_rows(spec, horizon)] == [
        (i, t, x.hex()) for i, t, x in expected]


def test_index_rows_hold_no_list_of_indices():
    # 2 x 10^5 rows: a list of the horizon's indices peaks at 3.1 MiB, about
    # 16 B a row; rows made from the marginals as they are read hold none
    tracemalloc.start()
    try:
        deque(index_rows(markov_spec(0.3), 100_000), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


def test_equal_specs_give_equal_bits_without_rehashing(monkeypatch):
    # each spec keeps its own memo, so a lookup hashes nothing; the spec's
    # hash is still the dataclass hash of its fields
    a, b = (ComponentSpec(Table((0.2, 0.5, 0.6)), 1.5) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b) == hash((a.process, a.cost))
    table_hash, hashed = Table.__hash__, []
    monkeypatch.setattr(Table, "__hash__", lambda self: hashed.append(self) or table_hash(self))
    values = {whittle_index(spec, ArmState(0, 3)).hex() for spec in (a, b, a)}
    assert values == {index_values(a, 3)[3].hex()}
    assert hashed == []


@pytest.mark.parametrize("spec", [markov_spec(0.3), concave_spec()], ids=["markov", "table"])
def test_lookups_past_the_memo_read_index_values_bitwise(spec):
    # each lookup past the memo's end refills it; a later, shorter one
    # reads the refilled memo
    for t in (7, 8, 9, 16, 17, 4097, 3):
        for i in (0, 1):
            expected = index_values(spec, t - i)[t - i]
            assert whittle_index(spec, ArmState(i, t)).hex() == expected.hex()


def test_the_memo_is_no_field():
    a, b = ComponentSpec(Table((0.2, 0.5)), 2.0), ComponentSpec(Table((0.2, 0.5)), 2.0)
    before = repr(a)
    whittle_index(a, ArmState(0, 20))
    assert [f.name for f in dataclasses.fields(ComponentSpec)] == ["process", "cost"]
    assert a.index_memo and not b.index_memo
    assert a == b and repr(a) == repr(b) == before

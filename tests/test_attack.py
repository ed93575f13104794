import math
from itertools import islice

import numpy as np
import pytest

from probesched import (
    ComponentSpec,
    MarkovIID,
    Table,
    check_c1,
    component_from_json,
    marginal_p,
)
from probesched.attack import hazards, marginals
from helpers import CONCAVE8, component_to_json, hazard

# edge cases of the walk: 1 - q rounds to 1, q near 1, a zero prefix, a
# table reaching 1.0; every table here ends before t = 40
WALK_EDGES = [MarkovIID(1e-175), MarkovIID(1.0 - 1e-9), Table((0.0, 0.0, 0.3, 0.5)),
              Table((0.2, 0.6, 1.0))]


def _two_marginal_hazard(proc, t):
    # h(t) from two scalar marginals, the reference `hazards` is pinned against
    if isinstance(proc, MarkovIID):
        return proc.q
    prev = marginal_p(proc, t - 1)
    if prev >= 1.0:
        return 1.0
    return (marginal_p(proc, t) - prev) / (1.0 - prev)


def test_markov_marginal_closed_form():
    proc = MarkovIID(0.5)
    assert marginal_p(proc, 2) == 0.75
    for t in range(0, 40):
        assert marginal_p(proc, t) == 1.0 - 0.5**t


def test_marginal_at_zero_is_zero():
    for proc in (MarkovIID(0.3), Table(CONCAVE8), Table((0.0,))):
        assert marginal_p(proc, 0) == 0.0


def test_table_lookup_and_clamping():
    proc = Table(CONCAVE8)
    assert marginal_p(proc, 3) == 0.85
    assert marginal_p(proc, 8) == 0.98
    assert marginal_p(proc, 9) == 0.98
    assert marginal_p(proc, 1000) == 0.98


def test_marginal_rejects_negative_t():
    with pytest.raises(ValueError):
        marginal_p(MarkovIID(0.5), -1)


@pytest.mark.parametrize("q", [0.1, 0.3, 0.9])
def test_markov_hazard_is_constant(q):
    proc = MarkovIID(q)
    for t in (1, 2, 7, 50):
        assert hazard(proc, t) == q


def test_table_hazards_by_hand():
    proc = Table(CONCAVE8)
    assert hazard(proc, 1) == pytest.approx(0.5, abs=1e-15)
    assert hazard(proc, 2) == pytest.approx(0.4, abs=1e-15)


def test_hazard_saturated_marginal_convention():
    proc = Table((1.0, 1.0))
    assert hazard(proc, 2) == 1.0
    assert hazard(proc, 5) == 1.0


@pytest.mark.parametrize(
    "proc",
    [MarkovIID(0.07), MarkovIID(0.5), Table(CONCAVE8), Table((0.2, 0.2, 0.9)), *WALK_EDGES],
)
def test_marginals_nondecreasing(proc):
    vals = [marginal_p(proc, t) for t in range(0, 41)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    # the walk is the scalar bit for bit, past a table's end too
    assert [p.hex() for p in islice(marginals(proc), 41)] == [p.hex() for p in vals]


@pytest.mark.parametrize("proc", [MarkovIID(0.35), Table(CONCAVE8), *WALK_EDGES])
def test_marginal_hazard_consistency(proc):
    # 1 - p(t) must equal the product of (1 - h(k)) up to rounding
    limit = len(proc.values) if isinstance(proc, Table) else 20
    survival = 1.0
    for t in range(1, limit + 1):
        survival *= 1.0 - hazard(proc, t)
        assert math.isclose(1.0 - marginal_p(proc, t), survival, abs_tol=1e-12)
    # the walk and its scalar view give the two-marginal formula bit for bit
    expected = [_two_marginal_hazard(proc, t).hex() for t in range(1, 41)]
    assert [h.hex() for h in islice(hazards(proc), 40)] == expected
    assert [hazard(proc, t).hex() for t in range(1, 41)] == expected


def test_check_c1_markov_always_true():
    for q in (0.05, 0.5, 0.95 - 1e-9):
        for horizon in (2, 20, 10_000):
            assert check_c1(MarkovIID(q), horizon)


def test_check_c1_concave_table():
    assert check_c1(Table(CONCAVE8), 8)


def test_check_c1_fails_once_clamped():
    # two zero increments inside the window break strict decrease
    proc = Table((0.3, 0.5, 0.6))
    assert check_c1(proc, 3)
    assert not check_c1(proc, 6)


def test_check_c1_rejects_short_horizon():
    with pytest.raises(ValueError):
        check_c1(MarkovIID(0.5), 1)


def test_process_validation():
    with pytest.raises(ValueError):
        MarkovIID(0.0)
    with pytest.raises(ValueError):
        MarkovIID(1.0)
    with pytest.raises(ValueError):
        Table(())
    with pytest.raises(ValueError):
        Table((0.5, 0.4))
    with pytest.raises(ValueError):
        Table((0.5, 1.2))
    for cost in (-1.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="cost"):
            ComponentSpec(MarkovIID(0.5), cost)


def test_component_json_round_trip():
    specs = [
        ComponentSpec(MarkovIID(0.5), 1.0),
        ComponentSpec(Table(CONCAVE8), 2.5),
    ]
    for spec in specs:
        assert component_from_json(component_to_json(spec)) == spec


def test_component_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        component_from_json({"kind": "weibull", "cost": 1.0})
    with pytest.raises(ValueError):
        component_from_json({"kind": "markov", "q": 0.2})


def test_allow_marginal_reaching_one():
    proc = Table((0.5, 1.0))
    assert marginal_p(proc, 2) == 1.0
    assert hazard(proc, 2) == 1.0
    assert hazard(proc, 3) == 1.0  # vacuous conditioning convention


def test_random_monotone_tables_accepted():
    rng = np.random.default_rng(0)
    for _ in range(50):
        vals = np.sort(rng.uniform(0, 1, size=rng.integers(1, 12)))
        proc = Table(tuple(vals))
        pts = [marginal_p(proc, t) for t in range(0, 15)]
        assert all(a <= b for a, b in zip(pts, pts[1:]))

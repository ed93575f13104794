"""Closed-form Whittle indices for the reset-monitoring bandit.

For a component with marginals p and per-slot abnormal cost c the index of
arm state (0, t) is

    W(0, t) = ( p(t+1) (t + p(t)) / (1 + p(t+1) - p(t)) - sum_{k<=t} p(k) ) * c

with W(0, 0) = 0, and W(1, t) = W(0, t-1) because a repaired component lags
a reset one by exactly one slot.  Under strictly concave marginals W(0, .)
is strictly increasing, which makes the index the infimum passivity subsidy
at each state.  On random nondecreasing tables (zero prefixes, plateaus, a
final 1.0, S-shapes, steps) the tests find W(0, .) nondecreasing up to
rounding and exactly constant past the table's end, its threshold at each
lam below its plateau the t0* of `subsidy.optimal_stopping`, and at
lam = W(0, t) the cycle rewards of probing at t and at t + 1 equal up to
rounding; the finite-horizon DP indifference check is on concave ones.
"""

from __future__ import annotations

from itertools import islice, pairwise

from .arm import ArmState
from .attack import ComponentSpec, marginals


def index_from_marginals(cost: float, marginals):
    """W(0, 0), W(0, 1), ... lazily from the marginals p(1), p(2), ...:
    W(0, t) takes p(t + 1), so n >= 1 marginals give W(0, 0..n-1).  The
    closed form is written here only.  Where p(t - 1) = p(t) = p(t + 1) it
    gives W(0, t) = W(0, t - 1), which is yielded again, so W(0, .) is
    exactly constant past a table's end."""
    yield (w := 0.0)
    cum = p_prev = 0.0
    for t, (p_t, p_next) in enumerate(pairwise(marginals), 1):
        cum += p_t
        if not p_prev == p_t == p_next:
            w = (p_next * (t + p_t) / (1.0 + p_next - p_t) - cum) * cost
        yield w
        p_prev = p_t


def index_values(spec: ComponentSpec, horizon: int) -> list:
    """W(0, t) for t = 0..horizon, by forward accumulation of sum p(k)."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    return list(index_from_marginals(spec.cost, islice(marginals(spec.process), 1, horizon + 2)))


def whittle_index(spec: ComponentSpec, state: ArmState) -> float:
    """Whittle index of an arm state; W(1, t) shares the W(0, t-1) code
    path bit for bit.

    Each spec memoises W(0, .) to twice the largest t read; the forward
    accumulation makes every prefix independent of how far it ran, so
    memoised and fresh values agree bitwise.
    """
    t = state.t - state.i
    if t < 0:
        raise ValueError(f"no index is defined at (i={state.i}, t={state.t})")
    memo = spec.index_memo
    if t >= len(memo):
        memo[:] = index_values(spec, max(2 * t, 8))
    return memo[t]


def index_rows(spec: ComponentSpec, horizon: int):
    """(i, t, index) for (0, 1..horizon) then (1, 1..horizon), lazily."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    # row (i, t) reads W(0, t - i): one pass over the marginals per i, so no
    # list of indices is held
    for i in (0, 1):
        p = islice(marginals(spec.process), 1, horizon + 2 - i)
        values = islice(index_from_marginals(spec.cost, p), 1 - i, None)
        for t, w in enumerate(values, 1):
            yield i, t, w

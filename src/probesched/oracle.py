"""Exact finite-horizon machinery on small instances.

One backward induction over the reachable joint arm states gives both the
true optimal expected cost (minimising over every K-subset of arms) and a
fixed policy's exact value (expanding only the policy's own selection).
It charges each slot the expected abnormal cost sum(c_n * P(abnormal))
before the slot's probes take effect; the abnormal-probability entries are
exact marginals given the arm states, so no sampling is involved.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .arm import ArmState, belief_abnormal
from .policies import whittle_policy

DEFAULT_BOUND = 10_000_000


class SearchSpaceError(RuntimeError):
    """Raised when a problem's size exceeds the bound set on it: the
    oracle's reachable joint states x horizon, or the simulator's uniforms."""

    def __init__(self, count: int, bound: int, what: str):
        self.count = count
        self.bound = bound
        super().__init__(f"search space too large: {count} {what} exceeds the bound {bound}")


def _belief(spec, i: int, t: int) -> float:
    return belief_abnormal(spec, ArmState(i, t))


def _slot_cost(specs, state: tuple) -> float:
    return sum(s.cost * _belief(s, i, t) for s, (i, t) in zip(specs, state))


def _obs_branches(specs, state: tuple, selection):
    """(probed (arm, obs) pairs, probability) over the probed arms, with
    zero-probability outcomes pruned."""
    per_arm = []
    for n in selection:
        i, t = state[n]
        b = _belief(specs[n], i, t)
        outcomes = []
        if b < 1.0:
            outcomes.append((n, 0, 1.0 - b))
        if b > 0.0:
            outcomes.append((n, 1, b))
        per_arm.append(outcomes)
    branches = []
    for combo in itertools.product(*per_arm):
        pr = 1.0
        for _n, _o, q in combo:
            pr *= q
        branches.append((tuple((n, o) for n, o, _q in combo), pr))
    return branches


def _next_state(state: tuple, probed) -> tuple:
    nxt = [(i, t + 1) for i, t in state]
    for n, o in probed:
        nxt[n] = (o, 1)
    return tuple(nxt)


def _reachable(specs, initial: tuple, horizon: int, bound: int, choose):
    """Layered reachable sets when every state expands the selections
    `choose(state)` returns, aborting as soon as the union of states times
    the horizon exceeds the bound."""
    layers = [{initial}]
    union = {initial}
    threshold = bound // horizon
    for _ in range(horizon - 1):
        nxt = set()
        for state in layers[-1]:
            for sel in choose(state):
                for omap, _pr in _obs_branches(specs, state, sel):
                    child = _next_state(state, omap)
                    if child not in nxt:
                        nxt.add(child)
                        union.add(child)
            if len(union) > threshold:
                raise SearchSpaceError(
                    len(union), bound, f"reachable joint states x horizon {horizon}"
                )
        layers.append(nxt)
    return layers


def _induct(specs, initial: tuple, horizon: int, bound: int, choose):
    """Backward induction over the layers reachable under `choose`: each
    state's value is its slot cost plus the least expected value-to-go over
    the selections `choose(state)` offers (the first one on ties).  Returns
    the initial state's value and the table {(slot, state): selection}."""
    layers = _reachable(specs, initial, horizon, bound, choose)
    values = {}
    table = {}
    for slot in range(horizon - 1, -1, -1):
        layer_vals = {}
        for state in layers[slot]:
            cost = _slot_cost(specs, state)
            best_v, best_sel = None, None
            for sel in choose(state):
                future = sum(
                    pr * values[_next_state(state, omap)]
                    for omap, pr in _obs_branches(specs, state, sel)
                ) if values else 0.0  # nothing follows the last slot
                if best_v is None or future < best_v - 1e-15:
                    best_v, best_sel = future, sel
            layer_vals[state] = cost + best_v
            table[(slot, state)] = best_sel
        values = layer_vals
    return values[initial], table


def _setup(specs, initial, k: int, horizon: int):
    """Validated (specs, initial state tuple, every K-subset of arms)."""
    specs = list(specs)
    if not 1 <= k <= len(specs):
        raise ValueError(f"need 1 <= K <= N, got K={k}, N={len(specs)}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    selections = list(itertools.combinations(range(len(specs)), k))
    return specs, tuple((st.i, st.t) for st in initial), selections


def dp_optimal(specs, initial, k: int, horizon: int, bound: int = DEFAULT_BOUND):
    """Exact minimal expected total cost over `horizon` slots, plus the
    optimal policy table as {(slot, joint state): selection}."""
    specs, init, selections = _setup(specs, initial, k, horizon)
    return _induct(specs, init, horizon, bound, lambda state: selections)


def policy_evaluate_exact(specs, initial, k: int, horizon: int, policy,
                          bound: int = DEFAULT_BOUND) -> float:
    """Exact expected total cost of a stationary deterministic selector:
    weight every branch of the observation tree by its probability.

    The bound applies to the states reachable under every policy, as for
    `dp_optimal`, so both refuse the same instances."""
    specs, init, selections = _setup(specs, initial, k, horizon)
    _reachable(specs, init, horizon, bound, lambda state: selections)

    @functools.cache
    def choose(state):
        return (policy([ArmState(i, t) for i, t in state]),)

    return _induct(specs, init, horizon, bound, choose)[0]


def value_monotonicity_probe(specs, k: int, horizon: int, trials: int,
                             seed: int = 0, bound: int = DEFAULT_BOUND) -> bool:
    """Check that the index policy's exact value never decreases when one
    arm's elapsed time (hence its abnormal belief) is bumped up.  Random
    joint states; True iff no violation is found."""
    specs = list(specs)
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
        v_base = policy_evaluate_exact(specs, base, k, horizon, pol, bound)
        v_bump = policy_evaluate_exact(specs, bumped, k, horizon, pol, bound)
        if v_bump < v_base - 1e-9:
            return False
    return True

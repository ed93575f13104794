"""Exact finite-horizon machinery on small instances.

A joint state is an int32 row of per-arm codes i * width + t, the
simulator's encoding: a probe observing o moves an arm to o * width + 1,
waiting adds 1.  `_graph` builds the layers of joint states reachable when
any K-subset may be probed, once per call, or once per `one_graph` scope,
where shorter horizons read a prefix of the longest one's graph; one
backward induction over them (`_sweep`) gives the optimal expected cost
(least value-to-go over every K-subset) or a policy's exact value (its own
selection's).  A policy is a rank policy's name, which picks each state's K
arms first in `policies.rank_table` for whole layers at once, as the
simulator does, or any callable, asked once per state it reaches; a name
and its scalar selector (`whittle_policy`, `myopic_policy`) give bitwise
equal values.  Each slot costs sum(c_n * P(abnormal)) before its probes
take effect, from exact marginals; `_graph` computes it once per state.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
from collections.abc import Mapping

import numpy as np

from .arm import ArmState, belief_codes
from .policies import rank_table, smallest_k

DEFAULT_BOUND = 10_000_000
# the rank policies `policy_evaluate_exact` takes by name
EXACT_POLICIES = ("whittle", "myopic")


class SearchSpaceError(RuntimeError):
    """Raised when a problem's size exceeds the bound set on it: the
    oracle's reachable joint states x horizon, its belief table, or the
    branch entries (states x K-subsets x 2^K outcomes x N arms) of its
    layers so far, checked before each layer is expanded; the simulator's
    run size; or the rows of an index table."""

    def __init__(self, count: int, bound: int, what: str):
        self.count = count
        self.bound = bound
        super().__init__(f"search space too large: {count} {what} exceeds the bound {bound}")


def _unique_rows(rows, base: int):
    """The distinct rows of entries in [0, base), in `np.lexsort(rows.T)`
    order, and each row's position among them.  Each row sorts by one int64
    key, its entries as base-`base` digits, the last column most significant;
    before a digit would overflow the key, the key is replaced by its dense
    rank, which keeps its order."""
    key, span = np.zeros(len(rows), dtype=np.int64), 1
    for col in rows.T[::-1]:
        if span * base > 2**63:
            distinct, key = np.unique(key, return_inverse=True)
            span = len(distinct)
        key, span = key * base + col, span * base
    order = np.argsort(key)
    key = key[order]
    first = np.r_[True, key[1:] != key[:-1]]
    position = np.empty(len(rows), dtype=np.int32)
    position[order] = np.cumsum(first) - 1
    return rows[order[first]], position


def _graph(specs, initial, k: int, horizon: int, bound: int):
    """(code width, slot costs, K-subsets, layers, edges).  layers[s] holds
    the distinct joint states reachable at slot s and costs[s] their slot
    costs, sum(c_n * P(arm n abnormal)); edges[s] = (group, child,
    probability) arrays into layer s + 1, group = parent * len(subsets) +
    subset, ordered by subset, parent, then outcome (the subset's first arm
    varying slowest, 0 before 1), without outcomes of belief 0 or 1."""
    n = len(specs)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= K <= N, got K={k}, N={n}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if min(st.t for st in initial) < 1:
        raise ValueError("the (0,0) sentinel is not the state of a trajectory")
    width = max(st.t for st in initial) + horizon
    if 2 * n * width > bound:
        raise SearchSpaceError(2 * n * width, bound, "belief entries (2N x (largest t + horizon))")
    beliefs = belief_codes(specs, width)
    entries = math.comb(n, k) * 2**k * n
    outcomes = np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1) & 1
    layers = [np.array([[st.i * width + st.t for st in initial]], dtype=np.int32)]
    costs, edges, subsets, seen, total = [], [], None, None, 0
    for slot in range(horizon):
        layer = layers[-1]
        total += len(layer) * entries
        if total > bound:
            raise SearchSpaceError(total, bound, "branch entries (states x K-subsets x "
                                   f"2^K outcomes x N arms) in slots 0..{slot}")
        subsets = subsets or list(itertools.combinations(range(n), k))  # once slot 0 passed
        costs.append(sum(s.cost * beliefs[n, layer[:, n]] for n, s in enumerate(specs)))
        if slot + 1 == horizon:
            return width, costs, subsets, layers, edges
        parts = []
        for j, arms in enumerate(subsets):
            b = beliefs[arms, layer[:, arms]][:, None, :]
            factors = np.where(outcomes == 1, b, 1.0 - b)  # (states, 2^K, K)
            pr = functools.reduce(np.multiply, np.moveaxis(factors, -1, 0))  # left to right
            parent, branch = np.nonzero((factors != 0.0).all(axis=-1))  # not pr: it may underflow
            child = layer[parent] + 1
            child[:, arms] = outcomes[branch] * width + 1
            parts.append((parent * len(subsets) + j, child, pr[parent, branch]))
        group, child, pr = (np.concatenate(col) for col in zip(*parts))
        nxt, child = _unique_rows(child, 2 * width)
        layers.append(nxt)
        edges.append((group, child, pr))
        if seen is not None or sum(map(len, layers)) > bound // horizon:  # union <= this sum
            seen = _unique_rows(np.concatenate(layers if seen is None else [seen, nxt]),
                                2 * width)[0]
        if seen is not None and len(seen) > bound // horizon:
            raise SearchSpaceError(len(seen), bound, f"reachable joint states x horizon {horizon}")


# Inside `one_graph`: a one-item list holding (instance key, horizon, graph)
# or None; outside it, None.
_held = contextvars.ContextVar("held", default=None)


@contextlib.contextmanager
def one_graph():
    """A scope in which `dp_optimal` and `policy_evaluate_exact` calls on one
    instance (specs, initial, K, bound) share one graph: the first call's,
    rebuilt only for a longer horizon.  A horizon-h call reads its first h
    layers.  The code width is the longest horizon's, which keeps every
    code's order, so each call's result is bit for bit its own graph's; and
    a graph that passed the guards at a horizon passes them at every shorter
    one.  Nothing is kept after the scope ends."""
    token = _held.set([None])
    try:
        yield
    finally:
        _held.reset(token)


def _shared_graph(specs, initial, k: int, horizon: int, bound: int):
    """`_graph`, or inside `one_graph` a prefix of the graph it holds."""
    held = _held.get()
    if held is None:
        return _graph(specs, initial, k, horizon, bound)
    key = (tuple(specs), tuple(initial), k, bound)
    if held[0] is None or held[0][0] != key or not 1 <= horizon <= held[0][1]:
        held[0] = key, horizon, _graph(specs, initial, k, horizon, bound)
    width, costs, subsets, layers, edges = held[0][2]
    return width, costs[:horizon], subsets, layers[:horizon], edges[:horizon - 1]


def _first_min(future):
    """Per state, the first subset beating every earlier one by > 1e-15."""
    pick, best = np.zeros(len(future), dtype=np.intp), future[:, 0]
    for j in range(1, future.shape[1]):
        better = future[:, j] < best - 1e-15
        pick, best = np.where(better, j, pick), np.where(better, future[:, j], best)
    return pick


def _sweep(graph, picks=None):
    """Backward induction: a state's value is its slot cost plus the
    value-to-go future[state, subset], summed in branch order, of the subset
    picks[slot][state] names (by default `_first_min`'s).  Returns the
    initial state's value and the picks."""
    _width, costs, subsets, layers, edges = graph
    chosen = [None] * len(layers)
    for slot in range(len(layers) - 1, -1, -1):
        layer = layers[slot]
        future = np.zeros((len(layer), len(subsets)))  # nothing follows the last slot
        if slot < len(edges):
            group, child, pr = edges[slot]
            future = np.bincount(group, weights=pr * values[child],
                                 minlength=future.size).reshape(future.shape)
        chosen[slot] = _first_min(future) if picks is None else picks[slot]
        values = costs[slot] + future[np.arange(len(layer)), chosen[slot]]
    return float(values[0]), chosen


class _PolicyTable(Mapping):
    """Read-only {(slot, joint state as ((i, t), ...)): selection}, built on
    first read; its length, one entry per reachable (slot, state), is known
    without building it."""

    def __init__(self, width, subsets, layers, picks):
        self._parts = width, subsets, layers, picks
        self._len = sum(map(len, layers))

    @functools.cached_property
    def _entries(self):
        width, subsets, layers, picks = self._parts
        pairs = [divmod(code, width) for code in range(2 * width)]  # one (i, t) object per code
        return {(slot, tuple(map(pairs.__getitem__, row))): subsets[j]
                for slot, (layer, pick) in enumerate(zip(layers, picks))
                for row, j in zip(layer.tolist(), pick.tolist())}

    def __getitem__(self, key):
        return self._entries[key]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return self._len

    def __repr__(self):
        return repr(self._entries)


def dp_optimal(specs, initial, k: int, horizon: int, bound: int = DEFAULT_BOUND):
    """Exact minimal expected total cost over `horizon` slots, plus the
    optimal policy table, a read-only mapping {(slot, joint state):
    selection} that is built the first time it is read."""
    graph = width, _costs, subsets, layers, _edges = _shared_graph(list(specs), initial, k,
                                                                   horizon, bound)
    value, picks = _sweep(graph)
    return value, _PolicyTable(width, subsets, layers, picks)


def _rank_picks(policy: str, specs, k: int, width: int, layers):
    """Each layer's subset ids under a rank policy: per state, the K arms
    whose codes come first in `rank_table`, the simulator's rule."""
    n = len(specs)
    rank = rank_table(policy, specs, width)
    codes = np.ascontiguousarray(np.concatenate(layers).T)  # arm-major: rows of states
    mask = smallest_k(rank[codes + np.arange(n)[:, None] * 2 * width], k, rank.size)
    # A subset's id is its place in lexicographic order: C(N, K) - 1 minus,
    # for each arm a in it, C(N - 1 - a, r), where r (`left`) of its arms are >= a.
    ids, left = np.full(codes.shape[1], math.comb(n, k) - 1), np.full(codes.shape[1], k)
    for a, chosen in enumerate(mask):
        ids -= chosen * np.array([math.comb(n - 1 - a, r) for r in range(k + 1)])[left]
        left -= chosen
    return np.split(ids, np.cumsum([len(layer) for layer in layers[:-1]]))


def policy_evaluate_exact(specs, initial, k: int, horizon: int, policy,
                          bound: int = DEFAULT_BOUND) -> float:
    """Exact expected total cost of a stationary deterministic policy: a
    rank policy's name, "whittle" or "myopic", or a selector asked once per
    distinct joint state it reaches (a list of ArmStates) for K distinct arm
    ids.  A name picks each layer's K arms first in `policies.rank_table`
    without a call per state; its value is bitwise that of
    `whittle_policy`/`myopic_policy`, which apply the same chain one state
    at a time.  Its graph is `dp_optimal`'s: both refuse alike."""
    if isinstance(policy, str) and policy not in EXACT_POLICIES:
        raise ValueError(f"unknown policy {policy!r}: exact evaluation takes a callable "
                         f"or one of {', '.join(EXACT_POLICIES)}")
    specs = list(specs)
    graph = width, _costs, subsets, layers, edges = _shared_graph(specs, initial, k,
                                                                  horizon, bound)
    if isinstance(policy, str):
        return _sweep(graph, _rank_picks(policy, specs, k, width, layers))[0]
    index = {sel: j for j, sel in enumerate(subsets)}
    asked, picks, reached = {}, [], np.ones(1, dtype=bool)
    for slot, layer in enumerate(layers):
        picks.append(np.zeros(len(layer), dtype=np.intp))
        for s in np.flatnonzero(reached):
            codes = tuple(layer[s].tolist())
            if codes not in asked:
                states = [ArmState(c // width, c % width) for c in codes]
                sel = policy(states)
                try:
                    asked[codes] = index[tuple(sorted(sel))]
                except (KeyError, TypeError):
                    raise ValueError(f"policy chose {sel!r} at {states!r}: need {k} distinct "
                                     f"arm ids in 0..{len(specs) - 1}") from None
            picks[slot][s] = asked[codes]
        if slot < len(edges):
            group, child, _pr = edges[slot]
            parent, subset = np.divmod(group, len(subsets))
            taken = reached[parent] & (subset == picks[slot][parent])
            reached = np.zeros(len(layers[slot + 1]), dtype=bool)
            reached[child[taken]] = True
    return _sweep(graph, picks)[0]

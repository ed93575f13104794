"""Exact finite-horizon machinery on small instances.

A joint state is an int32 row of per-arm codes i * width + t, the
simulator's encoding: a probe observing o moves an arm to o * width + 1,
waiting adds 1.  `_graph` builds the layers of joint states reachable when
any K-subset may be probed, each layer's subsets expanded in one pass, once
per call, or once per `exact_graph` value, of which calls at shorter
horizons read a prefix, each rank policy's picks included; one backward
induction over them (`_sweep`) gives the optimal expected cost (least
value-to-go over every K-subset) or a policy's exact value (its own
selection's).  A policy is a rank policy's name, which picks each state's K
arms first in `policies.rank_table` for whole layers at once, as the
simulator does, or any callable, asked once per state it reaches; a name
and its scalar selector (`select_whittle` or `select_myopic` on one
state) give bitwise equal values.  Each slot costs sum(c_n * P(abnormal)) before its probes
take effect, from exact marginals; `_graph` computes it once per state.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping

import numpy as np

from .arm import ArmState
from .guard import DEFAULT_BOUND, SearchSpaceError
from .policies import _check_k, belief_codes, rank_table, smallest_k

# the rank policies `policy_evaluate_exact` takes by name
EXACT_POLICIES = ("whittle", "myopic")
# branch entries charged per slot, for the fixed work of a slot's numpy passes
_SLOT_ENTRIES = 1024


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
        key *= base
        key += col
        span *= base
    order = np.argsort(key)
    key = key.take(order)
    first = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    position = np.empty(len(rows), dtype=np.int32)
    position[order] = np.cumsum(first, dtype=np.int32) - 1
    return rows.take(order[first], axis=0), position


def _branches(belief, arms, outcomes):
    """Every probe outcome of every K-subset from every state: (subset,
    parent, outcome, probability) arrays ordered by subset, parent, then
    outcome, without outcomes of belief 0 or 1.  `belief` holds each arm's
    beliefs across the states, `arms` the subsets' arm ids and `outcomes`
    each outcome's bits, the subset's first arm the most significant."""
    k = arms.shape[1]
    b = belief.take(arms, axis=0)  # (subsets, K, states)
    factor = 1.0 - b, b  # by outcome bit
    pr = np.empty((len(arms), belief.shape[1], 2**k))
    live = np.empty(pr.shape, dtype=bool)
    for o, bits in enumerate(outcomes):
        f = [factor[bit][:, r] for r, bit in enumerate(bits)]
        pr[:, :, o] = functools.reduce(np.multiply, f)  # left to right
        # not pr != 0: a possible outcome's probability may underflow
        live[:, :, o] = functools.reduce(np.logical_and, [x != 0.0 for x in f])
    ids = np.flatnonzero(live)
    pr = pr.take(ids)
    subset = np.repeat(np.arange(len(arms)), np.count_nonzero(live.reshape(len(arms), -1), 1))
    ids -= subset * live[0].size  # parent * 2^K + outcome
    return subset, ids >> k, ids & (2**k - 1), pr


def _graph(specs, initial, k: int, horizon: int, bound: int):
    """(code width, slot costs, K-subsets, layers, edges).  layers[s] holds
    the distinct joint states reachable at slot s and costs[s] their slot
    costs, sum(c_n * P(arm n abnormal)); edges[s] = (group, child,
    probability) arrays into layer s + 1, group = parent * len(subsets) +
    subset, ordered by subset, parent, then outcome (the subset's first arm
    varying slowest, 0 before 1), without outcomes of belief 0 or 1.  Each
    layer expands every subset at once (`_branches`)."""
    n = len(specs)
    _check_k(n, k)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if min(st.t for st in initial) < 1:
        raise ValueError("the (0,0) sentinel is not the state of a trajectory")
    width = max(st.t for st in initial) + horizon
    if 2 * n * width > bound:
        raise SearchSpaceError(2 * n * width, bound, "belief entries (2N x (largest t + horizon))")
    entries = math.comb(n, k) * 2**k * n
    layers = [np.array([[st.i * width + st.t for st in initial]], dtype=np.int32)]
    costs, edges, arms, total = [], [], None, _SLOT_ENTRIES * horizon  # every slot's, up front
    for slot in range(horizon):
        layer = layers[-1]
        total += len(layer) * entries
        if total > bound:
            what = f"{_SLOT_ENTRIES} x horizon + states x K-subsets x 2^K outcomes x N arms"
            raise SearchSpaceError(total, bound, f"branch entries ({what}) in slots 0..{slot}")
        if arms is None:  # once slot 0 passed, so a refused graph builds no table
            arms = np.array(list(itertools.combinations(range(n), k)))
            beliefs, lift = belief_codes(specs, width), np.arange(n)[:, None] * 2 * width
            outcomes = np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1) & 1
            probed = (outcomes.T * width + 1).astype(np.int32)  # (K, 2^K): codes after a probe
        # arm-major (N, states), so each pass runs along the states
        belief = beliefs.take(np.ascontiguousarray(layer.T) + lift)
        costs.append(sum(s.cost * belief[a] for a, s in enumerate(specs)))
        if slot + 1 == horizon:
            return width, costs, list(map(tuple, arms.tolist())), layers, edges
        subset, parent, branch, pr = _branches(belief, arms, outcomes)
        group = parent * len(arms) + subset
        child = layer.take(parent, axis=0)
        child += 1
        place = arms.T.take(subset, axis=1)  # (K, edges): flat places of the probed arms
        place += np.arange(0, child.size, n)
        child.reshape(-1)[place] = probed.take(branch, axis=1)
        del subset, parent, branch, place  # before `_unique_rows`'s sort
        nxt, child = _unique_rows(child, 2 * width)
        layers.append(nxt)
        edges.append((group, child, pr))


def exact_graph(specs, initial, k: int, horizon: int, bound: int = DEFAULT_BOUND):
    """One instance's graph for `horizon` slots, to pass to `dp_optimal` and
    `policy_evaluate_exact` on that instance (specs, initial, K, bound): a
    call at any horizon h up to `horizon` reads its first h layers.  The code
    width is `horizon`'s, which keeps every code's order, so each result is
    bit for bit that of a graph of its own.  The value also holds each rank
    policy's picks on every layer, made by the first call that names it; a
    state's pick depends only on its codes and the width."""
    specs = tuple(specs)
    return (specs, tuple(initial), k, bound), horizon, _graph(specs, initial, k, horizon, bound), {}


def _prefix(specs, initial, k: int, horizon: int, bound: int, graph, policy=None):
    """The first `horizon` layers of `graph`, or of a graph of their own if
    it is None, and a rank policy's picks on them if `policy` names one."""
    if graph is None:
        graph = exact_graph(specs, initial, k, horizon, bound)
    key, longest, (width, costs, subsets, layers, edges), picks = graph
    if key != (tuple(specs), tuple(initial), k, bound):
        raise ValueError("the graph passed is another instance's (specs, initial, K, bound)")
    if not 1 <= horizon <= longest:
        raise ValueError(f"horizon must be in 1..{longest} on the graph passed, got {horizon}")
    if policy is not None and policy not in picks:
        picks[policy] = _rank_picks(policy, specs, k, width, layers)
    prefix = width, costs[:horizon], subsets, layers[:horizon], edges[:horizon - 1]
    return prefix, None if policy is None else picks[policy][:horizon]


def check_sweeps(graph) -> None:
    """Refuse to sweep every horizon 1..T of `graph` if the T - s sweeps
    that read each slot s, each reading its states x K-subsets x 2^K
    outcomes plus `_SLOT_ENTRIES`, read more than the graph's bound."""
    (_specs, _initial, k, bound), longest, (_width, _costs, subsets, layers, _edges), _ = graph
    work = sum((len(layer) * len(subsets) * 2**k + _SLOT_ENTRIES) * (longest - slot)
               for slot, layer in enumerate(layers))
    if work > bound:
        raise SearchSpaceError(work, bound, "sweep entries ((states x K-subsets x 2^K outcomes "
                               f"+ {_SLOT_ENTRIES}) per slot x the horizons that read it)")


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
            future = np.bincount(group, weights=pr * values.take(child),
                                 minlength=future.size).reshape(future.shape)
        chosen[slot] = _first_min(future) if picks is None else picks[slot]
        values = costs[slot] + future.take(chosen[slot] + np.arange(0, future.size,
                                                                    len(subsets)))
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


def dp_optimal(specs, initial, k: int, horizon: int, bound: int = DEFAULT_BOUND, graph=None):
    """Exact minimal expected total cost over `horizon` slots, plus the
    optimal policy table, a read-only mapping {(slot, joint state):
    selection} that is built the first time it is read.  An `exact_graph`
    of this instance passed as `graph` is read in place of a new one."""
    graph, _picks = _prefix(list(specs), initial, k, horizon, bound, graph)
    value, picks = _sweep(graph)
    width, _costs, subsets, layers, _edges = graph
    return value, _PolicyTable(width, subsets, layers, picks)


def _rank_picks(policy: str, specs, k: int, width: int, layers):
    """Each layer's subset ids under a rank policy: per state, the K arms
    whose codes come first in `rank_table`, the simulator's rule."""
    n = len(specs)
    rank, lift = rank_table(policy, specs, width), np.arange(n)[:, None] * 2 * width
    # A subset's id is its place in lexicographic order: C(N, K) - 1 minus,
    # for each arm a in it, C(N - 1 - a, r), where r (`left`) of its arms are >= a.
    drop = [np.array([math.comb(n - 1 - a, r) for r in range(k + 1)]) for a in range(n)]
    picks = []
    for layer in layers:
        mask = smallest_k(rank.take(np.ascontiguousarray(layer.T) + lift), k, rank.size)
        ids, left = np.full(len(layer), math.comb(n, k) - 1), np.full(len(layer), k)
        for a, chosen in enumerate(mask):
            ids -= chosen * drop[a].take(left)
            left -= chosen
        picks.append(ids)
    return picks


def policy_evaluate_exact(specs, initial, k: int, horizon: int, policy,
                          bound: int = DEFAULT_BOUND, graph=None) -> float:
    """Exact expected total cost of a stationary deterministic policy: a
    rank policy's name, "whittle" or "myopic", or a selector asked once per
    distinct joint state it reaches (a list of ArmStates) for K distinct arm
    ids.  A name picks each layer's K arms first in `policies.rank_table`
    without a call per state; its value is bitwise that of a selector
    calling `select_whittle`/`select_myopic`, which apply the same chain one
    state at a time.  Its graph is `dp_optimal`'s, `graph` included: both refuse alike."""
    if isinstance(policy, str) and policy not in EXACT_POLICIES:
        raise ValueError(f"unknown policy {policy!r}: exact evaluation takes a callable "
                         f"or one of {', '.join(EXACT_POLICIES)}")
    specs = list(specs)
    name = policy if isinstance(policy, str) else None
    graph, picks = _prefix(specs, initial, k, horizon, bound, graph, name)
    if name is not None:
        return _sweep(graph, picks)[0]
    width, _costs, subsets, layers, edges = graph
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

"""Exact finite-horizon machinery on small instances.

A joint state is an int32 row of per-arm codes i * width + t, the
simulator's encoding: a probe observing o moves an arm to o * width + 1,
waiting adds 1.  A table arm's clock stops where its marginals stop
changing (`_caps`), unless another arm reaches a code that ties its capped
code on a rank policy's keys, so the graph of a table instance stops
growing with the horizon; Markov arms keep their clocks.  `_graph` builds
the union of the joint states reachable within the horizon when any
K-subset may be probed, in the order of the slot that first reaches them,
and expands each once into a block of its 2^K outcomes under every
subset, so the states of depth <= d and their blocks are prefixes of its
arrays.  The graph is time-homogeneous, so one value iteration over it
(`_iterate`; Puterman 1994, ch. 8) gives the value of every horizon 1..T
at once: step h reads only the states of depth <= T - h and their
blocks.  It gives the optimal expected cost (least value-to-go over every
K-subset) or a policy's exact value (its own selection's), and an
`exact_graph` object keeps each method's values, made by its first call,
for calls at every horizon.  A policy is a rank policy's name, which picks each state's K
arms first in `policies.rank_table` for all states at once, as the
simulator does, or any callable, asked once for each state its own picks
reach, slot by slot, by the one forward walk (`_layers`) that lists a
policy table's layers; a name and its scalar selector (`select_whittle`
or `select_myopic` on one state) give bitwise equal values.  Names and the
optimum read the capped graph; callables and the policy table, which need
true ages, read its uncapped `twin`.  Each slot costs
sum(c_n * P(abnormal)) before its probes take effect, from exact
marginals; `_graph` computes it once per state.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections.abc import Mapping

import numpy as np

from .arm import ArmState
from .attack import MarkovIID
from .guard import DEFAULT_BOUND, SearchSpaceError
from .policies import _check_k, belief_codes, chain_keys, rank_table, smallest_k

# the rank policies `policy_evaluate_exact` takes by name
EXACT_POLICIES = ("whittle", "myopic")
# branch entries charged per value-iteration step, for its fixed numpy passes
_SLOT_ENTRIES = 1024
# the most state keys `_graph` looks up in a table of one entry per key
_KEY_TABLE = 2**21


def _branches(belief, arms, outcomes):
    """Every probe outcome of every K-subset from every state: (probability,
    possible) arrays of shape (2^K outcomes, subsets, states).  An outcome
    is impossible where one of its belief factors is exactly 0 or 1, so its
    probability is exactly 0.0; a possible one's may underflow to 0.0.
    `belief` holds each arm's beliefs across the states, `arms` the
    subsets' arm ids and `outcomes` each outcome's bits, the subset's first
    arm the most significant."""
    b = belief.take(arms, axis=0)  # (subsets, K, states)
    factor = 1.0 - b, b  # by outcome bit
    f = [[factor[bit][:, r] for r, bit in enumerate(bits)] for bits in outcomes]
    pr = np.array([functools.reduce(np.multiply, x) for x in f])  # left to right
    return pr, np.array([functools.reduce(np.logical_and, [y != 0.0 for y in x]) for x in f])


class _StateIds:
    """The id of each state found so far, by key: in a table of one entry
    per key while there are at most `_KEY_TABLE` keys, else by searching
    the sorted keys."""

    def __init__(self, keys, space: int):
        self.table = np.full(space, -1, dtype=np.int32) if space <= _KEY_TABLE else None
        self.size, self.known, self.ids = 0, keys[:0], np.zeros(0, dtype=np.intp)
        self.add(keys)

    def find(self, keys):
        """Each key's state id, or -1."""
        if self.table is not None:
            return self.table.take(keys)
        at = np.minimum(np.searchsorted(self.known, keys), len(self.known) - 1)
        return np.where(self.known.take(at) == keys, self.ids.take(at), -1)

    def add(self, keys):
        """Give the sorted new `keys` the next ids, in that order."""
        ids = np.arange(self.size, self.size + len(keys))
        self.size += len(keys)
        if self.table is not None:
            self.table[keys] = ids
        else:
            at = np.searchsorted(self.known, keys)
            self.known, self.ids = np.insert(self.known, at, keys), np.insert(self.ids, at, ids)


def _caps(specs, initial, horizon: int, bound: int) -> list:
    """Each arm's clock cap c, or None where it keeps its true clock.  A
    table arm's belief, index, cost and transitions are bitwise constant
    from the clock c >= 1 of its table's first entry equal to its last on
    (`index_from_marginals` repeats W there), so (i, t) is (i, c + i) for
    t >= c + i.  An arm is capped only where it reaches a clock past c and
    no other arm reaches a clock x whose `policies.chain_keys` at code
    (0, x) tie its capped ones for a name in `EXACT_POLICIES`: probe age,
    which the cap drops, would settle that tie.  So a name may join only
    if its keys stay constant past the cap, as the queue's, probe age, do
    not.  Markov arms keep their clocks."""
    n = len(specs)
    tops = [st.t - st.i + horizon - 1 for st in initial]  # each arm's largest clock
    caps = [None if isinstance(s.process, MarkovIID) else
            bisect.bisect_left(s.process.values, s.process.values[-1]) + 1 for s in specs]
    caps = [None if c is None or c >= top else c for c, top in zip(caps, tops)]
    markov = [top for s, top in zip(specs, tops) if isinstance(s.process, MarkovIID)]
    if caps.count(None) == n or 2 * n * (max(markov, default=0) + 1) > bound:
        return caps  # nothing to check, or a belief table refused whatever the caps
    lasts = [top if c is None else c for c, top in zip(caps, tops)]
    clocks = [[x for x in range(last + 1) if x < horizon or x >= min(st.t - st.i, last)]
              for st, last in zip(initial, lasts)]  # the clocks each arm reaches, to its last
    for name in EXACT_POLICIES:
        primary, belief = (np.reshape(key, (n, 2, -1))[:, 0].tolist()
                           for key in chain_keys(name, specs, max(lasts) + 1))
        keys = [{(primary[a][x], belief[a][x]) for x in xs} for a, xs in enumerate(clocks)]
        for a, c in enumerate(caps):
            if c is not None and any((primary[a][c], belief[a][c]) in keys[b]
                                     for b in range(n) if b != a):
                caps[a] = None
    return caps


def _graph(specs, initial, k: int, horizon: int, bound: int, solves: int = 1, caps=None):
    """(code width, K-subsets, states, slot costs, depth ends, edges) of a
    checked instance, each arm's clock capped at its `caps` entry if not
    None: its code for (i, t) is i * width + min(t, c + i), and waiting
    moves it to its next capped code.  states[:ends[d]] are the distinct
    joint states reachable in d slots or fewer, those first reached in d
    slots after the rest and in `np.lexsort(states.T)` order among
    themselves; costs[s] is state s's slot cost, sum(c_n * P(arm n
    abnormal)).  edges = (child, probability), blocks of shape (2^K
    outcomes, expanded states, K-subsets): every state of depth d <
    horizon - 1 is expanded, so a block's [:, :ends[d]] holds the outcomes
    of the states of depth <= d.  Slot (o, s, j) is outcome o of probing
    subset j from state s (the subset's first arm varying slowest, 0
    before 1): the state id it leads to and its probability, or child -1
    and probability 0.0 where it is impossible (a belief factor of 0 or
    1).  Each depth expands every subset at once (`_branches`).

    One guard refuses every exact op before its work: the belief table,
    2N x (largest capped t + horizon), before any table is built; before
    each depth, the branch entries, `_SLOT_ENTRIES` per step plus each
    depth-d state's K-subsets x 2^K branches, built from N codes and read
    by the horizon - 1 - d steps after the one it first joins; after the
    last, the sweeps of the op's `solves` value iterations, step h reading
    the possible outcomes of depth <= horizon - h plus `_SLOT_ENTRIES`:
    never more than the branch entries when `solves` is 1."""
    n = len(specs)
    # the clock each arm stops at; an uncapped arm's never reaches t + horizon
    stops = [st.t + horizon if c is None else c for c, st in zip(caps or [None] * n, initial)]
    width = max(min(st.t, c + st.i) for c, st in zip(stops, initial)) + horizon
    if 2 * n * width > bound:
        raise SearchSpaceError(2 * n * width, bound,
                               "belief entries (2N x (largest capped t + horizon))")
    per_state, block = math.comb(n, k) * 2**k, (2**k, 0, math.comb(n, k))
    # each arm's codes within the horizon, sorted: its first code, waiting
    # up to horizon - 1 slots, and o * width + t for t < horizon once probed
    steps, ages = np.arange(horizon), np.arange(1, horizon)
    reach = [np.unique(np.concatenate([i * width + np.minimum(t, c + i) for i, t in
                                       [(st.i, st.t + steps), (0, ages), (1, ages)]]))
             for c, st in zip(stops, initial)]
    radix = [len(codes) for codes in reach]
    # a state's key: each code's place in its arm's codes as mixed-radix
    # digits, the last arm's the most significant, so keys sort as
    # `np.lexsort` sorts rows; Python ints wherever a key plus one unit of
    # every digit could overflow an int64
    dtype = np.int64 if 2 * math.prod(radix) <= 2**63 else object
    unit = np.array([math.prod(radix[:a]) for a in range(n)], dtype=dtype)
    codes, offset = np.concatenate(reach).astype(np.int32), np.cumsum([0] + radix[:-1])
    digits = np.array([[np.searchsorted(r, st.i * width + min(st.t, c + st.i))
                        for r, c, st in zip(reach, stops, initial)]])
    # the digit each code waits to: the next code, or itself at its cap
    waits = np.concatenate([np.searchsorted(r, r + (r % width < c + r // width))
                            for r, c in zip(reach, stops)])
    keys = (digits * unit).sum(axis=1)
    chunks, costs, total, reads = [], [], _SLOT_ENTRIES * horizon, 0
    children, probs = [np.zeros(block, dtype=np.intp)], [np.zeros(block)]  # none before depth 0
    for depth in range(horizon):
        total += len(digits) * per_state * (n + horizon - 1 - depth)
        if total > bound:
            what = (f"{_SLOT_ENTRIES} x horizon + states x K-subsets x 2^K outcomes x "
                    "(N arms + the horizon - 1 - depth steps that read them)")
            raise SearchSpaceError(total, bound, f"branch entries ({what}) at depths 0..{depth}")
        if not chunks:  # once depth 0 passed, so a refused graph builds no table
            arms = np.array(list(itertools.combinations(range(n), k)))
            beliefs, lift = belief_codes(specs, width), np.arange(n)[:, None] * 2 * width
            outcomes = np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1) & 1
            # per (outcome, subset), the key of the subset's arms alone, each
            # at its code o * width + 1 after a probe observes o
            landing = np.array([np.searchsorted(c, [1, width + 1]) for c in reach])
            landed = sum(landing[arms[:, r], outcomes[:, r, None]] * unit.take(arms[:, r])
                         for r in range(k))[:, :, None]
            ids = _StateIds(keys, math.prod(radix))
        chunk = codes.take(digits + offset)
        chunks.append(chunk)
        # arm-major (N, states), so each pass runs along the states
        belief = beliefs.take(np.ascontiguousarray(chunk.T) + lift)
        costs.append(sum(s.cost * belief[a] for a, s in enumerate(specs)))
        if depth + 1 == horizon or not len(chunk):
            break
        pr, live = _branches(belief, arms, outcomes)
        reads += np.count_nonzero(live) * (horizon - 1 - depth)  # by the steps after this one
        # a child's key is its parent's with every code one slot older, at
        # its waiting digit, and the probed arms' landed key in place of theirs;
        # (outcomes, subsets, states), so the lookups run along near-sorted keys
        older = (waits.take(digits + offset) * unit).T
        child = older.sum(axis=0) - older.take(arms, axis=0).sum(axis=1) + landed
        del older  # before the lookups, to lower the peak
        keys = np.sort(child[live & (ids.find(child) < 0)])
        keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are >= 0
        ids.add(keys)
        digits = (keys[:, None] // unit % radix).astype(np.int32)
        child = ids.find(child).astype(np.intp, copy=False)
        child[~live] = -1
        children.append(child.transpose(0, 2, 1))
        probs.append(pr.transpose(0, 2, 1))
    # depths past the last new state add no states and no edges
    ends = np.cumsum([len(c) for c in chunks] + [0] * (horizon - len(chunks)))
    sweeps = solves * (_SLOT_ENTRIES * horizon + reads)
    if sweeps > bound:
        raise SearchSpaceError(sweeps, bound, f"sweep entries ({solves} value iterations x (the "
                               f"branches each step reads + {_SLOT_ENTRIES}))")
    del ids  # the key table, and below each block's parts once joined, to lower the peak
    edges = []
    for parts in (children, probs):
        edges.append(np.concatenate(parts, axis=1))
        parts.clear()
    return (width, list(map(tuple, arms.tolist())), np.concatenate(chunks), np.concatenate(costs),
            ends, tuple(edges))


class _ExactGraph:
    """`exact_graph`'s value; `optimum`, `layers` and `twin` are made on first read."""

    def __init__(self, key, build, caps=None):
        self.key, self.parts, self.values = key, build(caps), {}
        self._build = None if caps is None or caps.count(None) == len(caps) else build

    @functools.cached_property
    def optimum(self):
        """The optimum's values and picks at every horizon (`_iterate`)."""
        return _iterate(self.parts, self.parts[5], len(self.parts[4]))

    @functools.cached_property
    def layers(self):
        """The states reachable at each slot, walked for the longest horizon."""
        return list(_layers(self.parts, len(self.parts[4])))

    @functools.cached_property
    def twin(self):
        """This graph with every arm at its true clock: itself where none is capped."""
        return self if self._build is None else _ExactGraph(self.key, self._build)


def exact_graph(specs, initial, k: int, horizon: int, bound: int = DEFAULT_BOUND,
                solves: int = 1):
    """One instance's graph for `horizon` slots, to pass to `dp_optimal` and
    `policy_evaluate_exact` on that instance (specs, initial, K, bound): a
    call at any horizon h up to `horizon` reads its value at h, and
    `solves` methods will run on it (`_graph` bounds their work).  Table
    arms are capped where `_caps` allows.  The code width is `horizon`'s,
    which keeps every code's order, so each result is bit for bit that of a
    graph of its own.  The value keeps the instance (`key`), `_graph`'s
    tuple (`parts`) and what the first call of each method computes:
    `optimum`, the optimum's values and picks at every horizon; `values`,
    each rank policy's by name; `layers`, the states reachable at each
    slot; and the uncapped `twin`, built by the same builder and guard."""
    specs, initial = tuple(specs), tuple(initial)
    if len(initial) != len(specs):
        raise ValueError(f"{len(specs)} specs but {len(initial)} states")
    _check_k(len(specs), k)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if min(st.t for st in initial) < 1:
        raise ValueError("the (0,0) sentinel is not the state of a trajectory")
    build = functools.partial(_graph, specs, initial, k, horizon, bound, solves)
    return _ExactGraph((specs, initial, k, bound), build, _caps(specs, initial, horizon, bound))


def _exact(specs, initial, k: int, horizon: int, bound: int, graph):
    """`graph`, or a graph of their own for `horizon` slots if it is None,
    checked against the instance and the horizon."""
    if graph is None:
        graph = exact_graph(specs, initial, k, horizon, bound)
    longest = len(graph.parts[4])
    if graph.key != (tuple(specs), tuple(initial), k, bound):
        raise ValueError("the graph passed is another instance's (specs, initial, K, bound)")
    if not 1 <= horizon <= longest:
        raise ValueError(f"horizon must be in 1..{longest} on the graph passed, got {horizon}")
    return graph


def _first_min(future):
    """Per state, the first subset beating every earlier one by more than
    1e-15 of the best so far (values are >= 0), and its value."""
    pick, best = np.zeros(len(future), dtype=np.intp), future[:, 0]
    for j in range(1, future.shape[1]):
        better = future[:, j] < best - 1e-15 * best
        pick, best = np.where(better, j, pick), np.where(better, future[:, j], best)
    return pick, best


def _iterate(parts, edges, horizon: int):
    """Value iteration over the first `horizon` depths: step h gives V_h on
    the states of depth <= horizon - h, each state's slot cost plus
    future[state, subset] of `_first_min`'s subset, the sum over the
    subset's outcomes, left to right, of probability x V_{h-1} of the
    child; an impossible outcome adds 0.0 x V_{h-1}[-1] = 0.0.  The
    optimum's `edges` (child, probability) are the graph's; a policy's are
    its own (`_chosen`), one subset per state, which `_first_min` picks.
    Returns V_1..V_horizon at the initial state and the picks at each step."""
    costs, ends = parts[3], parts[4]
    child, pr = edges
    firsts, picks = [], []
    for h in range(1, horizon + 1):
        e = ends[horizon - h]
        if h == 1:
            future = np.zeros((e, child.shape[2]))  # nothing follows the last slot
        else:
            future = functools.reduce(np.add, pr[:, :e] * values.take(child[:, :e]))
        pick, future = _first_min(future)
        picks.append(pick)
        values = costs[:e] + future
        firsts.append(float(values[0]))
    return firsts, picks


def _chosen(edges, picks):
    """A policy's edges: each expanded state's outcomes under its picked
    subset alone, blocks of shape (2^K outcomes, expanded states, 1)."""
    at = picks[None, :edges[0].shape[1], None]
    return tuple(np.take_along_axis(x, at, 2) for x in edges)


def _layers(parts, horizon: int, picks=None):
    """Yield the states reachable at each slot 0..horizon - 1, each layer's
    children under every K-subset or, given `picks`, under each state's
    picked subset: the caller fills a layer's picks before the walk steps
    past it."""
    states, child = parts[2], parts[5][0]
    layer = np.zeros(1, dtype=np.intp)
    yield layer
    for _ in range(horizon - 1):
        reached = np.zeros(len(states) + 1, dtype=bool)  # the last entry: impossible outcomes
        reached[child[:, layer] if picks is None else child[:, layer, picks.take(layer)]] = True
        layer = np.flatnonzero(reached[:-1])
        yield layer


class _PolicyTable(Mapping):
    """Read-only {(slot, joint state as ((i, t), ...)): selection} over
    `horizon` slots of a graph's uncapped twin; its states and entries are
    found on first read."""

    def __init__(self, graph, horizon):
        self._graph, self._horizon = graph, horizon

    @functools.cached_property
    def _entries(self):
        twin, horizon = self._graph.twin, self._horizon
        (width, subsets, states, *_), picks = twin.parts, twin.optimum[1]
        pairs = [divmod(code, width) for code in range(2 * width)]  # one (i, t) object per code
        return {(slot, tuple(map(pairs.__getitem__, row))): subsets[j]
                for slot, layer in enumerate(twin.layers[:horizon])
                for row, j in zip(states.take(layer, axis=0).tolist(),
                                  picks[horizon - slot - 1].take(layer).tolist())}

    def __getitem__(self, key):
        return self._entries[key]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return sum(map(len, self._graph.twin.layers[:self._horizon]))

    def __repr__(self):
        return repr(self._entries)


def dp_optimal(specs, initial, k: int, horizon: int, bound: int = DEFAULT_BOUND, graph=None):
    """Exact minimal expected total cost over `horizon` slots, plus the
    optimal policy table, a read-only mapping {(slot, joint state):
    selection} that is built the first time it is read.  An `exact_graph`
    of this instance passed as `graph` is read in place of a new one."""
    graph = _exact(list(specs), initial, k, horizon, bound, graph)
    return graph.optimum[0][horizon - 1], _PolicyTable(graph, horizon)


def _rank_picks(policy: str, specs, k: int, width: int, states):
    """Each state's subset id under a rank policy: the place in
    `itertools.combinations` order of its K arms first in `rank_table`."""
    n = len(specs)
    rank, lift = rank_table(policy, specs, width), np.arange(n)[:, None] * 2 * width
    mask = smallest_k(rank.take(np.ascontiguousarray(states.T) + lift), k, rank.size)
    subsets = np.array(list(itertools.combinations(range(n), k)))
    return mask[subsets].all(axis=1).argmax(axis=0)


def policy_evaluate_exact(specs, initial, k: int, horizon: int, policy,
                          bound: int = DEFAULT_BOUND, graph=None) -> float:
    """Exact expected total cost of a stationary deterministic policy: a
    rank policy's name, "whittle" or "myopic", or a selector asked for K
    distinct arm ids once for each joint state (a list of ArmStates) its own
    picks reach, slot by slot, by the forward walk that lists a policy
    table's layers.  A name picks every state's K arms first in
    `policies.rank_table` without a call per state; its value is bitwise
    that of a selector calling `select_whittle`/`select_myopic`, which apply
    the same chain one state at a time.  A name reads the capped graph and a
    callable its uncapped twin, as `dp_optimal`'s value and table do, so
    both refuse alike."""
    if not callable(policy) and policy not in EXACT_POLICIES:
        raise ValueError(f"unknown policy {policy!r}: exact evaluation takes a callable "
                         f"or one of {', '.join(EXACT_POLICIES)}")
    specs = list(specs)
    graph = _exact(specs, initial, k, horizon, bound, graph)
    if isinstance(policy, str):
        width, _subsets, states, _costs, ends, edges = graph.parts
        if policy not in graph.values:
            picks = _rank_picks(policy, specs, k, width, states[:edges[0].shape[1]])
            graph.values[policy] = _iterate(graph.parts, _chosen(edges, picks), len(ends))[0]
        return graph.values[policy][horizon - 1]
    width, subsets, states, _costs, _ends, edges = parts = graph.twin.parts
    index = {sel: j for j, sel in enumerate(subsets)}
    picks, asked = np.zeros(len(states), dtype=np.intp), np.zeros(len(states), dtype=bool)
    for layer in _layers(parts, horizon, picks):
        for s in layer[~asked.take(layer)].tolist():
            codes = [ArmState(c // width, c % width) for c in states[s].tolist()]
            sel = policy(codes)
            try:
                picks[s] = index[tuple(sorted(sel))]
            except (KeyError, TypeError):
                raise ValueError(f"policy chose {sel!r} at {codes!r}: need {k} distinct "
                                 f"arm ids in 0..{len(specs) - 1}") from None
        asked[layer] = True
    return _iterate(parts, _chosen(edges, picks), horizon)[0][horizon - 1]

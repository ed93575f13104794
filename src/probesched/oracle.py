"""Exact finite-horizon machinery on small instances.

A joint state is an int32 row of per-arm codes i * width + t, the
simulator's encoding: a probe observing o moves an arm to o * width + 1,
waiting adds 1.  A table arm's clock stops where its marginals stop
changing (`_caps`), unless another arm reaches a code that ties its capped
code in a rank policy's chain, so the graph of a table instance stops
growing with the horizon; Markov arms keep their clocks.  `_graph` builds
the union of the joint states reachable within the horizon when any
K-subset may be probed, in the order of the slot that first reaches them,
and expands each once, every subset in one pass, so the states and
branches of depth <= d are prefixes of its arrays.  The graph is
time-homogeneous, so one value iteration over it (`_iterate`; Puterman
1994, ch. 8) gives the value of every horizon 1..T at once: step h reads
only the states of depth <= T - h and their branches.  It gives the
optimal expected cost (least value-to-go over every K-subset) or a
policy's exact value (its own selection's), and an `exact_graph` value
keeps each method's values, made by its first call, for calls at every
horizon.  A policy is a rank policy's name, which picks each state's K
arms first in `policies.rank_table` for all states at once, as the
simulator does, or any callable, asked once for each state its own picks
reach, slot by slot, by the one forward walk (`_layers`) that lists a
policy table's layers; a name and its scalar selector (`select_whittle`
or `select_myopic` on one state) give bitwise equal values.  Names and the
optimum read the capped graph; callables and the policy table, which need
true ages, read its uncapped twin (`_twin`).  Each slot costs
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
from .attack import MarkovIID, marginals
from .guard import DEFAULT_BOUND, SearchSpaceError
from .policies import _check_k, belief_codes, rank_table, smallest_k
from .whittle import index_from_marginals

# the rank policies `policy_evaluate_exact` takes by name
EXACT_POLICIES = ("whittle", "myopic")
# branch entries charged per value-iteration step, for its fixed numpy passes
_SLOT_ENTRIES = 1024
# the most state keys `_graph` looks up in a table of one entry per key
_KEY_TABLE = 2**21


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
    no other arm reaches a code that ties its capped codes on whittle's or
    myopic's (primary key, cost-weighted belief): probe age, which the cap
    drops, would settle that tie.  Markov arms keep their clocks."""
    tops = [st.t - st.i + horizon - 1 for st in initial]  # each arm's largest clock
    caps = [None if isinstance(s.process, MarkovIID) else
            bisect.bisect_left(s.process.values, s.process.values[-1]) + 1 for s in specs]
    caps = [None if c is None or c >= top else c for c, top in zip(caps, tops)]
    markov = [top for s, top in zip(specs, tops) if isinstance(s.process, MarkovIID)]
    if caps.count(None) == len(caps) or 2 * len(specs) * (max(markov, default=0) + 1) > bound:
        return caps  # nothing to check, or a belief table refused whatever the caps
    keys, at_cap = [], []  # per arm, the (whittle, myopic) keys of the clocks it reaches
    for s, st, top, c in zip(specs, initial, tops, caps):
        last = top if c is None else c
        clocks = zip(index_from_marginals(s.cost, itertools.islice(marginals(s.process), 1, None)),
                     marginals(s.process))
        rows = [((w, s.cost * b), (b, s.cost * b))
                for x, (w, b) in enumerate(itertools.islice(clocks, last + 1))
                if x < horizon or x >= min(st.t - st.i, last)]
        keys.append([{row[j] for row in rows} for j in (0, 1)])
        at_cap.append(rows[-1])
    for a, c in enumerate(caps):
        if c is not None and any(at_cap[a][j] in keys[b][j]
                                 for b in range(len(specs)) if b != a for j in (0, 1)):
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
    abnormal)).  edges = (group, child, probability, edge ends): each state
    of depth d < horizon - 1 branches once, after every shallower state,
    edge_ends[d] edges in all from depths <= d; group = state *
    len(subsets) + subset and child is a state id, ordered by subset,
    parent, then outcome within a depth (the subset's first arm varying
    slowest, 0 before 1), without outcomes of belief 0 or 1.  Each depth
    expands every subset at once (`_branches`).

    One guard refuses every exact op before its work: the belief table,
    2N x (largest capped t + horizon), before any table is built; before
    each depth, the branch entries, `_SLOT_ENTRIES` per step plus each
    depth-d state's K-subsets x 2^K branches, built from N codes and read
    by the horizon - 1 - d steps after the one it first joins; after the
    last, the sweeps of the op's `solves` value iterations, step h reading
    the edges of depth <= horizon - h plus `_SLOT_ENTRIES`: never more than
    the branch entries when `solves` is 1."""
    n = len(specs)
    # the clock each arm stops at; an uncapped arm's never reaches t + horizon
    stops = [st.t + horizon if c is None else c for c, st in zip(caps or [None] * n, initial)]
    width = max(min(st.t, c + st.i) for c, st in zip(stops, initial)) + horizon
    if 2 * n * width > bound:
        raise SearchSpaceError(2 * n * width, bound,
                               "belief entries (2N x (largest capped t + horizon))")
    per_state = math.comb(n, k) * 2**k
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
    # the digit of each arm's code o * width + 1 after a probe observes o
    landing = np.array([np.searchsorted(c, [1, width + 1]) for c in reach]).reshape(-1)
    digits = np.array([[np.searchsorted(r, st.i * width + min(st.t, c + st.i))
                        for r, c, st in zip(reach, stops, initial)]])
    # the digit each code waits to: the next code, or itself at its cap
    waits = np.concatenate([np.searchsorted(r, r + (r % width < c + r // width))
                            for r, c in zip(reach, stops)])
    keys = (digits * unit).sum(axis=1)
    chunks, costs, total = [], [], _SLOT_ENTRIES * horizon
    empty = np.zeros(0, dtype=np.intp)
    groups, children, probs = [empty], [empty], [np.zeros(0)]  # no edges before depth 0
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
            ids = _StateIds(keys, math.prod(radix))
        start = sum(map(len, chunks))
        chunk = codes.take(digits + offset)
        chunks.append(chunk)
        # arm-major (N, states), so each pass runs along the states
        belief = beliefs.take(np.ascontiguousarray(chunk.T) + lift)
        costs.append(sum(s.cost * belief[a] for a, s in enumerate(specs)))
        if depth + 1 == horizon or not len(chunk):
            break
        subset, parent, branch, pr = _branches(belief, arms, outcomes)
        # a child's key is its parent's with every code one slot older, at
        # its waiting digit, and each probed arm's landing digit in place of that
        older = waits.take(digits + offset)
        child = (older * unit).sum(axis=1).take(parent)
        for r in range(k):
            arm = arms[:, r].take(subset)
            step = landing.take(2 * arm + outcomes[:, r].take(branch))
            step -= older.take(parent * n + arm)
            child += step * unit.take(arm)
        groups.append((parent + start) * len(arms) + subset)
        del subset, parent, branch, arm, step, older  # before the lookups, to lower the peak
        keys = np.sort(child[ids.find(child) < 0])
        keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are >= 0
        ids.add(keys)
        digits = (keys[:, None] // unit % radix).astype(np.int32)
        child = ids.find(child).astype(np.intp)
        children.append(child)
        probs.append(pr)
    # depths past the last new state add no states and no edges
    ends = np.cumsum([len(c) for c in chunks] + [0] * (horizon - len(chunks)))
    edge_ends = np.cumsum([len(p) for p in probs] + [0] * (horizon - len(probs)), dtype=np.intp)
    sweeps = solves * (_SLOT_ENTRIES * horizon + int(edge_ends[1:].sum()))
    if sweeps > bound:
        raise SearchSpaceError(sweeps, bound, f"sweep entries ({solves} value iterations x (the "
                               f"branches each step reads + {_SLOT_ENTRIES}))")
    del ids  # the key table, and below each column's parts once joined, to lower the peak
    edges = []
    for parts in (groups, children, probs):
        edges.append(np.concatenate(parts))
        parts.clear()
    return (width, list(map(tuple, arms.tolist())), np.concatenate(chunks), np.concatenate(costs),
            ends, (*edges, edge_ends[1:]))


def exact_graph(specs, initial, k: int, horizon: int, bound: int = DEFAULT_BOUND,
                solves: int = 1):
    """One instance's graph for `horizon` slots, to pass to `dp_optimal` and
    `policy_evaluate_exact` on that instance (specs, initial, K, bound): a
    call at any horizon h up to `horizon` reads its value at h, and
    `solves` methods will run on it (`_graph` bounds their work).  Table
    arms are capped where `_caps` allows.  The code width is `horizon`'s,
    which keeps every code's order, so each result is bit for bit that of a
    graph of its own.  The value, (instance, parts, memo), keeps what the
    first call of each method computes: the optimum's values and picks at
    every horizon, each rank policy's values, the states reachable at each
    slot, listed by the forward walk that also finds a callable's states
    when a policy table is first read, and the uncapped twin (`_twin`)."""
    specs, initial = tuple(specs), tuple(initial)
    _check_k(len(specs), k)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if min(st.t for st in initial) < 1:
        raise ValueError("the (0,0) sentinel is not the state of a trajectory")
    caps = _caps(specs, initial, horizon, bound)
    graph = (specs, initial, k, bound), _graph(specs, initial, k, horizon, bound, solves, caps), {}
    graph[2]["twin"] = graph if caps.count(None) == len(caps) else functools.partial(
        _graph, specs, initial, k, horizon, bound, solves)
    return graph


def _twin(graph):
    """`graph` with every arm at its true clock, which a policy table's
    states and a callable's need: the graph itself where no arm is capped,
    else built by the same builder, under the same guard, on first read
    and kept with the graph."""
    memo = graph[2]
    if callable(memo["twin"]):
        twin = graph[0], memo["twin"](), {}
        twin[2]["twin"] = memo["twin"] = twin
    return memo["twin"]


def _exact(specs, initial, k: int, horizon: int, bound: int, graph):
    """`graph`, or a graph of their own for `horizon` slots if it is None,
    checked against the instance and the horizon."""
    if graph is None:
        graph = exact_graph(specs, initial, k, horizon, bound)
    longest = len(graph[1][4])
    if graph[0] != (tuple(specs), tuple(initial), k, bound):
        raise ValueError("the graph passed is another instance's (specs, initial, K, bound)")
    if not 1 <= horizon <= longest:
        raise ValueError(f"horizon must be in 1..{longest} on the graph passed, got {horizon}")
    return graph


def _first_min(future):
    """Per state, the first subset beating every earlier one by > 1e-15."""
    pick, best = np.zeros(len(future), dtype=np.intp), future[:, 0]
    for j in range(1, future.shape[1]):
        better = future[:, j] < best - 1e-15
        pick, best = np.where(better, j, pick), np.where(better, future[:, j], best)
    return pick


def _iterate(parts, edges, horizon: int, optimal: bool):
    """Value iteration over the first `horizon` depths: step h gives V_h on
    the states of depth <= horizon - h, each state's slot cost plus
    future[state, subset], the sum in edge order of probability x V_{h-1}
    of the child over the edges of group state * subsets + subset.  The
    optimum's `edges` (group, child, probability, edge ends) are the
    graph's and each step takes `_first_min`'s subset; a policy's are its
    own (`_chosen`), one group per state.  Returns V_1..V_horizon at the
    initial state and the optimum's picks at each step."""
    costs, ends = parts[3], parts[4]
    group, child, pr, edge_ends = edges
    choices, firsts, picks = len(parts[1]) if optimal else 1, [], []
    for h in range(1, horizon + 1):
        size = ends[horizon - h] * choices
        if h == 1:
            future = np.zeros(size)  # nothing follows the last slot
        else:
            e = edge_ends[horizon - h]
            future = np.bincount(group[:e], weights=pr[:e] * values.take(child[:e]),
                                 minlength=size)
        if optimal:
            picks.append(_first_min(future.reshape(-1, choices)))
            future = future.take(picks[-1] + np.arange(0, size, choices))
        values = costs[:ends[horizon - h]] + future
        firsts.append(float(values[0]))
    return firsts, picks


def _chosen(edges, subsets: int, picks):
    """The edges of each state's picked subset, in their order, grouped by
    their parent alone."""
    group, child, pr, edge_ends = edges
    chosen = np.zeros(len(picks) * subsets, dtype=bool)
    chosen[picks + np.arange(0, chosen.size, subsets)] = True
    keep = chosen.take(group)
    count = np.concatenate([[0], np.cumsum(keep)])
    return group[keep] // subsets, child[keep], pr[keep], count.take(edge_ends)


def _layers(parts, horizon: int, picks=None):
    """Yield the states reachable at each slot 0..horizon - 1, walking the
    edges of every K-subset or, given `picks`, each state's picked subset:
    the caller fills a layer's picks before the walk steps past it."""
    _width, subsets, states, _costs, _ends, (group, child, _pr, edge_ends) = parts
    parent, subset = np.divmod(group, len(subsets))
    layer = np.zeros(1, dtype=np.intp)
    yield layer
    for e in edge_ends[:horizon - 1]:
        on = np.zeros(len(states), dtype=bool)
        on[layer] = True
        taken = on.take(parent[:e])
        if picks is not None:
            taken &= subset[:e] == picks.take(parent[:e])
        reached = np.zeros(len(states), dtype=bool)
        reached[child[:e][taken]] = True
        layer = np.flatnonzero(reached)
        yield layer


class _PolicyTable(Mapping):
    """Read-only {(slot, joint state as ((i, t), ...)): selection} over
    `horizon` slots of a graph's uncapped twin; its states and entries are
    found on first read."""

    def __init__(self, graph, horizon):
        self._parts = graph, horizon

    @functools.cached_property
    def _reached(self):
        """The states reachable at each slot, walked for the graph's longest
        horizon and kept with the graph."""
        (_key, parts, memo), horizon = _twin(self._parts[0]), self._parts[1]
        if "layers" not in memo:
            memo["layers"] = list(_layers(parts, len(parts[4])))
        return memo["layers"][:horizon]

    @functools.cached_property
    def _entries(self):
        twin, horizon = _twin(self._parts[0]), self._parts[1]
        (width, subsets, states, *_), picks = twin[1], _optimum(twin)[1]
        pairs = [divmod(code, width) for code in range(2 * width)]  # one (i, t) object per code
        return {(slot, tuple(map(pairs.__getitem__, row))): subsets[j]
                for slot, layer in enumerate(self._reached)
                for row, j in zip(states.take(layer, axis=0).tolist(),
                                  picks[horizon - slot - 1].take(layer).tolist())}

    def __getitem__(self, key):
        return self._entries[key]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return sum(map(len, self._reached))

    def __repr__(self):
        return repr(self._entries)


def _optimum(graph):
    """The optimum's values and picks at every horizon of `graph`."""
    _key, parts, memo = graph
    if None not in memo:
        memo[None] = _iterate(parts, parts[-1], len(parts[4]), True)
    return memo[None]


def dp_optimal(specs, initial, k: int, horizon: int, bound: int = DEFAULT_BOUND, graph=None):
    """Exact minimal expected total cost over `horizon` slots, plus the
    optimal policy table, a read-only mapping {(slot, joint state):
    selection} that is built the first time it is read.  An `exact_graph`
    of this instance passed as `graph` is read in place of a new one."""
    graph = _exact(list(specs), initial, k, horizon, bound, graph)
    return _optimum(graph)[0][horizon - 1], _PolicyTable(graph, horizon)


def _rank_picks(policy: str, specs, k: int, width: int, states):
    """Each state's subset id under a rank policy: the K arms whose codes
    come first in `rank_table`, the simulator's rule."""
    n = len(specs)
    rank, lift = rank_table(policy, specs, width), np.arange(n)[:, None] * 2 * width
    # A subset's id is its place in lexicographic order: C(N, K) - 1 minus,
    # for each arm a in it, C(N - 1 - a, r), where r (`left`) of its arms are >= a.
    drop = [np.array([math.comb(n - 1 - a, r) for r in range(k + 1)]) for a in range(n)]
    mask = smallest_k(rank.take(np.ascontiguousarray(states.T) + lift), k, rank.size)
    ids, left = np.full(len(states), math.comb(n, k) - 1), np.full(len(states), k)
    for a, chosen in enumerate(mask):
        ids -= chosen * drop[a].take(left)
        left -= chosen
    return ids


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
    if isinstance(policy, str) and policy not in EXACT_POLICIES:
        raise ValueError(f"unknown policy {policy!r}: exact evaluation takes a callable "
                         f"or one of {', '.join(EXACT_POLICIES)}")
    specs = list(specs)
    graph = _exact(specs, initial, k, horizon, bound, graph)
    if isinstance(policy, str):
        _key, parts, memo = graph
        width, subsets, states, _costs, ends, edges = parts
        if policy not in memo:
            expanded = ends[-2] if len(ends) > 1 else 0
            picks = _rank_picks(policy, specs, k, width, states[:expanded])
            memo[policy] = _iterate(parts, _chosen(edges, len(subsets), picks), len(ends), False)[0]
        return memo[policy][horizon - 1]
    width, subsets, states, _costs, _ends, edges = parts = _twin(graph)[1]
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
    return _iterate(parts, _chosen(edges, len(subsets), picks), horizon, False)[0][horizon - 1]

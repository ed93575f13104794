"""Slot-by-slot arm selection rules.

Each rule exists once.  `chain_keys` computes the chain's keys of every
arm state of every arm, for the index, myopic and queue policies alike
(the oracle's clock caps read them too); `top_k` orders one row by the
chain, and `rank_table` ranks every arm state once by it.  The per-slot
rules `smallest_k` and `random_k` work on arm-major (N, R) columns of R
worlds, the simulator's layout, each step a pass over contiguous rows of
R; the scalar selectors below are one-world views of the same rules.
`by_code` lays per-arm values out by arm-state code, the index of every
per-code table here, in the simulator and in the oracle.

All index-ranked selectors break ties by the same deterministic chain:
larger index, then larger cost-weighted abnormal belief, then longer time
since the last probe, then smaller arm id.  The probe-age layer is what
makes the index, myopic and queue policies coincide selection-for-selection
on homogeneous components instead of merely up to exchangeable sets; the
queue itself is the chain on probe age alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .arm import belief_abnormal
from .attack import marginals
from .whittle import index_values, whittle_index

POLICY_NAMES = ("whittle", "myopic", "queue", "random")


def by_code(by_clock) -> np.ndarray:
    """Per-arm rows over the clock t - i (slots since the last reset),
    re-indexed by arm-state code i * width + t, t < width = the rows'
    length.  The unused code of (1, 0) reads clock 0."""
    t = np.arange(len(by_clock[0]))
    return np.take(by_clock, np.maximum(t - np.arange(2)[:, None], 0).ravel(), axis=1)


def belief_codes(specs, width: int) -> np.ndarray:
    """b[n, i * width + t] = belief_abnormal(specs[n], ArmState(i, t)), t < width."""
    return by_code([list(islice(marginals(s.process), width)) for s in specs])


def top_k(primary, weighted_belief, age, k: int) -> np.ndarray:
    """The ids of the K arms first in the tie-break chain, in rank order.
    lexsort is stable, so an arm's position -- its id -- settles the ties
    the three keys leave."""
    return np.lexsort((-age, -weighted_belief, -primary))[:k]


def smallest_k(keys, k: int, lift) -> np.ndarray:
    """Per column of the (N, R) `keys`, the mask of those at or below the
    K-th smallest: K arms wherever a column's keys are distinct.

    Up to K = 2 that key is a column min: the smallest, or the smallest
    once the keys at or below it are lifted by `lift`, which must exceed
    every key's distance to its column's largest (for keys in [0, b),
    lift = b).  Each further round would cost about 4 passes over the
    keys, more than one partition along the arms, so larger K partitions.
    """
    if k > 2:
        return keys <= np.partition(keys, k - 1, axis=0)[k - 1]
    kth = keys.min(axis=0)
    if k == 2:
        kth = (keys + (keys <= kth) * lift).min(axis=0)
    return keys <= kth


def chain_keys(policy: str, specs, width: int) -> tuple:
    """(primary key, cost-weighted belief) of every arm state of every arm:
    entry arm * 2 * width + i * width + t for (i, t), t < width.  The index
    and myopic policies key by the index and by the belief.  The queue keys
    by 2t - i, with no belief key: larger t first, then i = 0 before i = 1."""
    code = np.arange(2 * len(specs) * width)
    t = code % width
    if policy == "queue":
        return 2 * t - code // width % 2, np.zeros(t.size)
    beliefs = belief_codes(specs, width).ravel()
    primary = (by_code([index_values(s, width - 1) for s in specs]).ravel()
               if policy == "whittle" else beliefs)
    return primary, np.repeat([s.cost for s in specs], 2 * width) * beliefs


def rank_table(policy: str, specs, width: int) -> np.ndarray:
    """rank[arm * 2 * width + i * width + t]: the position of arm state
    (i, t), t < width, in the policy's chain over every state of every arm.

    One `top_k` call sorts every state's `chain_keys` and probe age t, in
    arm-major order, so the lower arm comes first among equal keys, as in a
    per-slot call.  The queue's order is `queue_step`'s whenever every arm
    starts at (0, 1) and the queue in id order, as in a simulator run: each
    probe moves a cohort to the back, healthy above abnormal, each in id
    order, and the cohorts stay ordered by probe age.
    """
    primary, weighted_belief = chain_keys(policy, specs, width)
    order = top_k(primary, weighted_belief, np.arange(primary.size) % width, primary.size)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank


def random_k(draws, k: int) -> np.ndarray:
    """Per column of the (N, R) nonnegative `draws`, the mask of the K arms
    with the smallest draws, the lower arm first among equal draws: a
    uniform K-subset when the draws are iid uniforms."""
    mask = smallest_k(draws, k, draws.max() + 1)
    if np.count_nonzero(mask) != k * mask.shape[1]:  # equal draws straddle the K-th
        mask = np.zeros_like(mask)
        np.put_along_axis(mask, np.argsort(draws, axis=0, kind="stable")[:k], True, axis=0)
    return mask


def _check_k(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= K <= N, got K={k}, N={n}")


def _chain(specs, states, k: int, primary) -> tuple:
    """The chain on one world; `primary` maps (spec, state, belief) to the
    arm's first key."""
    if len(states) != len(specs):
        raise ValueError(f"{len(specs)} specs but {len(states)} states")
    _check_k(len(specs), k)
    rows = []
    for s, st in zip(specs, states):
        b = belief_abnormal(s, st)
        rows.append((primary(s, st, b), s.cost * b, st.t))
    return tuple(sorted(top_k(*np.array(rows).T, k).tolist()))


def select_whittle(specs, states, k: int) -> tuple:
    """The K arms with the largest Whittle indices."""
    return _chain(specs, states, k, lambda s, st, b: whittle_index(s, st))


def select_myopic(specs, states, k: int) -> tuple:
    """The K arms with the largest abnormal probabilities right now.

    Deliberately greedy and cost-blind in its primary key (the cost enters
    only through the shared tie-break); it coincides with the index policy
    on homogeneous components and serves as the baseline it is measured
    against elsewhere.
    """
    return _chain(specs, states, k, lambda s, st, b: b)


@dataclass(frozen=True)
class QueueState:
    """Probe order for the parameter-free homogeneous policy; the head
    arms are probed next."""

    order: tuple


def queue_init(n: int, initial_order) -> QueueState:
    if n < 1:
        raise ValueError(f"need N >= 1, got {n}")
    order = tuple(int(a) for a in initial_order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"{initial_order!r} is not a permutation of 0..{n - 1}")
    return QueueState(order=order)


def queue_step(queue: QueueState, k: int, observations: dict):
    """Probe the K head arms and move them to the back, those observed
    healthy above those observed abnormal, each group in arm-id order;
    returns the selection and the next queue.

    A probed-abnormal arm is one repair slot behind a probed-healthy one,
    so it stays below it (and below the next cohort's healthy arms, whose
    abnormal probability it matches) for the rest of time.  Id-ordering
    inside each group mirrors the chain's final tie-break, keeping the
    queue and the index policy aligned arm for arm.
    """
    _check_k(len(queue.order), k)
    head = queue.order[:k]
    if set(observations) != set(head):
        raise ValueError(
            f"observations {sorted(observations)} do not match the probed head {sorted(head)}"
        )
    for a, o in observations.items():
        if o not in (0, 1):
            raise ValueError(f"observation for arm {a} must be 0 or 1, got {o!r}")
    back = sorted(head, key=lambda a: (observations[a], a))
    return tuple(sorted(head)), QueueState(order=queue.order[k:] + tuple(back))


def whittle_policy(specs, k: int):
    """A stationary selector closure for the exact-evaluation machinery."""
    return lambda states: select_whittle(specs, states, k)

"""Seeded Monte Carlo simulation of the monitored network.

The world is each component's true state and its arm-state code: the
(last observation i, slots since it t) pair the scheduler sees, as the
flat code arm * 2 * width + i * width + t that indexes every per-code
table.  That code is the world's only clock: a component's slots since
its evolution last (re)started are t - i, so the flip thresholds are read
by code.  Within a slot: costs are charged on the current states, probed
arms are observed, then the world advances -- a probed arm moves to
(observation, 1), which restarts a healthy component's clock at the probe
slot and repairs an abnormal one effective next slot, every other arm to
(i, t + 1), and every component that is healthy going into the next slot
flips with the hazard of its clock.  All components start healthy at
(0, 0) one slot before the horizon, so the first slot already carries
abnormal probability p(1).

Replications use one named substream per (seed, replication, arm) --
numpy's SeedSequence([seed, rep, arm]) feeding PCG64, and [seed, rep, N]
for the random policy's picks -- which makes results independent of
iteration order and byte-identical across runs of the same configuration
(`sample_abnormal_marginals` draws from arm 0's, [seed, rep, 0]).
The streams' seed states are hashed and jumped ahead in array passes over
chunks of up to 2^16 streams, and PCG64 itself runs on arrays (`_Streams`):
each slot draws its uniforms from every stream at once, so a run holds
O(R x N) stream state and no block of uniforms.  Nor does it hold an (R, T)
matrix of costs: each replication's cumulative cost is a running sum,
copied slot by slot into an (R, w) block of at most 16 slots that is
aggregated into the (T,) trajectory when full.  The horizon splits into blocks of widths as equal
as possible, so no block is one slot wide unless T = 1 (numpy would sum
an (R, 1) column pairwise, where it adds the rows of a wider block in
order), and every mean and standard error equals, bit for bit, the
reduction of the whole (R, T) matrix.

Every per-replication array is arm-major, (N, R): a slot's steps are
passes over N contiguous rows of R, never numpy's per-row loop over R
rows of N.  Slot costs are summed over the arm rows in the order numpy
sums a row of N (`_arm_sum`), so they equal the (R, N) row sums bit for
bit.  Every policy but the random one ranks every arm state (i, t) of
every arm once, before the first slot (`policies.rank_table`: the index,
the belief, or for the queue the probe age); a slot then probes, per
replication, the K arms whose current codes rank first
(`policies.smallest_k`: column mins up to K = 2, a partition along the
arms beyond).  The random policy draws its K arms per slot
(`policies.random_k`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice, pairwise

import numpy as np

from .attack import ComponentSpec, hazards
from .guard import SearchSpaceError
from .policies import POLICY_NAMES, _check_k, by_code, random_k, rank_table, smallest_k

# a bound on a run's size in uniform draws, 8 B or about 50 ns each: the
# R x N x T uniforms it draws from its arm streams (about 16 times fig4's),
# plus 20 draws (160 B) per stream for its state, which peaks at about 128 B
# while its chunk is set up and 64 B in a slot; the per-code tables (hazard thresholds, rank
# table), which peak at about 160 B or _TABLE_DRAWS draws per arm and slot
# of the horizon while they are built; and each slot's fixed cost, about
# 65 us of Python and numpy calls whatever R x N is, or _SLOT_DRAWS draws.
# Nothing else a run holds grows with R x T: its cumulative costs go through
# one block of at most _BLOCK_SLOTS slots per replication.  A run's traced
# peak is 0.45-0.50 of these bytes for one arm at T = 64 and 0.45-0.58 for
# fig4's arms at T = 1 (R = 20,000 and 100,000, the index and random
# policies).
MAX_UNIFORMS = 2**27
_TABLE_DRAWS, _SLOT_DRAWS = 20, 1024
# slots of cumulative cost held per replication before they are aggregated
# (a per-slot mean keeps these bits only through np.cumsum, slower than a column write)
_BLOCK_SLOTS = 16
# streams whose seed states are hashed and jumped ahead at once
_CHUNK = 2**16

# numpy's SeedSequence hash constants (pool of four 32-bit words)
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# numpy's PCG64: the 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = 2**64 - 1, 2**128 - 1


@dataclass(frozen=True)
class RunConfig:
    specs: tuple
    k: int
    horizon: int
    policy: str
    replications: int
    seed: int

    def __post_init__(self):
        n = len(self.specs)
        _check_k(n, self.k)
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.policy!r}; choose from {POLICY_NAMES}")
        _words(self.seed)  # a negative seed fails here, as SeedSequence would
        size = (self.replications * n * (self.horizon + 20)
                + (_TABLE_DRAWS * n + _SLOT_DRAWS) * self.horizon)
        if size > MAX_UNIFORMS:
            what = ("draws: streams (replications x components x (horizon + 20)), tables "
                    f"({_TABLE_DRAWS} x components x horizon) and slots ({_SLOT_DRAWS} x horizon)")
            raise SearchSpaceError(size, MAX_UNIFORMS, what)


@dataclass
class CostTrajectory:
    """Per-slot mean cumulative cost across replications and its standard
    error (0 when there is a single replication)."""

    mean_cumulative: np.ndarray
    stderr: np.ndarray


def _hazard_table(specs, horizon: int) -> np.ndarray:
    """h[n, i * width + t] = hazard of arm n at clock t - i, the flip
    threshold of its code, for width = horizon + 2 (clock 0 reads 0)."""
    return by_code([[0.0, *islice(hazards(s.process), horizon + 1)] for s in specs])


def _draw_thresholds(specs, horizon: int) -> np.ndarray:
    """`_hazard_table` for `_Streams`' draws n = u 2^53: u < h exactly when n < ceil(h 2^53)."""
    return np.ceil(_hazard_table(specs, horizon) * 2.0**53).astype(np.uint64)


def _advance(abnormal, code, probe, draws, thresholds, first):
    """The world transition, on arm-major (N, R) arrays of R independent
    worlds whose only clock is each arm's state code.

    `code` holds flat codes arm * 2 * width + i * width + t, `thresholds`
    the (N, 2 * width) flip thresholds read by those codes and `first` the
    (N, 1) codes of each arm's (0, 1).  `probe` marks probed arms; a probed
    arm moves to (its current state, 1) and every other arm to (i, t + 1).  Every arm healthy going into the next
    slot flips when its draw is below the threshold of its next code: a
    probed-healthy arm faces hazard(1), and a repaired arm, at (1, 1) with
    clock 0 and threshold 0, cannot flip.  Draws and thresholds are both
    floats, or both scaled by 2^53 to integers (the 53-bit draw, the hazard
    rounded up).
    """
    width = thresholds.shape[1] // 2
    stay = code + 1
    code = stay + probe * (first + (abnormal & probe) * width - stay)
    return (abnormal & ~probe) | (draws < thresholds.take(code)), code


def _arm_sum(x) -> np.ndarray:
    """Column sums of the (N, R) `x` in numpy's pairwise order for a row of
    length N, so bit for bit the row sums of its (R, N) transpose: one
    sequential sum below 8 rows, 8 interleaved accumulators up to 128 rows,
    and the halves (the first a multiple of 8 rows) summed apart above."""
    n = len(x)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _arm_sum(x[:half]) + _arm_sum(x[half:])
    total = np.zeros(x.shape[1])
    if n < 8:
        for row in x:
            total += row
        return total
    acc = x[:8]
    for i in range(8, n - n % 8, 8):
        acc = acc + x[i : i + 8]
    acc = acc[0::2] + acc[1::2]
    acc = acc[0::2] + acc[1::2]
    total += acc[0] + acc[1]
    for row in x[n - n % 8 :]:
        total += row
    return total


def _words(value) -> list:
    """The little-endian 32-bit words SeedSequence hashes for an integer."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _stream_states(seed: int, tails) -> np.ndarray:
    """Row s is SeedSequence([seed, *tails[s]]).generate_state(4, np.uint64),
    for every row at once: numpy's pool-of-4 hash (hashmix, then mix) run in
    uint32 array arithmetic.  Each entry of `tails` must fit in one word."""
    tails = np.asarray(tails, dtype=np.uint32)
    columns = [np.full(len(tails), w, dtype=np.uint32) for w in _words(seed)] + list(tails.T)
    columns += [np.zeros(len(tails), dtype=np.uint32)] * (_POOL - len(columns))
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ value >> 16

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ result >> 16

    pool = [hashmix(column) for column in columns[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for column in columns[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(column))
    hash_const = _INIT_B
    state = np.stack([hashmix(pool[i % _POOL], _MULT_B) for i in range(2 * _POOL)], axis=1)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _halves(values) -> tuple:
    """128-bit integers as (high, low) uint64 columns."""
    return (np.array([[v >> 64] for v in values], dtype=np.uint64),
            np.array([[v & _MASK64] for v in values], dtype=np.uint64))


def _mul128(xh, xl, ah, al) -> tuple:
    """(x * a) mod 2^128 on (high, low) uint64 halves, in 32-bit limbs.
    Each product is summed in place into one made before it, so at most
    four full-size arrays are held at once."""
    x0, x1 = xl & _MASK32, xl >> 32
    a0, a1 = al & _MASK32, al >> 32
    cross, hi = x1 * a0, x1 * a1
    del x1
    hi += cross >> 32
    cross &= _MASK32
    cross += x0 * a1
    low = x0 * a0
    del x0
    low >>= 32
    cross += low  # < 2^64
    cross >>= 32
    hi += cross
    hi += xl * ah
    hi += xh * al
    return hi, xl * al


def _add128(xh, xl, yh, yl) -> tuple:
    """(x + y) mod 2^128 on (high, low) uint64 halves, summed into x in
    place: x must be full-size arrays nothing else reads."""
    xl += yl
    xh += yh
    xh += xl < yl
    return xh, xl


def _seed(seed, tails, step_sum, powers, sums) -> tuple:
    """The (high, low) halves of the LCG offset (`step_sum` times inc) and
    of the states M^j start + S_j inc, for each (M^j, S_j) in `powers` and
    `sums`, of the streams [seed, *tails[s]]."""
    s = _stream_states(seed, tails).T[:, None, :]
    inc = (s[2] << 1 | s[3] >> 63, s[3] << 1 | 1)
    offset, jumped = _mul128(*inc, *step_sum), _mul128(*inc, *sums)
    # numpy's seeding steps the LCG from 0 (giving inc), adds the seed
    # state and steps again; draw j is j + 1 steps after that
    start = _add128(*inc, s[0], s[1])
    del s, inc
    return offset, _add128(*_mul128(*start, *powers), *jumped)


class _Streams:
    """numpy's PCG64 and `next_double` on many streams at once, bit for bit.

    Stream s is the named stream [seed, *tails[s]]: `draw()` returns, as
    column s of a (width, streams) uint64 array, the next `width` values
    that default_rng(SeedSequence([seed, *tails[s]])).random() would, as
    the 53-bit integers next_double scales by 2^-53.  Row j of the state
    holds the LCG state of draw j, set once by jump-ahead (M^j x + S_j inc,
    S_j = sum_{i<j} M^i); every draw moves each row `width` steps on, so a
    draw costs the same array passes for any width."""

    def __init__(self, seed: int, tails, width: int = 1):
        powers, sums = [1], [0]  # M^j and S_j for j = 0, 1, ...
        for _ in range(width + 1):
            powers.append(powers[-1] * _PCG_MULT & _MASK128)
            sums.append((sums[-1] * _PCG_MULT + 1) & _MASK128)
        self._mult = _halves([powers[width]])
        jump = _halves([sums[width]]), _halves(powers[2:]), _halves(sums[2:])
        count = len(tails)
        # (high, low) halves, set one chunk of streams at a time
        self._offset = np.empty((2, 1, count), dtype=np.uint64)
        self._state = np.empty((2, width, count), dtype=np.uint64)
        for first in range(0, count, _CHUNK):
            part = slice(first, first + _CHUNK)
            self._offset[:, :, part], self._state[:, :, part] = _seed(seed, tails[part], *jump)

    def draw(self) -> np.ndarray:
        hi, lo = self._state
        self._state = _add128(*_mul128(hi, lo, *self._mult), *self._offset)
        # XSL-RR output, then next_double's top 53 bits, made in place in the
        # old state's arrays
        x, rot = lo, hi
        x ^= hi
        rot >>= 58
        left = x << ((64 - rot) & 63)
        x >>= rot
        x |= left
        x >>= 11
        return x


def run(config: RunConfig) -> CostTrajectory:
    """Simulate `replications` independent trajectories of the policy and
    aggregate per-slot mean cumulative cost with its standard error."""
    specs = list(config.specs)
    n = len(specs)
    r, t_total, k = config.replications, config.horizon, config.k
    costs = np.array([[s.cost] for s in specs])
    width = t_total + 2  # codes i * width + t, t <= horizon
    thresholds = _draw_thresholds(specs, t_total)
    first = np.arange(n)[:, None] * 2 * width + 1  # each arm's code of (0, 1)
    ranked = config.policy != "random"
    if ranked:
        rank = rank_table(config.policy, specs, width)
    else:
        # stream [seed, rep, N] draws N uniforms a slot, one row per arm
        pick_draws = _Streams(config.seed, np.column_stack([np.arange(r), np.full(r, n)]), n)
    # stream [seed, rep, arm] is column arm * R + rep
    arm_draws = _Streams(config.seed, np.indices((n, r), dtype=np.uint32).reshape(2, -1)[::-1].T)

    no_probe = np.zeros((n, r), dtype=bool)
    # one hazard step takes the fresh world, every arm healthy at (0, 0),
    # to the first slot
    abnormal, code = _advance(no_probe, np.broadcast_to(first - 1, (n, r)), no_probe,
                              arm_draws.draw().reshape(n, r), thresholds, first)

    mean, stderr = np.empty(t_total), np.empty(t_total)
    cum = np.zeros(r)  # each replication's cumulative cost
    blocks = -(-t_total // _BLOCK_SLOTS)
    bounds = [t_total * b // blocks for b in range(blocks + 1)]
    for lo, hi in pairwise(bounds):
        block = np.empty((r, hi - lo))
        for slot in range(lo, hi):
            cum += _arm_sum(abnormal * costs)
            block[:, slot - lo] = cum
            if ranked:
                probe = smallest_k(rank.take(code), k, rank.size)
            else:
                probe = random_k(pick_draws.draw(), k)
            if slot + 1 < t_total:
                abnormal, code = _advance(abnormal, code, probe,
                                          arm_draws.draw().reshape(n, r), thresholds, first)
        part = aggregate(block)
        mean[lo:hi], stderr[lo:hi] = part.mean_cumulative, part.stderr
    return CostTrajectory(mean_cumulative=mean, stderr=stderr)


def aggregate(cumulative: np.ndarray) -> CostTrajectory:
    """Symmetric reduction over replications: mean and standard error."""
    r = cumulative.shape[0]
    mean = cumulative.mean(axis=0)
    if r > 1:
        stderr = cumulative.std(axis=0, ddof=1) / np.sqrt(r)
    else:
        stderr = np.zeros_like(mean)
    return CostTrajectory(mean_cumulative=mean, stderr=stderr)


def sample_abnormal_marginals(spec: ComponentSpec, horizon: int,
                              replications: int, seed: int) -> np.ndarray:
    """Empirical P(abnormal at slot t), t = 1..horizon, for one component
    left unprobed: `run`'s transition on its arm-0 streams [seed, rep, 0],
    one draw per slot; its arguments are checked as a one-arm `RunConfig`."""
    RunConfig((spec,), 1, horizon, "random", replications, seed)
    draws = _Streams(seed, np.column_stack([np.arange(replications), np.zeros(replications, int)]))
    thresholds, first = _draw_thresholds([spec], horizon), np.ones((1, 1), dtype=np.int64)
    abnormal = no_probe = np.zeros((1, replications), dtype=bool)
    code, freq = first - 1, np.empty(horizon)  # every world at (0, 0)
    for slot in range(horizon):
        abnormal, code = _advance(abnormal, code, no_probe, draws.draw(), thresholds, first)
        freq[slot] = abnormal.mean()
    return freq

"""Seeded Monte Carlo simulation of the monitored network.

The world tracks each component's true state and the slots elapsed since
its evolution last (re)started.  Within a slot: costs are charged on the
current states, probed arms are observed, then the world advances -- a
probe observing 0 restarts the component's clock at the probe slot, a
probe observing 1 repairs it effective next slot, and every component that
is healthy going into the next slot flips with the hazard of its clock.
All components start healthy one slot before the horizon, so the first
slot already carries abnormal probability p(1).

Replications use one named substream per (seed, replication, arm), which
makes results independent of iteration order and byte-identical across
runs of the same configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attack import ComponentSpec, hazard, marginal_p
from .policies import POLICY_NAMES, random_k, requeue, top_k
from .whittle import index_values


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
        if not 1 <= self.k <= n:
            raise ValueError(f"need 1 <= K <= N, got K={self.k}, N={n}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if self.policy not in POLICY_NAMES:
            raise ValueError(f"unknown policy {self.policy!r}; choose from {POLICY_NAMES}")


@dataclass
class CostTrajectory:
    """Per-slot mean cumulative cost across replications and its standard
    error (0 when there is a single replication)."""

    mean_cumulative: np.ndarray
    stderr: np.ndarray


def _hazard_table(specs, horizon: int) -> np.ndarray:
    """h[n, k] = hazard of arm n at clock k, k = 1..horizon + 1."""
    table = np.zeros((len(specs), horizon + 2))
    for n, spec in enumerate(specs):
        table[n, 1:] = [hazard(spec.process, k) for k in range(1, horizon + 2)]
    return table


def _belief_table(specs, horizon: int) -> np.ndarray:
    table = np.zeros((len(specs), horizon + 2))
    for n, spec in enumerate(specs):
        table[n, :] = [marginal_p(spec.process, t) for t in range(horizon + 2)]
    return table


def _index_table(specs, horizon: int) -> np.ndarray:
    table = np.zeros((len(specs), horizon + 2))
    for n, spec in enumerate(specs):
        table[n, :] = index_values(spec, horizon + 1)
    return table


def _advance(abnormal, phase, probe_mask, obs, uniforms, hazards, arm_cols):
    """The world transition, on (R, N) arrays of R independent worlds.

    probe_mask marks probed arms, obs their current (pre-probe) states.
    Probed-healthy arms restart at clock 0 and immediately face hazard(1);
    probed-abnormal arms are repaired into the next slot with clock 0 and
    no flip; unprobed healthy arms face the next hazard of their clock.
    """
    repaired = probe_mask & obs
    reset = probe_mask & ~obs
    clock = np.where(reset, 0, phase)
    flip_elig = ~abnormal  # reset arms are healthy; repaired arms excluded below
    flips = flip_elig & ~repaired & (uniforms < hazards[arm_cols, clock + 1])
    next_abnormal = (abnormal & ~probe_mask) | flips
    next_phase = np.where(repaired, 0, clock + 1)
    return next_abnormal, next_phase


def _arm_uniforms(seed: int, replications: int, n: int, horizon: int) -> np.ndarray:
    u = np.empty((replications, n, horizon))
    for rep in range(replications):
        for arm in range(n):
            gen = np.random.default_rng(np.random.SeedSequence([seed, rep, arm]))
            u[rep, arm, :] = gen.random(horizon)
    return u


def _policy_uniforms(seed: int, replications: int, n: int, horizon: int) -> np.ndarray:
    u = np.empty((replications, horizon, n))
    for rep in range(replications):
        gen = np.random.default_rng(np.random.SeedSequence([seed, rep, n]))
        u[rep, :, :] = gen.random((horizon, n))
    return u


def run(config: RunConfig) -> CostTrajectory:
    """Simulate `replications` independent trajectories of the policy and
    aggregate per-slot mean cumulative cost with its standard error."""
    specs = list(config.specs)
    n = len(specs)
    r, t_total, k = config.replications, config.horizon, config.k
    costs = np.array([s.cost for s in specs])
    hazards = _hazard_table(specs, t_total)
    beliefs = _belief_table(specs, t_total)
    indices = _index_table(specs, t_total)
    u = _arm_uniforms(config.seed, r, n, t_total)
    pol_u = None
    if config.policy == "random":
        pol_u = _policy_uniforms(config.seed, r, n, t_total)

    arm_cols = np.broadcast_to(np.arange(n), (r, n))
    abnormal = np.zeros((r, n), dtype=bool)
    phase = np.zeros((r, n), dtype=np.int64)
    i_state = np.zeros((r, n), dtype=np.int64)
    t_state = np.ones((r, n), dtype=np.int64)
    order = np.broadcast_to(np.arange(n), (r, n)).copy()  # queue policy only
    per_slot = np.empty((r, t_total))
    rows = np.arange(r)[:, None]
    no_probe = np.zeros((r, n), dtype=bool)

    # one hazard step separates the fresh (reset) world from the first slot
    abnormal, phase = _advance(
        abnormal, phase, no_probe, no_probe, u[:, :, 0], hazards, arm_cols
    )

    for slot in range(t_total):
        per_slot[:, slot] = (abnormal * costs).sum(axis=1)

        if config.policy in ("whittle", "myopic"):
            clock = t_state - i_state
            b = beliefs[arm_cols, clock]
            primary = indices[arm_cols, clock] if config.policy == "whittle" else b
            sel_idx = top_k(primary, costs * b, t_state, k)
        elif config.policy == "queue":
            sel_idx = order[:, :k]
        else:  # random
            sel_idx = random_k(pol_u[:, slot, :], k)

        mask = np.zeros((r, n), dtype=bool)
        mask[rows, sel_idx] = True
        obs = abnormal & mask
        if config.policy == "queue":
            order = requeue(order, obs[rows, sel_idx], k)

        if slot + 1 < t_total:
            abnormal, phase = _advance(
                abnormal, phase, mask, obs, u[:, :, slot + 1], hazards, arm_cols
            )
        i_state = np.where(mask, obs, i_state)
        t_state = np.where(mask, 1, t_state + 1)

    return aggregate(np.cumsum(per_slot, axis=1))


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
    left unprobed, using the simulator's transition kernel on a batch of
    worlds driven by a single named stream."""
    gen = np.random.default_rng(np.random.SeedSequence([seed]))
    u = gen.random((replications, horizon))
    hazards = _hazard_table([spec], horizon)
    abnormal = np.zeros((replications, 1), dtype=bool)
    phase = np.zeros((replications, 1), dtype=np.int64)
    no_probe = np.zeros((replications, 1), dtype=bool)
    cols = np.zeros((replications, 1), dtype=np.int64)
    freq = np.empty(horizon)
    for slot in range(horizon):
        abnormal, phase = _advance(
            abnormal, phase, no_probe, no_probe, u[:, slot : slot + 1],
            hazards, cols,
        )
        freq[slot] = abnormal.mean()
    return freq

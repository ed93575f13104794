"""Shared fixtures: reference processes, random spec generators, the
scalar references the array code is pinned against (the arm update rule,
h(t), the random pick, the myopic selector), the reference relaxed-budget
solve, the renewal walk over every slot, the inverse of the JSON
descriptor parsers and the environment of a child interpreter."""

import bisect
import os
from itertools import islice

import numpy as np

import probesched
from probesched import ArmState, ComponentSpec, MarkovIID, Table
from probesched.attack import hazards, marginal_p
from probesched.policies import _check_k, random_k, select_myopic
from probesched.subsidy import (
    T_CAP,
    RelaxedPlan,
    _marginals,
    _policy_rates,
)
from probesched.whittle import index_values

# Concave marginal table used by the bundled index preset: p(1)..p(8).
CONCAVE8 = (0.5, 0.7, 0.85, 0.95, 0.97, 0.975, 0.978, 0.98)


def child_env():
    """The environment of a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(probesched.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def process_to_json(process) -> dict:
    if isinstance(process, MarkovIID):
        return {"kind": "markov", "q": process.q}
    return {"kind": "table", "p": list(process.values)}


def component_to_json(spec: ComponentSpec) -> dict:
    out = process_to_json(spec.process)
    out["cost"] = spec.cost
    return out


def concave_spec(cost=1.0):
    return ComponentSpec(Table(CONCAVE8), cost)


def markov_spec(q=0.5, cost=1.0):
    return ComponentSpec(MarkovIID(q), cost)


PASSIVE = 0
ACTIVE = 1


def transition(state: ArmState, action: int, observation: int | None = None) -> ArmState:
    """One-step arm-state update.

    Probing yields an observation and restarts the clock at (obs, 1);
    waiting advances the clock to (i, t+1).  An observation must be
    supplied exactly when the arm is probed.
    """
    if state.t < 1:
        raise ValueError("cannot transition from the (0,0) sentinel")
    if action == ACTIVE:
        if observation not in (0, 1):
            raise ValueError("an active transition requires an observation of 0 or 1")
        return ArmState(observation, 1)
    if action == PASSIVE:
        if observation is not None:
            raise ValueError("a passive transition takes no observation")
        return ArmState(state.i, state.t + 1)
    raise ValueError(f"action must be PASSIVE (0) or ACTIVE (1), got {action}")


def hazard(process, t):
    """h(t), the t-th element of `attack.hazards(process)`."""
    return next(islice(hazards(process), t - 1, None))


def select_random(n: int, k: int, rng) -> tuple:
    """A uniform K-subset: one uniform per arm from the caller's generator,
    the K smallest win."""
    _check_k(n, k)
    return tuple(np.flatnonzero(random_k(rng.random((n, 1)), k)[:, 0]).tolist())


def myopic_policy(specs, k: int):
    return lambda states: select_myopic(specs, states, k)


def random_concave_table(rng, length=14, ceiling=0.98):
    """Strictly concave marginals: geometric increments, sum below 1."""
    ratio = rng.uniform(0.4, 0.85)
    total = rng.uniform(0.5, ceiling)
    weights = ratio ** np.arange(length)
    deltas = weights / weights.sum() * total
    return Table(tuple(np.cumsum(deltas)))


def random_strict_specs(n, seed, table_length=14):
    """Specs whose increments are strictly decreasing everywhere that the
    index enumeration reaches: memoryless arms and strictly concave tables."""
    rng = np.random.default_rng(seed)
    specs = []
    for k in range(n):
        cost = float(rng.uniform(0.3, 3.0))
        if k % 2 == 0:
            specs.append(ComponentSpec(MarkovIID(float(rng.uniform(0.06, 0.94))), cost))
        else:
            specs.append(ComponentSpec(random_concave_table(rng, table_length), cost))
    return specs


def random_relaxed_instances(count, seed):
    """(specs, K) instances of the relaxed budget, 2..5 arms and 1 <= K < N.
    Each arm is one of: a memoryless arm (q in 0.06..0.94); a tiny-q
    memoryless arm (q log-uniform in 0.005..0.05, converging after
    hundreds to thousands of slots); the q = 1e-175 arm, whose p rounds to
    0.0; a strictly concave table; a repeat of an earlier arm."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 6))
        specs = []
        while len(specs) < n:
            kind = int(rng.choice(5, p=(0.35, 0.15, 0.1, 0.25, 0.15)))
            cost = float(rng.uniform(0.3, 3.0))
            if kind == 0:
                specs.append(ComponentSpec(MarkovIID(float(rng.uniform(0.06, 0.94))), cost))
            elif kind == 1:
                q = float(10.0 ** rng.uniform(np.log10(0.005), np.log10(0.05)))
                specs.append(ComponentSpec(MarkovIID(q), cost))
            elif kind == 2:
                specs.append(ComponentSpec(MarkovIID(1e-175), cost))
            elif kind == 3:
                specs.append(ComponentSpec(random_concave_table(rng), cost))
            elif specs:
                specs.append(specs[int(rng.integers(len(specs)))])
        yield specs, int(rng.integers(1, n))


# The renewal walk as it stood before it scanned past the slots whose index
# is below lam: every slot from 1 on goes through the full arithmetic.
# `subsidy._policy_rates` gives the same (rate, cost rate, t0*), bit for bit.
def _activation_prob(w: float, lam: float, gamma: float) -> float:
    if w > lam:
        return 1.0
    if w == lam:
        return gamma
    return 0.0


def _reference_interval_stats(spec: ComponentSpec, lam: float, gamma: float, table):
    """Distribution of the gap until the next probe after a 0-observation.

    The component restarts immediately, so g slots later it is abnormal
    with probability p(g) and the interval accrues cost c * sum_{k<=g} p(k).
    The walk reads the arm table's slots 1..stop.  Returns (E[gap],
    P(next observation = 1), E[interval cost], first slot that may probe),
    or None if the arm is parked.
    """
    (p, w), c = table, spec.cost
    stop = len(p) - 1
    mass = 1.0
    e_gap = p_obs1 = e_cost = 0.0
    cum = 0.0
    first = None
    for t in range(1, stop + 1):
        b = p[t]
        cum += b
        a = _activation_prob(w[t], lam, gamma)
        if first is None and a > 0.0:
            first = t
        if t == stop:
            break
        pr = mass * a
        e_gap += pr * t
        p_obs1 += pr * b
        e_cost += pr * cum * c
        mass *= 1.0 - a
        if mass == 0.0:
            return e_gap, p_obs1, e_cost, first
    # From stop on, a and b are constant: the rest is probed j >= 1 slots
    # in with probability a (1-a)^(j-1), E[j] = 1/a, and the cost grows by
    # b per slot after the first.  a = 0 parks the arm.
    if a == 0.0:
        return None
    extra = 1.0 / a - 1.0
    e_gap += mass * (t + extra)
    p_obs1 += mass * b
    e_cost += mass * (cum + b * extra) * c
    return e_gap, p_obs1, e_cost, first


def reference_policy_rates(spec: ComponentSpec, lam: float, gamma: float, table):
    """Stationary (activation rate, cost rate, t0*) of the threshold-with-
    mixing policy on the arm table `_arm_table(spec)`: active when
    the state index exceeds lam, passive below it, Bernoulli(gamma) at
    index-equal states.  t0* is the first slot after a 0-observation that
    may probe.

    Probes form a Markov renewal process alternating interval types by the
    last observation; solving for the stationary observation mix gives the
    long-run rates.  A parked arm is never probed again, so its activation
    rate is zero, its belief settles at p(T_CAP) and t0* is T_CAP.
    """
    stats0 = _reference_interval_stats(spec, lam, gamma, table)
    if stats0 is None:
        return 0.0, spec.cost * marginal_p(spec.process, T_CAP), T_CAP
    e0, b0, c0, t0 = stats0
    # After a 1-observation the repair lands one slot later: the first slot
    # sits at index W(0, 0) = 0 and cannot find the component abnormal; if
    # it does not probe, the 0-observation interval follows, one slot late.
    s = 1.0 - _activation_prob(0.0, lam, gamma)
    e1, b1, c1 = 1.0 + s * e0, s * b0, s * c0
    # 1 - b1 + b0 = 1 + b0 (1 - s) >= 1, since b0 and s lie in [0, 1]
    theta = b0 / (1.0 - b1 + b0)
    e_len = (1.0 - theta) * e0 + theta * e1
    rate = 1.0 / e_len
    cost_rate = ((1.0 - theta) * c0 + theta * c1) / e_len
    return rate, cost_rate, t0


def reference_solve_lambda_star(specs, K):
    """The relaxed solve as first written: each arm table's indices from
    `index_values`, and a mixing bisection that walks every arm at each of
    its 100 steps.  `solve_lambda_star` gives the same plan, bit for bit."""
    arms = []
    for s in specs:
        p = _marginals(s.process)
        arms.append((s, (p, index_values(s, len(p) - 1))))

    def total(lam, gamma):  # left to right from 0.0, as `sum` adds floats through 3.11
        acc = 0.0
        for s, table in arms:
            acc += _policy_rates(s, lam, gamma, table)[0]
        return acc

    def finish(lam):
        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if total(lam, mid) < K:
                lo = mid
            else:
                hi = mid
        g = 0.5 * (lo + hi)
        mixing, plan = [], []
        for s, table in arms:
            r0, r1 = (_policy_rates(s, lam, gamma, table)[0] for gamma in (0.0, 1.0))
            mixing.append(g if r1 != r0 else 0.0)
            plan.append(_policy_rates(s, lam, mixing[-1], table))
        rates, costs, t0s = zip(*plan)
        return RelaxedPlan(lambda_star=lam, mixing=tuple(mixing), t0_star=t0s, rates=rates,
                           cost_rates=costs)

    if total(0.0, 0.0) <= K:
        return finish(0.0)
    cands = sorted({v for _s, (_p, w) in arms for v in w[1:] if v > 0.0})
    i = bisect.bisect_left(cands, True, key=lambda lam: total(lam, 0.0) <= K + 1e-12)
    return finish(cands[i])

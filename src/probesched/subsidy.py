"""Single-arm subsidy machinery and the relaxed activation constraint.

With a subsidy lam paid for every passive slot, the optimal single-arm
policy is a pair of stopping rules: probe t0* slots after a 0-observation
and t0* + 1 slots after a 1-observation.  Renewal-reward over probe cycles
gives the average reward

    g(lam) = ( lam (t0 - 1 + p(t0)) - c sum_{k<=t0} p(k) ) / ( t0 + p(t0) )

maximised over t0, and the activation rate 1 / (t0* + p(t0*)).  When the
per-slot probe budget K binds only on average, the optimal policy runs
each arm's subsidy policy at a common multiplier lam*, chosen so the
activation rates sum to K, randomising at index-equal states to hit the
boundary exactly.  An arm's slots are read from `attack.marginals` up to
`_stop` (p's convergence or the stopping cap `T_CAP`); `solve_lambda_star`
counts them, and the walks over them, before it reads any.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import islice

from .arm import ArmState
from .attack import ComponentSpec, Table, marginal_p, marginals
from .guard import DEFAULT_BOUND, SearchSpaceError
from .whittle import index_from_marginals, whittle_index

T_CAP = 10_000
_CONVERGENCE_EPS = 1e-12


@dataclass(frozen=True)
class SubsidyPolicy:
    """The optimal stopping rule under a subsidy: probe delays after a 0-
    and a 1-observation (t1_star = t0_star + 1 for nonnegative subsidies; a
    negative subsidy makes every state active), the average reward g per
    slot it earns, and its activation rate 1 / (t0_star + p(t0_star)): each
    probe cycle lasts t0_star slots plus one more when the probe finds the
    component abnormal."""

    t0_star: int
    t1_star: int
    g: float
    activation_rate: float


@dataclass(frozen=True)
class RelaxedPlan:
    """Common multiplier lam*, per-arm boundary mixing probabilities, and
    the resulting stopping delays, activation rates and abnormal cost
    rates per slot.

    t0_star is the first t >= 1 at which the plan may probe an arm after a
    0-observation: W(0, t) > lam*, or W(0, t) = lam* and the arm's mixing
    is positive, the rule `relaxed_select` applies.  A parked arm (its
    index stays below lam*, so it is never probed again) reports activation
    rate 0.0, t0_star = T_CAP and the cost rate c p(T_CAP) of its settled
    belief."""

    lambda_star: float
    mixing: tuple
    t0_star: tuple
    rates: tuple
    cost_rates: tuple


def _objective(spec: ComponentSpec, lam: float, t: int, p_t: float, cum: float) -> float:
    return (lam * (t - 1.0 + p_t) - spec.cost * cum) / (t + p_t)


def _stop(proc) -> int:
    """An arm's last slot, counted from its process alone, past which p
    is taken as constant: a table's length; 1 for a memoryless process
    whose 1 - q rounds to 1.0 (its p is 0.0 at every t); else the first t
    at which 1 - p(t) is at most _CONVERGENCE_EPS.  Each is capped at
    T_CAP."""
    if isinstance(proc, Table):
        return min(len(proc.values), T_CAP)
    keep = 1.0 - proc.q
    if keep == 1.0:
        return 1
    # the first t with (1 - q)^t <= eps, or the slot before it, where
    # 1 - p(t), (1 - q)^t rounded to a multiple of 2^-53, may be <= eps
    t = min(math.ceil(math.log(_CONVERGENCE_EPS) / math.log(keep)), T_CAP)
    return t - 1 if t > 1 and 1.0 - marginal_p(proc, t - 1) <= _CONVERGENCE_EPS else t


def _marginals(proc) -> list:
    """p(t) for t = 0..`_stop(proc)`: every scan of an arm's slots ends at
    the stop `solve_lambda_star`'s guard counts."""
    return list(islice(marginals(proc), _stop(proc) + 1))


def _best_stopping(spec: ComponentSpec, lam: float):
    """Scan t0 = 1..stop for the largest cycle reward, smallest argmax on
    ties.  Past a converged stop the objective approaches lam - c p(stop)
    monotonically, so only t0 = T_CAP can still beat the scan."""
    p = _marginals(spec.process)
    best_t, best_v, cum = 1, None, 0.0
    for t in range(1, len(p)):
        cum += p[t]
        v = _objective(spec, lam, t, p[t], cum)
        if best_v is None or v > best_v:
            best_t, best_v = t, v
    if t < T_CAP and lam - spec.cost * p[t] > best_v:
        v_cap = _objective(spec, lam, T_CAP, p[t], cum + (T_CAP - t) * p[t])
        if v_cap > best_v:
            best_t, best_v = T_CAP, v_cap
    return best_t, best_v


def optimal_stopping(spec: ComponentSpec, lam: float) -> SubsidyPolicy:
    """The optimal stopping rule under subsidy lam, t0 searched in
    [1, T_CAP], from one scan of the arm's slots; g is the cycle-reward
    formula at t0*.  A negative subsidy pins t0* = 1 and reads only p(1)."""
    if lam < 0.0:
        p1 = marginal_p(spec.process, 1)
        return SubsidyPolicy(t0_star=1, t1_star=1, g=_objective(spec, lam, 1, p1, p1),
                             activation_rate=1.0 / (1.0 + p1))
    t0, g = _best_stopping(spec, lam)
    return SubsidyPolicy(t0_star=t0, t1_star=t0 + 1, g=g,
                         activation_rate=1.0 / (t0 + marginal_p(spec.process, t0)))


def _arm_table(spec: ComponentSpec):
    """(p(t), W(0, t)) for t = 0..stop, the slots `_marginals` keeps: the
    renewal walk and the lambda* candidates both end at stop.  W(0, stop)
    takes the one marginal past them, p(stop + 1)."""
    p = _marginals(spec.process)
    return p, list(index_from_marginals(spec.cost, [*p[1:], marginal_p(spec.process, len(p))]))


def _policy_rates(spec: ComponentSpec, lam: float, gamma: float, table):
    """Stationary (activation rate, cost rate, t0*) of the threshold-with-
    mixing policy on the arm table `_arm_table(spec)`: active when
    the state index exceeds lam, passive below it, Bernoulli(gamma) at
    index-equal states.  t0* is the first slot after a 0-observation that
    may probe.

    One renewal walk over the table's slots 1..stop gives the interval
    after a 0-observation: the component restarts immediately, so g slots
    later it is abnormal with probability p(g) and the interval accrues
    cost c * sum_{k<=g} p(k).  Probes form a Markov renewal process
    alternating interval types by the last observation; solving for the
    stationary observation mix gives the long-run rates.  A parked arm is
    never probed again, so its activation rate is zero, its belief settles
    at p(T_CAP) and t0* is T_CAP.
    """
    (p, w), c = table, spec.cost
    stop = len(p) - 1
    # A slot whose index is below lam is passive at any gamma and adds an
    # exact 0.0 to every sum below but cum: the walk starts at the first
    # slot at or above lam, with the cost accrued before it.
    cum = 0.0
    for t in range(1, stop):
        if w[t] >= lam:
            break
        cum += p[t]
    else:
        t = stop
    mass = 1.0
    e0 = b0 = c0 = 0.0  # E[gap], P(next observation = 1), E[interval cost]
    first = None
    for t in range(t, stop + 1):
        b, v = p[t], w[t]
        cum += b
        a = 1.0 if v > lam else gamma if v == lam else 0.0  # P(probe) at index v
        if first is None and a > 0.0:
            first = t
        if t == stop:
            break
        pr = mass * a
        e0 += pr * t
        b0 += pr * b
        c0 += pr * cum * c
        mass *= 1.0 - a
        if mass == 0.0:
            break
    if t == stop:
        # From stop on, a and b are constant: the rest is probed j >= 1
        # slots in with probability a (1-a)^(j-1), E[j] = 1/a, and the cost
        # grows by b per slot after the first.  a = 0 parks the arm.
        if a == 0.0:
            return 0.0, c * marginal_p(spec.process, T_CAP), T_CAP
        extra = 1.0 / a - 1.0
        e0 += mass * (t + extra)
        b0 += mass * b
        c0 += mass * (cum + b * extra) * c
    # After a 1-observation the repair lands one slot later: the first slot
    # sits at index W(0, 0) = 0 and cannot find the component abnormal; if
    # it does not probe, the 0-observation interval follows, one slot late.
    s = 1.0 - (1.0 if 0.0 > lam else gamma if 0.0 == lam else 0.0)
    e1, b1, c1 = 1.0 + s * e0, s * b0, s * c0
    # 1 - b1 + b0 = 1 + b0 (1 - s) >= 1, since b0 and s lie in [0, 1]
    theta = b0 / (1.0 - b1 + b0)
    e_len = (1.0 - theta) * e0 + theta * e1
    rate = 1.0 / e_len
    cost_rate = ((1.0 - theta) * c0 + theta * c1) / e_len
    return rate, cost_rate, first


def solve_lambda_star(specs, K: int) -> RelaxedPlan:
    """Smallest multiplier at which the summed activation rates cross K,
    with boundary mixing chosen so the crossing is hit exactly.

    At gamma = 0 an arm's rate depends only on its first slot whose index
    exceeds lam, so the summed rate is a nonincreasing step function with
    jumps at the arm tables' index values.  lambda* is 0 or the smallest
    positive W(0, t) in the tables at which those rates sum to <= K, found
    by bisection; the common mixing probability is bisected at that jump.
    """
    specs = list(specs)
    n = len(specs)
    if not 1 <= K < n:
        raise ValueError(f"need 1 <= K < N, got K={K}, N={n}")
    # The arm tables hold `slots` slots.  The lambda* bisection over at most
    # `slots` candidates and the mixing bisection's at most 100 steps each
    # walk at most every one of them.
    slots = sum(_stop(s.process) + 1 for s in specs)
    count = slots * (1 + slots.bit_length() + 100)
    if count > DEFAULT_BOUND:
        raise SearchSpaceError(count, DEFAULT_BOUND, "arm-table slots held and walked "
                               "(slots x (1 + log2(slots) + 100 bisection steps))")
    arms = [(s, _arm_table(s)) for s in specs]

    # Each total adds the arms' rates left to right from 0.0, as builtin
    # `sum` adds floats through Python 3.11; from 3.12 it compensates, which
    # can move a total's last bit and so the plan.
    def total(lam: float) -> float:  # the rates at gamma = 0
        acc = 0.0
        for s, table in arms:
            acc += _policy_rates(s, lam, 0.0, table)[0]
        return acc

    def finish(lam: float) -> RelaxedPlan:
        # An arm's rate moves with gamma only where it meets an index equal
        # to lam: the walk's W(0, t), t = 1..stop, or the fresh repair's
        # W(0, 0) = 0.  Every other arm is walked once here.
        tied = [lam in w for _s, (_p, w) in arms]
        at0 = [_policy_rates(s, lam, 0.0, table) for s, table in arms]

        def mixed_total(gamma: float) -> float:  # the rates at gamma, as `total` adds
            acc = 0.0
            for tie, r, (s, table) in zip(tied, at0, arms):
                acc += _policy_rates(s, lam, gamma, table)[0] if tie else r[0]
            return acc

        lo, hi = 0.0, 1.0
        for _ in range(100):  # bisect the common mixing probability
            mid = 0.5 * (lo + hi)
            step = (mid, hi) if mixed_total(mid) < K else (lo, mid)
            if step == (lo, hi):
                break  # a fixed point: every later step would repeat this one
            lo, hi = step
        g = 0.5 * (lo + hi)
        # only arms whose rate moves with gamma mix
        mixing = [g if tie and _policy_rates(s, lam, 1.0, table)[0] != r[0] else 0.0
                  for tie, r, (s, table) in zip(tied, at0, arms)]
        plan = [_policy_rates(s, lam, m, table) if m else r
                for m, r, (s, table) in zip(mixing, at0, arms)]
        rates, costs, t0s = zip(*plan)
        return RelaxedPlan(lambda_star=lam, mixing=tuple(mixing), t0_star=t0s, rates=rates,
                           cost_rates=costs)

    if total(0.0) <= K:
        return finish(0.0)
    cands = sorted({v for _s, (_p, w) in arms for v in w[1:] if v > 0.0})
    # At the largest candidate no index exceeds lam, so every arm is parked
    # and the total is 0 <= K: the search always lands on a candidate.
    i = bisect.bisect_left(cands, True, key=lambda lam: total(lam) <= K + 1e-12)
    return finish(cands[i])


def relaxed_select(specs, states, plan: RelaxedPlan, rng) -> tuple:
    """Arms activated this slot under the relaxed plan: index above lam*
    activates, below deactivates, equal mixes via the caller's generator.
    The number of active arms varies slot to slot; only its average is K."""
    if len(states) != len(specs):
        raise ValueError(f"{len(specs)} specs but {len(states)} states")
    if len(plan.mixing) != len(specs):
        raise ValueError(f"{len(specs)} specs but a plan for {len(plan.mixing)} arms")
    active = []
    for idx, (spec, state) in enumerate(zip(specs, states)):
        w = whittle_index(spec, state)
        if w > plan.lambda_star:
            active.append(idx)
        elif w == plan.lambda_star and rng.random() < plan.mixing[idx]:
            active.append(idx)
    return tuple(active)


def single_arm_q(spec: ComponentSpec, lam: float, state: ArmState, horizon: int):
    """Finite-horizon action values of the subsidy bandit at one state.

    Backward induction on total reward (subsidy for passivity minus
    expected abnormal cost), independent of the closed-form index; used to
    confirm that the index is exactly the subsidy making both actions
    equally good.  Returns (passive value, active value).
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if state.t < 1:
        raise ValueError("action values are undefined at the (0,0) sentinel")
    import numpy as np  # here, so that a plan is solved without loading numpy

    proc, c = spec.process, spec.cost
    tmax = state.t + horizon + 2
    p = np.fromiter(islice(marginals(proc), tmax + 2), float, tmax + 2)
    belief = np.array([p[1 : tmax + 1], p[0:tmax]])  # at (0, t) and (1, t), t = 1..tmax
    v = np.zeros((2, tmax + 2))  # v[i, t]: value at state (i, t), 0 at t = 0 and past tmax
    for _ in range(horizon - 1):
        probe_cont = belief * v[1, 1] + (1.0 - belief) * v[0, 1]
        passive = lam - c * belief + v[:, 2 : tmax + 2]
        active = -c * belief + probe_cont
        v[:, 1 : tmax + 1] = np.maximum(passive, active)
    b = marginal_p(proc, state.t - state.i)
    q_passive = lam - c * b + v[state.i, state.t + 1]
    q_active = -c * b + b * v[1, 1] + (1.0 - b) * v[0, 1]
    return q_passive, q_active


def indifference_gap(spec: ComponentSpec, state: ArmState, lam: float, horizon: int = 200) -> float:
    """|passive - active| value gap of the subsidy bandit at `state`."""
    q_passive, q_active = single_arm_q(spec, lam, state, horizon)
    return abs(q_passive - q_active)

"""Arm states: the (last observation, slots since observation) statistic.

The pair (i, t) is all a scheduler needs to know about a component: i is
the component state seen at the last probe and t counts the slots since
then.  Probing resets t to 1; waiting increments it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attack import ComponentSpec, marginal_p


@dataclass(frozen=True)
class ArmState:
    """Last observed component state i and slots t since that observation.

    t >= 1 for every state that occurs in a trajectory.  The sentinel
    (0, 0) exists only as the origin of the index recursion (its index is
    defined to be zero) and never appears in a trajectory.
    """

    i: int
    t: int

    def __post_init__(self):
        if self.i not in (0, 1):
            raise ValueError(f"i must be 0 or 1, got {self.i}")
        if self.t < 1 and not (self.i == 0 and self.t == 0):
            raise ValueError(f"t must be >= 1 (or (0,0) sentinel), got {self.t}")


def belief_abnormal(spec: ComponentSpec, state: ArmState) -> float:
    """P(component abnormal now | arm state): p(t) after a 0-observation,
    p(t-1) after a 1-observation (the repair lands one slot late)."""
    if state.t < 1:
        raise ValueError("belief is undefined at the (0,0) sentinel")
    return marginal_p(spec.process, state.t - state.i)

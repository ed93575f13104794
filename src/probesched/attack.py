"""Per-component attack processes.

A component's exposure is summarised by the marginal probability p(t) that
it is abnormal t slots after its last reset.  p(0) = 0 by the reset
convention and p is nondecreasing because the abnormal state is absorbing
until the component is probed.  Every per-arm table reads the one walk
of p, `marginals`, or the hazards derived from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, islice, pairwise, repeat


@dataclass(frozen=True)
class MarkovIID:
    """Memoryless attacks: an exposed component is compromised with
    probability q in each slot, so p(t) = 1 - (1-q)^t."""

    q: float

    def __post_init__(self):
        if not (isinstance(self.q, (int, float)) and 0.0 < self.q < 1.0):
            raise ValueError(f"q must lie in (0, 1), got {self.q!r}")


@dataclass(frozen=True)
class Table:
    """Tabulated marginals p(1), p(2), ... (p(0) = 0 is implicit).

    The entries must be nondecreasing probabilities; queries past the end
    of the table clamp to the last entry.
    """

    values: tuple

    def __post_init__(self):
        vals = tuple(self.values)
        for k, v in enumerate(vals, start=1):
            if not _is_number(v):
                raise ValueError(f"p({k}) must be a number, got {v!r}")
        vals = tuple(map(float, vals))
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ValueError("a table process needs at least one entry")
        prev = 0.0
        for k, v in enumerate(vals, start=1):
            if math.isnan(v) or not 0.0 <= v <= 1.0:
                raise ValueError(f"p({k}) = {v} lies outside [0, 1]")
            if v < prev:
                raise ValueError(f"p({k}) = {v} decreases below p({k - 1}) = {prev}")
            prev = v


AttackProcess = MarkovIID | Table


@dataclass(frozen=True)
class ComponentSpec:
    """An attack process together with the per-slot cost of being abnormal."""

    process: AttackProcess
    cost: float

    def __post_init__(self):
        if not (isinstance(self.process, (MarkovIID, Table))):
            raise ValueError(f"unsupported process {self.process!r}")
        if not _is_number(self.cost):
            raise ValueError(f"cost must be a number, got {self.cost!r}")
        c = float(self.cost)
        if not math.isfinite(c) or c < 0.0:
            raise ValueError(f"cost must be finite and nonnegative, got {self.cost!r}")
        object.__setattr__(self, "cost", c)

    @cached_property
    def index_memo(self) -> list:
        """`whittle_index`'s W(0, 0), W(0, 1), ...; no field, so ==, repr, hash skip it."""
        return []


def marginals(process: AttackProcess):
    """p(0), p(1), ... without end, bit for bit `marginal_p`'s (Python's
    float power, not numpy's; a table clamps to its last entry)."""
    if isinstance(process, MarkovIID):
        keep = 1.0 - process.q
        return (1.0 - keep ** t for t in count())
    return chain((0.0,), process.values, repeat(process.values[-1]))


def marginal_p(process: AttackProcess, t: int) -> float:
    """P(abnormal t slots after a reset).  Pure; clamps table overruns."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0:
        return 0.0
    if isinstance(process, MarkovIID):
        return 1.0 - (1.0 - process.q) ** t
    vals = process.values
    return vals[t - 1] if t <= len(vals) else vals[-1]


def hazards(process: AttackProcess):
    """Conditional flip probabilities h(1), h(2), ... at each step since reset.

    h(t) = (p(t) - p(t-1)) / (1 - p(t-1)), the 0->1 transition rate whose
    products reproduce the marginals.  When p(t-1) = 1 the conditioning
    event is vacuous and the hazard is 1 by convention.
    """
    if isinstance(process, MarkovIID):
        return repeat(process.q)
    return (1.0 if prev >= 1.0 else (p - prev) / (1.0 - prev)
            for prev, p in pairwise(marginals(process)))


def check_c1(process: AttackProcess, horizon: int) -> bool:
    """True iff the increments p(t+1) - p(t) are strictly decreasing over
    1 <= t <= horizon - 1.

    Strictly concave marginals guarantee strict indexability of the
    closed-form index.  Memoryless processes satisfy this for every
    horizon (increments q(1-q)^t); clamped tables fail once two zero
    increments fall inside the window.
    """
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    if isinstance(process, MarkovIID):
        return True
    deltas = [b - a for a, b in pairwise(islice(marginals(process), 1, horizon + 1))]
    return all(a > b for a, b in pairwise(deltas))


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool or a numeric string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def process_from_json(obj: dict) -> AttackProcess:
    if not isinstance(obj, dict):
        raise TypeError(f"a process descriptor must be a JSON object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "markov":
        if not _is_number(obj.get("q")):
            raise ValueError(f"markov process needs a number 'q', got {obj.get('q')!r}")
        return MarkovIID(q=float(obj["q"]))
    if kind == "table":
        if not isinstance(obj.get("p"), list) or not all(map(_is_number, obj["p"])):
            raise ValueError(f"table process needs a list of numbers 'p', got {obj.get('p')!r}")
        return Table(values=tuple(obj["p"]))
    raise ValueError(f"unknown process kind {kind!r}")


def component_from_json(obj: dict) -> ComponentSpec:
    if not isinstance(obj, dict):
        raise TypeError(f"a component descriptor must be a JSON object, got {obj!r}")
    if not _is_number(obj.get("cost")):
        raise ValueError(f"component descriptor needs a number 'cost', got {obj.get('cost')!r}")
    return ComponentSpec(process=process_from_json(obj), cost=float(obj["cost"]))

"""Server-allocation view of the scheduling engine.

K servers share N single-class finite buffers that are either empty or
full.  A buffer filling up plays the role of a component turning abnormal
(full is absorbing until served), serving a buffer is probing, and the
holding cost per slot is the abnormal cost, so every policy and oracle
applies unchanged to the mapped instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attack import AttackProcess, ComponentSpec, process_from_json


@dataclass(frozen=True)
class CustomerClass:
    """Arrival behaviour of one buffer and its per-slot holding cost.

    I.i.d. Bernoulli(q) arrivals give the memoryless fill process; general
    correlated arrivals are accepted only as a monotone marginal table,
    which the caller must justify from the batch-arrival semantics.
    """

    arrival: AttackProcess
    holding_cost: float

    def __post_init__(self):
        ComponentSpec(process=self.arrival, cost=self.holding_cost)  # a component's rules


@dataclass(frozen=True)
class QueueNetworkSpec:
    classes: tuple
    servers: int

    def __post_init__(self):
        if len(self.classes) < 2:
            raise ValueError("need at least two customer classes")
        if not 1 <= self.servers < len(self.classes):
            raise ValueError(
                f"need 1 <= servers < classes, got servers={self.servers}, "
                f"classes={len(self.classes)}"
            )


def to_rmab(spec: QueueNetworkSpec):
    """Map the queueing network onto probing components: buffer-full is
    abnormal, serving is probing, holding cost is the abnormal cost.
    Returns (component specs, K)."""
    components = [
        ComponentSpec(process=c.arrival, cost=c.holding_cost) for c in spec.classes
    ]
    return components, spec.servers


def queue_network_from_json(obj: dict) -> QueueNetworkSpec:
    if "servers" not in obj or "classes" not in obj:
        raise ValueError("queueing descriptor needs 'servers' and 'classes' fields")
    classes = []
    for k, c in enumerate(obj["classes"]):
        if "arrival" not in c or "holding_cost" not in c:
            raise ValueError(f"classes[{k}] needs 'arrival' and 'holding_cost' fields")
        arrival = dict(c["arrival"])
        if arrival.get("kind") == "bernoulli":
            arrival = {"kind": "markov", "q": arrival.get("q")}
        classes.append(
            CustomerClass(
                arrival=process_from_json(arrival),
                holding_cost=float(c["holding_cost"]),
            )
        )
    servers = obj["servers"]
    if not isinstance(servers, int) or isinstance(servers, bool):
        raise ValueError(f"servers must be an integer, got {servers!r}")
    return QueueNetworkSpec(classes=tuple(classes), servers=servers)

"""Index-policy scheduling for resource-constrained probing.

N components drift into an absorbing abnormal state between probes; K can
be probed (and fixed) per slot.  The package computes the closed-form
Whittle index of each (last observation, elapsed slots) arm state, runs
index / myopic / queue / random policies in a seeded simulator, verifies
them against exact finite-horizon dynamic programming on small instances,
and solves the time-averaged probe budget via a passivity subsidy.
K servers sharing N finite buffers, each empty or full, are the same
model: a full buffer is an abnormal component, serving it is probing and
its holding cost is the abnormal cost, so every CLI subcommand reads a
`queueing` network in a config as those components.
"""

import importlib

from .arm import ArmState, belief_abnormal
from .attack import ComponentSpec, MarkovIID, Table, check_c1, component_from_json, marginal_p
from .guard import SearchSpaceError
from .subsidy import indifference_gap, optimal_stopping, relaxed_select, solve_lambda_star
from .whittle import whittle_index

# The names of the array modules, which import numpy, are bound on first
# access (`__getattr__`, PEP 562), so importing the package loads none of
# them.
_ARRAY_NAMES = {
    "dp_optimal": "oracle",
    "policy_evaluate_exact": "oracle",
    "queue_init": "policies",
    "queue_step": "policies",
    "select_myopic": "policies",
    "select_whittle": "policies",
    "RunConfig": "sim",
    "run": "sim",
}


def __getattr__(name):
    if name not in _ARRAY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ARRAY_NAMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = [
    "ArmState",
    "ComponentSpec",
    "MarkovIID",
    "RunConfig",
    "SearchSpaceError",
    "Table",
    "belief_abnormal",
    "check_c1",
    "component_from_json",
    "dp_optimal",
    "indifference_gap",
    "marginal_p",
    "optimal_stopping",
    "policy_evaluate_exact",
    "queue_init",
    "queue_step",
    "relaxed_select",
    "run",
    "select_myopic",
    "select_whittle",
    "solve_lambda_star",
    "whittle_index",
]

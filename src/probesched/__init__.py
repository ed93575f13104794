"""Index-policy scheduling for resource-constrained probing.

N components drift into an absorbing abnormal state between probes; K can
be probed (and fixed) per slot.  The package computes the closed-form
Whittle index of each (last observation, elapsed slots) arm state, runs
index / myopic / queue / random policies in a seeded simulator, verifies
them against exact finite-horizon dynamic programming on small instances,
and solves the time-averaged probe budget via a passivity subsidy.
"""

from .arm import ACTIVE, PASSIVE, ArmState, belief_abnormal, transition
from .attack import (
    ComponentSpec,
    MarkovIID,
    Table,
    check_c1,
    component_from_json,
    component_to_json,
    hazard,
    marginal_p,
)
from .oracle import SearchSpaceError, dp_optimal, policy_evaluate_exact
from .policies import (
    queue_init,
    queue_step,
    select_myopic,
    select_random,
    select_whittle,
)
from .queueing import CustomerClass, QueueNetworkSpec, to_rmab
from .sim import RunConfig, run
from .subsidy import (
    activation_rate,
    gain,
    indifference_gap,
    optimal_stopping,
    relaxed_select,
    solve_lambda_star,
)
from .whittle import index_table, verify_strict_indexability, whittle_index

__all__ = [
    "ACTIVE",
    "PASSIVE",
    "ArmState",
    "ComponentSpec",
    "CustomerClass",
    "MarkovIID",
    "QueueNetworkSpec",
    "RunConfig",
    "SearchSpaceError",
    "Table",
    "activation_rate",
    "belief_abnormal",
    "check_c1",
    "component_from_json",
    "component_to_json",
    "dp_optimal",
    "gain",
    "hazard",
    "index_table",
    "indifference_gap",
    "marginal_p",
    "optimal_stopping",
    "policy_evaluate_exact",
    "queue_init",
    "queue_step",
    "relaxed_select",
    "run",
    "select_myopic",
    "select_random",
    "select_whittle",
    "solve_lambda_star",
    "to_rmab",
    "transition",
    "verify_strict_indexability",
    "whittle_index",
]

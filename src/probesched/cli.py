"""Batch experiment front end.

Subcommands: index | simulate | evaluate | oracle | subsidy | queueing.
Configs come from a JSON file or a built-in preset; a handful of flags
override the common fields.  All outputs are CSV with a header row and LF
line endings, and are deterministic functions of (config, seed).

Exit codes: 0 success, 2 validation error, 3 search-space guard refusal.
"""

from __future__ import annotations

import argparse
import copy
import functools
import importlib
import itertools
import json
import math
import sys

from .arm import ArmState
from .attack import component_from_json, component_to_json
from .guard import DEFAULT_BOUND, SearchSpaceError
from .presets import PRESETS
from .queueing import queue_network_from_json, to_rmab
from .subsidy import solve_lambda_star
from .whittle import index_rows

# The names this module takes from the array modules, which import numpy.
# `_arrays` binds them before a subcommand that needs them runs; `index`
# and `subsidy` never do, so they run without numpy.  Each name stays a
# module attribute the subcommands call through, so a wrapper set on it is
# the one they call.
_ARRAY_NAMES = {
    "EXACT_POLICIES": "oracle",
    "check_sweeps": "oracle",
    "dp_optimal": "oracle",
    "exact_graph": "oracle",
    "policy_evaluate_exact": "oracle",
    "POLICY_NAMES": "policies",
    "RunConfig": "sim",
    "run": "sim",
}
_CORE_COMMANDS = ("index", "subsidy")


def _arrays():
    """Bind every array-backed name not bound yet; a name already set, by
    a tracer or a test, is kept."""
    for name, module in _ARRAY_NAMES.items():
        if name not in globals():
            globals()[name] = getattr(importlib.import_module(f".{module}", __package__), name)


def __getattr__(name):
    # PEP 562: an array-backed name is bound on its first access
    if name not in _ARRAY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _arrays()
    return globals()[name]


class ConfigError(Exception):
    """A configuration field failed validation; the message names it."""


# rows formatted and written at a time, so a long table is never held whole
_CHUNK_ROWS = 4096


def _write_csv(path, header, rows):
    def write(fh):
        fh.write(",".join(header) + "\n")
        rows_left = iter(rows)
        while chunk := list(itertools.islice(rows_left, _CHUNK_ROWS)):
            fh.write("".join(",".join(map(str, row)) + "\n" for row in chunk))

    if path is None:
        write(sys.stdout)
    else:
        with open(path, "w", newline="") as fh:
            write(fh)


def _require(cfg, field, kind, where="config"):
    if field not in cfg:
        raise ConfigError(f"{where}.{field}: missing required field")
    val = cfg[field]
    if kind is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise ConfigError(f"{where}.{field}: expected an integer, got {val!r}")
    elif not isinstance(val, kind):
        raise ConfigError(f"{where}.{field}: expected {kind.__name__}, got {val!r}")
    return val


def _components(cfg):
    comps = _require(cfg, "components", list)
    if not comps:
        raise ConfigError("config.components: must not be empty")
    out = []
    for idx, obj in enumerate(comps):
        try:
            out.append(component_from_json(obj))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"config.components[{idx}]: {exc}") from exc
    return out


def _positive(cfg, field, where="config"):
    val = _require(cfg, field, int, where)
    if val < 1:
        raise ConfigError(f"{where}.{field}: must be >= 1, got {val}")
    return val


# Cumulative costs below this stay finite, and so do the squares summed in
# their standard error.
_COST_LIMIT = math.sqrt(sys.float_info.max)


def _bounded_costs(specs, horizon, replications=1):
    """Refuse costs whose running totals over the horizon would overflow."""
    total = sum(s.cost for s in specs) * (horizon + 1)
    if not total * math.sqrt(replications) < _COST_LIMIT:
        raise ConfigError(
            f"config.components: total cost x (horizon + 1) = {total!r} would overflow; "
            f"keep it below {_COST_LIMIT / math.sqrt(replications):.6g}"
        )


def _k(cfg, n):
    k = _positive(cfg, "K")
    if k > n:
        raise ConfigError(f"config.K: K={k} exceeds the {n} configured components")
    return k


def _policies(cfg):
    pols = cfg.get("policies", ["whittle"])
    if not isinstance(pols, list) or not pols:
        raise ConfigError("config.policies: expected a nonempty list of policy names")
    for p in pols:
        if p not in POLICY_NAMES:
            raise ConfigError(f"config.policies: unknown policy {p!r}; choose from {POLICY_NAMES}")
    return pols


def cmd_index(cfg):
    specs = _components(cfg)
    horizon = _positive(cfg, "horizon")
    if 2 * len(specs) * horizon > DEFAULT_BOUND:
        raise SearchSpaceError(2 * len(specs) * horizon, DEFAULT_BOUND,
                               "index rows (2N x horizon)")
    header = ["component", "state_i", "state_t", "index"]
    # every check above has run; the rows are made one arm at a time as written
    rows = ((n, *row) for n, spec in enumerate(specs) for row in index_rows(spec, horizon))
    return header, rows


def cmd_simulate(cfg):
    specs = _components(cfg)
    k = _k(cfg, len(specs))
    horizon = _positive(cfg, "horizon")
    reps = _positive(cfg, "replications")
    _bounded_costs(specs, horizon, reps)
    seed = _require(cfg, "seed", int)
    configs = [RunConfig(specs=tuple(specs), k=k, horizon=horizon, policy=policy,
                         replications=reps, seed=seed) for policy in _policies(cfg)]
    header = ["policy", "slot", "mean_cumulative_cost", "stderr"]

    # every check above has run; each policy's run starts as its rows are written
    def rows():
        for config in configs:
            traj = run(config)
            pairs = zip(traj.mean_cumulative.tolist(), traj.stderr.tolist())
            for slot, (mean, err) in enumerate(pairs, 1):
                yield config.policy, slot, mean, err

    return header, rows()


def _exact_instance(cfg):
    """(specs, K, horizon, bound, initial states, policies) of an exact op,
    every field checked, policy names included, before any graph is built."""
    specs = _components(cfg)
    k = _k(cfg, len(specs))
    horizon = _positive(cfg, "horizon")
    _bounded_costs(specs, horizon)
    bound = _positive(cfg, "bound") if "bound" in cfg else DEFAULT_BOUND
    policies = _policies(cfg)
    for name in policies:
        if name not in EXACT_POLICIES:
            raise ConfigError("config.policies: exact evaluation supports "
                              f"{'|'.join(EXACT_POLICIES)}, got {name!r}")
    return specs, k, horizon, bound, [ArmState(0, 1)] * len(specs), policies


def cmd_evaluate(cfg):
    specs, k, horizon, bound, initial, policies = _exact_instance(cfg)
    graph = exact_graph(specs, initial, k, horizon, bound)
    rows = [[name, horizon, policy_evaluate_exact(specs, initial, k, horizon, name, bound, graph)]
            for name in policies]
    return ["policy", "horizon", "expected_cost"], rows


def cmd_oracle(cfg):
    specs, k, horizon, bound, initial, policies = _exact_instance(cfg)
    header = ["horizon", "optimal_cost"]
    for name in policies:
        header += [f"{name}_cost", f"{name}_rel_gap"]
    graph = exact_graph(specs, initial, k, horizon, bound)
    check_sweeps(graph)
    rows = []
    for t in range(horizon, 0, -1):  # longest first, the order traced runs record
        opt, _table = dp_optimal(specs, initial, k, t, bound, graph)
        row = [t, opt]
        for name in policies:
            val = policy_evaluate_exact(specs, initial, k, t, name, bound, graph)
            row += [val, (val - opt) / opt if opt > 0 else 0.0]
        rows.append(row)
    return header, rows[::-1]


def cmd_subsidy(cfg):
    specs = _components(cfg)
    n = len(specs)
    k = _positive(cfg, "K")
    if not k < n:
        raise ConfigError(f"config.K: the relaxed constraint needs K < N, got K={k}, N={n}")
    plan = solve_lambda_star(specs, k)
    header = ["arm", "t0_star", "activation_rate", "mixing", "lambda_star"]
    rows = [
        [idx, plan.t0_star[idx], plan.rates[idx], plan.mixing[idx], plan.lambda_star]
        for idx in range(n)
    ]
    return header, rows


def cmd_queueing(cfg):
    if "queueing" not in cfg:
        raise ConfigError("config.queueing: missing queueing descriptor")
    try:
        qspec = queue_network_from_json(cfg["queueing"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config.queueing: {exc}") from exc
    components, k = to_rmab(qspec)
    sub = dict(cfg)
    sub["components"] = [component_to_json(c) for c in components]
    sub["K"] = k
    submode = cfg.get("queueing_mode", "simulate")
    dispatch = {"simulate": cmd_simulate, "oracle": cmd_oracle, "evaluate": cmd_evaluate}
    if submode not in dispatch:
        raise ConfigError(
            f"config.queueing_mode: expected simulate|oracle|evaluate, got {submode!r}"
        )
    return dispatch[submode](sub)


COMMANDS = {
    "index": cmd_index,
    "simulate": cmd_simulate,
    "evaluate": cmd_evaluate,
    "oracle": cmd_oracle,
    "subsidy": cmd_subsidy,
    "queueing": cmd_queueing,
}


def _load_config(args) -> dict:
    if args.preset is not None and args.config is not None:
        raise ConfigError("give either --preset or --config, not both")
    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}")
        cfg = copy.deepcopy(PRESETS[args.preset])
    elif args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config} is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"{args.config}: top-level JSON value must be an object")
    else:
        raise ConfigError("a --preset or --config is required")
    for field in ("seed", "replications", "horizon"):
        override = getattr(args, field)
        if override is not None:
            cfg[field] = override
    cfg.setdefault("seed", 0)
    cfg.setdefault("replications", 1)
    return cfg


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call of a process and
    reused by every later one: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="probesched",
        description="Index-policy probe scheduling: indices, simulation, exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--preset", help="built-in preset: fig2 | fig3 | fig4")
        p.add_argument("--seed", type=int)
        p.add_argument("--replications", type=int)
        p.add_argument("--horizon", type=int)
        p.add_argument("--out", help="output CSV path (default: stdout)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command not in _CORE_COMMANDS:
            _arrays()
        header, rows = COMMANDS[args.command](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchSpaceError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    _write_csv(args.out, header, rows)
    return 0


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()

"""Batch experiment front end.

Subcommands: index | simulate | evaluate | oracle | subsidy.
Configs come from a JSON file or a built-in preset and give the arms as
`components` and `K` or as a `queueing` network; a subcommand takes a
flag only for a field it reads.  All outputs are CSV with a header row
and LF line endings, and are deterministic functions of (config, seed).

Exit codes: 0 success, 2 validation error, 3 search-space guard refusal.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import functools
import importlib
import json
import math
import operator
import os
import sys

from .arm import ArmState
from .attack import _is_number, component_from_json
from .guard import DEFAULT_BOUND, SearchSpaceError
from .presets import PRESETS
from .subsidy import solve_lambda_star
from .whittle import index_rows

# The names this module takes from the array modules, which import numpy.
# `_arrays` binds them before a subcommand that needs them runs; `index`
# and `subsidy` never do, so they run without numpy.  Each name stays a
# module attribute the subcommands call through, so a wrapper set on it is
# the one they call.
_ARRAY_NAMES = {
    "EXACT_POLICIES": "oracle",
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


def _write_csv(path, header, rows):
    """Write the rows as they are made, so a long table is never held whole."""
    try:
        with (contextlib.nullcontext(sys.stdout) if path is None
              else open(path, "w", newline="")) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            fh.flush()
    except OSError as exc:
        if path is None:
            # stdout is gone (a closed pipe): what is still buffered goes
            # to the null device, so the flush at exit raises nothing
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise ConfigError(f"cannot write {path or 'stdout'}: {exc}") from exc


def _require(cfg, field, kind):
    if field not in cfg:
        raise ConfigError(f"config.{field}: missing required field")
    val = cfg[field]
    if kind is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise ConfigError(f"config.{field}: expected an integer, got {val!r}")
    elif not isinstance(val, kind):
        raise ConfigError(f"config.{field}: expected {kind.__name__}, got {val!r}")
    return val


def _components(cfg):
    comps = _require(cfg, "components", list)
    if not comps:
        raise ConfigError("config.components: must not be empty")
    out = []
    for idx, obj in enumerate(comps):
        try:
            out.append(component_from_json(obj))
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"config.components[{idx}]: {exc}") from exc
    return out


def _positive(cfg, field):
    val = _require(cfg, field, int)
    if val < 1:
        raise ConfigError(f"config.{field}: must be >= 1, got {val}")
    return val


# Cumulative costs below this stay finite, and so do the squares summed in
# their standard error.
_COST_LIMIT = math.sqrt(sys.float_info.max)


def _bounded_costs(specs, horizon, replications=1):
    """Refuse costs whose running totals over the horizon would overflow."""
    try:
        # added left to right, as `sum` adds floats through Python 3.11
        total = functools.reduce(operator.add, (s.cost for s in specs), 0.0) * (horizon + 1)
        scale = math.sqrt(replications)
    except OverflowError as exc:  # an integer past float range
        raise ConfigError(f"config.horizon or config.replications: {exc}") from exc
    if not total * scale < _COST_LIMIT:
        raise ConfigError(
            f"config.components: total cost x (horizon + 1) = {total!r} would overflow; "
            f"keep it below {_COST_LIMIT / scale:.6g}"
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
    for i, p in enumerate(pols):
        if p not in POLICY_NAMES:
            raise ConfigError(f"config.policies: unknown policy {p!r}; choose from {POLICY_NAMES}")
        if p in pols[:i]:
            raise ConfigError(f"config.policies: {p!r} is listed more than once")
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
    if seed < 0:
        raise ConfigError(f"config.seed: must be >= 0, got {seed}")
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
    graph = exact_graph(specs, initial, k, horizon, bound, 1 + len(policies))
    rows = []
    for t in range(horizon, 0, -1):  # longest first, the order traced runs record
        opt, _table = dp_optimal(specs, initial, k, t, bound, graph)
        row = [t, opt]
        for name in policies:
            val = policy_evaluate_exact(specs, initial, k, t, name, bound, graph)
            row += [val, (val - opt) / opt if opt > 0 else math.inf if val > 0 else 0.0]
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


def _queueing(obj):
    """(components, K) of a queueing descriptor.  K servers share N finite
    buffers, each empty or full: a full buffer is an abnormal component,
    serving it is probing, and its holding cost is the abnormal cost, so a
    class is a component descriptor with `bernoulli` arrivals read as
    `markov` and `holding_cost` as `cost`."""
    if not isinstance(obj, dict):
        raise ConfigError(f"config.queueing: expected a network descriptor object, got {obj!r}")
    classes, servers = obj.get("classes"), obj.get("servers")
    if not isinstance(classes, list) or len(classes) < 2:
        raise ConfigError(f"config.queueing: need a list of at least two classes, got {classes!r}")
    if not isinstance(servers, int) or isinstance(servers, bool) \
            or not 1 <= servers < len(classes):
        raise ConfigError("config.queueing: need an integer 1 <= servers < classes, "
                          f"got servers={servers!r}, classes={len(classes)}")
    components = []
    for idx, c in enumerate(classes):
        if not isinstance(c, dict) or not isinstance(c.get("arrival"), dict) \
                or "holding_cost" not in c:
            raise ConfigError(f"config.queueing: classes[{idx}] needs an 'arrival' object "
                              "and a 'holding_cost'")
        if not _is_number(c["holding_cost"]):
            raise ConfigError(f"config.queueing: classes[{idx}]: class needs a number "
                              f"'holding_cost', got {c['holding_cost']!r}")
        kind = c["arrival"].get("kind")
        components.append({**c["arrival"], "kind": "markov" if kind == "bernoulli" else kind,
                           "cost": c["holding_cost"]})
        try:
            component_from_json(components[-1])
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"config.queueing: classes[{idx}]: {exc}") from exc
    return components, servers


# Each subcommand and the config fields it reads that a flag may override.
COMMANDS = {
    "index": (cmd_index, ("horizon",)),
    "simulate": (cmd_simulate, ("seed", "replications", "horizon")),
    "evaluate": (cmd_evaluate, ("horizon",)),
    "oracle": (cmd_oracle, ("horizon",)),
    "subsidy": (cmd_subsidy, ()),
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
        except RecursionError as exc:
            raise ConfigError(f"{args.config} nests deeper than the JSON parser can read") from exc
        if not isinstance(cfg, dict):
            raise ConfigError(f"{args.config}: top-level JSON value must be an object")
    else:
        raise ConfigError("a --preset or --config is required")
    if "queueing" in cfg:
        if "components" in cfg or "K" in cfg:
            raise ConfigError("config.queueing: give a network or components and K, not both")
        cfg["components"], cfg["K"] = _queueing(cfg.pop("queueing"))
    for field in COMMANDS[args.command][1]:
        override = getattr(args, field)
        if override is not None:
            cfg[field] = override
    cfg.setdefault("seed", 0)
    cfg.setdefault("replications", 1)
    return cfg


@functools.cache
def _parser():
    """The argument parser and each subcommand's own, built on the first
    `main` call of a process and reused by every later one: parsing leaves
    them unchanged."""
    parser = argparse.ArgumentParser(
        prog="probesched",
        description="Index-policy probe scheduling: indices, simulation, exact oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_cmd, fields) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--preset", help="built-in preset: fig2 | fig3 | fig4")
        for field in fields:
            p.add_argument(f"--{field}", type=int, help=f"override the config's {field}")
        p.add_argument("--out", help="output CSV path (default: stdout)")
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:  # its own parser reads the rest, with its own usage
        args = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    else:  # no subcommand, an unknown one or a top-level flag
        args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command not in _CORE_COMMANDS:
            _arrays()
        header, rows = COMMANDS[args.command][0](cfg)
        _write_csv(args.out, header, rows)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchSpaceError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    return 0


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()

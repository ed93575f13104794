"""Repeat the benchmark over seeds and report each end-to-end metric's
median, quartiles and spread (interquartile distance over the median)
against the bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload subsidy-mix --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --record perfbench/baseline.json --label "..."

Without --workload every workload runs.  --record appends one entry with
these statistics, the per-layer metrics of one traced run per workload and
the machine they were measured on to the given JSON list.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    env = next(json.loads(ln[len("# env "):]) for ln in lines if ln.startswith("# env "))
    return json.loads(lines[-1]), env


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--record", help="append the results to this JSON list")
    parser.add_argument("--label", default="", help="what was measured, for --record")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    entry = {"label": args.label, "date": datetime.date.today().isoformat(),
             "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workload or workloads.WORKLOADS:
        values = {}
        for seed in _seeds(args.seeds):
            result, env = _run(workload, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed={seed} " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
        e2e = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady = steady and ok
            e2e[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(vals)}
            print(f"  {workload:<12} {name:<14} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.2%} (bound {bounds[name]:.0%}){'' if ok else '  TOO WIDE'}")
        entry["workloads"][workload] = {"end_to_end": e2e}
        if args.record:
            traced, _ = _run(workload, _seeds(args.seeds)[0], seconds, 1)
            entry["workloads"][workload]["per_layer"] = {
                n: m["value"] for n, m in traced["metrics"].items()}
        entry["env"] = env
    if args.record:
        history = []
        if os.path.exists(args.record):
            with open(args.record) as fh:
                history = json.load(fh)
        history.append(entry)
        with open(args.record, "w") as fh:
            json.dump(history, fh, indent=1)
            fh.write("\n")
    print("every spread is below a third of its bound" if steady else "some spreads are too wide")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())

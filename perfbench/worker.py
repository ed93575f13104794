"""Benchmark child: one fresh interpreter per measured run.

    worker.py --probe            import probesched.cli, report, exit
    worker.py SPEC.json OUT.json run the ops in SPEC, write results to OUT

The parent times start-up until the "ready" line, which this script prints
right after importing probesched.cli.  Ops then run one after another
through `probesched.cli.main(argv)` in this process -- a closed loop with
one op in flight -- in whole rounds until SPEC["seconds"] have passed
(at least one round), each op preceded by a fixed reference loop.
Each op's CSV is checked after its timed call; a nonzero exit, an
exception or a failed check makes it a failed op.  With SPEC["trace"] the
layers are traced for exactly one round.
"""

import sys

import probesched.cli

print("ready", probesched.cli.__file__, flush=True)

import hashlib  # noqa: E402  (after the ready line, so set-up covers only the program)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run_op(main, op, cfg_path, out_path):
    if os.path.exists(out_path):
        os.remove(out_path)
    argv = [op["command"], "--config", cfg_path, "--out", out_path]
    error = None
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crashing op is a failed op, not a crashed benchmark
        code, error = None, traceback.format_exc(limit=-4)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    text = ""
    if os.path.exists(out_path):
        with open(out_path, newline="") as fh:
            text = fh.read()
    if error is not None:
        problems = [error]
    elif code != 0:
        problems = [f"exit code {code}"]
    else:
        problems = workloads.check_op(op, text)
    return {"id": op["id"], "wall": wall, "cpu": cpu, "problems": problems}, text


def _run_round(main, ops, paths, first_digests, tracer=None):
    records, texts = [], []
    for idx, (op, (cfg_path, out_path)) in enumerate(zip(ops, paths)):
        if tracer is not None:
            tracer.op = idx
        ref = _reference_loop() if tracer is None else None
        rec, text = _run_op(main, op, cfg_path, out_path)
        rec["ref"] = ref
        digest = hashlib.sha256(text.encode()).hexdigest()
        if idx < len(first_digests) and not rec["problems"] and digest != first_digests[idx]:
            rec["problems"].append("CSV bytes differ from the first round's")
        records.append(rec)
        texts.append(text)
    problems = []
    if all(not r["problems"] for r in records):
        problems = workloads.check_round(ops, texts)
    digests = [hashlib.sha256(t.encode()).hexdigest() for t in texts]
    return {"ops": records, "problems": problems}, digests


def _reference_loop() -> dict:
    """Wall and CPU seconds of a fixed pure-Python loop (about 20 ms).

    It runs before every timed op, in the same process, so its mean
    samples the machine's speed wherever the ops ran; end-to-end times are
    reported in multiples of that mean as well as in seconds.  The loop
    depends on the interpreter and the machine only, never on probesched:
    keep it unchanged, or the relative metrics of different commits stop
    being comparable.
    """
    cpu0, wall0 = time.process_time(), time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return {"wall": time.perf_counter() - wall0, "cpu": time.process_time() - cpu0}


def _sim_setup_s(ops) -> float:
    """Seconds spent in `run` calls at horizon 1 with each sim op's R and
    N: the simulator's set-up (generators, tables), timed from outside."""
    from probesched.attack import component_from_json
    from probesched.sim import RunConfig, run

    total = 0.0
    for op in ops:
        if op["command"] != "simulate":
            continue
        cfg = op["config"]
        config = RunConfig(
            specs=tuple(component_from_json(c) for c in cfg["components"]),
            k=cfg["K"], horizon=1, policy=cfg["policies"][0],
            replications=cfg["replications"], seed=cfg["seed"])
        start = time.perf_counter()
        run(config)
        total += time.perf_counter() - start
    return total


def main(argv) -> int:
    if argv == ["--probe"]:
        return 0
    spec_path, out_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    ops, workdir = spec["ops"], spec["workdir"]
    paths = []
    for idx, op in enumerate(ops):
        cfg_path = os.path.join(workdir, f"op{idx}.json")
        with open(cfg_path, "w") as fh:
            json.dump(op["config"], fh)
        paths.append((cfg_path, os.path.join(workdir, f"op{idx}.csv")))

    result = {"python": platform.python_version(), "numpy": numpy.__version__,
              "rounds": []}
    cli_main = probesched.cli.main
    if spec["trace"]:
        sim_setup = _sim_setup_s(ops)
        tracer = Tracer()
        tracer.install()
        try:
            rnd, _ = _run_round(tracer.timed("cli.main", cli_main), ops, paths, [], tracer)
        finally:
            tracer.uninstall()
        result["rounds"].append(rnd)
        result["trace"] = {"summary": tracer.summary(), "counts": tracer.counts(),
                           "values": dict(tracer.values), "missing": tracer.missing,
                           "sim_setup_s": sim_setup, "spans": tracer.spans}
    else:
        digests = []
        start = time.perf_counter()
        while True:
            rnd, round_digests = _run_round(cli_main, ops, paths, digests)
            digests = digests or round_digests
            result["rounds"].append(rnd)
            if time.perf_counter() - start >= spec["seconds"]:
                break
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

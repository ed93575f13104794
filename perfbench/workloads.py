"""Workloads of the probesched benchmark and the checks on their outputs.

A workload is a list of ops; an op is one `probesched` CLI invocation: a
subcommand plus a JSON config that the benchmark generates.  The workload
seed is a benchmark argument; the program only ever sees the configs.

- sim-fig4: the eight memoryless arms of the fig4 experiment (K=2, T=500,
  R=2000), one `simulate` op per policy, simulator seed = workload seed.
  Nearly all work is in `sim`: per-arm generators, the (R, N, T) uniform
  block and the vectorised select/advance loop.
- oracle-fig3: the four concave-table arms of fig3 (K=1), one `oracle` op
  over horizons 1..8.  The exact-DP path: scalar policies, Whittle index
  and belief calls.  Deterministic; the seed does not enter.
- subsidy-mix: the heterogeneous relaxed-budget instances of acceptance
  criterion 8 (N=2..5, Markov and table arms, K<N), one `subsidy` op each,
  in an order drawn from the seed.  The instances are fixed so every seed
  is checked against recorded references and the spread between runs
  comes from the machine, not from the draw.  Trial 7 parks an arm, the
  slow path of the lambda* solve: one solve of about 45 s whose time swung
  by up to 40% between runs on a shared 2-CPU machine.  A single sample
  that long cannot be steady within a run, so timed rounds hold the 19
  typical solves and the traced run adds trial 7, where the layer counts
  (index terms, walk steps) measure the pathology exactly.

Each op carries an `expect` block that `check_op` verifies against the CSV
the op wrote; `check_round` adds the checks that need several ops.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("sim-fig4", "oracle-fig3", "subsidy-mix")
SIZES = ("full", "tiny")
# The seed at which sim-fig4's CSV bytes were recorded (fig4's own seed).
DEFAULT_SEED = 1

FIG4_ARMS = [  # (q, cost)
    (0.2, 2.5), (0.3, 2.0), (0.3, 1.8), (0.5, 1.5),
    (0.6, 1.2), (0.7, 1.0), (0.7, 0.6), (0.8, 0.5),
]
FIG4_POLICIES = ("whittle", "myopic", "queue", "random")
FIG3_ARMS = [  # (p(1..6), cost)
    ((0.5, 0.7, 0.85, 0.95, 0.97, 0.975), 0.8),
    ((0.3, 0.4, 0.48, 0.54, 0.57, 0.59), 1.0),
    ((0.36, 0.46, 0.5, 0.53, 0.55, 0.56), 1.2),
    ((0.6, 0.78, 0.9, 0.96, 0.98, 0.99), 0.9),
]

# Full sizes are the workloads; tiny sizes exist for the smoke test.
SIM_SIZE = {"full": (500, 2000), "tiny": (60, 200)}  # (T, R)
ORACLE_HORIZON = {"full": 8, "tiny": 4}
# Two-arm instances only: a few milliseconds each, none parks an arm.
SUBSIDY_TINY_TRIALS = (13, 14, 17)
SUBSIDY_PARKED_TRIAL = 7

SIM_HEADER = ["policy", "slot", "mean_cumulative_cost", "stderr"]
ORACLE_HEADER = ["horizon", "optimal_cost", "whittle_cost", "whittle_rel_gap",
                 "myopic_cost", "myopic_rel_gap"]
SUBSIDY_HEADER = ["arm", "t0_star", "activation_rate", "mixing", "lambda_star"]

REL_TOL = 1e-9
RATE_SUM_TOL = 1e-6
MAX_WHITTLE_GAP = 0.05


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def make_ops(workload: str, seed: int, size: str = "full", traced: bool = False,
             reference=None) -> list:
    """The ops of one round of `workload`, with what each must output."""
    if reference is None:
        reference = load_reference()
    if workload == "sim-fig4":
        return _sim_ops(seed, size, reference["sim-fig4"])
    if workload == "oracle-fig3":
        return _oracle_ops(size, reference["oracle-fig3"])
    if workload == "subsidy-mix":
        return _subsidy_ops(seed, size, traced, reference["subsidy-mix"])
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _sim_ops(seed, size, ref):
    horizon, reps = SIM_SIZE[size]
    components = [{"kind": "markov", "q": q, "cost": c} for q, c in FIG4_ARMS]
    recorded = size == "full" and seed == ref["seed"]
    ops = []
    for policy in FIG4_POLICIES:
        config = {"mode": "simulate", "components": components, "K": 2,
                  "horizon": horizon, "replications": reps, "seed": seed,
                  "policies": [policy]}
        expect = {"kind": "sim", "policy": policy, "horizon": horizon,
                  "sha256": ref["sha256"][policy] if recorded else None}
        ops.append({"id": f"simulate-{policy}", "command": "simulate",
                    "config": config, "expect": expect})
    return ops


def _oracle_ops(size, ref):
    horizon = ORACLE_HORIZON[size]
    config = {"mode": "oracle",
              "components": [{"kind": "table", "p": list(p), "cost": c} for p, c in FIG3_ARMS],
              "K": 1, "horizon": horizon, "policies": ["whittle", "myopic"]}
    expect = {"kind": "oracle", "rows": ref["rows"][:horizon]}
    return [{"id": f"oracle-h{horizon}", "command": "oracle", "config": config,
             "expect": expect}]


def _subsidy_ops(seed, size, traced, ref):
    if size == "tiny":
        instances = [i for i in ref["instances"] if i["trial"] in SUBSIDY_TINY_TRIALS]
    else:
        instances = [i for i in ref["instances"]
                     if traced or i["trial"] != SUBSIDY_PARKED_TRIAL]
    order = list(range(len(instances)))
    random.Random(seed).shuffle(order)
    ops = []
    for pos in order:
        inst = instances[pos]
        config = {"mode": "subsidy", "components": inst["components"], "K": inst["K"]}
        expect = {"kind": "subsidy", "K": inst["K"], "lambda_star": inst["lambda_star"],
                  "rates": inst["rates"]}
        ops.append({"id": f"subsidy-t{inst['trial']}", "command": "subsidy",
                    "config": config, "expect": expect})
    return ops


def _parse(text: str, header: list):
    """Rows of a CLI CSV, or a problem string when the shape is wrong."""
    if not text:
        return None, "empty CSV"
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != header:
        return None, f"header {rows[0]} != {header}"
    if len(rows) < 2:
        return None, "CSV has a header but no rows"
    return rows[1:], None


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def check_op(op: dict, text: str) -> list:
    """Problems with the CSV text one op wrote; empty when it is correct."""
    expect = op["expect"]
    kind = expect["kind"]
    header = {"sim": SIM_HEADER, "oracle": ORACLE_HEADER, "subsidy": SUBSIDY_HEADER}[kind]
    rows, problem = _parse(text, header)
    if problem:
        return [problem]
    if kind == "sim":
        return _check_sim(expect, text, rows)
    if kind == "oracle":
        return _check_oracle(expect, rows)
    return _check_subsidy(expect, rows)


def _check_sim(expect, text, rows):
    problems = []
    if len(rows) != expect["horizon"]:
        problems.append(f"{len(rows)} rows, expected {expect['horizon']}")
    if any(r[0] != expect["policy"] for r in rows):
        problems.append(f"rows for a policy other than {expect['policy']}")
    means = [float(r[2]) for r in rows]
    if not all(math.isfinite(m) for m in means) or any(b < a for a, b in zip(means, means[1:])):
        problems.append("mean cumulative cost is not finite and nondecreasing")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if expect["sha256"] is not None and digest != expect["sha256"]:
        problems.append(f"CSV sha256 {digest} differs from the recorded {expect['sha256']}")
    return problems


def _check_oracle(expect, rows):
    problems = []
    got = [[float(v) for v in r] for r in rows]
    if len(got) != len(expect["rows"]):
        return [f"{len(got)} horizons, expected {len(expect['rows'])}"]
    for row, ref in zip(got, expect["rows"]):
        horizon, opt, w_cost, w_gap, m_cost, _m_gap = row
        if not all(_close(a, b) for a, b in zip(row, ref)):
            problems.append(f"horizon {horizon:g}: {row} differs from reference {ref}")
        if opt > min(w_cost, m_cost) + REL_TOL * abs(opt):
            problems.append(f"horizon {horizon:g}: optimal {opt} exceeds a policy cost")
        if w_gap > MAX_WHITTLE_GAP:
            problems.append(f"horizon {horizon:g}: whittle gap {w_gap} > {MAX_WHITTLE_GAP}")
    return problems


def _check_subsidy(expect, rows):
    problems = []
    rates = [float(r[2]) for r in rows]
    lams = {float(r[4]) for r in rows}
    if len(rates) != len(expect["rates"]):
        return [f"{len(rates)} arms, expected {len(expect['rates'])}"]
    if len(lams) != 1 or not _close(lams.pop(), expect["lambda_star"]):
        problems.append(f"lambda_star column {[r[4] for r in rows]} != {expect['lambda_star']}")
    if not all(_close(a, b) for a, b in zip(rates, expect["rates"])):
        problems.append(f"rates {rates} differ from reference {expect['rates']}")
    if abs(sum(rates) - expect["K"]) > RATE_SUM_TOL:
        problems.append(f"rates sum to {sum(rates)}, not K={expect['K']}")
    parked = [a for a, r in enumerate(rates) if r == 0.0]
    ref_parked = [a for a, r in enumerate(expect["rates"]) if r == 0.0]
    if parked != ref_parked:
        problems.append(f"parked arms {parked}, reference parks {ref_parked}")
    return problems


def check_round(ops: list, texts: list) -> list:
    """Checks across the ops of one round: on sim-fig4 the index policy's
    95% confidence interval at the last slot lies below the myopic one's
    (acceptance criterion 7)."""
    final = {}
    for op, text in zip(ops, texts):
        if op["expect"]["kind"] == "sim" and text:
            last = text.rstrip("\n").rsplit("\n", 1)[-1].split(",")
            final[op["expect"]["policy"]] = (float(last[2]), float(last[3]))
    if "whittle" in final and "myopic" in final:
        (w_mean, w_se), (m_mean, m_se) = final["whittle"], final["myopic"]
        if not w_mean + 1.96 * w_se < m_mean - 1.96 * m_se:
            return [f"whittle {w_mean}+-{1.96 * w_se} does not lie below "
                    f"myopic {m_mean}+-{1.96 * m_se}"]
    return []

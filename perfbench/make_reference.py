"""Record the outputs every benchmark op is checked against.

    python3 perfbench/make_reference.py      # from the repository root

Writes perfbench/reference.json: the sha256 of each sim-fig4 CSV at the
default seed, the oracle-fig3 cost table, and the subsidy-mix instances
with their lambda* and activation rates.  The subsidy instances are drawn
with the recipe of acceptance criterion 8 (trial seeds 5000..5019, sizes
from generator seed 88), so trial 7 is the instance that parks an arm.
Takes about a minute, most of it in that one solve.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

import workloads

ROOT = os.getcwd()
WORK = os.path.join(workloads.HERE, ".work")


def _strict_components(n: int, seed: int) -> list:
    """Memoryless arms at even positions and strictly concave 14-entry
    tables at odd ones, costs in [0.3, 3)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        cost = float(rng.uniform(0.3, 3.0))
        if k % 2 == 0:
            out.append({"kind": "markov", "q": float(rng.uniform(0.06, 0.94)), "cost": cost})
        else:
            ratio = rng.uniform(0.4, 0.85)
            total = rng.uniform(0.5, 0.98)
            weights = ratio ** np.arange(14)
            p = np.cumsum(weights / weights.sum() * total)
            out.append({"kind": "table", "p": [float(v) for v in p], "cost": cost})
    return out


def _run(main, workdir, command, config) -> str:
    cfg = os.path.join(workdir, "config.json")
    out = os.path.join(workdir, "out.csv")
    with open(cfg, "w") as fh:
        json.dump(config, fh)
    if main([command, "--config", cfg, "--out", out]) != 0:
        raise SystemExit(f"{command} failed on {config}")
    with open(out) as fh:
        return fh.read()


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from probesched.cli import main as cli_main

    os.makedirs(WORK, exist_ok=True)
    seed = workloads.DEFAULT_SEED
    placeholder = {
        "sim-fig4": {"seed": seed, "sha256": {p: None for p in workloads.FIG4_POLICIES}},
        "oracle-fig3": {"rows": []},
        "subsidy-mix": {"instances": []},
    }
    ref = {}
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        hashes = {}
        for op in workloads.make_ops("sim-fig4", seed, reference=placeholder):
            text = _run(cli_main, workdir, op["command"], op["config"])
            hashes[op["expect"]["policy"]] = hashlib.sha256(text.encode()).hexdigest()
        ref["sim-fig4"] = {"seed": seed, "sha256": hashes}

        (op,) = workloads.make_ops("oracle-fig3", seed, reference=placeholder)
        text = _run(cli_main, workdir, op["command"], op["config"])
        rows = list(csv.reader(io.StringIO(text)))[1:]
        ref["oracle-fig3"] = {"rows": [[float(v) for v in r] for r in rows]}

        sizes = np.random.default_rng(88)
        instances = []
        for trial in range(20):
            n = int(sizes.integers(2, 6))
            k = int(sizes.integers(1, n))
            components = _strict_components(n, 5_000 + trial)
            config = {"mode": "subsidy", "components": components, "K": k}
            rows = list(csv.reader(io.StringIO(_run(cli_main, workdir, "subsidy", config))))[1:]
            instances.append({"trial": trial, "K": k, "components": components,
                              "lambda_star": float(rows[0][4]),
                              "rates": [float(r[2]) for r in rows]})
        parked = [(i["trial"], a) for i in instances for a, r in enumerate(i["rates"]) if r == 0.0]
        if len(parked) != 1:
            raise SystemExit(f"expected exactly one parked arm, found {parked}")
        ref["subsidy-mix"] = {"instances": instances}

    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}; parked (trial, arm): {parked}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

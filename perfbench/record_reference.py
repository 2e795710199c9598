#!/usr/bin/env python3
"""Record perfbench/reference.json: each workload's checked outputs per seed.

    python3 perfbench/record_reference.py

Run from the repository root at the commit whose outputs become the
reference. For every workload and seed 0..SEEDS-1 it runs one full-size
unit, requires every check of the unit to pass, and stores the unit's
summary values. It also stores, under ``_conditioning``, the measured
largest Gramian eigenvalue of the HUM problems (for control-adapted, the
largest over all recorded seeds) and how far their outputs move when cg_tol
is tightened tenfold; the HUM tolerances in workloads.py rest on both, and
recording fails if an eigenvalue exceeds ``workloads.GRAMIAN_LAMBDA_MAX``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
import workloads

SEEDS = 64  # seeds 0..63 get the full reference comparison in run.py


def lambda_max(sd, problem, iterations: int = 40) -> float:
    """Power-iteration estimate of the largest Gramian eigenvalue."""
    z = np.random.default_rng(0).standard_normal((problem.tree.num_nodes(problem.tree.depth),
                                                  problem.mesh.N))
    estimate = 0.0
    for _ in range(iterations):
        z /= np.linalg.norm(z)
        gz = sd.hum.gramian_apply(z, problem)
        estimate = float(z.ravel() @ gz.ravel())
        z = gz
    return estimate


def tolerance_probe(sd, problem) -> dict:
    """Relative change of the cost report when cg_tol is tightened tenfold."""
    reports = [sd.hum.report_bounds(sd.hum.solve_hum(p), p)
               for p in (problem, dataclasses.replace(problem, cg_tol=problem.cg_tol / 10))]
    return {
        "epsilon": problem.epsilon,
        "lambda_max": lambda_max(sd, problem),
        "rtol_used": workloads.hum_rtol(problem.epsilon),
        **{f"rel_change_{key}": abs(getattr(reports[1], key) / getattr(reports[0], key) - 1)
           for key in ("terminal_ratio", "cost_ratio")},
    }


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    reference = {"_base": {"git_sha": run.git_sha(), "src_sha256": run.src_digest(),
                           "seeds": SEEDS}, "_conditioning": {}}
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            sd = run.import_fresh()
            wl = cls(False, Path(tmp))
            wl.prepare(sd)
            table = reference[name] = {}
            lambdas = []
            for seed in range(SEEDS):
                inputs = wl.build(sd, seed)
                outcome = wl.check(sd, inputs, wl.run(sd, inputs))
                if outcome["failures"]:
                    print(f"{name} seed {seed} fails its checks: {outcome['failures']}",
                          file=sys.stderr)
                    return 1
                table[str(seed)] = outcome["summary"]
                if name == "control-adapted":
                    lambdas.append(lambda_max(sd, inputs))
                print(f"{name} seed {seed}: {outcome['counts']}", flush=True)
            if name == "sweep":
                # The last unit's problems; every HUM input of the sweep is
                # seed-independent.
                problems = [problem for problem, _ in wl.captured]
                reference["_conditioning"][name] = [tolerance_probe(sd, p) for p in problems]
            elif name == "control-adapted":
                reference["_conditioning"][name] = {
                    "seed": 7, **tolerance_probe(sd, wl.build(sd, 7)),
                    "lambda_max_over_seeds": max(lambdas)}
        measured = [c["lambda_max"] for c in reference["_conditioning"]["sweep"]] + lambdas
        if max(measured) > workloads.GRAMIAN_LAMBDA_MAX:
            print(f"largest Gramian eigenvalue {max(measured):.4f} exceeds "
                  f"GRAMIAN_LAMBDA_MAX = {workloads.GRAMIAN_LAMBDA_MAX}", file=sys.stderr)
            return 1
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(json.dumps(reference["_conditioning"], indent=1))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

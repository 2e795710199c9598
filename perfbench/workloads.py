"""Workloads of the sdcontrol benchmark.

Each workload builds its inputs from the seed through the public API of
``sdcontrol`` (``build``), runs one unit (``run``, the only timed call) and
checks the unit's outputs (``check``). Every unit of a run gets freshly
built inputs from the same seed, so the exact counts of all units of a run
must agree.

Tolerances for the reference comparison (see README.md for the derivation):

* outputs of a HUM solve may move by ``hum_rtol(eps)`` (relative): the
  checked true residual is at most ``TRUE_RESIDUAL_FACTOR * cg_tol``, the
  error of the iterate is at most the condition number
  ``(lambda_max + eps) / eps`` of the penalised Gramian times that residual,
  with ``lambda_max`` below ``GRAMIAN_LAMBDA_MAX`` (measured values are in
  ``reference.json`` under ``_conditioning``), and a factor 2 covers the
  outputs that are squared norms;
* outputs of direct sweeps (no iterative solve) may move by ``DIRECT_RTOL``,
  far above the roundoff the well-conditioned step solves can produce.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from pathlib import Path
from time import perf_counter

import numpy as np

CG_TOL = 1e-10
TRUE_RESIDUAL_FACTOR = 10.0
GRAMIAN_LAMBDA_MAX = 0.3
DIRECT_RTOL = 1e-9
EPS_RTOL = 1e-12
CARLEMAN_STABILITY_MAX = 5.0

SWEEP_CSV_HEADER = ["h", "delta", "lambda", "mu", "N", "depth", "eps", "obs_C",
                    "term_ratio", "cost_ratio", "cg_iters", "closure_err", "skipped", "reason"]


def _finite(*arrays) -> bool:
    return all(np.isfinite(np.asarray(a, dtype=float)).all() for a in arrays)


def hum_rtol(epsilon: float) -> float:
    """Relative tolerance of a HUM output against its reference value."""
    return 2 * TRUE_RESIDUAL_FACTOR * CG_TOL * (GRAMIAN_LAMBDA_MAX + epsilon) / epsilon


def check_hum_solution(sd, problem, sol, label: str, failures: list[str]) -> float:
    """Closure, finiteness and true residual of one HUM solve; returns the
    true relative residual ||(Lambda + eps I) z - b|| / ||b||."""
    if not (_finite(sol.zT_star, sol.terminal) and math.isfinite(sol.functional_value)):
        failures.append(f"{label}: non-finite solution")
        return math.nan
    if not sol.closure_error <= sol.closure_bound:
        failures.append(f"{label}: closure {sol.closure_error:.3e} > bound {sol.closure_bound:.3e}")
    z, b = sol.zT_star, sol.free_terminal
    residual = sd.hum.gramian_apply(z, problem) + problem.epsilon * z - b
    true_rel = float(np.linalg.norm(residual) / np.linalg.norm(b))
    if not true_rel <= TRUE_RESIDUAL_FACTOR * problem.cg_tol:
        failures.append(f"{label}: true relative residual {true_rel:.3e} > "
                        f"{TRUE_RESIDUAL_FACTOR:g} * cg_tol")
    return true_rel


class Workload:
    """One named workload; ``tiny`` shrinks it for the self-test and warm-up."""

    name = ""

    def __init__(self, tiny: bool, workdir: Path):
        self.tiny = tiny
        self.workdir = workdir

    def params(self) -> dict:
        """Problem sizes for the result record."""
        raise NotImplementedError

    def prepare(self, sd) -> None:
        """Hook run once on the package the units will use."""

    def build(self, sd, seed: int):
        raise NotImplementedError

    def run(self, sd, inputs):
        raise NotImplementedError

    def check(self, sd, inputs, raw) -> dict:
        """Returns {"summary", "counts", "failures", "notes", "true_rel_residuals"}."""
        raise NotImplementedError

    def rtol(self, key: str) -> float:
        return DIRECT_RTOL

    def seed_independent(self, key: str) -> bool:
        return False


class Sweep(Workload):
    """The paper's headline mesh-size sweep through the CLI: CG-bound, one
    shared step matrix per level, small batches, the only user of the CSV
    path. Unit: one ``sweep`` call."""

    name = "sweep"

    def __init__(self, tiny, workdir):
        super().__init__(tiny, workdir)
        self.h_values = [1 / 8, 1 / 9] if tiny else [1 / 8, 1 / 12, 1 / 16]
        samples = 8 if tiny else 64
        self.config = {"depth": 4 if tiny else 8,
                       "sweep": {"h_values": self.h_values, "obs_train": samples,
                                 "obs_holdout": samples}}
        self.config_path = workdir / f"sweep{'-tiny' if tiny else ''}.json"
        self.csv_path = workdir / f"sweep{'-tiny' if tiny else ''}.csv"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")
        self.threads = min(2, os.cpu_count() or 1)
        self.captured: list = []
        self.epsilons: list[float] = []

    def params(self):
        return {"h_values": self.h_values, "N": [round(1 / h) - 1 for h in self.h_values],
                "depth": self.config["depth"], "threads": self.threads}

    def prepare(self, sd):
        # Keep each HUM problem and solution the sweep produces, for the
        # closure and true-residual checks. Absent after a refactor, those
        # checks are skipped with a note and the CSV checks still apply.
        original = getattr(sd.hum, "solve_hum", None)
        if not callable(original):
            return
        captured = self.captured

        def solve_hum(problem, *args, **kwargs):
            sol = original(problem, *args, **kwargs)
            captured.append((problem, sol))
            return sol
        sd.hum.solve_hum = solve_hum

    def build(self, sd, seed):
        # The CLI builds meshes, trees, coefficients and problems inside the
        # unit; set-up is what precedes it: reading and validating the config.
        cfg = sd.harness.load_config(str(self.config_path))
        problems = cfg.validate()
        if problems:
            raise ValueError(f"invalid sweep config: {problems}")
        cfg.seed = seed
        sd.harness.sweep_settings_from_config(cfg)
        self.epsilons = [sd.hum.epsilon_from_mesh(cfg.weights["c_eps"], h)
                         for h in self.h_values]
        self.captured.clear()
        self.csv_path.unlink(missing_ok=True)
        return ["sweep", "--config", str(self.config_path), "--out", str(self.csv_path),
                "--threads", str(self.threads), "--seed", str(seed)]

    def run(self, sd, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return sd.harness.cli(argv)

    def check(self, sd, argv, exit_code):
        failures, notes, summary = [], [], {}
        if exit_code != 0:
            failures.append(f"sweep exited with code {exit_code}")
        with open(self.csv_path, encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        if not table or table[0] != SWEEP_CSV_HEADER:
            failures.append(f"CSV header differs: {table[:1]}")
            return {"summary": summary, "counts": {}, "failures": failures, "notes": notes,
                    "true_rel_residuals": []}
        rows = [dict(zip(SWEEP_CSV_HEADER, line)) for line in table[1:]]
        if len(rows) != len(self.h_values):
            failures.append(f"{len(rows)} CSV rows for {len(self.h_values)} mesh sizes")
        numeric = ["h", "delta", "eps", "obs_C", "term_ratio", "cost_ratio", "cg_iters",
                   "closure_err"]
        for i, row in enumerate(rows):
            if row["skipped"] != "false":
                failures.append(f"row {i} skipped: {row['reason']}")
            values = {k: float(row[k]) if row[k] else math.nan for k in numeric}
            if not _finite(list(values.values())):
                failures.append(f"row {i} has non-finite values")
            for key in ("eps", "obs_C", "term_ratio", "cost_ratio"):
                summary[f"row{i}.{key}"] = values[key]
        ratios = [summary.get(f"row{i}.term_ratio", math.nan) for i in range(len(rows))]
        if not all(b < a for a, b in zip(ratios, ratios[1:])):
            failures.append(f"term_ratio does not decay monotonically: {ratios}")

        true_res = []
        if not self.captured:
            notes.append("HUM solves not observable from the CLI; closure and "
                         "true-residual checks skipped, CSV checks applied")
        for i, (problem, sol) in enumerate(self.captured):
            true_res.append(check_hum_solution(sd, problem, sol, f"row {i}", failures))
        counts = {"cg_iters": [int(r["cg_iters"]) if r["cg_iters"] else -1 for r in rows]}
        return {"summary": summary, "counts": counts, "failures": failures, "notes": notes,
                "true_rel_residuals": true_res}

    def rtol(self, key):
        i, field = key.split(".")
        if field == "eps":
            return EPS_RTOL
        if field in ("term_ratio", "cost_ratio"):
            return hum_rtol(self.epsilons[int(i[3:])])
        return DIRECT_RTOL

    def seed_independent(self, key):
        # Constant coefficients and the sine initial state make every HUM
        # output of the sweep independent of the seed; only the
        # observability samples (obs_C) depend on it.
        return not key.endswith(".obs_C")


class ControlAdapted(Workload):
    """One large HUM solve with adapted random coefficients: a matrix per
    node, wide batches, dimension far beyond dense assembly. Unit: one
    ``solve_hum``."""

    name = "control-adapted"

    def __init__(self, tiny, workdir):
        super().__init__(tiny, workdir)
        N, depth = (15, 5) if tiny else (63, 10)
        self.config = {
            "N": N, "depth": depth,
            "coefficients": {"a1": {"kind": "adapted_random", "magnitude": 0.5},
                             "a2": {"kind": "adapted_random", "magnitude": 0.5}},
            "hum": {"cg_tol": CG_TOL, "cg_maxiter": 10000, "epsilon": 1e-4},
        }

    def params(self):
        return {"N": self.config["N"], "depth": self.config["depth"],
                "dimension": self.config["N"] << self.config["depth"],
                "epsilon": self.config["hum"]["epsilon"]}

    def build(self, sd, seed):
        cfg = sd.harness.ExperimentConfig.from_dict(self.config)
        mesh = sd.mesh.build_mesh(cfg.N)
        tree = sd.noise_tree.build_tree(cfg.depth, cfg.T)
        region = sd.forward_solver.OmegaRegion(mesh, tuple(cfg.omega))
        coeffs = sd.harness.build_coefficients(cfg, tree, mesh, np.random.default_rng(seed))
        return sd.hum.HumProblem(
            y0=sd.harness.build_y0(cfg, mesh), coeffs=coeffs, region=region, tree=tree,
            mesh=mesh, epsilon=sd.harness.resolve_epsilon(cfg),
            cg_tol=cfg.hum["cg_tol"], cg_maxiter=cfg.hum["cg_maxiter"])

    def run(self, sd, problem):
        return sd.hum.solve_hum(problem)

    def check(self, sd, problem, sol):
        failures = []
        true_res = check_hum_solution(sd, problem, sol, "solve", failures)
        report = sd.hum.report_bounds(sol, problem)
        summary = {"functional_value": sol.functional_value,
                   "term_ratio": report.terminal_ratio, "cost_ratio": report.cost_ratio}
        if not _finite(list(summary.values())):
            failures.append("non-finite cost report")
        return {"summary": summary, "counts": {"cg_iters": sol.cg_iterations},
                "failures": failures, "notes": [], "true_rel_residuals": [true_res]}

    def rtol(self, key):
        return hum_rtol(self.config["hum"]["epsilon"])


class Estimators(Workload):
    """The estimators of the CLI defaults: the observability fit pair (plain
    and h-scaled; independent backward sweeps, no CG and no forward sweep)
    and the Carleman ratio study pair (N and 2N+1; the only user of the
    indefinite anti-diffusive solve and of the weight evaluation). Unit:
    both fits, then both studies; each part is also timed on its own."""

    name = "estimators"

    def __init__(self, tiny, workdir):
        super().__init__(tiny, workdir)
        self.obs_depth, self.obs_samples = (5, 10) if tiny else (8, 200)
        self.car_depth, self.car_samples = (4, 10) if tiny else (6, 100)
        self.config = {"depth": self.obs_depth,
                       "observability": {"train": self.obs_samples, "holdout": self.obs_samples},
                       "carleman": {"samples": self.car_samples, "depth": self.car_depth,
                                    "modes": 3}}

    def params(self):
        return {"observability": {"N": 8, "depth": self.obs_depth, "train": self.obs_samples,
                                  "holdout": self.obs_samples},
                "carleman": {"N": [8, 17], "depth": self.car_depth,
                             "samples": self.car_samples, "modes": 3}}

    def build(self, sd, seed):
        cfg = sd.harness.ExperimentConfig.from_dict(self.config)
        cfg.seed = seed
        return self._build_obs(sd, cfg, seed), self._build_carleman(sd, cfg, seed)

    def _build_obs(self, sd, cfg, seed):
        mesh = sd.mesh.build_mesh(cfg.N)
        tree = sd.noise_tree.build_tree(cfg.depth, cfg.T)
        region = sd.forward_solver.OmegaRegion(mesh, tuple(cfg.omega))
        weights = sd.weights.build_weights(sd.harness.scheduled_weights(cfg))
        # Same generator streams as the observability subcommand.
        seq = np.random.SeedSequence(seed)
        rng_coeff, rng_plain = [np.random.default_rng(s) for s in seq.spawn(2)]
        coeffs = sd.harness.build_coefficients(cfg, tree, mesh, rng_coeff)
        rng_scaled = np.random.default_rng(seq.spawn(1)[0])
        return cfg, coeffs, weights, tree, mesh, region, {"plain": rng_plain, "h_scaled": rng_scaled}

    def _build_carleman(self, sd, cfg, seed):
        car = cfg.carleman
        # Same generator streams as the carleman subcommand.
        seq = np.random.SeedSequence(seed)
        cases = {}
        for label, N in (("base", cfg.N), ("refined", 2 * cfg.N + 1)):
            mesh = sd.mesh.build_mesh(N)
            tree = sd.noise_tree.build_tree(car["depth"], cfg.T)
            region = sd.forward_solver.OmegaRegion(mesh, tuple(cfg.omega))
            weights = sd.weights.build_weights(sd.harness.scheduled_weights(cfg, h=mesh.h))
            cases[label] = (weights, tree, mesh, region, np.random.default_rng(seq.spawn(1)[0]))
        return car, cases

    def run(self, sd, inputs):
        (cfg, coeffs, weights, tree, mesh, region, rngs), (car, cases) = inputs
        obs = cfg.observability
        t0 = perf_counter()
        fits = {label: sd.inequalities.observability_sample(
                    coeffs, weights, tree, mesh, region, rngs[label], obs["train"],
                    obs["holdout"], cfg.weights["c_eps"], safety=obs["safety"],
                    terminal_h_scaling=(label == "h_scaled"))
                for label in ("plain", "h_scaled")}
        t1 = perf_counter()
        studies = {label: sd.inequalities.carleman_ratio_study(*case, car["samples"],
                                                               modes=car["modes"])
                   for label, case in cases.items()}
        t2 = perf_counter()
        return {"fits": fits, "studies": studies,
                "parts": {"obs_fit_s": t1 - t0, "carleman_s": t2 - t1}}

    def check(self, sd, inputs, raw):
        failures, notes, summary = [], [], {}
        for label, fit in raw["fits"].items():
            if not _finite(fit.lhs, fit.train_ratios, fit.holdout_ratios,
                           *fit.rhs_terms.values()):
                failures.append(f"{label}: non-finite sample values")
            if not fit.fitted_C > 0 or not math.isfinite(fit.fitted_C):
                failures.append(f"{label}: fitted constant {fit.fitted_C}")
            if fit.holdout_violations:
                notes.append(f"{label}: {fit.holdout_violations} holdout violations")
            summary[f"obs.{label}.fitted_C"] = fit.fitted_C
            summary[f"obs.{label}.holdout_max_ratio"] = fit.holdout_max_ratio
            summary[f"obs.{label}.holdout_violations"] = fit.holdout_violations
        studies = raw["studies"]
        for label, ratios in studies.items():
            if not _finite(ratios):
                failures.append(f"{label}: non-finite ratios")
            summary[f"carleman.{label}.max_ratio"] = float(np.max(ratios))
            summary[f"carleman.{label}.median_ratio"] = float(np.median(ratios))
        maxima = [summary[f"carleman.{label}.max_ratio"] for label in studies]
        stability = max(maxima) / min(maxima)
        summary["carleman.stability_factor"] = stability
        if not stability <= CARLEMAN_STABILITY_MAX:
            failures.append(f"stability factor {stability:.3f} > {CARLEMAN_STABILITY_MAX:g}")
        fits = raw["fits"].values()
        counts = {"obs_samples": sum(fit.samples for fit in fits),
                  "obs_excluded": sum(fit.excluded for fit in fits),
                  "carleman_samples": sum(len(r) for r in studies.values())}
        return {"summary": summary, "counts": counts, "failures": failures, "notes": notes,
                "true_rel_residuals": [], "parts": raw["parts"]}

    def rtol(self, key):
        # A holdout violation is a property of the sampled data, not a
        # numerical fault: the safety factor 2 is exceeded at a few seeds
        # (4 of the 64 recorded). The count must match the reference exactly.
        return 0.0 if key.endswith(".holdout_violations") else DIRECT_RTOL


WORKLOADS = {cls.name: cls for cls in (Sweep, ControlAdapted, Estimators)}

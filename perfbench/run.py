#!/usr/bin/env python3
"""sdcontrol benchmark runner.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root. One invocation runs one workload: it imports
``sdcontrol`` from ``src/``, sets up several times, then repeats units of
the workload for ``--seconds`` and checks every unit's outputs. The last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones. A
fuller record (environment, every unit, spans of the last traced unit) is
written under ``perfbench/out/``. ``--workload all`` runs every workload in
its own process and prints one table. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import layertrace
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PACKAGE = "sdcontrol"
SETUP_REPS = 9
SETUP_EVERY_S = 1.0  # least time between two set-ups interleaved with the units

# Per-layer values that are exact counts (suffixes of the metric names).
EXACT_SUFFIXES = (".calls", ".rows", ".computed_bytes", ".iterations", ".samples")


def _layer(name, *fields):
    units = {"calls": "count", "rows": "count", "samples": "count", "iterations": "count",
             "self_s": "s", "total_s": "s", "computed_bytes": "bytes_computed",
             "final_rel_residual": "ratio", "true_rel_residual": "ratio",
             "closure_over_bound": "ratio"}
    return [(f"{name}.{f}", units[f]) for f in fields]


PER_LAYER = [
    *_layer("discrete_calc.solve_tridiagonal", "calls", "rows", "self_s", "computed_bytes"),
    *_layer("discrete_calc.solve_drift_implicit", "calls", "self_s"),
    *_layer("forward_solver.solve_forward", "calls", "self_s"),
    *_layer("forward_solver.Coefficients.validate_dominance", "calls", "self_s"),
    *_layer("backward_solver.solve_backward", "calls", "self_s"),
    *_layer("hum.gramian_apply", "calls", "self_s"),
    *_layer("hum.conjugate_gradient", "iterations", "self_s", "final_rel_residual",
            "true_rel_residual"),
    *_layer("hum.solve_hum", "self_s", "closure_over_bound"),
    *_layer("inequalities.observability_sample", "calls", "samples", "self_s"),
    *_layer("inequalities.solve_w_equation", "calls", "self_s"),
    *_layer("inequalities.carleman_terms", "calls", "self_s"),
    *_layer("inequalities.h_sweep", "self_s"),
    *_layer("mesh.build_mesh", "calls", "total_s"),
    *_layer("noise_tree.build_tree", "calls", "total_s"),
    *_layer("weights.build_weights", "calls", "total_s"),
    *_layer("harness.build_coefficients", "calls", "total_s"),
    *_layer("harness.emit_csv", "total_s"),
    ("process.cpu_s", "s"),
    ("process.trace_overhead_frac", "ratio"),
]


def package_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")}


def import_fresh():
    """Import sdcontrol from src/ anew, discarding any earlier import."""
    for name in package_modules():
        del sys.modules[name]
    sd = importlib.import_module(PACKAGE)
    if Path(sd.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} was imported from {sd.__file__}, not from {SRC}")
    return sd


def timed_setup(wl, seed: int) -> float:
    """Seconds of one set-up: a fresh import of sdcontrol plus the workload's
    build. The package imported before is put back afterwards, so the units
    keep running the instance the workload prepared."""
    saved = package_modules()
    gc.collect()
    t0 = perf_counter()
    wl.build(import_fresh(), seed)
    elapsed = perf_counter() - t0
    for name in package_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    return elapsed


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def environment() -> dict:
    """Machine, interpreter, numpy/BLAS and code identity for the result record."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration"),
                 "threads": blas_threads(),
                 "env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if found."""
    import ctypes
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs_dir.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_sha():
    """HEAD commit read from .git when the checkout has one (no git process)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load_reference() -> dict:
    path = BENCH_DIR / "reference.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def compare_reference(wl, summary: dict, reference: dict, seed: int) -> tuple[list[str], int]:
    """Relative agreement with values recorded at the benchmark's base commit.

    Seeds outside the recorded table are compared on their seed-independent
    outputs only.
    """
    table = reference.get(wl.name, {})
    expected = table.get(str(seed))
    if expected is None:
        any_seed = next(iter(table.values()), {})
        expected = {k: v for k, v in any_seed.items() if wl.seed_independent(k)}
    failures = []
    for key, ref in expected.items():
        got = summary.get(key)
        rtol = wl.rtol(key)
        if got is None or not abs(got - ref) <= rtol * abs(ref):
            failures.append(f"{key} = {got!r} differs from reference {ref!r} (rtol {rtol:.1e})")
    return failures, len(expected)


def exact_counts(unit: dict) -> dict:
    """Counts of a unit that must repeat exactly at fixed code and seed."""
    counts = {f"counts.{k}": v for k, v in unit["counts"].items()}
    counts.update({k: v for k, v in unit.get("layers", {}).items() if k.endswith(EXACT_SUFFIXES)})
    return counts


def check_exact_counts(units: list[dict], previous_record: Path, src_sha256: str) -> None:
    """Fail units whose exact counts differ from the first passing unit of the
    same kind (traced or not) in an earlier record of the same code and seed,
    or else in this run."""
    baseline = {}
    if previous_record.is_file():
        previous = json.loads(previous_record.read_text())
        if previous["environment"]["src_sha256"] == src_sha256:
            for unit in previous["units"]:
                if not unit["failures"]:
                    baseline.setdefault(unit["traced"], exact_counts(unit))
    for unit in units:
        if unit["failures"]:
            continue
        mine = exact_counts(unit)
        ref = baseline.setdefault(unit["traced"], mine)
        if mine != ref:
            diff = sorted(k for k in mine.keys() | ref.keys() if mine.get(k) != ref.get(k))
            unit["failures"].append(f"exact counts differ from an earlier unit: {diff}")


def median(values):
    return statistics.median(values) if values else 0.0


def run_unit(sd, wl, seed, tracer, reference):
    """Build fresh inputs, time one unit, check it. Returns the unit record."""
    rec = {"traced": tracer is not None}
    if tracer is not None:
        tracer.install(sd)
        tracer.begin("bench.setup")
    try:
        inputs = wl.build(sd, seed)
    finally:
        if tracer is not None:
            tracer.end()
            tracer.begin("bench.unit")
    gc.collect()
    cpu0, rec["start"] = cpu_seconds(), perf_counter()
    try:
        raw, error = wl.run(sd, inputs), None
    except Exception:
        raw, error = None, traceback.format_exc()
    rec["end"] = perf_counter()
    rec["cpu_s"] = cpu_seconds() - cpu0
    if tracer is not None:
        tracer.end()
        tracer.uninstall()
        rec["spans"], rec["counters"] = tracer.take()

    outcome = {"summary": {}, "counts": {}, "failures": [], "notes": [], "true_rel_residuals": [],
               "parts": {}}
    if error is not None:
        outcome["failures"].append(f"unit raised: {error.strip().splitlines()[-1]}")
        rec["traceback"] = error
    else:
        try:
            outcome = wl.check(sd, inputs, raw)
        except Exception:
            outcome["failures"].append(f"check raised: {traceback.format_exc()}")
    if not wl.tiny:
        ref_failures, rec["reference_keys_checked"] = compare_reference(
            wl, outcome["summary"], reference, seed)
        outcome["failures"] += ref_failures
    rec.update(outcome)
    return rec


def flat_layer_values(rec: dict) -> dict:
    """Per-layer values of one traced unit, keyed like PER_LAYER names."""
    flat = {}
    for name, st in layertrace.layer_times(rec.pop("spans")).items():
        for field, value in st.items():
            flat[f"{name}.{field}"] = value
    flat.update(rec["counters"])
    flat["hum.conjugate_gradient.true_rel_residual"] = max(rec["true_rel_residuals"], default=0.0)
    return flat


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    reference = load_reference()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        # Warm-up on the tiny variant: loads every code path before timing.
        sd = import_fresh()
        warm = workloads.WORKLOADS[name](True, workdir)
        warm.prepare(sd)
        warm_inputs = warm.build(sd, seed)
        warm.check(sd, warm_inputs, warm.run(sd, warm_inputs))

        wl = workloads.WORKLOADS[name](tiny, workdir)
        sd = import_fresh()
        wl.prepare(sd)
        # Set-ups before the units, then one after a unit whenever a second
        # has passed, so that they see the same host conditions as the units.
        setup_s = [timed_setup(wl, seed) for _ in range(SETUP_REPS)]
        last_setup = perf_counter()

        tracer = layertrace.Tracer() if trace else None
        units, last_spans = [], {}
        min_units = 2 if trace else 1
        start = perf_counter()
        # Units until --seconds have passed, counting a unit as run when at
        # least half of it would fit, so a run measures --seconds on average.
        while len(units) < min_units or (
                perf_counter() - start + median([u["end"] - u["start"] for u in units]) / 2
                < seconds):
            traced = trace and len(units) % 2 == 1
            rec = run_unit(sd, wl, seed, tracer if traced else None, reference)
            if traced:
                last_spans = {"unit": len(units), "fields": ["name", "start", "end", "parent"],
                              "spans": rec["spans"]}
                rec["layers"] = flat_layer_values(rec)
            units.append(rec)
            if perf_counter() - last_setup >= SETUP_EVERY_S:
                setup_s.append(timed_setup(wl, seed))
                last_setup = perf_counter()

    for rec in units:
        rec["wall_s"] = rec["end"] - rec["start"]

    # Exact counts repeat across the units of this run and across runs of the
    # same code at the same seed; a unit that disagrees fails.
    stem = f"{name}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    env = environment()
    check_exact_counts(units, OUT_DIR / f"{stem}.json", env["src_sha256"])

    failed = sum(1 for u in units if u["failures"])
    plain = [u for u in units if not u["traced"]]
    traced_units = [u for u in units if u["traced"]]
    # Median time of each timed part of a unit (the estimators' two parts).
    parts = {part: median([u["parts"][part] for u in plain if part in u.get("parts", {})])
             for part in (plain[0].get("parts", {}) if plain else {})}
    if trace:
        metrics = {}
        for metric, unit in PER_LAYER:
            metrics[metric] = {"value": median([u["layers"].get(metric, 0) for u in traced_units]),
                               "unit": unit}
        metrics["process.cpu_s"]["value"] = median([u["cpu_s"] for u in plain])
        metrics["process.trace_overhead_frac"]["value"] = (
            median([u["wall_s"] for u in traced_units])
            / median([u["wall_s"] for u in plain]) - 1.0)
    else:
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": median(setup_s), "unit": "s"},
            "wall_s": {"value": median([u["wall_s"] for u in plain]), "unit": "s"},
            "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
        }

    result = {"correct": failed == 0, "attempted": len(units), "failed": failed,
              "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "tiny": tiny,
        "params": wl.params(), "environment": env,
        "absent_layers": tracer.absent if tracer else [],
        "setup_s": setup_s,
        "units": [{k: v for k, v in u.items() if k not in ("counters",)} for u in units],
        "failed_frac": failed / len(units),
        "parts": parts,
        "result": result,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float))
    if trace:
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(last_spans))
    for rec in units:
        for failure in rec["failures"]:
            print(f"[{name}] unit failed: {failure}", file=sys.stderr)
    if tracer is not None and tracer.absent:
        print(f"[{name}] absent layers (recorded as 0): {tracer.absent}", file=sys.stderr)
    return result, parts


def print_metrics(name: str, result: dict, parts: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:20s} {metric:52s} {m['value']!r} {m['unit']}")
    for part, value in parts.items():
        print(f"{name:20s} {part:52s} {value!r} s (median part of an untraced unit)")
    print(f"{name:20s} {'failed_frac':52s} {result['failed'] / result['attempted']!r} ratio "
          f"({result['failed']} of {result['attempted']} units)")


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *table, last = proc.stdout.strip().splitlines()
        print("\n".join(table))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (self-test); skips the reference comparison")
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result, parts = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                 args.tiny)
    print_metrics(args.workload, result, parts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

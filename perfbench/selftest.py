#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny workload sizes (about a minute).

    python3 perfbench/selftest.py

Run from the repository root. Checks that every metric named in
BENCHMARK.json is emitted with its unit, that exact counts repeat across
runs, that a result copy with an injected NaN or a value off its reference
counts as failed, that a missing layer is reported as absent without
crashing, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import layertrace
import run
import workloads

SEED = 5
RESULTS = []


def report(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}{'  [' + detail + ']' if detail else ''}", flush=True)


def run_cli(workload: str, trace: int, cwd: Path = run.ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=300)


def check_metric_names(spec: dict) -> None:
    names = [w["name"] for w in spec["workloads"]]
    report("BENCHMARK.json names every workload", names == list(workloads.WORKLOADS), str(names))
    for name in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_cli(name, trace)
            if proc.returncode != 0:
                report(f"{name} trace {trace} runs", False, proc.stderr.strip()[-300:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            numbers = all(isinstance(v["value"], (int, float)) and not isinstance(v["value"], bool)
                          for v in result["metrics"].values())
            ok = (set(result) == {"correct", "attempted", "failed", "metrics"}
                  and got == expected and numbers and result["attempted"] >= 1
                  and result["correct"] is True and result["failed"] == 0)
            missing = sorted(expected.keys() - got.keys())
            report(f"{name} trace {trace}: every {section} metric with its unit, all units pass",
                   ok, f"missing {missing}" if missing else "")


def check_counts_repeat() -> None:
    record = run.OUT_DIR / f"sweep-seed{SEED}-trace1-tiny.json"
    before = [run.exact_counts(u) for u in json.loads(record.read_text())["units"]]
    proc = run_cli("sweep", 1)
    after = [run.exact_counts(u) for u in json.loads(record.read_text())["units"]]
    correct = proc.returncode == 0 and json.loads(proc.stdout.splitlines()[-1])["correct"]
    report("exact counts repeat across two runs at one seed",
           bool(correct and before[1] and before[1] == after[1]))


def inject_nan(name: str, wl, raw):
    """A copy of the unit's result with one value replaced by NaN."""
    if name == "sweep":
        lines = wl.csv_path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[workloads.SWEEP_CSV_HEADER.index("term_ratio")] = "nan"
        lines[1] = ",".join(cells)
        wl.csv_path.write_text("\n".join(lines) + "\n")
        return raw
    bad = copy.deepcopy(raw)
    if name == "control-adapted":
        bad.zT_star[0, 0] = np.nan
    else:
        bad["fits"]["plain"].lhs[0] = np.nan
        bad["studies"]["base"][0] = np.nan
    return bad


def check_corruption_detected() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            sd = run.import_fresh()
            wl = cls(True, Path(tmp))
            wl.prepare(sd)
            inputs = wl.build(sd, SEED)
            raw = wl.run(sd, inputs)
            clean = wl.check(sd, inputs, raw)["failures"]
            corrupted = wl.check(sd, inputs, inject_nan(name, wl, raw))["failures"]
            report(f"{name}: NaN injected into a result copy counts as failed",
                   not clean and bool(corrupted), "; ".join(corrupted)[:200])

        reference = run.load_reference()
        for name, cls in workloads.WORKLOADS.items():
            if "0" not in reference.get(name, {}):
                report(f"{name}: reference recorded for seed 0", False)
                continue
            wl = cls(False, Path(tmp))
            if name == "sweep":
                wl.build(run.import_fresh(), 0)
            recorded = reference[name]["0"]
            same, _ = run.compare_reference(wl, dict(recorded), reference, 0)
            key = next(iter(recorded))
            shifted = dict(recorded, **{key: recorded[key] * (1 + 2 * wl.rtol(key))})
            off, _ = run.compare_reference(wl, shifted, reference, 0)
            report(f"{name}: value off its reference by twice the tolerance counts as failed",
                   not same and bool(off), off[0] if off else "")


def check_absent_layer() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        sd = run.import_fresh()
        del sd.inequalities.carleman_terms
        wl = workloads.ControlAdapted(True, Path(tmp))
        tracer = layertrace.Tracer()
        rec = run.run_unit(sd, wl, SEED, tracer, {})
        report("a missing layer is reported absent and the unit still runs",
               tracer.absent == ["inequalities.carleman_terms"] and not rec["failures"],
               str(tracer.absent))


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_cli("sweep", 0, cwd=bare)
        printed_json = any(line.startswith("{") for line in proc.stdout.splitlines())
        report("without src/ the benchmark exits non-zero and prints no result",
               proc.returncode != 0 and not printed_json, proc.stderr.strip()[-200:])


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT_DIR.mkdir(exist_ok=True)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_metric_names(spec)
    check_counts_repeat()
    check_corruption_detected()
    check_absent_layer()
    check_refuses_without_sources()
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-test checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())

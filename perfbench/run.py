"""Benchmark for the torusfloer command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and NOTES.md) through
`torusfloer.cli.main`, each repetition in a fresh interpreter with
`--jobs 1` and one BLAS/OpenMP thread, so every repetition pays the imports
and the process-wide caches as a CLI user does. Every output is checked
independently (checks.py). The program is imported from `src/` of the
checkout this file sits in; nothing is installed or built.

With --trace 0 it reports the end-to-end metrics: `setup_s` (interpreter
start until `torusfloer.cli` is imported and the inputs are written),
`wall_s` (`main()` call to a checked verdict) and `cpu_s` (user + system
CPU over the same interval), each the median over the fresh interpreters of
the run and scaled to the nominal host speed that hostspeed.py samples
while they run, and `peak_rss_mb`, the median over the repetitions. With
--trace 1 plain and traced repetitions alternate; it reports the per-layer
metrics of the traced one with the median time (tracing.py) and the
tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Run details, outputs
and spans are kept under .perfbench_runs/ in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".perfbench_runs"
SETUP_PROBES = 6  # timed set-up probes per run, besides the repetitions
# every run must end within 180 s; a repetition still going at this point is killed
HARD_LIMIT_S = 170.0
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkError(RuntimeError):
    pass


def spawn(workload: str, seed: int, repdir: Path, probe: bool, trace: bool, deadline: float):
    """Run worker.py in a fresh interpreter; return its result, or None if it failed."""
    shutil.rmtree(repdir, ignore_errors=True)
    repdir.mkdir(parents=True)
    job = {
        "workload": workload, "seed": seed, "repdir": str(repdir), "src": str(ROOT / "src"),
        "probe": probe, "trace": trace,
    }
    env = dict(os.environ, **THREAD_CAPS)
    with (repdir / "worker.log").open("w") as log:
        job["spawned"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), json.dumps(job)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            return None
    if proc.returncode != 0 or not (repdir / "result.json").exists():
        return None
    return json.loads((repdir / "result.json").read_text())


def fingerprint(workload: str, outdir: Path) -> dict:
    """sha256 of report.json plus the converged actions (energies for energy runs)."""
    raw = (outdir / "report.json").read_bytes()
    if workloads.kind(workload) == "cuplength":
        with (outdir / "summary.csv").open(newline="") as handle:
            values = {r["seed"]: float(r["action"]) for r in csv.DictReader(handle) if r["converged"] == "True"}
    else:
        values = {str(r["trajectory"]): r["energy"] for r in json.loads(raw)["trajectories"]}
    return {"report_sha256": hashlib.sha256(raw).hexdigest(), "values": values}


def compare_reference(workload: str, seed: int, current: dict) -> str:
    reference = json.loads((BENCH / "reference.json").read_text()).get(workload, {}).get(str(seed))
    if reference is None:
        return "no seed-commit reference for this seed"
    if reference["report_sha256"] == current["report_sha256"]:
        return "report.json byte-identical to the seed-commit reference"
    if reference["values"].keys() != current["values"].keys():
        return "differs from the seed-commit reference: different set of converged ops"
    drift = max((abs(current["values"][k] - v) for k, v in reference["values"].items()), default=0.0)
    return f"differs from the seed-commit reference: max |delta value| = {drift:.3e}"


def environment(workload: str) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for key in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", key], capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            out = ""
        caches[key.lower()] = int(out) if out.isdigit() else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_caps": THREAD_CAPS,
        "jobs": 1,
        **caches,
        "working_set_computed": workloads.working_set(workload),
    }


def setup_probe(name: str, seed: int, repdir: Path, deadline: float) -> float:
    res = spawn(name, seed, repdir, True, False, deadline)
    if res is None:
        raise BenchmarkError(f"the program could not be set up; see {repdir / 'worker.log'}")
    return res["setup_s"] * res["setup_scale"]


def repetitions(name: str, seed: int, rundir: Path, trace: bool, seconds: float, deadline: float) -> list:
    """Repetitions while another is expected to end within `seconds`.

    With `trace`, plain and traced repetitions alternate and there is at
    least one of each. Returns (repdir, traced, result) triples; result is
    None for a crash.
    """
    reps = []
    started = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        repdir = rundir / f"rep{len(reps)}"
        reps.append((repdir, traced, spawn(name, seed, repdir, False, traced, deadline)))
        elapsed = time.monotonic() - started
        enough = len(reps) >= (2 if trace else 1) and elapsed + elapsed / len(reps) > seconds
        if enough or time.monotonic() > deadline:
            return reps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    name, seed, trace = args.workload, args.seed, bool(args.trace)
    began = time.monotonic()
    deadline = began + HARD_LIMIT_S
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    rundir = RUNS / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    env = environment(name)

    # Probe 0 also compiles the bytecode and is not timed. The timed probes
    # are split between before and after the repetitions to sample the host twice.
    setup_probe(name, seed, rundir / "probe0", deadline)
    half = SETUP_PROBES // 2
    setups = [setup_probe(name, seed, rundir / f"probe{k}", deadline) for k in range(1, half + 1)]
    reps = repetitions(name, seed, rundir, trace, args.seconds, deadline)
    setups += [
        setup_probe(name, seed, rundir / f"probe{k}", deadline) for k in range(half + 1, SETUP_PROBES + 1)
    ]

    per_rep = workloads.ops_per_rep(name)
    attempted, failed, problems, passing = per_rep * len(reps), 0, [], []
    for repdir, _, res in reps:
        if res is None:
            failed += per_rep
            problems.append(f"{repdir.name}: crashed or timed out; see {repdir / 'worker.log'}")
            continue
        failed += len(res["failed"])
        problems += [f"{repdir.name}: {p}" for p in res["problems"]]
        if not res["failed"]:
            passing.append(repdir / "out")
    plain = [res for _, traced, res in reps if res is not None and not traced]
    traced_ok = [res for _, traced, res in reps if res is not None and traced]
    if not plain or (trace and not traced_ok):
        print("\n".join(problems), file=sys.stderr)
        raise BenchmarkError("a repetition the metrics need did not finish")

    exactness = None
    self_test = "not run: no repetition passed its checks"
    if passing:
        prints = [fingerprint(name, out) for out in passing]
        exactness = prints[0]
        if any(p["report_sha256"] != exactness["report_sha256"] for p in prints):
            problems.append("report.json differs between repetitions of the same input")
        missed = checks.self_test(name, passing[0], seed, rundir / "selftest")
        problems += [f"self-test: corruption not detected: {m}" for m in missed]
        total = len(checks.CORRUPTIONS[workloads.kind(name)])
        self_test = f"{total - len(missed)}/{total} corruptions detected"

    setups += [res["setup_s"] * res["setup_scale"] for _, _, res in reps if res is not None]
    # Repetition times at the nominal host speed (hostspeed.py); result.json keeps the measured ones.
    walls = [res["wall_s"] * res["scale"] for res in plain]
    raw_walls = [res["measured_wall_s"] for res in plain]
    if trace:
        by_wall = sorted(traced_ok, key=lambda res: res["wall_s"] * res["scale"])
        middle = by_wall[(len(by_wall) - 1) // 2]
        # Span times include the kernel runs that interrupted them, in proportion to their length.
        span_scale = middle["scale"] * middle["wall_s"] / middle["measured_wall_s"]
        values = {
            k: v * span_scale if units.get(k) in ("s", "us") else v for k, v in middle["layers"].items()
        }
        values["trace.wall_s"] = middle["wall_s"] * middle["scale"]
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(res["cpu_s"] * res["scale"] for res in plain),
            "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in plain),
        }
    if values.keys() != units.keys():
        raise BenchmarkError(f"metrics {sorted(values.keys() ^ units.keys())} disagree with BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    correct = failed == 0 and not problems
    summary = {
        "workload": name, "seed": seed, "trace": trace, "repetitions": len(reps),
        "environment": env, "walls": walls, "raw_walls": raw_walls, "setups": setups,
        "scales": [res["scale"] for _, _, res in reps if res is not None], "metrics": metrics,
        "ops_attempted": attempted, "ops_failed": failed, "problems": problems,
        "exactness": exactness, "self_test": self_test,
        "self_shares": middle["self_shares"] if trace else None,
    }
    (rundir / "result.json").write_text(json.dumps(summary, indent=1) + "\n")

    print(f"workload {name}, seed {seed}: {len(reps)} repetitions ({len(plain)} plain), fresh interpreter "
          f"each, --jobs 1, BLAS/OpenMP threads capped at 1, {time.monotonic() - began:.1f} s in total")
    print("environment: " + json.dumps(env))
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(f"wall_s over {len(walls)} repetitions at the nominal host speed: min {min(walls):.4g}, "
          f"median {statistics.median(walls):.4g}, max {max(walls):.4g} s; as measured: min "
          f"{min(raw_walls):.4g}, median {statistics.median(raw_walls):.4g}, max {max(raw_walls):.4g} s")
    scales = [res["scale"] for res in plain]
    print(f"host speed relative to the nominal host over the repetitions: min {min(scales):.3g}, "
          f"median {statistics.median(scales):.3g}, max {max(scales):.3g}")
    print(f"setup_s over {len(setups)} fresh interpreters at the nominal host speed: min {min(setups):.4g}, "
          f"median {statistics.median(setups):.4g}, max {max(setups):.4g} s")
    print(f"ops_attempted = {attempted} ops")
    print(f"ops_failed = {failed} ops")
    if exactness is not None:
        print(f"exactness: report.json sha256 {exactness['report_sha256']}; "
              f"{compare_reference(name, seed, exactness)}")
    print(f"self-test: {self_test}")
    if trace:
        shares = sorted(summary["self_shares"].items(), key=lambda kv: -kv[1])
        print("self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares))
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)

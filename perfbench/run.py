"""tripletlab benchmark: one workload in one process, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json): sweep, retrieval, field.

--trace 0 repeats the workload untraced until --seconds would be exceeded
(at least once) and prints the end-to-end metrics. --trace 1 alternates an
untraced and a traced repetition in the same way and prints the per-layer
split of the traced ones; their outputs must equal the untraced outputs bit
for bit. Metric names and units come from BENCHMARK.json.

The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``. The line before it starts
with ``report:`` and holds provenance, every timing's median, its highest
percentile with at least ten samples beyond it and its sample count, the
workload's named metrics in seconds, and each check that failed.

The end-to-end times are relative: each sample is divided by the time of
the workload's fixed reference snippet, timed just before and after it,
and the run reports the median of those ratios. README.md says why.

The package is imported from ``src/`` of the checkout and the oracles from
``tests/``; without them the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def single_blas_thread() -> int:
    """Run BLAS on the calling thread; must run before numpy loads.

    Idle OpenBLAS workers busy-wait: with two threads on the sweep's 16x16
    products the second one kept the other of the two vCPUs 100% busy, so
    the run measured that thread's competition for the host as well as the
    program. Returns nproc for the provenance."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def summarize(samples: list[float]) -> dict:
    """Median plus the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = ordered[min(n - 1, int(n * pct / 100))]
            break
    return out


def import_seconds() -> float:
    """Median time to import the package and its CLI in a fresh process."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import tripletlab, tripletlab.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_reps(make_rep, seconds: float) -> None:
    """Call make_rep until another round would overrun ``seconds``."""
    start = perf_counter()
    rounds = 0
    while True:
        make_rep()
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for needed in (SRC / "tripletlab" / "__init__.py",
                   ROOT / "tests" / "conftest.py"):
        if not needed.is_file():
            print(f"perfbench: {needed} is missing", file=sys.stderr)
            return 2

    nproc = single_blas_thread()
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import tripletlab
    import layers
    import workloads
    from env import provenance
    from tracer import Tracer

    if Path(tripletlab.__file__).resolve().parent != SRC / "tripletlab":
        print(f"perfbench: imported {tripletlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        inputs = wl.setup(args.seed)
        setup_times.append(perf_counter() - t0)
    setup_s = import_seconds() + statistics.median(setup_times)

    workdir = ROOT / ".perfbench-work" / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    untraced, traced, tracers = [], [], []
    rss = []  # high-water mark after set-up and the first repetition

    def rep(traced_run: bool):
        if traced_run:
            tracer = Tracer(layers.trace_sites())
            with tracer:
                r = wl.rep(inputs, workdir, traced=True)
            tracers.append(tracer)
            r.bytes_written = workloads.written_bytes(r.manifests)
        else:
            r = wl.rep(inputs, workdir, traced=False)
        (traced if traced_run else untraced).append(r)
        if not rss:
            rss.append(peak_rss_mb())

    try:
        if args.trace:
            run_reps(lambda: (rep(False), rep(True)), args.seconds)
        else:
            run_reps(lambda: rep(False), args.seconds)
        checks = [c for r in untraced + traced for c in r.checks]
        first = untraced[0].digest
        checks += [("repetition output equals the first repetition's",
                    r.digest == first) for r in untraced[1:] + traced]
        checks += wl.verify(inputs, untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    walls = [r.wall for r in untraced]
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(nproc),
        "setup": {"setup_s": setup_s,
                  "import_s": setup_s - statistics.median(setup_times),
                  "inputs_s": summarize(setup_times)},
        "timings": {"run_s": summarize(walls)},
        "reference_s": summarize([m for r in untraced for m in r.marks]),
        "named": {},
    }
    for key in sorted({k for r in untraced for k in r.samples}):
        report["timings"][key] = summarize(
            [v for r in untraced for v in r.samples[key]])
    if args.trace:
        per_rep = [layers.layer_metrics(t, r) for t, r in zip(tracers, traced)]
        metrics = layer_split(per_rep, traced, tracers, walls, checks, report)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {
            "setup_s": setup_s,
            "run_rel": statistics.median(
                r.wall / statistics.fmean(r.marks) for r in untraced),
            "peak_rss_mb": rss[0],
        }
        for name, (named, key, per_sample) in wl.e2e.items():
            rel = relative(untraced, key)
            metrics[name] = per_sample / rel if per_sample else rel
            median = report["timings"][key]["median"]
            report["named"][named] = (per_sample / median if per_sample
                                      else median)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")

    failed = [name for name, ok in checks if not ok]
    report["checks"] = {"attempted": len(checks), "failed": len(failed),
                        "error_rate": len(failed) / len(checks),
                        "failures": sorted(set(failed))}
    report["peak_rss_mb"] = {"first_rep": rss[0], "run": peak_rss_mb()}
    print("report: " + json.dumps(report, sort_keys=True, default=str))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


def relative(reps, key: str) -> float:
    """Median over the samples of ``key`` of each one divided by the mean
    of the reference times at the marks on either side of it."""
    return statistics.median(
        value / ((r.marks[i] + r.marks[i + 1]) / 2)
        for r in reps
        for value, i in zip(r.samples[key], r.segments[key])
    )


def layer_split(per_rep, traced, tracers, walls, checks, report) -> dict:
    """Per-layer metrics: medians over traced repetitions, exact counts."""
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")}
              for m in per_rep]
    checks += [("traced counts repeat exactly", c == counts[0])
               for c in counts[1:]]
    metrics = {name: statistics.median(m[name] for m in per_rep)
               for name in per_rep[0] if name.endswith("_s")} | counts[0]
    traced_walls = [r.wall for r in traced]
    metrics["trace.run_s"] = statistics.median(traced_walls)
    metrics["trace.coverage"] = statistics.median(
        t.covered_s() / r.wall for t, r in zip(tracers, traced))
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(walls))
    report["trace"] = {
        "absent": sorted({a for t in tracers for a in t.absent}),
        "hook_errors": dict(sum((t.hook_errors for t in tracers),
                                start=Counter())),
        "traced_reps": len(traced),
        "self_s": {k: v for k, v in sorted(tracers[0].self_s.items())},
        "calls": dict(sorted(tracers[0].calls.items())),
    }
    return metrics


if __name__ == "__main__":
    sys.exit(main())

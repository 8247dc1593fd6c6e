"""Benchmark of kreinext: user-facing jobs on fixed workloads, each output
checked against a closed-form oracle.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one table

Workloads: scan, pipeline-exact (see BENCHMARK.json) and known-defects
(jobs that fail at the seed commit, kept out of BENCHMARK.json).  A run
is a closed loop in this process: one job after another, in whole passes
over the workload's job set, while the next pass is expected to fit in
--seconds (at least one pass, so every job has the same number of
samples); wall_s is the sum of the per-job median times.  A full garbage
collection precedes every job, outside its timing, so that no job pays
for the garbage of the one before.  The set-up measurement (setup_s)
runs before the loop, on top of --seconds.  --trace 1 runs one pass in
which each job runs untraced and then traced, and reports the per-layer
metrics of the traced runs.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("scan", "pipeline-exact", "known-defects")
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads():
    """One BLAS thread, and the spectral scan's default (serial) thread
    count, for this process and the ones it starts: the benchmark never
    runs more threads than cores.  Must run before numpy is imported."""
    os.environ.pop("KREIN_EXT_THREADS", None)
    os.environ.update({var: "1" for var in THREAD_VARS})


def measure_setup(src: str, configs: list) -> float:
    """Median wall time of fresh interpreters that import kreinext.cli and
    build every job's system from its config file."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, probe, src, *configs], check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def attempt(job, results, tracer=None) -> float:
    """Run one job and check its outcome; append (name, seconds, problems)
    to ``results``; return the job time (oracle check excluded)."""
    from jobs import run_job
    from oracles import check

    gc.collect()
    span = tracer.begin(f"job.{job.name}") if tracer is not None else None
    start = time.perf_counter()
    outcome = run_job(job)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.finish(span)
    results.append((job.name, elapsed, check(outcome, job.expect)))
    return elapsed


def run_loop(jobs, seconds, results):
    """Closed loop of whole passes over the job set, one job after another,
    while the next pass, as long as the last one, fits in ``seconds``; at
    least one pass."""
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for job in jobs:
            attempt(job, results)
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return


def paired_pass(jobs, results, tracer) -> tuple:
    """Each job untraced and then traced, back to back, so that both see the
    same host speed; returns the untraced and the traced pass time."""
    untraced = traced = 0.0
    for index, job in enumerate(jobs):
        untraced += attempt(job, results)
        tracer.current_job = index
        tracer.install()
        try:
            traced += attempt(job, results, tracer)
        finally:
            tracer.uninstall()
    return untraced, traced


def job_medians(results) -> dict:
    by_job = {}
    for name, elapsed, _ in results:
        by_job.setdefault(name, []).append(elapsed)
    return {name: statistics.median(times) for name, times in by_job.items()}


def workload_run(args, root: str) -> dict:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kreinext", "cli.py")):
        raise SystemExit(f"error: no kreinext source under {src}; run from the repository root")
    pin_threads()
    sys.path.insert(0, src)
    from jobs import make_jobs

    workdir = os.path.join(root, ".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    jobs = make_jobs(args.workload, args.seed, workdir)
    results = []
    absent = []
    if args.trace:
        from tracing import Tracer, metric_unit

        tracer = Tracer()
        untraced, traced = paired_pass(jobs, results, tracer)
        layer, absent = tracer.metrics()
        metrics = {name: (value, metric_unit(name)) for name, value in layer.items()}
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        tracer.write(os.path.join(workdir, f"trace-seed{args.seed}.npz"),
                     [job.name for job in jobs])
    else:
        configs = [job.config for job in jobs if "closed_form" not in job.expect]
        setup_s = measure_setup(src, configs)
        run_loop(jobs, args.seconds, results)
        medians = job_medians(results)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(medians.values()), "s"),
            "slowest_job_s": (max(medians.values()), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    failed = sum(1 for _, _, problems in results if problems)
    return {
        "workload": args.workload,
        "traced": bool(args.trace),
        "jobs": results,
        "absent": absent,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }


def print_summary(run: dict):
    traced = ", each job run untraced and then traced" if run["traced"] else ""
    print(f"workload {run['workload']}{traced}: "
          f"{run['attempted']} jobs attempted, {run['failed']} failed")
    by_job = {}
    for name, elapsed, problems in run["jobs"]:
        times, failures = by_job.setdefault(name, ([], []))
        times.append(elapsed)
        failures.extend(problems)
    for name, (times, failures) in by_job.items():
        verdict = "ok" if not failures else "FAILED: " + "; ".join(sorted(set(failures)))
        print(f"  job {name:32s} median {statistics.median(times):9.4f} s "
              f"over {len(times)}  {verdict}")
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  fail_ratio = {run['failed']}/{run['attempted']} "
          f"= {run['failed'] / run['attempted']:.4g} failed/attempted jobs")
    if run["absent"]:
        print("  absent metrics (program no longer has their functions): "
              + ", ".join(run["absent"]))


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def run_all(args) -> int:
    """Every workload in its own process, one table, one JSON line."""
    total_attempted = total_failed = 0
    correct = True
    metrics = {}
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        total_attempted += last["attempted"]
        total_failed += last["failed"]
        correct = correct and last["correct"]
        metrics.update({f"{workload}.{name}": (m["value"], m["unit"])
                        for name, m in last["metrics"].items()})
    print(result_line(correct, total_attempted, total_failed, metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    run = workload_run(args, os.getcwd())
    print_summary(run)
    print(result_line(run["failed"] == 0, run["attempted"], run["failed"], run["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

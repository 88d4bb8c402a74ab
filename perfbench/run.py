#!/usr/bin/env python3
"""tamelab benchmark: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload identity-cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics from traced passes.  The last line of
standard output is one JSON object with keys correct, attempted, failed
and metrics.  The exit code is 1 when any job output fails its check, and
2 when the tamelab sources are not next to this directory.  Provenance,
per-job traces and results go to .perfbench_out/.  See README.md here.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as jobs_mod
from hostspeed import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 5
MIN_PASSES = 2
SHORT_S = 0.02  # jobs under this in the warm-up are rerun after each pass
SHORT_SHARE = 0.25  # share of a pass's time that their reruns take
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*jobs_mod.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def tail_rank(n: int):
    """Highest whole percentile whose nearest-rank sample has >= 10 samples beyond it."""
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if n - rank >= TAIL_BEYOND:
            return q, rank
    raise ValueError(f"{n} jobs leave no percentile with {TAIL_BEYOND} beyond it")


def run_pass(jobs, tracer=None, mark=time.perf_counter, state=None):
    """One pass over the job list; returns ((begin, end) marks per job, failed labels).

    `state` holds results that later jobs read; a rerun of some jobs takes
    the dict of the pass that made their inputs.
    """
    state = {} if state is None else state
    marks, failed = [], []
    for job in jobs:
        begin = mark()
        try:
            out = tracer.run_job(job.label, job.run, state) if tracer else job.run(state)
        except Exception as exc:  # a raising job is a failed job, not a crash
            marks.append((begin, mark()))
            failed.append(f"{job.label}: raised {exc!r}")
            continue
        marks.append((begin, mark()))
        try:
            verdict = "wrong output" if job.check(out) is not True else None
        except Exception as exc:
            verdict = f"check raised {exc!r}"
        if verdict:
            failed.append(f"{job.label}: {verdict}")
    return marks, failed


def durations(marks):
    return [end - begin for begin, end in marks]


def measure_setup(workload: str, seed: int) -> list[float]:
    samples = []
    for i in range(SETUP_PROBES):
        workdir = OUT / f"probe-{os.getpid()}-{i}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def provenance(args, n_jobs, passes, tail_q) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": n_jobs,
        "passes": passes,
        "warmup_passes": 1,
        "tail_percentile": tail_q,
        "clients": 1,
        "loop": "closed",
    }


def run_workload(args) -> int:
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        jobs = jobs_mod.build(args.workload, args.seed, workdir)
        tail_q, tail_at = tail_rank(len(jobs))
        deadline = time.perf_counter() + args.seconds
        gc.collect()
        gc.disable()
        try:
            warm, failed = run_pass(jobs)  # warm-up: untimed, fills the oracle caches
            failures = list(failed)
            if args.trace:
                metrics, runs, det_ok, spans = traced_passes(jobs, deadline, failures)
                timed_jobs, host = len(jobs) * runs, {}
            else:
                metrics, runs, timed_jobs, host = timed_passes(
                    jobs, deadline, failures, tail_at, warm)
                det_ok, spans = True, None
        finally:
            gc.enable()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(jobs) + timed_jobs
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["verified_ratio"] = ((attempted - len(failures)) / attempted, "ratio")
    prov = provenance(args, len(jobs), runs, tail_q)
    prov.update(host)
    prov["failed_ratio"] = len(failures) / attempted
    if setup:
        prov["setup_samples_s"] = setup

    for line in failures[:20]:
        print(f"FAILED {line}")
    kind = "alternating untraced/traced" if args.trace else "timed"
    print(f"# {args.workload}: {len(jobs)} jobs x {runs} {kind} passes "
          f"(+1 warm-up), seed {args.seed}, job_tail_ms at p{tail_q}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(f"{'failed_ratio':32s} {prov['failed_ratio']:14.6f} ratio "
          f"({len(failures)} of {attempted} jobs)")
    if not det_ok:
        print("FAILED traced passes gave different counts for the same inputs")
    print("provenance " + json.dumps(prov, sort_keys=True))

    correct = not failures and det_ok
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"provenance": prov, "result": result}, indent=1))
    if spans is not None:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0 if correct else 1


def timed_passes(jobs, deadline, failures, tail_at, warm):
    """Timed passes until the deadline, at least MIN_PASSES of them.

    Times are at reference speed (hostspeed.py); each job's time is its
    median over its runs.  Jobs under SHORT_S are rerun after each pass
    for about SHORT_SHARE of its time: a sub-millisecond job's time moves
    by 15-20% from pass to pass even at reference speed, and it needs many
    runs to settle.
    """
    warm = durations(warm)
    short = [i for i, t in enumerate(warm) if t < SHORT_S]
    reruns = round(SHORT_SHARE * sum(warm) / sum(warm[i] for i in short)) if short else 0
    samples = [[] for _ in jobs]
    walls = []
    with HostClock() as clock:
        while len(walls) < MIN_PASSES or time.perf_counter() + statistics.median(walls) < deadline:
            state = {}
            t0 = time.perf_counter()
            for picked in [range(len(jobs))] + [short] * reruns:
                gc.collect()
                marks, failed = run_pass([jobs[i] for i in picked], mark=clock.mark, state=state)
                failures += failed
                for i, mark in zip(picked, marks):
                    samples[i].append(mark)
            walls.append(time.perf_counter() - t0)
    typical = sorted(statistics.median(clock.corrected(*m) for m in runs) for runs in samples)
    metrics = {
        "wall_s": (sum(typical), "s"),
        "job_p50_ms": (statistics.median(typical) * 1000, "ms"),
        "job_tail_ms": (typical[tail_at - 1] * 1000, "ms"),
    }
    host = {"pass_wall_s": walls, "short_jobs": len(short), "short_reruns": reruns,
            "host_slowdown": clock.slowdown()}
    return metrics, len(walls), sum(map(len, samples)), host


def traced_passes(jobs, deadline, failures):
    """Alternate untraced and traced passes, at least two of each.

    Counts come from the first traced pass; the run fails unless every
    traced pass repeats them exactly.
    """
    from tracer import Tracer

    untraced, traced, tracers = [], [], []
    while True:
        gc.collect()
        marks, failed = run_pass(jobs)
        failures += failed
        untraced.append(sum(durations(marks)))
        gc.collect()
        tracer = Tracer()
        tracer.install()
        try:
            marks, failed = run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        failures += failed
        traced.append(sum(durations(marks)))
        tracers.append(tracer)
        pair = statistics.median(untraced) + statistics.median(traced)
        if len(traced) >= 2 and time.perf_counter() + pair > deadline:
            break

    per_pass = [t.metrics() for t in tracers]
    metrics = {}
    deterministic = True
    for name, (value, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit in ("count", "ratio"):
            deterministic &= all(v == value for v in values)
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return metrics, len(untraced) + len(traced), deterministic, tracers[0].tree()


def run_all(args) -> int:
    """Each workload in its own process, so peak_rss_mb stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in jobs_mod.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines() or ["{}"]
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            result = {}
        combined["correct"] &= proc.returncode == 0 and result.get("correct", False)
        combined["attempted"] += result.get("attempted", 0)
        combined["failed"] += result.get("failed", 0)
        for name, metric in result.get("metrics", {}).items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tamelab" / "__init__.py").is_file():
        print(f"error: tamelab sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

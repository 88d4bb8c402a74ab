"""Tests of the benchmark itself: python3 -m pytest perfbench -q

They run a small subset of each workload's jobs (no sl4 classify, no 3^12
enumeration), so they take seconds, not minutes.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import hostspeed  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
from hostspeed import REFERENCE_S, HostClock, reference_loop  # noqa: E402
from tracer import Tracer  # noqa: E402

SUBSET = {
    "identity-cli": ("verify-sl2-p3", "verify-slm-m2k1n1t3-p3", "plan-0", "plan-1",
                     "certify-0", "certify-3", "bound-0", "bound-0-grh", "gs-0",
                     "bracket-0"),
    "congruence-quotient": ("closure-sl2-5^3", "series-sl2-5^3",
                            "depth-filtration-sl2-5^3-P2", "uniformity-sl2-5^3-w1",
                            "search-c7g0-1", "search-c7g3-1", "search-3^9-0"),
    "lie-classify": ("classify-sl2", "classify-abelian2", "classify-quaternion_a2_p3",
                     "ad-semisimple-sl3-0", "ad-semisimple-sl3-1", "ad-semisimple-sl3-2",
                     "inertial-solve-sl3-0", "inertial-solve-sl3-1"),
}


def subset(workload, seed, workdir):
    wanted = SUBSET[workload]
    return [j for j in jobs.build(workload, seed, workdir) if j.label in wanted]


def outputs(job_list):
    state = {}
    return [job.run(state) for job in job_list]


def corrupt(out):
    """A plausible but wrong version of a job's output."""
    if isinstance(out, tuple):  # (exit code, JSON text) from the CLI
        rc, text = out
        return (1 - rc if rc in (0, 1) else 0, text)
    if isinstance(out, bool):
        return not out
    if out is None:  # "no certificate" becomes a bogus one
        return FakeCertificate()
    name = type(out).__name__
    if name == "FiniteQuotientGroup":
        return dataclasses.replace(out, elements=frozenset(sorted(out.elements)[1:]))
    if name == "PCentralChain":
        return dataclasses.replace(out, dims=[d + 1 for d in out.dims])
    if name == "UniformityReport":
        return dataclasses.replace(out, power_map_bijective=[False] * out.window)
    if name == "DictionaryBracket":
        return dataclasses.replace(out, matrix=out.matrix + out.matrix.identity(
            out.matrix.ring, out.matrix.m))
    if name == "GroupInertialCertificate":
        return dataclasses.replace(out, k=out.k + 1)
    if name == "ClassifyReport":
        return dataclasses.replace(out, pluperfect="inconclusive"
                                   if out.pluperfect != "inconclusive" else "certified-no")
    if name == "InertialLieCertificate":
        return dataclasses.replace(out, lam=2 * out.lam)
    raise TypeError(f"no corruption for {name}")


class FakeCertificate:
    pass


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_correct_outputs_pass_and_corrupted_ones_count_as_failed(workload, tmp_path):
    job_list = subset(workload, 1, tmp_path)
    assert len(job_list) == len(SUBSET[workload])
    marks, failed = run.run_pass(job_list)
    assert failed == [] and len(marks) == len(job_list)

    for job, out in zip(job_list, outputs(job_list)):
        bad = corrupt(out)
        fake = jobs.Job(job.label, lambda state, bad=bad: bad, job.check)
        _, failed = run.run_pass([fake])
        assert failed == [f"{job.label}: wrong output"] or failed[0].startswith(
            f"{job.label}: check raised"), (job.label, failed)


def test_raising_job_counts_as_failed():
    def boom(state):
        raise ValueError("boom")

    _, failed = run.run_pass([jobs.Job("boom", boom, lambda out: True)])
    assert len(failed) == 1 and failed[0].startswith("boom: raised")


def traced_counts(workload, seed, workdir):
    job_list = subset(workload, seed, workdir)
    tracer = Tracer()
    tracer.install()
    try:
        _, failed = run.run_pass(job_list, tracer)
    finally:
        tracer.uninstall()
    assert failed == []
    return {k: v for k, (v, unit) in tracer.metrics().items() if unit in ("count", "ratio")}


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_counts_repeat_exactly_for_the_same_seed(workload, tmp_path):
    first = traced_counts(workload, 3, tmp_path / "a")
    second = traced_counts(workload, 3, tmp_path / "b")
    assert first == second
    assert any(v > 0 for v in first.values())


def test_tracer_uninstall_restores_the_library():
    from tamelab import liealg, padic

    before = (padic.PadicScalar.__mul__, liealg.classify, liealg.solve)
    tracer = Tracer()
    tracer.install()
    assert padic.PadicScalar.__mul__ is not before[0]
    tracer.uninstall()
    assert (padic.PadicScalar.__mul__, liealg.classify, liealg.solve) == before


def test_workload_split_shows_in_counts(tmp_path):
    identity = traced_counts("identity-cli", 1, tmp_path / "i")
    lie = traced_counts("lie-classify", 1, tmp_path / "l")
    assert identity["pcentral.group_mul.calls"] == 0 and identity["padic.scalar_mul.calls"] > 0
    assert lie["padic.scalar_mul.calls"] == 0 and lie["liealg.solve.calls"] > 0


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_one_seed_drives_every_input(workload, tmp_path):
    one = jobs.build(workload, 1, tmp_path / "a")
    two = jobs.build(workload, 2, tmp_path / "b")
    assert [j.label for j in one] == [j.label for j in two]
    again = jobs.build(workload, 1, tmp_path / "a")
    assert describe(one) == describe(again) and describe(one) != describe(two)
    _, failed = run.run_pass(subset(workload, 2, tmp_path / "d"))
    assert failed == []


def describe(job_list):
    """The inputs baked into each job's run closure, as text."""
    out = []
    for job in job_list:
        cells = job.run.__closure__ or ()
        defaults = job.run.__defaults__ or ()
        out.append(repr([c.cell_contents for c in cells if not callable(c.cell_contents)]
                        + [d for d in defaults if not callable(d)]))
    return out


def test_host_clock_reports_reference_speed():
    # 200 reference loops take 200 * REFERENCE_S at reference speed, whatever
    # the host's speed; the interrupts' own loops are not counted
    with HostClock() as clock:
        begin = clock.mark()
        for _ in range(200):
            reference_loop()
        end = clock.mark()
        time.sleep(2 * hostspeed.PERIOD_S)
    assert clock.stolen > 0
    assert 0.7 < clock.corrected(begin, end) / (200 * REFERENCE_S) < 1.4


def test_tail_percentile_keeps_ten_jobs_beyond():
    for n, q in ((107, 90), (161, 93), (176, 94)):
        got_q, rank = run.tail_rank(n)
        assert got_q == q and n - rank >= 10
        assert n - math.ceil((q + 1) * n / 100) < 10


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({}))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identity-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""

"""Tests of the benchmark's own code.

    python3 -m pytest perfbench

They check that a seed fixes the job list and inputs, that the known
answers hold on a small sample of jobs, that span self times add up to
each job's wall time, that tracing leaves job stdout unchanged, and that
the driver prints the result lines BENCHMARK.json describes.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import answers  # noqa: E402
import shapes as sh  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from opetopes import cli, oalg, opetope, opset, theory  # noqa: E402

SMALL_SEED = 3


def sample(J: workloads.Jobs) -> list[dict]:
    """The cheapest job of every kind: by argv length plus input file size."""
    best: dict[str, dict] = {}

    def cost(job):
        return sum(len(a) + len(J.files.get(a, "")) for a in job["argv"])

    for job in J.jobs:
        tag = job["id"].split("-", 2)[2]
        if tag not in best or cost(job) < cost(best[tag]):
            best[tag] = job
    return list(best.values())


def run_in(tmp_path, J: workloads.Jobs, jobs: list[dict], main=cli.main) -> list[dict]:
    for name, text in J.files.items():
        (tmp_path / name).write_text(text)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return worker.run_jobs(main, jobs)
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_jobs_and_inputs(name):
    a, b = workloads.build(name, 11), workloads.build(name, 11)
    assert a.jobs == b.jobs and a.files == b.files
    c = workloads.build(name, 12)
    assert (c.jobs, c.files) != (a.jobs, a.files)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_has_enough_jobs_and_a_robustness_share(name):
    J = workloads.build(name, SMALL_SEED)
    assert len(J.jobs) >= 100
    robust = [j for j in J.jobs if j["robust"]]
    assert robust and len(robust) <= 0.05 * len(J.jobs)
    assert all(j["expect"]["code"] == 2 for j in robust)
    assert not any("--seed" in j["argv"] for j in J.jobs)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_known_answers_hold_on_a_small_seed(name, tmp_path):
    J = workloads.build(name, SMALL_SEED)
    jobs = [j for j in sample(J) if not j["robust"]]
    for job, res in zip(jobs, run_in(tmp_path, J, jobs)):
        assert answers.check_job(job["expect"], res) is None, job["id"]


def test_checks_catch_a_wrong_answer():
    J = workloads.build("shapes", SMALL_SEED)
    target = next(j for j in J.jobs if j["id"].endswith("-target") and j["expect"]["check"] == "exact")
    wrong = {"code": 0, "raised": None, "out": "I999\n", "err": ""}
    assert answers.check_job(target["expect"], wrong)
    crashed = {"code": None, "raised": "IndexError: x", "out": "", "err": ""}
    assert answers.check_job(target["expect"], crashed).startswith("raised")


@pytest.mark.parametrize("dim,bound", [(3, 7), (4, 6)])
def test_shape_counts_match_the_grammar(dim, bound):
    assert sh.count_shapes(dim, bound) == len(opetope.enumerate_opetopes(dim, bound))


def test_read_shape_is_order_blind():
    t = {"[]": 2, "[[*]]": 1, "[[]]": 3}
    assert answers.read_shape(sh.render3(t)) == answers.canon(t)
    assert answers.read_shape("{[[]] <- I3 [] <- I2 [[*]] <- I1}") == answers.canon(t)


def test_self_times_add_up_and_stdout_is_unchanged(tmp_path):
    J = workloads.build("checks", SMALL_SEED)
    jobs = sample(J)
    plain = run_in(tmp_path, J, jobs)
    tracer = tracing.Tracer()
    tracer.install({"cli": cli, "opetope": opetope, "opset": opset, "oalg": oalg, "theory": theory})
    try:
        traced = run_in(tmp_path, J, jobs, tracer.wrappers["cli.main"])
    finally:
        tracer.uninstall()
    assert cli.main is tracer.wrappers["cli.main"].__wrapped__
    assert [r["out"] for r in traced] == [r["out"] for r in plain]
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[1] == -1]
    assert len(roots) == len(jobs)
    # every span belongs to the job whose root precedes it
    owner, total = {}, {}
    for i, s in enumerate(spans):
        owner[i] = i if s[1] == -1 else owner[s[1]]
        total[owner[i]] = total.get(owner[i], 0.0) + selfs[i]
    for root, res in zip(roots, traced):
        dur = spans[root][3] - spans[root][2]
        assert total[root] == pytest.approx(dur, abs=1e-9)
        assert 0 <= res["t"] - dur < 0.002 + 0.1 * res["t"]
    assert all(own >= -1e-9 for own in selfs)
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.main.calls"] == len(jobs)
    assert metrics["theory.parse_theory.calls"] == 0


def test_each_job_starts_with_a_settled_collector():
    counts = []

    def main(argv):
        counts.append(gc.get_count())
        garbage = [[i] for i in range(5000)]  # enough to trigger collections
        return len(garbage) and 0

    results = worker.run_jobs(main, [{"id": str(i), "argv": []} for i in range(3)])
    assert [c[1:] for c in counts] == [(0, 0)] * 3  # no collection since settling
    assert all(r["ref"] > 0 and r["code"] == 0 for r in results)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_prints_the_benchmark_metrics(trace, kind):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "theory", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 100
    assert set(result["metrics"]) == {m["name"] for m in spec()[kind]}
    if trace:
        assert "holds" in proc.stdout and "byte-identical to untraced: yes" in proc.stdout
    else:
        assert "failed_ratio:" in proc.stdout
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_work"))


def test_driver_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shapes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

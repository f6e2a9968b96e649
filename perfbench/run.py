"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload shapes --seed 1 --seconds 40 --trace 0

The driver builds the workload's job list and input files from the seed,
writes them under .perfbench_work/ in the repository, and runs passes:
each pass is a fresh worker interpreter (perfbench/worker.py) that
imports `opetopes.cli` and issues every job back to back.  Passes repeat
while the next one is expected to end within --seconds; each starts
with cold module caches.  Every job's exit code and stdout are checked
against the answer the generator derived, and every pass must print
byte-identical stdout for each job.

Job times are read in reference units: the worker times a fixed piece
of Python work (worker.reference) just before every job, and a job's
cost is its time over that reference time.  So a stretch in which the
shared machine runs slow for everything cancels out.

With --trace 0 the metrics are the end-to-end ones; with --trace 1,
untraced and traced passes alternate and the metrics are the per-layer
ones read from the traced passes' spans.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.  See
perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import answers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7  # set-up is timed at least this often per run
RUN_LIMIT = 170.0  # seconds after which a run gives up on a pass
UNITS = {
    "setup_s": "s", "jobs_per_kref": "jobs/kref", "job_p50_ref": "ref", "job_p90_ref": "ref",
    "peak_rss_mb": "MB",
}


class Worker:
    """A worker interpreter; set-up is timed from spawn to `ready`."""

    def __init__(self, run_dir: str, out_file: str, trace: bool):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), ROOT, run_dir, out_file, "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            self.close()
            raise RuntimeError("worker did not start; is opetopes importable from src/?")
        self.out_file = out_file

    def run(self, timeout: float) -> dict:
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()
        try:
            self.proc.wait(timeout=timeout)
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        with open(self.out_file, encoding="utf-8") as handle:
            return json.load(handle)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


def write_inputs(run_dir: str, J: workloads.Jobs) -> None:
    inputs = os.path.join(run_dir, "inputs")
    os.makedirs(inputs)
    for name, text in J.files.items():
        with open(os.path.join(inputs, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    with open(os.path.join(run_dir, "jobs.json"), "w", encoding="utf-8") as handle:
        json.dump([{"id": j["id"], "argv": j["argv"]} for j in J.jobs], handle)


def percentile(xs: list[float], q: float) -> float:
    """The q-quantile by nearest rank."""
    return sorted(xs)[math.ceil(q * len(xs)) - 1]


def run_passes(run_dir: str, seconds: float, trace: bool) -> tuple[list[dict], list[dict], list[float]]:
    """Untraced (and, with trace, alternating traced) passes while the
    next one is expected to end within the time, then extra set-ups until
    SETUP_SAMPLES were timed.  A pass is expected to last as long as the
    longest of its kind so far, so a run ends near --seconds, not a pass
    after it."""
    plain, traced, setups = [], [], []
    longest = {False: 0.0, True: 0.0}
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while True:
        as_traced = trace and len(traced) < len(plain)
        must = not plain or (as_traced and not traced)
        if not must and time.perf_counter() + longest[as_traced] > deadline:
            break
        t0 = time.perf_counter()
        w = Worker(run_dir, os.path.join(run_dir, f"result{k}.json"), as_traced)
        k += 1
        if not as_traced:
            setups.append(w.setup_s)
        (traced if as_traced else plain).append(w.run(RUN_LIMIT - (time.perf_counter() - start)))
        longest[as_traced] = max(longest[as_traced], time.perf_counter() - t0)
    while len(setups) < SETUP_SAMPLES:
        w = Worker(run_dir, os.path.join(run_dir, "unused.json"), False)
        w.close()
        setups.append(w.setup_s)
    return plain, traced, setups


def check_passes(J: workloads.Jobs, passes: list[dict]) -> tuple[int, int, dict[str, str], list[str]]:
    """Attempted and failed job runs, the reason per failed job id, and the
    ids whose stdout differed between passes."""
    attempted = failed = 0
    reasons: dict[str, str] = {}
    digests: dict[str, set] = {}
    for p in passes:
        for job, res in zip(J.jobs, p["results"]):
            attempted += 1
            reason = answers.check_job(job["expect"], res)
            if reason:
                failed += 1
                reasons[job["id"]] = reason
            digests.setdefault(job["id"], set()).add(hashlib.sha256(res["out"].encode()).hexdigest())
    unstable = [jid for jid, d in digests.items() if len(d) > 1]
    return attempted, failed, reasons, unstable


def end_to_end(plain: list[dict], setups: list[float]) -> dict[str, float]:
    """Every pass runs the same cold job list; a job's cost is its median
    over the run's passes, and the job list's cost is the sum of those."""
    cost = job_medians(plain, cost_in_refs)
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_kref": 1000 * len(cost) / sum(cost),
        "job_p50_ref": percentile(cost, 0.5),
        "job_p90_ref": percentile(cost, 0.9),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
    }


def wall_times(plain: list[dict]) -> dict[str, float]:
    """The same figures in plain wall time, printed for reading along;
    they move with the machine's speed at the time of the run."""
    times = job_medians(plain, lambda r: r["t"])
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_p50_ms": 1000 * percentile(times, 0.5),
        "job_p90_ms": 1000 * percentile(times, 0.9),
        "reference_ms": 1000 * statistics.median(r["ref"] for p in plain for r in p["results"]),
    }


def cost_in_refs(result: dict) -> float:
    """A job's time over the reference time taken just before it.  The
    machine's speed drifts between and within passes; the reference,
    timed next to every job, drifts with it."""
    return result["t"] / result["ref"]


def job_medians(passes: list[dict], value) -> list[float]:
    """Each job's median over the passes of `value` of its result."""
    cols = ([value(r) for r in p["results"]] for p in passes)
    return [statistics.median(col) for col in zip(*cols)]


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    rows = [tracing.layer_metrics(p["spans"]) for p in traced]
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    # traced and untraced passes alternate, so plain wall times compare
    wall = [sum(job_medians(ps, lambda r: r["t"])) for ps in (traced, plain)]
    out["trace.overhead_ratio"] = wall[0] / wall[1]
    return out


def per_layer_units(name: str) -> str:
    if name.endswith(".self_s") or ".self_s." in name:
        return "s"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def design_check(workload: str, layers: dict[str, float], metrics: dict[str, float]) -> str:
    """Whether the layers a workload was built to stress have the largest
    self time, and whether the others stay out of the theory workload."""
    mine = workloads.DESIGN[workload]
    own = sum(layers[m] for m in mine)
    rivals = {m: v for m, v in layers.items() if m not in mine}
    holds = all(own > v for v in rivals.values())
    note = ""
    if workload == "theory":
        calls = sum(metrics[f"{n}.calls"] for n in tracing.NAMES if n.split(".")[0] in ("opetope", "opset", "oalg"))
        holds = holds and calls == 0
        note = f", {calls} calls into opetope, opset and oalg"
    top = max(rivals, key=rivals.get)
    return (f"design: {'+'.join(mine)} self time {own:.4f} s, next {top} {rivals[top]:.4f} s{note}: "
            f"{'holds' if holds else 'DOES NOT HOLD'}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "opetopes", "cli.py")):
        print(f"error: no program to measure: {os.path.join(ROOT, 'src', 'opetopes')} is missing", file=sys.stderr)
        return 2
    J = workloads.build(args.workload, args.seed)
    work = os.path.join(ROOT, ".perfbench_work")
    run_dir = os.path.join(work, f"{args.workload}-{args.seed}-{os.getpid()}")
    write_inputs(run_dir, J)
    try:
        plain, traced, setups = run_passes(run_dir, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if os.path.isdir(work) and not os.listdir(work):
            os.rmdir(work)

    attempted, failed, reasons, unstable = check_passes(J, plain + traced)
    main_failed = [j["id"] for j in J.jobs if j["id"] in reasons and not j["robust"]]
    correct = not main_failed and not unstable

    print(f"workload {args.workload} seed {args.seed}: {len(J.jobs)} jobs per pass, "
          f"{len(plain)} untraced and {len(traced)} traced passes, {len(setups)} set-ups")
    if args.trace:
        metrics = per_layer(plain, traced)
        units = {k: per_layer_units(k) for k in metrics}
        layers = tracing.layer_self_times(metrics)
        print("self time by layer: " + ", ".join(f"{k} {v:.4f} s" for k, v in layers.items()))
        print(design_check(args.workload, layers, metrics))
        print(f"traced stdout byte-identical to untraced: {'no' if unstable else 'yes'}")
    else:
        metrics = end_to_end(plain, setups)
        units = dict(UNITS)
        for name, value in metrics.items():
            print(f"{name}: {value:.6g} {units[name]}")
        wall = wall_times(plain)
        print("wall time: " + ", ".join(
            f"{k} {v:.6g}" for k, v in wall.items()) + " (1 ref = reference_ms)")
        print(f"failed_ratio: {failed / attempted:.6g} ratio ({failed} of {attempted} job runs)")
    for jid, reason in sorted(reasons.items()):
        print(f"failed job {jid}: {reason}")
    for jid in unstable:
        print(f"unstable stdout {jid}: passes printed different output")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Split the benchmark's job cost into job time and reference time.

    python3 tools/ref_split.py SRC_A SRC_B [--workload W] [--seed S] [--pairs N]

SRC_A and SRC_B are checkouts of this repository (each has `src/opetopes`).
The benchmark reads a job's cost as its wall time over the time of
`perfbench/worker.reference()`, taken just before the job and before the
collector settles.  So a change can move the cost without moving the job:
garbage one job leaves behind is collected inside the next job's
reference.  This script shows which of the two moved.

The job list is built from `perfbench/workloads.py` of the checkout this
script lives in, which is only read (default: `checks` at seed 11).  Each
of N pairs (default 10) runs the whole list once against each tree, each
side in a fresh interpreter through `perfbench/worker.py`'s `run_jobs`
with that tree's `cli.main`; the side that goes first alternates from
pair to pair.  After the jobs, the same interpreter takes as many
`settle(); reference()` samples as there are jobs.

Prints four figures, each per side as the median over the pairs, then
the median over the pairs of B/A and the number of pairs in which B is
lower:

- wall: the summed job wall time, in seconds;
- ref-before: the median reference as the worker takes it, in µs;
- ref-after: the median reference taken after a settle, in µs;
- cost: the summed job cost in reference units, as the benchmark sums it.

Before building any job, exits 2 with `error: PATH has no src/opetopes`
if either tree lacks `src/opetopes/__init__.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")


def worker(src: str) -> int:
    """Read jobs ({id, argv}) from stdin, run them through `run_jobs` with
    `cli.main` of the tree at src, take one settled reference per job, and
    write both to stdout."""
    sys.path.insert(0, os.path.join(os.path.abspath(src), "src"))
    sys.path.insert(0, PERFBENCH)
    from opetopes import cli
    from worker import reference, run_jobs, settle

    jobs = json.load(sys.stdin)
    results = run_jobs(cli.main, jobs)
    after = []
    for _ in jobs:
        settle()
        r0 = time.perf_counter()
        reference()
        after.append(time.perf_counter() - r0)
    json.dump({"results": results, "after": after}, sys.stdout)
    return 0


def run_side(src: str, inputs: str, jobs: list[dict]) -> dict[str, float]:
    """One fresh-interpreter pass of the jobs against the tree at src, as
    the four figures."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", os.path.abspath(src)],
        input=json.dumps(jobs),
        capture_output=True,
        text=True,
        cwd=inputs,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {src} failed:\n{proc.stderr}")
    got = json.loads(proc.stdout)
    results = got["results"]
    return {
        "wall": sum(r["t"] for r in results),
        "ref-before": 1e6 * statistics.median(r["ref"] for r in results),
        "ref-after": 1e6 * statistics.median(got["after"]),
        "cost": sum(r["t"] / r["ref"] for r in results),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="ref_split.py")
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--workload", default="checks")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    for src in (args.src_a, args.src_b):
        if not os.path.isfile(os.path.join(src, "src", "opetopes", "__init__.py")):
            print(f"error: {src} has no src/opetopes", file=sys.stderr)
            return 2
    sys.path.insert(0, PERFBENCH)
    import workloads

    J = workloads.build(args.workload, args.seed)
    jobs = [{"id": j["id"], "argv": j["argv"]} for j in J.jobs]
    pairs = []
    with tempfile.TemporaryDirectory() as inputs:
        for fname, text in J.files.items():
            with open(os.path.join(inputs, fname), "w", encoding="utf-8") as handle:
                handle.write(text)
        for i in range(args.pairs):
            if i % 2 == 0:
                a = run_side(args.src_a, inputs, jobs)
                b = run_side(args.src_b, inputs, jobs)
            else:
                b = run_side(args.src_b, inputs, jobs)
                a = run_side(args.src_a, inputs, jobs)
            pairs.append((a, b))
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs, {args.pairs} pairs")
    print(f"{'figure':<12}{'A':>12}{'B':>12}{'B/A':>9}  B lower")
    for key in ("wall", "ref-before", "ref-after", "cost"):
        a = statistics.median(p[0][key] for p in pairs)
        b = statistics.median(p[1][key] for p in pairs)
        ratio = statistics.median(p[1][key] / p[0][key] for p in pairs)
        wins = sum(p[1][key] < p[0][key] for p in pairs)
        print(f"{key:<12}{a:>12.4g}{b:>12.4g}{ratio:>9.3f}  {wins}/{len(pairs)}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        sys.exit(worker(sys.argv[2]))
    sys.exit(main(sys.argv[1:]))

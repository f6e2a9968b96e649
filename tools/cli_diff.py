"""Run the benchmark's CLI jobs against two source trees and diff the results.

    python3 tools/cli_diff.py SRC_A SRC_B

SRC_A and SRC_B are checkouts of this repository (each has `src/opetopes`).
The job lists are built from `perfbench/workloads.py` of the checkout this
script lives in, which is only read, at seeds 11 and 12.  Every job of
every workload runs in text, json and dot, appended as `--format F`, once
against each tree: each tree runs its jobs in its own subprocess, one per
workload and seed, through `perfbench/worker.py`'s `run_jobs`, as
in-process `opetopes.cli.main` calls inside the job's input directory.

Prints every job whose stdout, stderr or exit code differs between the two
trees, then a summary line.  Exits 1 if any job differs, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
FORMATS = ("text", "json", "dot")
SEEDS = (11, 12)
COMPARED = ("code", "raised", "out", "err")


def worker(src: str) -> int:
    """Read jobs ({id, argv}) from stdin, run them through `run_jobs` with
    `cli.main` of the tree at src, and write the results to stdout."""
    sys.path.insert(0, os.path.join(os.path.abspath(src), "src"))
    sys.path.insert(0, PERFBENCH)
    from opetopes import cli
    from worker import run_jobs

    json.dump(run_jobs(cli.main, json.load(sys.stdin)), sys.stdout)
    return 0


def run_tree(src: str, inputs: str, jobs: list[dict]) -> list[dict]:
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
    return json.loads(proc.stdout)


def differences(a: dict, b: dict) -> list[str]:
    return [key for key in COMPARED if a[key] != b[key]]


def main(src_a: str, src_b: str) -> int:
    sys.path.insert(0, PERFBENCH)
    import workloads

    runs = differing = 0
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            J = workloads.build(name, seed)
            jobs = [
                {
                    "id": f"{j['id']} seed {seed} --format {f}",
                    "argv": j["argv"] + ["--format", f],
                }
                for j in J.jobs
                for f in FORMATS
            ]
            with tempfile.TemporaryDirectory() as inputs:
                for fname, text in J.files.items():
                    with open(os.path.join(inputs, fname), "w", encoding="utf-8") as handle:
                        handle.write(text)
                got_a = run_tree(src_a, inputs, jobs)
                got_b = run_tree(src_b, inputs, jobs)
            for job, a, b in zip(jobs, got_a, got_b):
                runs += 1
                keys = differences(a, b)
                if keys:
                    differing += 1
                    print(f"{job['id']}: {', '.join(keys)} differ")
    print(f"{runs} runs, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        sys.exit(worker(sys.argv[2]))
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))

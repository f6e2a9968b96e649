"""One benchmark pass: a fresh interpreter runs a job list back to back.

Usage: python3 worker.py REPO_ROOT RUN_DIR OUT_FILE TRACE

The worker imports `opetopes.cli` from REPO_ROOT/src, prints `ready`,
and waits for one line on stdin: `go` runs the jobs in RUN_DIR/jobs.json
from RUN_DIR/inputs, `exit` (or end of input) ends it at once, which is
how set-up alone is timed.  Each job is one in-process `cli.main(argv)`
call with stdout and stderr captured; one client, closed loop.  Before
each job, untimed for the job, the worker times `reference()` and
settles the garbage collector.  Results go to OUT_FILE as JSON; with TRACE
set to 1 the spans go with them.
"""

import gc
import sys
import time


def reference() -> int:
    """A fixed piece of pure-Python work of the program's kind (tuples,
    dicts, strings, a keyed sort, small recursive calls).  Timed before
    every job, it measures how fast the machine runs Python code at that
    moment; the program under test never runs in it."""

    def depth(t):
        return 1 + max(map(depth, t[1]), default=0)

    table = {}
    for i in range(300):
        table[(i % 17, i)] = (str(i), [i, i * i % 13])
    keys = sorted(table, key=lambda k: (k[0], -k[1]))
    text = ",".join(table[k][0] for k in keys[:100])
    tree = (0, [(1, [(2, []), (3, [(4, [])])]) for _ in range(20)])
    return len(text) + depth(tree)


def settle() -> None:
    """Collect garbage and freeze what survives (imports, the module
    caches, earlier results), untimed between jobs.  Each job then starts
    with empty collector counts, and its collections scan only what it
    allocated itself, as in a fresh CLI process, rather than paying at
    random for the heap the jobs before it left."""
    gc.collect()
    gc.freeze()


def run_jobs(main, jobs: list[dict]) -> list[dict]:
    import contextlib
    import io

    results = []
    for job in jobs:
        r0 = time.perf_counter()
        reference()
        ref = time.perf_counter() - r0
        out, err = io.StringIO(), io.StringIO()
        code, raised = None, None
        settle()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(job["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a job that raises out of cli.main fails
            raised = f"{type(exc).__name__}: {str(exc)[:200]}"
        t1 = time.perf_counter()
        results.append(
            {"id": job["id"], "code": code, "raised": raised, "out": out.getvalue(),
             "err": err.getvalue(), "t": t1 - t0, "ref": ref}
        )
    return results


def main() -> int:
    root, run_dir, out_file, trace = sys.argv[1:5]
    sys.path.insert(0, root + "/src")
    from opetopes import cli

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if sys.stdin.readline().strip() != "go":
        return 0

    import json
    import os
    import resource

    with open(os.path.join(run_dir, "jobs.json"), encoding="utf-8") as handle:
        jobs = json.load(handle)
    entry = cli.main
    tracer = None
    if trace == "1":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from opetopes import oalg, opetope, opset, theory
        from tracing import Tracer

        tracer = Tracer()
        tracer.install({"cli": cli, "opetope": opetope, "opset": opset, "oalg": oalg, "theory": theory})
        entry = tracer.wrappers["cli.main"]
    os.chdir(os.path.join(run_dir, "inputs"))
    results = run_jobs(entry, jobs)
    payload = {
        "results": results,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans if tracer else None,
    }
    with open(out_file, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    sys.stdout.write("done\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

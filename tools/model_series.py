"""Time the model checker on chain models: the model scaling series.

    python3 tools/model_series.py [--src TREE] [--repeat R] [N ...]

For each N (default 6 10 14 20) the N-object chain 0 < 1 < ... < N-1
times Z/2 is written as a model of the theory of categories, as the
benchmark's `theory` workload writes it (`TCAT`, `poset` and
`model_text` of `perfbench/workloads.py`, which is only read).  One
command is timed on it:

    theory check-model --theory tcat.th --model chain.mod

Each run is a fresh interpreter that imports `opetopes.cli` from
TREE/src (default: the checkout this script lives in) and times one
in-process `cli.main` call, its output captured, so module caches start
cold.  Prints one row, the best of R runs (default 3) for each N in ms,
and exits 0.  A run that ends in an error, or in a failed check, stops
the script with its message and exit 1.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import TCAT, model_text, poset  # noqa: E402

SIZES = (6, 10, 14, 20)
COMMAND = ["theory", "check-model", "--theory", "tcat.th", "--model", "chain.mod"]
# run in the input directory by a fresh interpreter: argv[1] is the tree,
# argv[2:] the command line; prints the call's wall time in ms, or exits
# with the command's output when the check does not pass
TIMER = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
from opetopes import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    start = time.perf_counter()
    code = cli.main(sys.argv[2:])
    ms = (time.perf_counter() - start) * 1000
if code != 0:
    sys.exit((err.getvalue() or out.getvalue()).strip())
print(f"{ms:.1f}")
"""


def write_model(n: int, directory: str) -> None:
    """The theory of categories and the n-object chain times Z/2 as its
    model, in directory."""
    C = poset(n, {(j, j + 1) for j in range(n - 1)}, copies=2)
    for name, text in (("tcat.th", TCAT), ("chain.mod", model_text(C))):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def time_once(src: str, directory: str) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", TIMER, os.path.abspath(src), *COMMAND],
        capture_output=True, text=True, cwd=directory, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(COMMAND)}: {proc.stderr.strip()}")
    return float(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Time the model checker on chain models.")
    parser.add_argument("sizes", nargs="*", type=int, default=list(SIZES), metavar="N")
    parser.add_argument("--src", default=ROOT, help="checkout whose src/opetopes is timed")
    parser.add_argument("--repeat", type=int, default=3, help="runs per point; the best is kept")
    args = parser.parse_args(argv)
    best: dict[int, float] = {}
    for n in args.sizes:
        with tempfile.TemporaryDirectory() as directory:
            write_model(n, directory)
            best[n] = min(time_once(args.src, directory) for _ in range(args.repeat))
    print(f"{'objects':<12}" + "".join(f"{n:>9}" for n in args.sizes))
    print(f"{'check-model':<12}" + "".join(f"{best[n]:>9.1f}" for n in args.sizes))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

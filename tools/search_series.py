"""Time the map search on chains: the chain scaling series.

    python3 tools/search_series.py [--src TREE] [--repeat R] [N ...]

For each N (default 4 6 8 10) the N-object chain 0 < 1 < ... < N-1 is
written as a category file and as the nerve file of the benchmark's
`checks` workload (window [0, 2], chains up to length 3; `perfbench/
workloads.py`, which is only read).  Four commands are timed on it:

    oalg nerve-check --file CAT --max-nodes 3
    opset hlift --file NERVE --n 0 --max-nodes 3
    opset orthogonal --expr I3 --file NERVE
    oalg laws --file CAT --max-nodes 8

Each run is a fresh interpreter that imports `opetopes.cli` from
TREE/src (default: the checkout this script lives in) and times one
in-process `cli.main` call, its output captured, so module caches start
cold.  Prints one row per command, the best of R runs (default 3) for
each N in ms, and exits 0.  A run that ends in an error stops the
script with its message and exit 1.
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
from workloads import NERVE_M, nerve2, poset  # noqa: E402

SIZES = (4, 6, 8, 10)
COMMANDS = {
    "nerve-check": ["oalg", "nerve-check", "--file", "chain.cat", "--max-nodes", "3"],
    "hlift": ["opset", "hlift", "--file", "chain.opset", "--n", "0", "--max-nodes", "3"],
    "orthogonal": ["opset", "orthogonal", "--expr", "I3", "--file", "chain.opset"],
    "laws": ["oalg", "laws", "--file", "chain.cat", "--max-nodes", "8"],
}
# run in the input directory by a fresh interpreter: argv[1] is the tree,
# argv[2:] the command line; prints the call's wall time in ms, or exits
# with the command's error message
TIMER = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1] + "/src")
from opetopes import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    start = time.perf_counter()
    code = cli.main(sys.argv[2:])
    ms = (time.perf_counter() - start) * 1000
if code not in (0, 1):
    sys.exit(err.getvalue().strip())
print(f"{ms:.1f}")
"""


def write_chain(n: int, directory: str) -> None:
    """The n-object chain's category file and nerve file, in directory."""
    C = poset(n, {(j, j + 1) for j in range(n - 1)})
    for name, text in (("chain.cat", C.text()), ("chain.opset", nerve2(C, NERVE_M))):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def time_once(src: str, argv: list[str], directory: str) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", TIMER, os.path.abspath(src), *argv],
        capture_output=True, text=True, cwd=directory, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)}: {proc.stderr.strip()}")
    return float(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Time the map search on chains.")
    parser.add_argument("sizes", nargs="*", type=int, default=list(SIZES), metavar="N")
    parser.add_argument("--src", default=ROOT, help="checkout whose src/opetopes is timed")
    parser.add_argument("--repeat", type=int, default=3, help="runs per point; the best is kept")
    args = parser.parse_args(argv)
    best: dict[tuple[str, int], float] = {}
    for n in args.sizes:
        with tempfile.TemporaryDirectory() as directory:
            write_chain(n, directory)
            for name, command in COMMANDS.items():
                runs = [time_once(args.src, command, directory) for _ in range(args.repeat)]
                best[name, n] = min(runs)
    print(f"{'objects':<12}" + "".join(f"{n:>9}" for n in args.sizes))
    for name in COMMANDS:
        print(f"{name:<12}" + "".join(f"{best[name, n]:>9.1f}" for n in args.sizes))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

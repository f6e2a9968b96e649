"""The CLI's parser: its usage surface, pinned against
tests/golden/cli-help.txt, and its one build per process.

For each case the golden holds the exit code, stdout and stderr of one
argv: `-h` at the top level, on each group and on each command; each
group with no command; and `--bogus` on each command.  argparse wraps
help to the terminal width, so every case runs with COLUMNS=80.  A case
starts with a `$ opetopes ARGV` line, which `tools/cli_diff.py` reads
back to run the same argvs.

After an intended change to the usage surface, regenerate the golden:

    PYTHONPATH=src python3 tests/test_cli_help.py > tests/golden/cli-help.txt
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

from opetopes import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli-help.txt"

COMMANDS = {
    "opetope": ("validate", "target", "source", "faces", "enumerate", "hom", "identities"),
    "opset": ("spine", "boundary", "orthogonal", "hlift"),
    "oalg": ("free", "laws", "h", "nerve", "nerve-check"),
    "theory": ("parse", "lfd", "roundtrip", "check-model", "context"),
}

ARGVS = (
    [["-h"]]
    + [[group, "-h"] for group in COMMANDS]
    + [[group, cmd, "-h"] for group, cmds in COMMANDS.items() for cmd in cmds]
    + [[group] for group in COMMANDS]
    + [[group, cmd, "--bogus"] for group, cmds in COMMANDS.items() for cmd in cmds]
)


def call(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process `cli.main(argv)` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def render(argvs) -> str:
    cases = []
    for argv in argvs:
        code, out, err = call(argv)
        head = shlex.join(["opetopes", *argv])
        cases.append(f"$ {head}\nexit {code}\n--- stdout\n{out}--- stderr\n{err}\n")
    return "".join(cases)


def test_usage_surface_matches_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert render(ARGVS) == GOLDEN.read_text(encoding="utf-8")


XI = "{ [] <- I3  [[*]] <- I2  [[**]] <- I1 }"


def test_parser_is_built_once(monkeypatch):
    assert call(["opetope", "target", "--expr", "I2"])[0] == 0

    def refuse(self, *args, **kwargs):
        raise AssertionError("a second argparse.ArgumentParser was built")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert call(["opetope", "target", "--expr", XI])[0] == 0
    assert call(["opset", "spine", "--expr", "I2", "--window", "0-2"])[0] == 2
    assert call(["theory", "check-model", "-h"])[0] == 0
    assert cli._build_parser.cache_info().misses == 1


MIXED = (
    ["opetope", "hom", "--expr", "I1", "--expr", XI],
    ["opset", "spine", "--expr", "I2", "--window", "0:1"],
    ["opset", "spine", "--expr", "I2", "--window", "0-2"],
    ["opset", "spine", "-h"],
    ["opetope", "target", "--expr", XI],
)


def test_no_state_leaks_through_the_cached_parser(monkeypatch):
    # each call, made twice over in one process, prints what the same argv
    # prints as the first call of a fresh process
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "opetopes.cli", *argv],
            capture_output=True, text=True, env=env,
        )
        for argv in MIXED
    ]
    for _ in range(2):
        for argv, proc in zip(MIXED, fresh):
            assert call(argv) == (proc.returncode, proc.stdout, proc.stderr)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    print(render(ARGVS), end="")

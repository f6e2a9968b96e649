"""The repository's tools, run as scripts."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_cli_diff_refuses_a_tree_without_the_package(tmp_path):
    missing = [str(tmp_path / "a"), str(tmp_path / "b")]
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "cli_diff.py"), *missing],
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {missing[0]} has no src/opetopes\n"


def test_search_series_times_every_command_on_small_chains():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "search_series.py"), "3", "4", "--repeat", "1"],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["objects", "3", "4"]
    assert [row.split()[0] for row in rows] == ["nerve-check", "hlift", "orthogonal"]
    for row in rows:
        _, *ms = row.split()
        assert len(ms) == 2 and all(float(m) > 0 for m in ms)

"""The repository's tools, run as scripts."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
import types
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_tool(name: str, directory: str = "tools"):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_diff_prints_both_stderr_texts_of_a_differing_job():
    cli_diff = load_tool("cli_diff")
    a = {"code": 2, "raised": None, "out": "", "err": "error: line 1: unexpected end of line\n"}
    b = dict(a, err="error: line 1: expected 'sort NAME(ARGS) = {ELEMS}'\n")
    assert cli_diff.report("model-unclosed seed 11", a, a) == []
    assert cli_diff.report("model-unclosed seed 11", a, b) == [
        "model-unclosed seed 11: err differ",
        "  - error: line 1: unexpected end of line",
        "  + error: line 1: expected 'sort NAME(ARGS) = {ELEMS}'",
    ]
    c = dict(a, code=1, out="ok\n", err="")
    assert cli_diff.report("job", a, c) == [
        "job: code, out, err differ",
        "  - error: line 1: unexpected end of line",
        "  + (empty)",
    ]
    assert cli_diff.report("job", a, dict(a, out="x\n")) == ["job: out differ"]


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


def test_every_traced_name_is_a_plain_function_of_its_module():
    # the benchmark's tracer wraps each name in place and tells a call from
    # inside the module by fn.__globals__, so a cached or renamed traced
    # function breaks traced runs only
    tracing = load_tool("tracing", "perfbench")
    for module_name, names in tracing.TRACED.items():
        module = importlib.import_module(f"opetopes.{module_name}")
        for name in names:
            fn = getattr(module, name, None)
            assert isinstance(fn, types.FunctionType), f"{module_name}.{name}"
            assert fn.__globals__ is module.__dict__, f"{module_name}.{name}"


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
    assert [row.split()[0] for row in rows] == ["nerve-check", "hlift", "orthogonal", "laws"]
    for row in rows:
        _, *ms = row.split()
        assert len(ms) == 2 and all(float(m) > 0 for m in ms)


def test_model_series_times_check_model_on_small_chains():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "model_series.py"), "3", "4", "--repeat", "1"],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split() == ["objects", "3", "4"]
    name, *ms = row.split()
    assert name == "check-model"
    assert len(ms) == 2 and all(float(m) > 0 for m in ms)


def test_ref_split_compares_a_checkout_with_itself():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "ref_split.py"), str(REPO_ROOT), str(REPO_ROOT),
         "--workload", "theory", "--pairs", "1"],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    title, header, *rows = proc.stdout.splitlines()
    assert title.startswith("theory seed 11: ") and title.endswith(" jobs, 1 pairs")
    assert header.split() == ["figure", "A", "B", "B/A", "B", "lower"]
    assert [row.split()[0] for row in rows] == ["wall", "ref-before", "ref-after", "cost"]
    for row in rows:
        _, a, b, ratio, wins = row.split()
        assert float(a) > 0 and float(b) > 0 and float(ratio) > 0
        assert wins in ("0/1", "1/1")

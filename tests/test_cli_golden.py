"""Full CLI stdout pinned byte for byte against files in tests/golden/.

Each case runs one command in text and in json and compares the whole
stdout and the exit code.  The cases cover output whose line order comes
from a map search: the rows of `oalg free`, the `iso:` line of `theory
context` on a context with automorphisms, and orthogonality on a monoid
nerve.  A golden file is named CASE.FORMAT.txt; its first line is the
exit code.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from opetopes.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CHAIN_CAT = """
obj a b c
mor ia: a -> a
mor ib: b -> b
mor ic: c -> c
mor f: a -> b
mor g: b -> c
mor gf: a -> c
comp g.f = gf
id a = ia
id b = ib
id c = ic
"""

Z2_CAT = """
obj o
mor e: o -> o
mor z: o -> o
id o = e
comp z.z = e
"""

TCAT = """
|- V type
x y : V |- E(x, y) type
x : V |- i(x) : E(x, x)
x y z : V, f : E(x, y), g : E(y, z) |- c(g, f) : E(x, z)
x y : V, f : E(x, y) |- c(i(y), f) = f : E(x, y)
x y : V, f : E(x, y) |- c(f, i(x)) = f : E(x, y)
x y z w : V, f : E(x, y), g : E(y, z), h : E(z, w) |- c(h, c(g, f)) = c(c(h, g), f) : E(x, w)
"""

CASES = {
    "oalg-free": ("oalg", "free", "--file", "chain.cat", "--max-nodes", "3"),
    "oalg-laws": ("oalg", "laws", "--file", "chain.cat", "--max-nodes", "6"),
    "oalg-nerve-check-z2": ("oalg", "nerve-check", "--file", "z2.cat"),
    "opset-orthogonal-z2": ("opset", "orthogonal", "--expr", "I2", "--file", "z2.nerve"),
    "theory-lfd": ("theory", "lfd", "--file", "tcat.th"),
    "theory-context-edge": ("theory", "context", "--file", "tcat.th", "--expr", "x y : V, f : E(x, y)"),
    "theory-context-points": ("theory", "context", "--file", "tcat.th", "--expr", "x y : V"),
}


def run(capsys, argv: list[str]) -> str:
    code = main(argv)
    return f"{code}\n{capsys.readouterr().out}"


@pytest.fixture
def inputs(tmp_path, capsys, monkeypatch):
    (tmp_path / "chain.cat").write_text(CHAIN_CAT)
    (tmp_path / "z2.cat").write_text(Z2_CAT)
    (tmp_path / "tcat.th").write_text(TCAT)
    monkeypatch.chdir(tmp_path)
    assert main(["oalg", "nerve", "--file", "z2.cat"]) == 0
    (tmp_path / "z2.nerve").write_text(capsys.readouterr().out)
    return tmp_path


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(capsys, inputs, case, fmt):
    got = run(capsys, list(CASES[case]) + ["--format", fmt])
    assert got == (GOLDEN / f"{case}.{fmt}.txt").read_text(encoding="utf-8")

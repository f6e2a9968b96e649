"""Full CLI stdout pinned byte for byte against files in tests/golden/.

Each case runs one command in text and in json and compares the whole
stdout and the exit code.  The cases cover output whose line order comes
from a map search: the rows of `oalg free`, the `iso:` line of `theory
context` on a context with automorphisms, and orthogonality on a monoid
nerve.  Every CLI command has at least one case, and some cases exit 1
(a failed check).  `opetope validate` and `opetope target` are pinned in
dot as well, and so is one command with no dot form, which prints its
text.  A golden file is named CASE.FORMAT.txt; its first line is the
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

XI = "{ [] <- I3  [[*]] <- I2  [[**]] <- I1 }"

C3_MODEL = """
sort V = {a, b, c}
sort E(a, a) = {ia}
sort E(b, b) = {ib}
sort E(c, c) = {ic}
sort E(a, b) = {f}
sort E(b, c) = {g}
sort E(a, c) = {gf}
op i table:
i(a) = ia
i(b) = ib
i(c) = ic
op c table:
c(ia, ia) = ia
c(ib, ib) = ib
c(ic, ic) = ic
c(f, ia) = f
c(ib, f) = f
c(g, ib) = g
c(ic, g) = g
c(gf, ia) = gf
c(ic, gf) = gf
c(g, f) = gf
"""

# a two-element monoid whose unit fails on the right: z.e = e
BAD_UNIT_MODEL = """
sort V = {o}
sort E(o, o) = {e, z}
op i table:
i(o) = e
op c table:
c(e, e) = e
c(e, z) = z
c(z, e) = e
c(z, z) = z
"""

CASES = {
    "oalg-free": ("oalg", "free", "--file", "chain.cat", "--max-nodes", "3"),
    "oalg-laws": ("oalg", "laws", "--file", "chain.cat", "--max-nodes", "6"),
    "oalg-nerve-check-z2": ("oalg", "nerve-check", "--file", "z2.cat"),
    "opset-orthogonal-z2": ("opset", "orthogonal", "--expr", "I2", "--file", "z2.nerve"),
    "theory-lfd": ("theory", "lfd", "--file", "tcat.th"),
    "theory-context-edge": ("theory", "context", "--file", "tcat.th", "--expr", "x y : V, f : E(x, y)"),
    "theory-context-points": ("theory", "context", "--file", "tcat.th", "--expr", "x y : V"),
    "opetope-validate-xi": ("opetope", "validate", "--expr", XI),
    "opetope-target-xi": ("opetope", "target", "--expr", XI),
    "opetope-source-xi": ("opetope", "source", "--expr", XI),
    "opetope-faces-xi": ("opetope", "faces", "--expr", XI),
    "opetope-enumerate-dim3": ("opetope", "enumerate", "--dim", "3", "--max-nodes", "3"),
    "opetope-hom-arrow-xi": ("opetope", "hom", "--expr", "I1", "--expr", XI),
    "opetope-identities-xi": ("opetope", "identities", "--expr", XI),
    "opset-spine-i3": ("opset", "spine", "--expr", "I3"),
    "opset-boundary-i2": ("opset", "boundary", "--expr", "I2", "--window", "0:2"),
    "opset-hlift-z2": ("opset", "hlift", "--file", "z2.nerve", "--n", "1", "--max-nodes", "3"),
    "oalg-h-xi": ("oalg", "h", "--expr", XI),
    "oalg-nerve-z2": ("oalg", "nerve", "--file", "z2.cat"),
    "theory-parse": ("theory", "parse", "--file", "tcat.th"),
    "theory-roundtrip": ("theory", "roundtrip", "--file", "tcat.th"),
    "theory-check-model-c3": ("theory", "check-model", "--theory", "tcat.th", "--model", "c3.mod"),
    "theory-check-model-bad-unit": (
        "theory", "check-model", "--theory", "tcat.th", "--model", "bad-unit.mod"
    ),
}

# the cases also pinned in dot; `opetope source` has no dot form
DOT_CASES = ("opetope-validate-xi", "opetope-target-xi", "opetope-source-xi")


def run(capsys, argv: list[str]) -> str:
    code = main(argv)
    return f"{code}\n{capsys.readouterr().out}"


@pytest.fixture
def inputs(tmp_path, capsys, monkeypatch):
    (tmp_path / "chain.cat").write_text(CHAIN_CAT)
    (tmp_path / "z2.cat").write_text(Z2_CAT)
    (tmp_path / "tcat.th").write_text(TCAT)
    (tmp_path / "c3.mod").write_text(C3_MODEL)
    (tmp_path / "bad-unit.mod").write_text(BAD_UNIT_MODEL)
    monkeypatch.chdir(tmp_path)
    assert main(["oalg", "nerve", "--file", "z2.cat"]) == 0
    (tmp_path / "z2.nerve").write_text(capsys.readouterr().out)
    return tmp_path


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(capsys, inputs, case, fmt):
    got = run(capsys, list(CASES[case]) + ["--format", fmt])
    assert got == (GOLDEN / f"{case}.{fmt}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", DOT_CASES)
def test_dot_stdout_matches_golden(capsys, inputs, case):
    got = run(capsys, list(CASES[case]) + ["--format", "dot"])
    assert got == (GOLDEN / f"{case}.dot.txt").read_text(encoding="utf-8")

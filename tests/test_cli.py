"""Command line interface: worked examples, output formats, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from opetopes import cli
from opetopes.cli import main
from opetopes.opset import dump_opset, load_opset, terminal_opset

REPO_ROOT = Path(__file__).resolve().parent.parent

XI = "{ [] <- I3  [[*]] <- I2  [[**]] <- I1 }"

TCAT = """
|- V type
x y : V |- E(x, y) type
x : V |- i(x) : E(x, x)
x y z : V, f : E(x, y), g : E(y, z) |- c(g, f) : E(x, z)
x y : V, f : E(x, y) |- c(i(y), f) = f : E(x, y)
x y : V, f : E(x, y) |- c(f, i(x)) = f : E(x, y)
x y z w : V, f : E(x, y), g : E(y, z), h : E(z, w) |- c(h, c(g, f)) = c(c(h, g), f) : E(x, w)
"""

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


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


# ------------------------------------------------------------ worked examples


def test_target_example(capsys):
    code, out = run(capsys, "opetope", "target", "--expr", XI)
    assert code == 0
    assert out == "I4\n"


def test_enumerate_example(capsys):
    code, out = run(capsys, "opetope", "enumerate", "--dim", "2", "--max-nodes", "5")
    assert code == 0
    assert out == "I0\nI1\nI2\nI3\nI4\nI5\n"


def test_check_model_example(capsys, tmp_path):
    th = tmp_path / "tcat.th"
    mod = tmp_path / "c3.mod"
    th.write_text(TCAT)
    mod.write_text(C3_MODEL)
    code, out = run(
        capsys, "theory", "check-model", "--theory", str(th), "--model", str(mod)
    )
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "PASS"
    assert "c(h, c(g, f)) = c(c(h, g), f): holds (15 environments)" in out


def install_and_run(tmp_path, *pip_flags: str) -> subprocess.CompletedProcess:
    """Install this checkout offline into a fresh venv that has no pip, then
    run the venv's `opetopes` script with `PYTHONPATH` unset, so that it can
    only import what was installed."""
    pytest.importorskip("pip")
    venv = tmp_path / "venv"
    subprocess.run([sys.executable, "-m", "venv", "--without-pip", str(venv)], check=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run(
        [sys.executable, "-m", "pip", "--python", str(venv / "bin" / "python"), "install",
         *pip_flags, str(REPO_ROOT), "--no-build-isolation", "--no-deps", "--no-index",
         "--no-cache-dir", "--disable-pip-version-check", "--quiet"],
        check=True,
        env=env,
    )
    return subprocess.run(
        [str(venv / "bin" / "opetopes"), "opetope", "target", "--expr", XI],
        capture_output=True,
        text=True,
        env=env,
    )


def test_console_script_installed(tmp_path):
    proc = install_and_run(tmp_path, "-e")
    assert proc.returncode == 0
    assert proc.stdout == "I4\n"


def test_console_script_installed_from_wheel(tmp_path):
    # Not editable: the script runs on the wheel's copy of the package, and
    # importing `opetopes` and `opetopes.cli` imports every module.
    proc = install_and_run(tmp_path)
    assert proc.returncode == 0
    assert proc.stdout == "I4\n"


# ------------------------------------------------------------------- opetope


def test_validate_text(capsys):
    code, out = run(capsys, "opetope", "validate", "--expr", XI)
    assert code == 0
    assert "dim: 3" in out
    assert "size: 9" in out
    assert out.rstrip().splitlines()[-1] == "ok"


def test_validate_json(capsys):
    code, out = run(capsys, "opetope", "validate", "--expr", "I2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {"dim": 2, "expr": "I2", "ok": True, "problems": [], "size": 2}


def test_json_output_is_byte_stable(capsys):
    _, first = run(capsys, "opetope", "enumerate", "--dim", "2", "--max-nodes", "5",
                   "--format", "json")
    _, second = run(capsys, "opetope", "enumerate", "--dim", "2", "--max-nodes", "5",
                    "--format", "json")
    assert first == second
    assert json.loads(first)["opetopes"] == ["I0", "I1", "I2", "I3", "I4", "I5"]


def test_json_expr_round_trips(capsys):
    _, out = run(capsys, "opetope", "validate", "--expr", XI, "--format", "json")
    expr = json.loads(out)["expr"]
    _, again = run(capsys, "opetope", "validate", "--expr", expr, "--format", "json")
    assert json.loads(again)["expr"] == expr


def test_dot_is_deterministic_and_labelled(capsys):
    _, first = run(capsys, "opetope", "validate", "--expr", XI, "--format", "dot")
    _, second = run(capsys, "opetope", "validate", "--expr", XI, "--format", "dot")
    assert first == second
    assert '"[]" [label="I3"];' in first
    assert '"[[*]]" [label="I2"];' in first
    assert '"[[**]]" [label="I1"];' in first
    assert '"[]" -> "[[*]]" [label="[*]"];' in first
    assert '"[]" -> "[[**]]" [label="[**]"];' in first


def test_dot_of_node_free_shape(capsys):
    code, out = run(capsys, "opetope", "target", "--expr", "I2", "--format", "dot")
    assert code == 0
    assert 'label="arrow";' in out
    assert "->" not in out.replace("digraph", "")


def test_source_lists_node_addresses(capsys):
    code, out = run(capsys, "opetope", "source", "--expr", XI)
    assert code == 0
    assert out == "[] I3\n[[*]] I2\n[[**]] I1\n"


def test_faces_counts_cells(capsys):
    code, out = run(capsys, "opetope", "faces", "--expr", "I2")
    assert code == 0
    assert out.splitlines()[0] == "cells: 7"
    assert "s[].s* : point" in out


def test_hom_counts_maps(capsys):
    code, out = run(capsys, "opetope", "hom", "--expr", "arrow", "--expr", XI)
    assert code == 0
    lines = out.rstrip().splitlines()
    assert lines[0] == "maps: 7"
    assert "s[].t" in lines


def test_identities_ok(capsys):
    code, out = run(capsys, "opetope", "identities", "--expr", "I3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["cells"] == 9 and data["squares"] == 4


def test_expr_from_file(capsys, tmp_path):
    p = tmp_path / "shape.txt"
    p.write_text(XI + "\n")
    code, out = run(capsys, "opetope", "target", "--file", str(p))
    assert code == 0
    assert out == "I4\n"


# --------------------------------------------------------------------- opset


def test_spine_and_boundary_dump_and_reload(capsys):
    code, spine_text = run(capsys, "opset", "spine", "--expr", "I2")
    assert code == 0
    code, bnd_text = run(capsys, "opset", "boundary", "--expr", "I2",
                         "--window", "0:2")
    assert code == 0
    S = load_opset(spine_text)
    B = load_opset(bnd_text)
    spine_cells = {c for cs in S.cells.values() for c in cs}
    bnd_cells = {c for cs in B.cells.values() for c in cs}
    assert bnd_cells - spine_cells == {"t"}
    assert spine_text.splitlines()[0] == "window 0 2"


def test_orthogonal_against_nerve(capsys, tmp_path):
    cat = tmp_path / "chain.cat"
    cat.write_text(CHAIN_CAT)
    code, nerve_text = run(capsys, "oalg", "nerve", "--file", str(cat))
    assert code == 0
    ner = tmp_path / "chain.opset"
    ner.write_text(nerve_text)
    code, out = run(capsys, "opset", "orthogonal", "--expr", "I2", "--file", str(ner))
    assert code == 0
    assert "spine: orthogonal" in out
    assert "boundary: orthogonal" in out


def test_orthogonal_failure_exits_one(capsys, tmp_path):
    bare = tmp_path / "points.opset"
    bare.write_text("window 0 2\nshape point cells p q\n")
    code, out = run(capsys, "opset", "orthogonal", "--expr", "arrow",
                    "--file", str(bare))
    assert code == 1
    assert "not orthogonal" in out
    assert "extends 0 times" in out


ARROW_SET = "window 0 1\nshape point cells p\nshape arrow cells a\n"


def test_short_face_line_exits_two(capsys, tmp_path):
    bad = tmp_path / "short.opset"
    bad.write_text(ARROW_SET + "face a s*\nface a t -> p\n")
    assert main(["opset", "orthogonal", "--expr", "arrow", "--file", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 4:")


def test_arrow_targeting_an_arrow_exits_two(capsys, tmp_path):
    bad = tmp_path / "arrow-target.opset"
    bad.write_text(ARROW_SET + "face a s* -> p\nface a t -> a\n")
    assert main(["opset", "orthogonal", "--expr", "arrow", "--file", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a: face along t has the wrong shape" in captured.err


def test_hlift_terminal_passes(capsys, tmp_path):
    X = terminal_opset((0, 3), 5)
    p = tmp_path / "terminal.opset"
    p.write_text(dump_opset(X))
    code, out = run(capsys, "opset", "hlift", "--file", str(p), "--n", "1",
                    "--max-nodes", "3")
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "ok"


def test_hlift_reports_failures(capsys, tmp_path):
    cat = tmp_path / "chain.cat"
    cat.write_text(CHAIN_CAT)
    _, nerve_text = run(capsys, "oalg", "nerve", "--file", str(cat))
    ner = tmp_path / "chain.opset"
    ner.write_text(nerve_text)
    code, out = run(capsys, "opset", "hlift", "--file", str(ner), "--n", "1",
                    "--max-nodes", "3")
    assert code == 1
    assert "spine of arrow not orthogonal" in out


# ---------------------------------------------------------------------- oalg


def test_free_lists_pasting_cells(capsys, tmp_path):
    cat = tmp_path / "chain.cat"
    cat.write_text(CHAIN_CAT)
    code, out = run(capsys, "oalg", "free", "--file", str(cat), "--max-nodes", "3")
    assert code == 0
    lines = out.rstrip().splitlines()
    assert lines[0] == "cells: 34"
    assert "I1 | o.a a.f" in lines
    assert "I2 | o.a a.f a.g" in lines


def test_laws_pass(capsys, tmp_path):
    cat = tmp_path / "chain.cat"
    cat.write_text(CHAIN_CAT)
    code, out = run(capsys, "oalg", "laws", "--file", str(cat), "--max-nodes", "6")
    assert code == 0
    assert "units checked: 6" in out
    assert out.rstrip().splitlines()[-1] == "ok"


def test_h_realization(capsys):
    code, out = run(capsys, "oalg", "h", "--expr", XI)
    assert code == 0
    lines = out.rstrip().splitlines()
    assert lines[0] == "object: 4"
    assert "t: (0, 1, 2, 3, 4) : [4] -> [4]" in lines
    assert "s[[*]]: (1, 2, 3) : [2] -> [4]" in lines


def test_h_realization_of_long_integer(capsys):
    code, out = run(capsys, "oalg", "h", "--expr", "I1200")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1202
    assert lines[-1] == "t: (0, 1200) : [1] -> [1200]"


def test_nerve_check_at_bound_zero_passes(capsys, tmp_path):
    cat = tmp_path / "chain.cat"
    cat.write_text(CHAIN_CAT)
    code, out = run(capsys, "oalg", "nerve-check", "--file", str(cat), "--max-nodes", "0")
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "ok"


def test_nerve_check_passes(capsys, tmp_path):
    cat = tmp_path / "chain.cat"
    cat.write_text(CHAIN_CAT)
    code, out = run(capsys, "oalg", "nerve-check", "--file", str(cat),
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["segal2"] and data["segal3"] and data["boundary3"]


# -------------------------------------------------------------------- theory


def test_theory_parse(capsys, tmp_path):
    th = tmp_path / "tcat.th"
    th.write_text(TCAT)
    code, out = run(capsys, "theory", "parse", "--file", str(th))
    assert code == 0
    lines = out.rstrip().splitlines()
    assert lines[0] == "type |- V type (grade 0)"
    assert sum(1 for l in lines if l.startswith("op ")) == 2
    assert sum(1 for l in lines if l.startswith("equation ")) == 3


def test_theory_lfd(capsys, tmp_path):
    th = tmp_path / "tcat.th"
    th.write_text(TCAT)
    code, out = run(capsys, "theory", "lfd", "--file", str(th))
    assert code == 0
    assert "object V (dim 0)" in out
    assert "object E (dim 1)" in out
    assert "morphisms: 4" in out


def test_theory_roundtrip(capsys, tmp_path):
    th = tmp_path / "tcat.th"
    th.write_text(TCAT)
    code, out = run(capsys, "theory", "roundtrip", "--file", str(th))
    assert code == 0
    assert out == "PASS\n"


def tower(n: int, width: int) -> str:
    """Types T0, ..., Tn, each over `width` variables of every earlier type:
    a chain of n + 1 types at width 1, the globular signature of dimension n
    at width 2."""
    lines, ctx, args = [], [], []
    for k in range(n + 1):
        head = f"T{k}({', '.join(args)})" if args else f"T{k}"
        lines.append(f"{', '.join(ctx)} |- {head} type")
        xs = [f"x{k}_{i}" for i in range(width)]
        ctx.append(f"{' '.join(xs)} : {head}")
        args += xs
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n, width", [(19, 1), (12, 2)])
def test_theory_roundtrip_of_a_deep_signature(capsys, tmp_path, n, width):
    """Over a thousand composable pairs of non-identity morphisms: the
    isomorphism search recurses once per object and morphism, not per pair."""
    th = tmp_path / "tower.th"
    th.write_text(tower(n, width))
    code, out = run(capsys, "theory", "roundtrip", "--file", str(th))
    assert (code, out) == (0, "PASS\n")


def test_theory_context(capsys, tmp_path):
    th = tmp_path / "tcat.th"
    th.write_text(TCAT)
    code, out = run(capsys, "theory", "context", "--file", str(th),
                    "--expr", "x y : V, f : E(x, y)")
    assert code == 0
    lines = out.rstrip().splitlines()
    assert lines[0] == "x0: V"
    assert lines[1] == "x1: V"
    assert lines[2].startswith("x2: E(")
    assert lines[-1] == "ok"


def test_check_model_failure_exits_one(capsys, tmp_path):
    th = tmp_path / "tcat.th"
    mod = tmp_path / "broken.mod"
    th.write_text(TCAT)
    mod.write_text(C3_MODEL.replace("c(g, f) = gf\n", ""))
    code, out = run(capsys, "theory", "check-model", "--theory", str(th),
                    "--model", str(mod))
    assert code == 1
    assert out.rstrip().splitlines()[-1] == "FAIL"
    assert "missing" in out


def test_table_for_unknown_operation_fails(capsys, tmp_path):
    th, mod = tmp_path / "tcat.th", tmp_path / "extra.mod"
    th.write_text(TCAT)
    mod.write_text(C3_MODEL + "op d table:\nd(a) = b\n")
    code, out = run(capsys, "theory", "check-model", "--theory", str(th),
                    "--model", str(mod))
    assert code == 1
    assert out.splitlines()[0] == "problem: table for unknown operation d"


# ---------------------------------------------------------------- exit codes


def test_parse_error_exits_two(capsys):
    assert main(["opetope", "target", "--expr", "{ bogus"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_missing_file_exits_two(capsys):
    assert main(["opetope", "target", "--file", "/nonexistent/shape.txt"]) == 2


def test_missing_expr_exits_two(capsys):
    assert main(["opetope", "target"]) == 2


def test_unsupported_realization_exits_two(capsys):
    assert main(["oalg", "h", "--expr", "I2", "--k", "2"]) == 2


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["opetope"])
    assert exc.value.code == 2


def test_bad_window_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["opset", "spine", "--expr", "I2", "--window", "0-2"])
    assert exc.value.code == 2


def test_seed_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["opetope", "target", "--expr", "I2", "--seed", "7"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["opetope", "enumerate", "--dim", "2", "--max-nodes", "-1"],
        ["oalg", "free", "--file", "{cat}", "--max-nodes", "-1"],
        ["oalg", "nerve", "--file", "{cat}", "--max-nodes", "-2"],
        ["oalg", "nerve-check", "--file", "{cat}", "--max-nodes", "-1"],
        ["opset", "hlift", "--file", "{terminal}", "--n", "1", "--max-nodes", "-1"],
    ],
    ids=["enumerate", "free", "nerve", "nerve-check", "hlift"],
)
def test_negative_node_bound_exits_two(capsys, tmp_path, argv):
    cat = tmp_path / "chain.cat"
    cat.write_text(CHAIN_CAT)
    terminal = tmp_path / "terminal.opset"
    terminal.write_text(dump_opset(terminal_opset((0, 3), 2)))
    assert main([a.format(cat=cat, terminal=terminal) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the node bound must be >= 0\n"


@pytest.mark.xfail(
    raises=RecursionError,
    strict=True,
    reason="theory.natural_maps recurses once per choice point",
)
def test_orthogonal_on_a_long_integer(capsys, tmp_path):
    terminal = tmp_path / "terminal.opset"
    terminal.write_text(dump_opset(terminal_opset((0, 2), 3)))
    code, out = run(capsys, "opset", "orthogonal", "--expr", "I1200",
                    "--file", str(terminal))
    assert code == 1
    assert out.splitlines() == [
        "spine: not orthogonal (a map extends 0 times)",
        "boundary: not orthogonal (a map extends 0 times)",
    ]


def test_identities_of_long_integer(capsys):
    code, out = run(capsys, "opetope", "identities", "--expr", "I1200")
    assert code == 0
    assert out.splitlines()[-1] == "ok"


NESTED = "{{" * 1500 + "point" + "}}" * 1500


@pytest.mark.parametrize("command", ["validate", "target"])
def test_deep_nesting_exits_two(capsys, command):
    assert main(["opetope", command, "--expr", NESTED]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "200 levels" in captured.err


def test_nesting_at_the_bound_parses(capsys):
    from opetopes.opetope import NEST_CAP

    expr = "{{" * NEST_CAP + "point" + "}}" * NEST_CAP
    code, out = run(capsys, "opetope", "validate", "--expr", expr)
    assert code == 0
    assert out.splitlines()[1] == f"dim: {2 * NEST_CAP}"


def test_point_target_names_the_point(capsys):
    assert main(["opetope", "target", "--expr", "point"]) == 2
    assert capsys.readouterr().err == "error: the point has no target\n"


@pytest.mark.parametrize(
    "command", [("opetope", "target"), ("opetope", "faces"), ("oalg", "h")]
)
def test_tree_without_a_root_node_exits_two(capsys, command):
    assert main([*command, "--expr", "{[[*]] <- I2}"]) == 2
    assert capsys.readouterr().err == "error: no node at address []\n"


# ------------------------------------------------------ repeated declarations

Z2_CAT = "obj o\nmor e: o -> o\nmor z: o -> o\nid o = e\ncomp z.z = e\n"


@pytest.mark.parametrize(
    "command, text, line, what",
    [
        pytest.param("nerve-check", Z2_CAT + "comp z.z = z\n", 6, "composite z.z declared twice",
                     id="comp"),
        pytest.param("nerve-check", Z2_CAT + "id o = z\n", 6, "identity of o declared twice",
                     id="id"),
        pytest.param("laws", CHAIN_CAT + "mor f: b -> a\n", 13, "morphism f declared twice",
                     id="mor"),
        pytest.param("laws", "obj a a\nmor ia: a -> a\nid a = ia\n", 1,
                     "object a declared twice", id="obj-one-line"),
        pytest.param("laws", "obj a\nobj b a\nmor ia: a -> a\nid a = ia\n", 2,
                     "object a declared twice", id="obj-two-lines"),
    ],
)
def test_repeated_category_declaration_exits_two(capsys, tmp_path, command, text, line, what):
    cat = tmp_path / "repeated.cat"
    cat.write_text(text)
    assert main(["oalg", command, "--file", str(cat)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {line}: {what}\n"


@pytest.mark.parametrize(
    "text, line, what",
    [
        pytest.param(ARROW_SET + "face a s* -> p\nface a t -> p\nface a t -> p\n", 6,
                     "face of a along t declared twice", id="face"),
        pytest.param(ARROW_SET.replace("cells a", "cells a p"), 3,
                     "cell p declared twice: 'shape arrow cells a p'", id="cell"),
        pytest.param("window 0 1\n" + ARROW_SET, 2, "window declared twice: 'window 0 1'",
                     id="window"),
    ],
)
def test_repeated_opset_declaration_exits_two(capsys, tmp_path, text, line, what):
    bad = tmp_path / "repeated.opset"
    bad.write_text(text)
    assert main(["opset", "orthogonal", "--expr", "arrow", "--file", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {line}: {what}\n"


# ---------------------------------------------------------------- comments

TERMINAL_1 = ARROW_SET + "face a s* -> p\nface a t -> p\n"
COMMENTED_1 = (
    "# the terminal opetopic set in dimensions 0 and 1\n"
    "window 0 1  # dimensions\n"
    "shape point cells p # the only point\n"
    "shape arrow cells a #\n"
    "face a s* -> p  # source\n"
    "face a t -> p# target\n"
)


def test_trailing_comments_in_opset_file_are_ignored(capsys, tmp_path):
    plain, commented = tmp_path / "plain.opset", tmp_path / "commented.opset"
    plain.write_text(TERMINAL_1)
    commented.write_text(COMMENTED_1)
    results = [
        run(capsys, "opset", "orthogonal", "--expr", "arrow", "--file", str(path))
        for path in (plain, commented)
    ]
    assert results[0] == (0, "spine: orthogonal\nboundary: orthogonal\n")
    assert results[1] == results[0]


def test_repeated_carrier_element_exits_two(capsys, tmp_path):
    th, mod = tmp_path / "tcat.th", tmp_path / "repeated.mod"
    th.write_text(TCAT)
    mod.write_text(C3_MODEL.replace("sort V = {a, b, c}", "sort V = {a, b, a, c}"))
    assert main(["theory", "check-model", "--theory", str(th), "--model", str(mod)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: element a listed twice in V()\n"


# ------------------------------------------------------------ shape tokens


@pytest.mark.parametrize(
    "expr, code, err",
    [
        ("<<-", 2, "error: unexpected character '<' at position 0\n"),
        ("<--", 2, "error: unexpected character '-' at position 2\n"),
        ("{ [] <-- I2 }", 2, "error: unexpected character '-' at position 7\n"),
        ("{ [] < - I2 }", 2, "error: unexpected character '<' at position 5\n"),
        ("a<b", 2, "error: unexpected character '<' at position 1\n"),
        ("x-", 2, "error: unexpected character '-' at position 1\n"),
        ("I 3", 0, ""),
        ("{\t[] <- I2 }", 0, ""),
        ("{ [] <- I2 }\u200b", 2, "error: unexpected character '\\u200b' at position 12\n"),
        ("é", 2, "error: unexpected token 'é'\n"),
        ("{ [] <- I2 } ß", 2, "error: trailing input from token 'ß'\n"),
        ("I²", 2, "error: unexpected token 'I²'\n"),
        ("I٣", 2, "error: unexpected token 'I٣'\n"),
        ("I ٣", 2, "error: expected a number after I, found '٣'\n"),
    ],
)
def test_shape_token_errors(capsys, expr, code, err):
    assert main(["opetope", "validate", "--expr", expr]) == code
    assert capsys.readouterr().err == err


# ---------------------------------------------------------------- crashes


def test_key_error_is_not_an_input_error(monkeypatch):
    def lookup_bug(args):
        raise KeyError("a bug")

    monkeypatch.setattr(cli, "cmd_opetope_target", lookup_bug)
    with pytest.raises(KeyError):
        main(["opetope", "target", "--expr", "I2"])

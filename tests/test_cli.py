"""Command line interface: worked examples, output formats, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from opetopes import cli, theory
from opetopes.cli import main
from opetopes.kernel import FinDirectCat
from opetopes.opset import dump_opset, load_opset

from scaffold import terminal_opset

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


def test_hlift_names_the_boundary_of_two_parallel_arrows(capsys, tmp_path):
    p = tmp_path / "arrows.opset"
    p.write_text(
        "window 0 2\nshape point cells a b\nshape arrow cells f g\n"
        "face f s* -> a\nface f t -> b\nface g s* -> a\nface g t -> b\n"
    )
    code, out = run(capsys, "opset", "hlift", "--file", str(p), "--n", "0")
    assert code == 1
    assert out.splitlines() == [
        "spines_low: False",
        "boundaries_mid: False",
        "boundaries_high: False",
        "spines_high: False",
        "failure: spine of arrow not orthogonal",
        "failure: boundary of arrow not orthogonal",
        "failure: boundary of I1 not orthogonal",
        "failure: spine of I0 not orthogonal",
        "failure: spine of I1 not orthogonal",
        "failed",
    ]


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


def test_laws_at_bound_zero_check_nothing(capsys, tmp_path):
    # the unit pasting of an arrow has one node, so bound 0 keeps no unit
    cat = tmp_path / "chain.cat"
    cat.write_text(CHAIN_CAT)
    args = ("oalg", "laws", "--file", str(cat), "--max-nodes", "0")
    code, out = run(capsys, *args)
    assert (code, out) == (0, "units checked: 0\nsquares checked: 0\nok\n")
    code, out = run(capsys, *args, "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "units_checked": 0, "squares_checked": 0, "ok": True, "failures": [],
    }


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


def test_nerve_of_an_empty_category_is_its_window_line(capsys, tmp_path):
    cat = tmp_path / "empty.cat"
    cat.write_text("")
    assert run(capsys, "oalg", "nerve", "--file", str(cat)) == (0, "window 0 3\n")


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
    # h is the (1, 1) realization and takes no --k
    with pytest.raises(SystemExit) as exc:
        main(["oalg", "h", "--expr", "I2", "--k", "2"])
    assert exc.value.code == 2


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
    reason="kernel.natural_maps recurses once per choice point",
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


def test_roundtrip_of_many_edge_types(capsys, tmp_path):
    th = tmp_path / "edges.th"
    edges = "".join(f"x y : V |- E{k}(x, y) type\n" for k in range(400))
    th.write_text("|- V type\n" + edges)
    code, out = run(capsys, "theory", "roundtrip", "--file", str(th))
    assert (code, out) == (0, "PASS\n")


def test_roundtrip_runs_in_linear_time(capsys, tmp_path):
    """Eight times the edge types cost about nine times the time when the
    round trip is checked along the map its construction names.  The
    isomorphism search it replaced was quadratic here, and crashed past
    300 edge types."""
    def best(n: int) -> float:
        th = tmp_path / f"edges{n}.th"
        th.write_text("|- V type\n" + "".join(f"x y : V |- E{k}(x, y) type\n" for k in range(n)))
        times = []
        for _ in range(3):
            start = time.perf_counter()
            code, out = run(capsys, "theory", "roundtrip", "--file", str(th))
            times.append(time.perf_counter() - start)
            assert (code, out) == (0, "PASS\n")
        return min(times)

    assert best(2000) / best(250) < 24


def test_roundtrip_searches_no_isomorphism(monkeypatch, capsys, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("natural_maps was called")

    monkeypatch.setattr(theory, "natural_maps", refuse)
    th = tmp_path / "tcat.th"
    th.write_text(TCAT)
    code, out = run(capsys, "theory", "roundtrip", "--file", str(th))
    assert (code, out) == (0, "PASS\n")


def swap_one_composite(C: FinDirectCat) -> FinDirectCat:
    """C with the values of g.f and g.f2 exchanged, for the first g listed
    with two composites of parallel morphisms that differ."""
    first: dict[str, tuple[str, str]] = {}
    for (g, f), h in C.composition.items():
        f2, h2 = first.setdefault(g, (f, h))
        if h2 != h and C.src(f2) == C.src(f):
            composition = {**C.composition, (g, f2): h, (g, f): h2}
            return FinDirectCat(C.objects, C.morphisms, composition, C.identities)
    raise AssertionError("no two composites to swap")


def mutate_back(monkeypatch, mutate) -> list[FinDirectCat]:
    """Make theory.signature_category mutate every category it builds after
    the first, the one the round trip builds back; return the categories."""
    signature_category, built = theory.signature_category, []

    def mutated(sig):
        cat, assign = signature_category(sig)
        built.append(mutate(cat) if built else cat)
        return built[-1], assign

    monkeypatch.setattr(theory, "signature_category", mutated)
    return built


def test_roundtrip_fails_on_a_swapped_composite(monkeypatch, capsys, tmp_path):
    """The category built back from the globe signature has the source and
    target of one of F's edges exchanged: still a direct category, but the
    named map no longer keeps every composite, so the round trip fails."""
    built = mutate_back(monkeypatch, swap_one_composite)
    th = tmp_path / "globe.th"
    th.write_text(
        "|- V type\nx y : V |- E(x, y) type\nx y : V, f g : E(x, y) |- F(x, y, f, g) type\n"
    )
    code, out = run(capsys, "theory", "roundtrip", "--file", str(th))
    assert (code, out) == (1, "FAIL\n")
    assert len(built) == 2 and theory.validate_lfd(built[1]).ok


def edge(C: FinDirectCat) -> str:
    return next(m for m in C.morphisms if not C.is_identity(m))


def move_edge_source(C: FinDirectCat) -> FinDirectCat:
    morphisms = {**C.morphisms, edge(C): ("W", "E")}
    return FinDirectCat(C.objects, morphisms, C.composition, C.identities)


def add_edge(C: FinDirectCat) -> FinDirectCat:
    morphisms = {**C.morphisms, "extra": ("V", "E")}
    return FinDirectCat(C.objects, morphisms, C.composition, C.identities)


def drop_edge(C: FinDirectCat) -> FinDirectCat:
    morphisms = {m: e for m, e in C.morphisms.items() if m != edge(C)}
    return FinDirectCat(C.objects, morphisms, C.composition, C.identities)


@pytest.mark.parametrize("mutate", [move_edge_source, add_edge, drop_edge])
def test_roundtrip_fails_on_a_changed_edge(monkeypatch, capsys, tmp_path, mutate):
    """An edge type has no composites of non-identity morphisms, so only the
    endpoints and the number of the morphisms built back tell the named map
    from an isomorphism.  Each change leaves a valid direct category."""
    built = mutate_back(monkeypatch, mutate)
    th = tmp_path / "edge.th"
    th.write_text("|- V type\n|- W type\nx y : V |- E(x, y) type\n")
    code, out = run(capsys, "theory", "roundtrip", "--file", str(th))
    assert (code, out) == (1, "FAIL\n")
    assert len(built) == 2 and theory.validate_lfd(built[1]).ok


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


SHAPE_COMMANDS = ("validate", "target", "source", "faces", "identities")
DEPTH_0 = "error: node addresses have depth >= 1; the 1-dimensional shape is arrow\n"


def test_a_one_dimensional_tree_exits_two(capsys):
    # the only 1-dimensional shape is arrow, which has no nodes to list
    for command in SHAPE_COMMANDS:
        assert main(["opetope", command, "--expr", "{* <- point}"]) == 2, command
        assert capsys.readouterr() == ("", DEPTH_0), command


def test_a_tree_decorated_by_a_one_dimensional_tree_exits_two(capsys):
    # read as I1 it would target {* <- point} instead of arrow
    for command in SHAPE_COMMANDS:
        assert main(["opetope", command, "--expr", "{[] <- {* <- point}}"]) == 2, command
        assert capsys.readouterr() == ("", DEPTH_0), command


def test_identities_of_a_shape_without_target_exits_two(capsys):
    expr = "{[] <- {[] <- I2} [[]] <- {[] <- I1}}"
    assert main(["opetope", "identities", "--expr", expr]) == 2
    err = "error: target of the replacement differs from the replaced decoration\n"
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize(
    "command", [("opetope", "target"), ("opetope", "faces"), ("oalg", "h")]
)
def test_tree_without_a_root_node_exits_two(capsys, command):
    assert main([*command, "--expr", "{[[*]] <- I2}"]) == 2
    assert capsys.readouterr().err == "error: no node at address []\n"


# malformed shapes that validate rejects, with the first defect their target meets
MALFORMED = {
    # the root decoration has a child on no input of I1
    "{[] <- {[] <- I1 [[*]] <- I0} [[]] <- {{arrow}}}": "[[*]] is not a leaf of the nodes below it",
    # the root decoration has no root
    "{[] <- {[[][]] <- {[[]] <- I3}}}": "no node at address []",
    # the shell has no root
    "{{ {[[]] <- I1} }}": "no node at address []",
    # a repeated node address
    "{[] <- I1 [] <- I2}": "duplicate node address",
}


@pytest.mark.parametrize("text", sorted(MALFORMED))
def test_every_shape_command_refuses_what_validate_rejects(capsys, text):
    argvs = [["opetope", command, "--expr", text] for command in SHAPE_COMMANDS[1:]]
    argvs += [["opetope", "hom", "--expr", text, "--expr", XI]]
    argvs += [["opetope", "hom", "--expr", XI, "--expr", text]]
    for argv in argvs:
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: {MALFORMED[text]}\n"), argv


def test_validate_refuses_a_repeated_node_address(capsys):
    # not read as {[] <- I2}, the last decoration at []
    assert main(["opetope", "validate", "--expr", "{[] <- I1 [] <- I2}"]) == 2
    assert capsys.readouterr() == ("", "error: duplicate node address\n")


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


@pytest.mark.parametrize("window", ["window a 1", "window 0 b", "window 0 1.5"])
def test_window_that_is_not_two_integers_names_the_line_forms(capsys, tmp_path, window):
    bad = tmp_path / "window.opset"
    bad.write_text(ARROW_SET.replace("window 0 1", window))
    assert main(["opset", "orthogonal", "--expr", "arrow", "--file", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 1: expected 'window LO HI', 'shape SHAPE cells ID...' or "
        f"'face ID GEN -> ID': {window!r}\n"
    )


I1_SET = (
    "window 0 2\nshape point cells p\nshape arrow cells a\nshape I1 cells q\n"
    "face a s* -> p\nface a t -> p\nface q s[] -> a\nface q t -> a\n"
)


@pytest.mark.parametrize(
    "text, line, what",
    [
        pytest.param(I1_SET + "face q s[*****] -> a\n", 9, "q has no face along s[*****]",
                     id="source-the-shape-lacks"),
        pytest.param(I1_SET + "face p t -> p\n", 9, "p has no face along t",
                     id="face-of-a-point"),
        pytest.param(I1_SET + "face p s* -> p\n", 9, "p has no face along s*",
                     id="source-of-a-point"),
        pytest.param(I1_SET + "face p s[] -> p\n", 9, "p has no face along s[]",
                     id="bracketed-source-of-a-point"),
        pytest.param("window 1 2\nshape arrow cells a\nshape I1 cells q\n"
                     "face q s[] -> a\nface q t -> a\nface a t -> a\n", 6,
                     "a has no face along t", id="face-below-the-window"),
        *(
            pytest.param(I1_SET + f"face q {gen} -> a\n", 9, f"q has no face along {gen}",
                         id=f"malformed-{gen}")
            for gen in ["s[", "x", "s[*]]", "s[[]]"]
        ),
    ],
)
def test_face_along_a_missing_generator_exits_two(capsys, tmp_path, text, line, what):
    bad = tmp_path / "stray.opset"
    bad.write_text(text)
    assert main(["opset", "orthogonal", "--expr", "I1", "--file", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {line}: {what}\n"


def test_face_onto_an_undeclared_cell_names_its_line(capsys, tmp_path):
    bad = tmp_path / "stray.opset"
    bad.write_text(I1_SET.replace("face a t -> p", "face a t -> zz"))
    assert main(["opset", "orthogonal", "--expr", "I1", "--file", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 6: face of a along t is an undeclared cell 'zz'\n"


@pytest.mark.parametrize(
    "text, line, what",
    [
        pytest.param("window 0 1\nshape point cells p\nshape I1 cells q\n", 3,
                     "shape I1 lies outside the window", id="shape-above-the-window"),
        pytest.param("shape arrow cells a\n# the window comes last\nwindow 0 0\n", 1,
                     "shape arrow lies outside the window", id="shape-before-the-window"),
        pytest.param("shape point cells p\nwindow 2 1\n", 2,
                     "window must be a closed interval [lo, hi] with lo >= 0",
                     id="reversed-window"),
    ],
)
def test_opset_window_errors_name_their_line(capsys, tmp_path, text, line, what):
    bad = tmp_path / "bad.opset"
    bad.write_text(text)
    assert main(["opset", "orthogonal", "--expr", "arrow", "--file", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {line}: {what}\n"


MOR_FORM, ID_FORM, COMP_FORM = "mor NAME: SRC -> DST", "id OBJ = NAME", "comp G.F = H"


@pytest.mark.parametrize(
    "text, form",
    [
        pytest.param("obj a b\nmor f: a b\n", MOR_FORM, id="mor-without-arrow"),
        pytest.param("obj a\nmor f\n", MOR_FORM, id="mor-without-colon"),
        pytest.param("obj a b\nmor f: a -> b -> a\n", MOR_FORM, id="mor-with-two-arrows"),
        pytest.param("obj a\nid a\n", ID_FORM, id="id-without-name"),
        pytest.param("obj a\ncomp i i = i\n", COMP_FORM, id="comp-without-dot"),
        pytest.param("obj a\ncomp ia.ia.ia = ia\n", COMP_FORM, id="comp-of-three"),
    ],
)
def test_malformed_category_directive_names_its_form(capsys, tmp_path, text, form):
    cat = tmp_path / "malformed.cat"
    cat.write_text(text)
    assert main(["oalg", "laws", "--file", str(cat)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 2: expected '{form}'\n"


@pytest.mark.parametrize(
    "text, line, form",
    [
        # an empty name, or one with a space, is no name: each line names its form
        pytest.param("obj a\nmor i d: a -> a\nid a = i d\n", 2, MOR_FORM, id="name-with-space"),
        pytest.param("obj a\nmor : a -> a\nid a = \n", 2, MOR_FORM, id="empty-name"),
        pytest.param("obj a\nmor ia: a -> a\nid a = \n", 3, ID_FORM, id="empty-identity"),
        # the nerve's cell ids join names with `.`, so no name holds one: else
        # the chain x, f and the object x.f would share the id c.x.f
        pytest.param(
            "obj x x.f\nmor ix: x -> x\nmor iy: x.f -> x.f\nmor f: x -> x.f\n"
            "id x = ix\nid x.f = iy\n",
            1, "obj NAME...", id="dotted-object",
        ),
        pytest.param("obj a\nmor i.a: a -> a\n", 2, MOR_FORM, id="dotted-morphism"),
        pytest.param("obj a\nmor ia: a -> a\nid a = i.a\n", 3, ID_FORM, id="dotted-identity"),
        pytest.param("obj a\nmor ia: a -> a\ncomp ia.ia = i.a\n", 3, COMP_FORM, id="dotted-composite"),
    ],
)
@pytest.mark.parametrize("command", ["nerve", "nerve-check"])
def test_category_names_are_single_tokens(capsys, tmp_path, command, text, line, form):
    cat = tmp_path / "spaced.cat"
    cat.write_text(text)
    assert main(["oalg", command, "--file", str(cat)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {line}: expected '{form}'\n"


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
    assert captured.err == "error: line 2: element a listed twice in V\n"


def test_instance_problems_print_instances_as_the_model_writes_them(capsys, tmp_path):
    th, mod = tmp_path / "tcat.th", tmp_path / "stray.mod"
    th.write_text(TCAT)
    mod.write_text("sort V = {a}\nsort E(a, b) = {f}\n")
    code, out = run(capsys, "theory", "check-model", "--theory", str(th), "--model", str(mod))
    assert code == 1
    assert out.splitlines()[:2] == [
        "problem: instance E(a, b): b is not in V",
        "problem: table for i is missing i(a)",
    ]


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

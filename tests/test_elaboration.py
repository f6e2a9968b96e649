"""Theory elaboration: each subterm typed once, and terms bounded in depth.

`theory.parse_theory` is compared with the re-inferring oracle
`theory_oracle` on generated theories, over a graph, a category and a
`Vec`-like dependent signature, with terms up to depth 5, and on their
single-token mutations: both give the same declarations, or raise the
same exception type with the same message and line.  Typing a chain
`s(...s(x)...)` applies `s` once per level.  Terms nest at most TERM_CAP
levels: a term at the cap is parsed and checked through the CLI, and a
deeper one, written or built by substitution, exits 2 naming its line.
"""

from __future__ import annotations

import copy
import json
import pickle
import time
import timeit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opetopes import theory
from opetopes.cli import main
from opetopes.theory import TERM_CAP, _TOKEN, Term, parse_theory

from theory_oracle import oracle_parse_theory

GRAPH = "|- V type\nx y : V |- E(x, y) type\n"
CATEGORY = GRAPH + (
    "x : V |- i(x) : E(x, x)\n"
    "x y z : V, f : E(x, y), g : E(y, z) |- c(g, f) : E(x, z)\n"
)
VEC = (
    "|- N type\n"
    "|- z() : N\n"
    "n : N |- s(n) : N\n"
    "n : N |- Vec(n) type\n"
    "|- nil() : Vec(z)\n"
    "n : N, v : Vec(n) |- cons(v) : Vec(s(n))\n"
)
# a length index that grows four levels per cons
VEC4 = VEC.replace("Vec(s(n))", "Vec(s(s(s(s(n)))))")
CHAIN = "|- V type\nx : V |- s(x) : V\n"
NAMES = ("x", "y", "z", "w")


def nested(head: str, depth: int, inner: str) -> str:
    return f"{head}(" * depth + inner + ")" * depth


def chain(depth: int) -> str:
    return CHAIN + f"x : V |- {nested('s', depth, 'x')} = x : V\n"


def vec_equation(conses: int, sort: str | None = None) -> str:
    t = nested("cons", conses, "nil")
    sort = sort or f"Vec({nested('s', 4 * conses, 'z')})"
    return VEC4 + f"|- {t} = {t} : {sort}\n"


def outcome(parse, text: str):
    try:
        return parse(text)
    except ValueError as err:
        return type(err), str(err)


# ----------------------------------------------------------------- generators


@st.composite
def graph_context(draw):
    """Objects and arrows between them; now and then an arrow's end is an
    earlier arrow, which makes the context ill-formed."""
    objects = list(NAMES[: draw(st.integers(1, 4))])
    arrows: list[tuple[str, str, str]] = []
    for k in range(draw(st.integers(0, 4))):
        ends = objects + [a for a, _, _ in arrows] if draw(st.integers(0, 19)) == 0 else objects
        arrows.append((f"f{k}", draw(st.sampled_from(ends)), draw(st.sampled_from(ends))))
    text = " ".join(objects) + " : V" + "".join(f", {a} : E({s}, {t})" for a, s, t in arrows)
    return objects, arrows, text


@st.composite
def morphism(draw, objects, arrows, a: str, b: str, depth: int, category: bool):
    """A term meant to be of sort E(a, b): an arrow, an identity or a
    composite through a drawn object; any arrow when none fits."""
    fits = [f for f, s, t in arrows if (s, t) == (a, b)]
    if category and a == b:
        fits.append(f"i({a})")
    if category and depth > 0 and draw(st.booleans()):
        m = draw(st.sampled_from(objects))
        f = draw(morphism(objects, arrows, a, m, depth - 1, category))
        g = draw(morphism(objects, arrows, m, b, depth - 1, category))
        return f"c({g}, {f})"
    return draw(st.sampled_from(fits or [f for f, _, _ in arrows] or objects))


@st.composite
def category_theory(draw):
    category = draw(st.booleans())
    lines = [CATEGORY if category else GRAPH]
    for _ in range(draw(st.integers(1, 3))):
        objects, arrows, ctx = draw(graph_context())
        a, b = draw(st.sampled_from(objects)), draw(st.sampled_from(objects))
        lhs = draw(morphism(objects, arrows, a, b, 4, category))
        rhs = draw(morphism(objects, arrows, a, b, 4, category))
        lines.append(f"{ctx} |- {lhs} = {rhs} : E({a}, {b})\n")
    return "".join(lines)


@st.composite
def vector(draw, length: tuple[str, int], depth: int):
    """A term meant to be of sort Vec(s^k(base)) for length (base, k)."""
    base, k = length
    fits = {("n", 0): ["v"], ("m", 0): ["w"], ("z", 0): ["nil", "nil()"]}.get(length, [])
    if k > 0 and depth > 0:
        fits.append(f"cons({draw(vector((base, k - 1), depth - 1))})")
    return draw(st.sampled_from(fits or ["v", "nil", "n"]))


@st.composite
def vec_theory(draw):
    lines = [VEC]
    for _ in range(draw(st.integers(1, 3))):
        length = (draw(st.sampled_from(["n", "m", "z"])), draw(st.integers(0, 5)))
        sides = [draw(vector(length, 5)) for _ in range(2)]
        # z() is not the z of nil's sort Vec(z): now and then a mismatch
        index = nested("s", length[1], draw(st.sampled_from([length[0]] * 3 + ["z()"])))
        lines.append(f"n m : N, v : Vec(n), w : Vec(m) |- {sides[0]} = {sides[1]} : Vec({index})\n")
    return "".join(lines)


VOCABULARY = ["(", ")", ",", ":", "=", "|-", "type", "q", "V", "E", "N", "Vec", "x", "y",
              "f0", "f1", "i", "c", "s", "z", "n", "v", "cons", "nil"]


@st.composite
def mutated(draw, text: str) -> str:
    """text with one token of one line deleted, replaced or preceded by a
    token from VOCABULARY."""
    lines = text.splitlines()
    row = draw(st.integers(0, len(lines) - 1))
    tokens = _TOKEN.findall(lines[row])
    at = draw(st.integers(0, len(tokens) - 1))
    kind = draw(st.sampled_from(["delete", "replace", "insert"]))
    token = draw(st.sampled_from(VOCABULARY))
    tokens[at : at + (kind != "insert")] = [] if kind == "delete" else [token]
    lines[row] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def theories(draw):
    text = draw(st.one_of(category_theory(), vec_theory()))
    return draw(mutated(text)) if draw(st.booleans()) else text


# --------------------------------------------------------------------- tests


@settings(max_examples=400, deadline=None)
@given(theories())
def test_parse_theory_matches_the_oracle(text):
    assert outcome(parse_theory, text) == outcome(oracle_parse_theory, text)


def test_typing_a_chain_applies_each_operation_once(monkeypatch):
    calls = []
    apply = theory._apply

    def counted(*args):
        calls.append(args[0].name)
        assert len(calls) <= 200, "more than 200 _apply calls"
        return apply(*args)

    monkeypatch.setattr(theory, "_apply", counted)
    for depth in (10, 20, 30):
        calls.clear()
        parse_theory(chain(depth))
        assert calls == ["s"] * depth


@pytest.mark.parametrize("text", [chain(20), vec_equation(5)], ids=["chain-20", "vec-5-cons"])
def test_deep_terms_elaborate_in_milliseconds(text):
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        parse_theory(text)
        best = min(best, time.perf_counter() - start)
    assert best < 0.005


def test_a_term_copies_whole():
    t = Term("s", (Term("x"),))
    assert copy.deepcopy(t) == pickle.loads(pickle.dumps(t)) == t
    assert (str(t), t.depth, t.args[0].depth) == ("s(x)", 1, 0)


def test_a_term_hashes_in_constant_time():
    """Term keeps its hash, so a sort memo lookup does not rehash the
    whole term: a depth-200 chain hashes about as fast as a depth-20 one
    (about 10x slower when each hash walked the term)."""
    chains = []
    for depth in (20, 200):
        t = Term("x")
        for _ in range(depth):
            t = Term("s", (t,))
        chains.append(t)
    shallow, deep = (min(timeit.repeat(lambda t=t: hash(t), number=2000, repeat=5)) for t in chains)
    assert deep / shallow < 3


def cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MODEL = "sort V = {a}\nop s table:\ns(a) = a\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_term_at_the_cap_parses_and_checks(capsys, tmp_path, fmt):
    th, mod = tmp_path / "deep.th", tmp_path / "deep.mod"
    th.write_text(chain(TERM_CAP))
    mod.write_text(MODEL)
    code, out, err = cli(capsys, "theory", "parse", "--file", str(th), "--format", fmt)
    assert (code, err) == (0, "")
    label = f"{nested('s', TERM_CAP, 'x')} = x"
    assert label in out
    code, out, err = cli(capsys, "theory", "check-model", "--theory", str(th),
                         "--model", str(mod), "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        assert json.loads(out)["equations"] == [{"label": label, "checked": 1, "witness": None}]
    else:
        assert out.splitlines() == [f"  {label}: holds (1 environments)", "PASS"]


TOO_DEEP = f"error: line 3: terms nest more than {TERM_CAP} levels deep\n"


@pytest.mark.parametrize("depth", [TERM_CAP + 1, 5000])
@pytest.mark.parametrize("command", ["parse", "check-model"])
def test_a_deeper_term_exits_two_naming_its_line(capsys, tmp_path, depth, command):
    th, mod = tmp_path / "deep.th", tmp_path / "deep.mod"
    th.write_text(chain(depth))
    mod.write_text(MODEL)
    argv = ["--file", str(th)] if command == "parse" else ["--theory", str(th), "--model", str(mod)]
    assert cli(capsys, "theory", command, *argv) == (2, "", TOO_DEEP)


def test_a_deep_context_exits_two(capsys, tmp_path):
    th = tmp_path / "graph.th"
    th.write_text(GRAPH)
    expr = f"x : V, f : E({nested('s', 1000, 'x')}, x)"
    assert cli(capsys, "theory", "context", "--file", str(th), "--expr", expr) == (
        2, "", f"error: line 1: terms nest more than {TERM_CAP} levels deep\n")


def test_a_sort_built_deeper_than_the_cap_exits_two(capsys, tmp_path):
    # 4 levels of s per cons: the sort of 50 conses reaches the cap, and
    # typing 51 builds a sort past it, whatever sort the line declares
    th = tmp_path / "vec.th"
    th.write_text(vec_equation(50))
    assert cli(capsys, "theory", "parse", "--file", str(th))[0] == 0
    th.write_text(vec_equation(100, sort="Vec(z)"))
    assert cli(capsys, "theory", "parse", "--file", str(th)) == (
        2, "", f"error: line 7: terms nest more than {TERM_CAP} levels deep\n")


def test_junk_in_an_op_line_exits_two(capsys, tmp_path):
    th, mod = tmp_path / "i.th", tmp_path / "junk.mod"
    th.write_text("|- V type\nx : V |- i(x) : V\n")
    mod.write_text("sort V = {a}\nop i(@@ !! = {) table:\ni(a) = a\n")
    assert cli(capsys, "theory", "check-model", "--theory", str(th), "--model", str(mod)) == (
        2, "", "error: line 2: expected 'op NAME(ARGS) table:'\n")

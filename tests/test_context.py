"""Contexts checked along the bijection that builds them.

`presheaf_to_context` attaches the cells of a presheaf one step each, so
the isomorphism from the presheaf to the context's realization is named
by the construction: `context_isomorphism` reads it, and `theory context`
searches for no map.  `validate_context` checks each step against one
stage grown step by step.  Checked: on generated contexts over a
signature with parallel edges and 2-cells between them, the named map is
the one `psh_isomorphism` finds; on single-step mutations of them,
`validate_context` reports the problems of the stage-rebuilding oracle
`context_oracle`, and a problem wherever the oracle raises; and the CLI
answers on contexts of hundreds of cells.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opetopes import theory
from opetopes.cli import main
from opetopes.theory import (
    AttachStep,
    Context,
    context_isomorphism,
    parse_context,
    presheaf_to_context,
    psh_isomorphism,
    realize_bindings,
    validate_context,
)

from context_oracle import oracle_validate_context
from scaffold import parse_signature

# Points, edges between them, and 2-cells between parallel edges.
GLOBE = "|- V type\nx y : V |- E(x, y) type\nx y : V, f g : E(x, y) |- F(x, y, f, g) type\n"
SIG = parse_signature(GLOBE)
DIAMOND = "a b : V, f g : E(a, b), c : F(a, b, f, g)"


def context_of(text: str):
    X = realize_bindings(SIG, parse_context(SIG, text))
    return X, presheaf_to_context(X)


@st.composite
def context_texts(draw):
    """A context over GLOBE: points, edges between any two points, and
    2-cells between any two edges with the same ends, so parallel edges
    and parallel 2-cells give automorphisms."""
    points: list[str] = []
    edges: list[tuple[str, str, str]] = []
    out: list[str] = []
    for i in range(draw(st.integers(0, 9))):
        kinds = ["V"] + ["E"] * bool(points) + ["F"] * bool(edges)
        kind, v = draw(st.sampled_from(kinds)), f"v{i}"
        if kind == "V":
            points.append(v)
            out.append(f"{v} : V")
        elif kind == "E":
            x, y = draw(st.sampled_from(points)), draw(st.sampled_from(points))
            edges.append((v, x, y))
            out.append(f"{v} : E({x}, {y})")
        else:
            f, x, y = draw(st.sampled_from(edges))
            g = draw(st.sampled_from([e for e, *ends in edges if ends == [x, y]]))
            out.append(f"{v} : F({x}, {y}, {f}, {g})")
    return ", ".join(out)


@settings(max_examples=200, deadline=None)
@given(context_texts())
def test_the_named_isomorphism_is_the_one_the_search_finds(text):
    X, ctx = context_of(text)
    iso = context_isomorphism(X, ctx)
    assert iso is not None
    assert iso.comp == psh_isomorphism(X, ctx.realization()).comp
    assert validate_context(ctx) == oracle_validate_context(ctx) == []


def test_a_context_with_a_step_too_many_is_not_isomorphic():
    X, ctx = context_of(DIAMOND)
    Y, _ = context_of("a b : V, f g : E(a, b)")
    assert context_isomorphism(Y, ctx) is None
    swapped = Context(ctx.cat, ctx.steps[1::-1] + ctx.steps[2:])
    assert context_isomorphism(X, swapped) is None


def _mutate(ctx: Context, i: int, kind: str, pick) -> Context:
    """ctx with step i changed one way; pick chooses from a sequence."""
    steps = list(ctx.steps)
    step = steps[i]
    names = [s.name for s in steps]
    obj, attach, name = step.obj, list(step.attach), step.name
    if kind == "rename":
        name = pick(names + ["zz"])
    elif kind == "object":
        obj = pick(list(ctx.cat.objects) + ["Q"])
    elif kind == "set" and attach and pick([True, False]):
        del attach[pick(range(len(attach)))]
    elif kind == "set":
        attach.append((pick(list(ctx.cat.morphisms)), pick(names)))
    elif attach:
        j = pick(range(len(attach)))
        m = attach[j][0]
        if kind == "missing":
            attach[j] = (m, "zz")
        elif kind == "cell":
            attach[j] = (m, pick(names))
        else:  # a cell at the right object, so only naturality can fail
            src = ctx.cat.src(m)
            attach[j] = (m, pick([s.name for s in steps[:i] if s.obj == src]))
    steps[i] = AttachStep(obj, tuple(attach), name)
    return Context(ctx.cat, tuple(steps))


KINDS = ["rename", "object", "set", "missing", "cell", "natural"]


@settings(max_examples=300, deadline=None)
@given(context_texts().filter(bool), st.sampled_from(KINDS), st.data())
def test_validate_context_matches_the_oracle_on_mutations(text, kind, data):
    _, ctx = context_of(text)
    i = data.draw(st.integers(0, len(ctx.steps) - 1))
    bad = _mutate(ctx, i, kind, lambda xs: data.draw(st.sampled_from(list(xs))))
    got = validate_context(bad)
    try:
        want = oracle_validate_context(bad)
    except (KeyError, ValueError):
        assert got
    else:
        assert Counter(got) == Counter(want)


def test_an_attachment_to_a_missing_cell_is_reported():
    _, ctx = context_of(DIAMOND)
    c = ctx.steps[4]
    attach = tuple((m, "zz" if y == "x2" else y) for m, y in c.attach)
    bad = Context(ctx.cat, ctx.steps[:4] + (AttachStep(c.obj, attach, c.name),))
    with pytest.raises(KeyError):
        oracle_validate_context(bad)
    assert validate_context(bad) == [
        "step 4 sends E>F:x,y,f to a missing cell zz",
        "step 4 attaching map is not natural at E>F:x,y,f.V>E:x",
        "step 4 attaching map is not natural at E>F:x,y,f.V>E:y",
    ]


def test_a_repeated_step_name_is_reported():
    _, ctx = context_of(DIAMOND)
    renamed = AttachStep(ctx.steps[1].obj, ctx.steps[1].attach, "x0")
    bad = Context(ctx.cat, ctx.steps[:1] + (renamed,) + ctx.steps[2:])
    with pytest.raises(ValueError, match="not unique"):
        oracle_validate_context(bad)
    assert validate_context(bad) == [
        "step 1 is named x0, expected x1",
        "step 2 sends V>E:y to a missing cell x1",
        "step 3 sends V>E:y to a missing cell x1",
        "step 4 sends V>F:y to a missing cell x1",
    ]


def test_validate_context_builds_no_realization(monkeypatch):
    _, ctx = context_of(DIAMOND)
    calls = []
    realization = Context.realization

    def counted(self, *args):
        calls.append(args)
        return realization(self, *args)

    monkeypatch.setattr(Context, "realization", counted)
    assert validate_context(ctx) == []
    assert calls == []


# ------------------------------------------------------------------ the CLI


def run_context(capsys, tmp_path, expr: str) -> tuple[int, list[str]]:
    th = tmp_path / "globe.th"
    th.write_text(GLOBE)
    code = main(["theory", "context", "--file", str(th), "--expr", expr])
    return code, capsys.readouterr().out.splitlines()


def test_the_context_command_searches_no_map(monkeypatch, capsys, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("natural_maps was called")

    monkeypatch.setattr(theory, "natural_maps", refuse)
    code, lines = run_context(capsys, tmp_path, "a b : V, f g : E(a, b), c d : F(a, b, f, g)")
    assert code == 0
    assert lines[-2:] == ["iso: a->x0, b->x1, c->x4, d->x5, f->x2, g->x3", "ok"]


def chain(n: int) -> str:
    points = " ".join(f"x{i}" for i in range(n)) + " : V"
    return ", ".join([points] + [f"f{i} : E(x{i}, x{i + 1})" for i in range(n - 1)])


@pytest.mark.parametrize(
    "expr, steps",
    [(chain(500), 999), (" ".join(f"x{i}" for i in range(1200)) + " : V", 1200)],
    ids=["chain-500", "discrete-1200"],
)
def test_the_context_command_answers_on_large_contexts(capsys, tmp_path, expr, steps):
    code, lines = run_context(capsys, tmp_path, expr)
    assert code == 0
    assert len(lines) == steps + 2
    assert lines[-1] == "ok"

"""Direct categories, presheaf contexts, declaration parsing, the
signature/category correspondence, and the finite model checker."""

from __future__ import annotations

import random
import time

import pytest

from opetopes.theory import (
    AttachStep,
    Context,
    Equation,
    EquationSet,
    FinDirectCat,
    FinPresheafC,
    FreshnessViolation,
    IllFormedContext,
    Model,
    ParseError,
    PshMap,
    Signature,
    SortExpr,
    Term,
    TermSignature,
    cat_isomorphic,
    check_model,
    check_psh_map,
    lfd_to_signature,
    object_dimensions,
    parse_context,
    parse_model,
    parse_theory,
    presheaf_to_context,
    psh_isomorphism,
    realize_bindings,
    signature_category,
    signature_to_lfd,
    validate_context,
    validate_lfd,
)

from paper_results import (
    EmptyContext,
    NotAMap,
    boundary_c,
    ctx_ft,
    ctx_pr,
    ctx_pullback,
    psh_compose,
    psh_identity,
    psh_maps,
    representable_psh,
    validate_presheaf,
)
from scaffold import parse_signature

GG1 = FinDirectCat(
    ("D0", "D1"),
    {"s": ("D0", "D1"), "t": ("D0", "D1"), "i0": ("D0", "D0"), "i1": ("D1", "D1")},
    {},
    {"D0": "i0", "D1": "i1"},
)

SS2 = FinDirectCat(
    ("s0", "s1", "s2"),
    {
        "d0": ("s0", "s1"), "d1": ("s0", "s1"),
        "e0": ("s1", "s2"), "e1": ("s1", "s2"), "e2": ("s1", "s2"),
        "v0": ("s0", "s2"), "v1": ("s0", "s2"), "v2": ("s0", "s2"),
        "j0": ("s0", "s0"), "j1": ("s1", "s1"), "j2": ("s2", "s2"),
    },
    {
        ("e0", "d0"): "v2", ("e0", "d1"): "v1",
        ("e1", "d0"): "v2", ("e1", "d1"): "v0",
        ("e2", "d0"): "v1", ("e2", "d1"): "v0",
    },
    {"s0": "j0", "s1": "j1", "s2": "j2"},
)


def graph(vs, es):
    cells = {k: v for k, v in {"D0": tuple(vs), "D1": tuple(es)}.items() if v}
    restr = {}
    for e, (a, b) in es.items():
        restr[(e, "s")] = a
        restr[(e, "t")] = b
    return FinPresheafC(GG1, cells, restr)


GG1_SIG = """
|- V type
x y : V |- E(x, y) type
"""

TRI_SIG = """
|- P type
x y : P |- L(x, y) type
x y z : P, a : L(x, y), b : L(y, z), c : L(x, z) |- T(x, y, z, a, b, c) type
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

CHAIN_MODEL = """
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
  c(f, ia) = f
  c(gf, ia) = gf
  c(ib, f) = f
  c(g, f) = gf
  c(ib, ib) = ib
  c(g, ib) = g
  c(ic, g) = g
  c(ic, ic) = ic
  c(ic, gf) = gf
"""

Z3_MODEL = """
sort V = {e}
sort E(e, e) = {z0, z1, z2}
op i table:
  i(e) = z0
op c table:
  c(z0, z0) = z0
  c(z0, z1) = z1
  c(z0, z2) = z2
  c(z1, z0) = z1
  c(z1, z1) = z2
  c(z1, z2) = z0
  c(z2, z0) = z2
  c(z2, z1) = z0
  c(z2, z2) = z1
"""


# --- direct categories ------------------------------------------------------


def test_validate_two_parallel_arrows():
    report = validate_lfd(GG1)
    assert report.ok
    assert report.dims == {"D0": 0, "D1": 1}
    assert report.covers == {"D0": (), "D1": ("s", "t")}


def test_validate_two_simplex_shapes():
    report = validate_lfd(SS2)
    assert report.ok
    assert report.dims == {"s0": 0, "s1": 1, "s2": 2}
    assert report.covers["s2"] == ("e0", "e1", "e2", "v0", "v1", "v2")


def test_endomorphism_loop_is_rejected():
    loop = FinDirectCat(
        ("a",), {"l": ("a", "a"), "ia": ("a", "a")}, {("l", "l"): "l"}, {"a": "ia"}
    )
    report = validate_lfd(loop)
    assert not report.ok
    assert report.cycle == ("a", "a")
    assert report.dims == {}
    with pytest.raises(ValueError, match="not direct"):
        object_dimensions(loop)


def test_validate_reports_table_defects():
    missing = FinDirectCat(
        ("a", "b", "c"),
        {
            "f": ("a", "b"), "g": ("b", "c"),
            "ia": ("a", "a"), "ib": ("b", "b"), "ic": ("c", "c"),
        },
        {},
        {"a": "ia", "b": "ib", "c": "ic"},
    )
    report = validate_lfd(missing)
    assert not report.ok
    assert report.problems == ("no composite for g.f",)

    bad_id = FinDirectCat(
        ("a", "b"),
        {"f": ("a", "b"), "ia": ("a", "a")},
        {},
        {"a": "ia", "b": "f"},
    )
    assert any(
        "identity f of b" in p for p in validate_lfd(bad_id).problems
    )


# --- boundaries and representables ------------------------------------------


def test_boundary_of_an_edge_is_two_points():
    inc = boundary_c(GG1, "D1")
    assert inc.src.cells == {"D0": ("s", "t")}
    assert inc.dst.cells == {"D0": ("s", "t"), "D1": ("i1",)}
    assert check_psh_map(inc) == []
    assert inc.comp == {"s": "s", "t": "t"}


def test_boundary_of_a_point_is_empty():
    inc = boundary_c(GG1, "D0")
    assert inc.src.cells == {}
    assert validate_presheaf(inc.src) == []


def test_boundary_of_the_triangle():
    inc = boundary_c(SS2, "s2")
    assert inc.src.cells == {"s0": ("v0", "v1", "v2"), "s1": ("e0", "e1", "e2")}
    assert inc.src.restriction == {
        ("e0", "d0"): "v2", ("e0", "d1"): "v1",
        ("e1", "d0"): "v2", ("e1", "d1"): "v0",
        ("e2", "d0"): "v1", ("e2", "d1"): "v0",
    }
    assert validate_presheaf(inc.src) == []


def test_representable_contains_the_identity():
    Y = representable_psh(SS2, "s2")
    assert Y.cells == {
        "s0": ("v0", "v1", "v2"),
        "s1": ("e0", "e1", "e2"),
        "s2": ("j2",),
    }
    assert validate_presheaf(Y) == []


def test_validate_presheaf_catches_defects():
    X = FinPresheafC(GG1, {"D0": ("x",), "D1": ("f",)}, {("f", "s"): "x"})
    assert any("missing restriction of f along t" in p for p in validate_presheaf(X))
    with pytest.raises(ValueError, match="not unique"):
        FinPresheafC(GG1, {"D0": ("x",), "D1": ("x",)}, {})


def test_validate_presheaf_reports_a_restriction_at_the_wrong_object():
    # the functoriality check must not restrict x, a cell at V, along V>E:x
    sig, _, _ = parse_theory(
        "|- V type\nx y : V |- E(x, y) type\nx y : V, f g : E(x, y) |- T(x, y, f, g) type\n"
    )
    X = realize_bindings(sig, parse_context(sig, "x y : V, f g : E(x, y), a : T(x, y, f, g)"))
    bad = FinPresheafC(X.cat, X.cells, {**X.restriction, ("a", "E>T:x,y,f"): "x"})
    assert "restriction of a along E>T:x,y,f is not a cell at E" in validate_presheaf(bad)


# --- contexts ----------------------------------------------------------------


def test_empty_presheaf_gives_the_empty_context():
    ctx = presheaf_to_context(FinPresheafC(GG1, {}, {}))
    assert ctx.steps == ()
    with pytest.raises(EmptyContext):
        ctx_ft(ctx)
    with pytest.raises(EmptyContext):
        ctx_pr(ctx)


def test_parallel_edges_attach_in_dimension_order():
    X = graph(["x", "y"], {"f": ("x", "y"), "g": ("x", "y")})
    ctx = presheaf_to_context(X)
    assert [s.obj for s in ctx.steps] == ["D0", "D0", "D1", "D1"]
    assert [s.name for s in ctx.steps] == ["x0", "x1", "x2", "x3"]
    assert ctx.steps[2].attach == (("s", "x0"), ("t", "x1"))
    assert validate_context(ctx) == []
    iso = psh_isomorphism(X, ctx.realization())
    assert iso is not None
    assert iso.comp == {"x": "x0", "y": "x1", "f": "x2", "g": "x3"}
    assert check_psh_map(iso) == []


def test_attachment_order_distinguishes_isomorphic_contexts():
    X = graph(["x", "y"], {"f": ("x", "y"), "g": ("x", "y")})
    Y = graph(["y", "x"], {"f": ("x", "y"), "g": ("x", "y")})
    cx, cy = presheaf_to_context(X), presheaf_to_context(Y)
    assert cx != cy
    assert cy.steps[2].attach == (("s", "x1"), ("t", "x0"))
    assert psh_isomorphism(cx.realization(), cy.realization()) is not None


def test_representable_context_attaches_one_cell_per_slice_object():
    ctx = presheaf_to_context(representable_psh(SS2, "s2"))
    assert [s.obj for s in ctx.steps] == ["s0", "s0", "s0", "s1", "s1", "s1", "s2"]
    assert validate_context(ctx) == []


def _random_graph(rng, tag):
    nv = rng.randint(0, 4)
    vs = [f"{tag}v{i}" for i in range(nv)]
    es = {}
    if nv:
        for i in range(rng.randint(0, 5)):
            es[f"{tag}e{i}"] = (rng.choice(vs), rng.choice(vs))
    return graph(vs, es)


def _random_complex(rng, tag):
    nv = rng.randint(1, 3)
    vs = [f"{tag}v{i}" for i in range(nv)]
    cells = {"s0": tuple(vs)}
    restr = {}
    es = []
    for i in range(rng.randint(0, 3)):
        e = f"{tag}e{i}"
        es.append(e)
        restr[(e, "d0")] = rng.choice(vs)
        restr[(e, "d1")] = rng.choice(vs)
    tris = []
    for i in range(rng.randint(0, 2)):
        t = f"{tag}t{i}"
        tris.append(t)
        corners = [rng.choice(vs) for _ in range(3)]
        for j, (a, b) in enumerate([(2, 1), (2, 0), (1, 0)]):
            e = f"{tag}t{i}e{j}"
            es.append(e)
            restr[(e, "d0")] = corners[a]
            restr[(e, "d1")] = corners[b]
            restr[(t, f"e{j}")] = e
        for j in range(3):
            restr[(t, f"v{j}")] = corners[j]
    if es:
        cells["s1"] = tuple(es)
    if tris:
        cells["s2"] = tuple(tris)
    return FinPresheafC(SS2, cells, restr)


def test_twenty_random_presheaves_round_trip():
    rng = random.Random(11)
    builders = [lambda i: _random_graph(rng, f"g{i}")] * 10
    builders += [lambda i: _random_complex(rng, f"s{i}")] * 10
    for i, build in enumerate(builders):
        X = build(i)
        assert validate_presheaf(X) == []
        ctx = presheaf_to_context(X)
        assert validate_context(ctx) == []
        iso = psh_isomorphism(X, ctx.realization())
        assert iso is not None
        assert check_psh_map(iso) == []
        for c in X.cat.objects:
            images = [iso.comp[x] for x in X.of_obj(c)]
            assert sorted(images) == sorted(ctx.realization().of_obj(c))


def test_parent_and_projection():
    chain = graph(["x", "y", "z"], {"f": ("x", "y"), "g": ("y", "z")})
    ctx = presheaf_to_context(chain)
    assert len(ctx.steps) == 5
    parent = ctx_ft(ctx)
    assert parent.steps == ctx.steps[:-1]
    pr = ctx_pr(ctx)
    assert pr.src == parent.realization()
    assert pr.dst == ctx.realization()
    assert pr.comp == {x: x for x in ["x0", "x1", "x2", "x3"]}


def test_pullback_along_the_identity_is_strict():
    ctx = presheaf_to_context(graph(["x", "y"], {"f": ("x", "y")}))
    parent = ctx_ft(ctx)
    back, q = ctx_pullback(ctx, psh_identity(parent.realization()), parent)
    assert back == ctx
    assert q == psh_identity(ctx.realization())


def test_pullback_along_a_vertex_collapse_gives_a_loop():
    ctx = presheaf_to_context(graph(["x", "y"], {"f": ("x", "y")}))
    point = presheaf_to_context(graph(["p"], {}))
    collapse = PshMap(
        ctx_ft(ctx).realization(), point.realization(), {"x0": "x0", "x1": "x0"}
    )
    loop, q = ctx_pullback(ctx, collapse, point)
    assert [s.obj for s in loop.steps] == ["D0", "D1"]
    assert loop.steps[1].attach == (("s", "x0"), ("t", "x0"))
    assert q.comp == {"x0": "x0", "x1": "x0", "x2": "x1"}
    assert validate_context(loop) == []


def test_pullback_is_strictly_functorial():
    ctx = presheaf_to_context(graph(["x", "y"], {"f": ("x", "y")}))
    point = presheaf_to_context(graph(["p"], {}))
    two = presheaf_to_context(graph(["u", "v"], {}))
    f = PshMap(
        ctx_ft(ctx).realization(), point.realization(), {"x0": "x0", "x1": "x0"}
    )
    g = PshMap(point.realization(), two.realization(), {"x0": "x1"})
    step1, q1 = ctx_pullback(ctx, f, point)
    step2, q2 = ctx_pullback(step1, g, two)
    direct, q = ctx_pullback(ctx, psh_compose(g, f), two)
    assert step2 == direct
    assert direct.steps[-1].attach == (("s", "x1"), ("t", "x1"))
    assert psh_compose(q2, q1) == q


def test_pullback_rejects_bad_maps():
    ctx = presheaf_to_context(graph(["x", "y"], {"f": ("x", "y")}))
    point = presheaf_to_context(graph(["p"], {}))
    with pytest.raises(NotAMap, match="start at the parent"):
        ctx_pullback(
            ctx,
            PshMap(ctx.realization(), point.realization(), {}),
            point,
        )
    with pytest.raises(NotAMap, match="no image"):
        ctx_pullback(
            ctx,
            PshMap(ctx_ft(ctx).realization(), point.realization(), {"x0": "x0"}),
            point,
        )
    with pytest.raises(EmptyContext):
        ctx_pullback(
            Context(GG1, ()), psh_identity(point.realization()), point
        )


def test_maps_across_two_categories_are_refused():
    with pytest.raises(NotAMap, match="different categories"):
        psh_maps(representable_psh(GG1, "D0"), representable_psh(SS2, "s0"))


def test_validate_context_catches_defects():
    bad = Context(
        GG1, (AttachStep("D1", (("s", "x0"),), "x0"),)
    )
    problems = validate_context(bad)
    assert any("attach along exactly" in p for p in problems)
    renamed = Context(GG1, (AttachStep("D0", (), "cell"),))
    assert any("expected x0" in p for p in validate_context(renamed))


# --- declaration parsing ------------------------------------------------------


def test_parse_graph_signature():
    sig = parse_signature(GG1_SIG)
    assert sig.names == ("V", "E")
    assert [d.grade for d in sig.declarations] == [0, 1]
    e = sig.decl("E")
    assert e.arg_order == ("x", "y")
    assert e.context == (("x", SortExpr("V")), ("y", SortExpr("V")))


def test_parse_signature_rejects_operations():
    with pytest.raises(ParseError, match="only type declarations"):
        parse_signature(TCAT)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_theory("|- V frob")
    with pytest.raises(IllFormedContext, match="line 1: unknown type"):
        parse_theory("x : V |- E(x) type")
    with pytest.raises(FreshnessViolation, match="line 2"):
        parse_theory("|- V type\n|- V type")
    with pytest.raises(IllFormedContext, match="line 3: unbound variable q"):
        parse_theory("|- V type\nx y : V |- E(x, y) type\nf : E(q, q) |- j(f) : E(q, q)")


def test_context_may_not_mention_term_symbols():
    text = """
|- V type
x y : V |- E(x, y) type
x : V |- i(x) : E(x, x)
x : V, f : i(x) |- bad(f) : E(x, x)
"""
    with pytest.raises(IllFormedContext, match="type signature alone"):
        parse_theory(text)


def test_context_arguments_must_be_variables():
    text = """
|- V type
x y : V |- E(x, y) type
x : V |- i(x) : E(x, x)
x : V, f : E(x, i(x)) |- bad(f) : E(x, x)
"""
    with pytest.raises(IllFormedContext, match="not a variable"):
        parse_theory(text)


def test_category_theory_parses_with_output_dimension_one():
    sig, ops, eqns = parse_theory(TCAT)
    assert [(d.name, d.grade) for d in sig.declarations] == [("V", 0), ("E", 1)]
    assert [(d.name, d.grade) for d in ops.declarations] == [("i", 1), ("c", 1)]
    assert ops.decl("c").explicit == ("g", "f")
    assert str(ops.decl("c").output) == "E(x, z)"
    assert [e.label for e in eqns.equations] == [
        "c(i(y), f) = f",
        "c(f, i(x)) = f",
        "c(h, c(g, f)) = c(c(h, g), f)",
    ]
    assert [e.grade for e in eqns.equations] == [1, 1, 1]


def test_equation_sides_must_typecheck():
    text = TCAT + "x y : V, f : E(x, y) |- c(f, f) = f : E(x, y)\n"
    with pytest.raises(ParseError, match="matches both"):
        parse_theory(text)
    text = TCAT + "x y : V, f : E(x, y) |- i(x) = f : E(x, y)\n"
    with pytest.raises(ParseError, match="expected E"):
        parse_theory(text)


# --- signatures as categories -------------------------------------------------


def test_signature_to_category_recovers_the_two_arrows():
    sig = parse_signature(GG1_SIG)
    cat = signature_to_lfd(sig)
    report = validate_lfd(cat)
    assert report.ok
    assert report.dims == {"V": 0, "E": 1}
    assert cat_isomorphic(cat, GG1) is not None


def test_one_closed_type_gives_one_discrete_object():
    cat = signature_to_lfd(parse_signature("|- U type"))
    assert cat.objects == ("U",)
    assert list(cat.morphisms) == ["1_U"]


def test_triangle_signature_matches_the_simplex_shapes():
    cat = signature_to_lfd(parse_signature(TRI_SIG))
    assert len(cat.morphisms) == len(SS2.morphisms) == 11
    assert cat_isomorphic(cat, SS2) is not None


def test_category_to_signature_and_back():
    sig = lfd_to_signature(GG1)
    assert [str(d) for d in sig.declarations] == [
        "|- D0 type",
        "x0: D0, x1: D0 |- D1(x0, x1) type",
    ]
    assert cat_isomorphic(signature_to_lfd(sig), GG1) is not None

    sig2 = lfd_to_signature(SS2)
    assert [d.grade for d in sig2.declarations] == [0, 1, 2]
    assert cat_isomorphic(signature_to_lfd(sig2), SS2) is not None


def test_round_trip_grades_match_dimensions():
    for cat in (GG1, SS2):
        sig = lfd_to_signature(cat)
        dims = validate_lfd(signature_to_lfd(sig)).dims
        for d in sig.declarations:
            assert dims[d.name] == d.grade


def edge_types(n: int) -> str:
    """One point type V and n edge types over two points."""
    return "|- V type\n" + "".join(f"x y : V |- E{k}(x, y) type\n" for k in range(n))


def test_signature_category_is_built_in_linear_time():
    """Eight times the edge types cost about ten times the time when each
    declaration is read once and the category off each declaration's own
    context, and about sixty times when every pair of declarations and of
    morphisms is scanned.  The bound of 24 sits between the two, with room
    for timing noise on the small input."""
    def best(n: int) -> float:
        text = edge_types(n)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            signature_to_lfd(parse_signature(text))
            times.append(time.perf_counter() - start)
        return min(times)

    assert best(2000) / best(250) < 24


def test_validate_lfd_runs_in_linear_time():
    """Sixteen times the edge types cost ten to sixteen times the time when
    the table check tests endpoints against a set of the objects, and sixty
    to a hundred times when against their tuple.  Between 250 and 2,000 edge
    types the linear law check hides the quadratic one (a ratio of 21 to 28
    against 8), so the sizes are 250 and 4,000 and the bound 32."""
    def best(n: int) -> float:
        cat = signature_to_lfd(parse_signature(edge_types(n)))
        times = []
        for _ in range(5):
            start = time.perf_counter()
            assert validate_lfd(cat).ok
            times.append(time.perf_counter() - start)
        return min(times)

    assert best(4000) / best(250) < 32


def test_hom_sets_agree_with_presheaf_maps():
    for text in (GG1_SIG, TRI_SIG):
        sig = parse_signature(text)
        cat, _ = signature_category(sig)
        for a in sig.declarations:
            for b in sig.declarations:
                syntactic = [
                    m
                    for m, (sa, tb) in cat.morphisms.items()
                    if sa == a.name and tb == b.name
                ]
                bctx = b.context + (
                    (
                        f"self_{b.name}",
                        SortExpr(b.name, tuple(Term(v) for v in b.arg_order)),
                    ),
                )
                through_cells = psh_maps(
                    representable_psh(cat, a.name), realize_bindings(sig, bctx)
                )
                assert len(syntactic) == len(through_cells)


def test_realized_bindings_form_a_presheaf():
    sig = parse_signature(GG1_SIG)
    bindings = (
        ("x", SortExpr("V")),
        ("y", SortExpr("V")),
        ("f", SortExpr("E", (Term("x"), Term("y")))),
    )
    X = realize_bindings(sig, bindings)
    assert validate_presheaf(X) == []
    assert X.cells == {"V": ("x", "y"), "E": ("f",)}
    assert X.restriction[("f", "V>E:x")] == "x"
    assert X.restriction[("f", "V>E:y")] == "y"


# --- models -------------------------------------------------------------------


def test_chain_category_model_passes():
    theory = parse_theory(TCAT)
    report = check_model(theory, parse_model(CHAIN_MODEL))
    assert report.ok
    assert report.problems == ()
    assert [e.checked for e in report.equations] == [6, 6, 15]


def test_empty_model_passes_vacuously():
    theory = parse_theory(TCAT)
    report = check_model(theory, parse_model("sort V = {}"))
    assert report.ok
    assert [e.checked for e in report.equations] == [0, 0, 0]


def _parallel_edge_model(break_unit: bool) -> str:
    text = CHAIN_MODEL.replace("sort E(a, b) = {f}", "sort E(a, b) = {f, f2}")
    unit = "  c(f, ia) = f2\n" if break_unit else "  c(f, ia) = f\n"
    text = text.replace("  c(f, ia) = f\n", unit + "  c(f2, ia) = f2\n")
    text = text.replace("  c(ib, f) = f\n", "  c(ib, f) = f\n  c(ib, f2) = f2\n")
    text = text.replace("  c(g, f) = gf\n", "  c(g, f) = gf\n  c(g, f2) = gf\n")
    return text


def test_single_table_perturbation_names_the_violated_equation():
    theory = parse_theory(TCAT)
    good = check_model(theory, parse_model(_parallel_edge_model(False)))
    assert good.ok
    report = check_model(theory, parse_model(_parallel_edge_model(True)))
    assert not report.ok
    assert [e.witness is not None for e in report.equations] == [False, True, False]
    broken = report.equations[1]
    assert broken.label == "c(f, i(x)) = f"
    assert broken.witness == "x = a, y = b, f = f: c(f, i(x)) = f2 but f = f"
    assert report.failures == (
        "equation c(f, i(x)) = f fails at x = a, y = b, f = f: "
        "c(f, i(x)) = f2 but f = f",
    )


def test_cyclic_group_model_and_broken_associativity():
    theory = parse_theory(TCAT)
    assert check_model(theory, parse_model(Z3_MODEL)).ok
    broken = parse_model(Z3_MODEL.replace("c(z1, z2) = z0", "c(z1, z2) = z1"))
    report = check_model(theory, broken)
    assert not report.ok
    assoc = report.equations[2]
    assert assoc.label == "c(h, c(g, f)) = c(c(h, g), f)"
    assert assoc.witness is not None
    assert "f = z1" in assoc.witness


def test_first_counterexample_follows_the_canonical_order():
    theory = parse_theory(TCAT)
    broken = parse_model(Z3_MODEL.replace("c(z1, z2) = z0", "c(z1, z2) = z1"))
    first = check_model(theory, broken)
    second = check_model(theory, broken)
    assert first == second
    assert first.equations[2].witness.startswith("x = e, y = e, z = e, w = e,")


def test_model_sort_and_table_problems_are_reported():
    theory = parse_theory(TCAT)
    dup = parse_model("sort V = {a}\nsort E(a, a) = {a}\nop i table:\n  i(a) = a")
    report = check_model(theory, dup)
    assert any("two carriers" in p for p in report.problems)

    unknown = parse_model("sort W = {a}")
    assert any(
        "unknown type" in p for p in check_model(theory, unknown).problems
    )

    missing = parse_model("sort V = {a}\nsort E(a, a) = {ia}\nop c table:")
    report = check_model(theory, missing)
    assert any("table for i is missing i(a)" in p for p in report.problems)

    junk = parse_model(
        "sort V = {a}\nsort E(a, a) = {ia}\n"
        "op i table:\n  i(a) = ia\n"
        "op c table:\n  c(ia, ia) = ia\n  c(q, q) = ia"
    )
    report = check_model(theory, junk)
    assert any("not well-typed" in p for p in report.problems)


def test_model_parser_rejects_malformed_input():
    with pytest.raises(ParseError, match="duplicate carrier"):
        parse_model("sort V = {a}\nsort V = {b}")
    with pytest.raises(ParseError, match="line 1"):
        parse_model("frob V = {a}")
    with pytest.raises(ParseError, match="duplicate row"):
        parse_model("sort V = {a}\nop i table:\n  i(a) = a\n  i(a) = a")


def assert_isomorphism(C1: FinDirectCat, C2: FinDirectCat, iso: dict[str, str]) -> None:
    """iso is a bijection on objects and on morphisms that keeps endpoints,
    identities and composites."""
    assert sorted(iso[a] for a in C1.objects) == sorted(C2.objects)
    assert sorted(iso[f] for f in C1.morphisms) == sorted(C2.morphisms)
    for f, (a, b) in C1.morphisms.items():
        assert C2.morphisms[iso[f]] == (iso[a], iso[b])
    for a, i in C1.identities.items():
        assert C2.identities[iso[a]] == iso[i]
    for g, (b, _) in C1.morphisms.items():
        for f, (_, b2) in C1.morphisms.items():
            if b2 == b:
                assert C2.compose(iso[g], iso[f]) == iso[C1.compose(g, f)]


def test_found_isomorphisms_keep_the_structure():
    pairs = [
        (signature_to_lfd(parse_signature(GG1_SIG)), GG1),
        (signature_to_lfd(parse_signature(TRI_SIG)), SS2),
        (signature_to_lfd(lfd_to_signature(GG1)), GG1),
        (signature_to_lfd(lfd_to_signature(SS2)), SS2),
        (SS2, SS2),
    ]
    for C1, C2 in pairs:
        assert_isomorphism(C1, C2, cat_isomorphic(C1, C2))


IDS3 = {"a": "ia", "b": "ib", "c": "ic"}
TWO_WAYS = {
    **{i: (a, a) for a, i in IDS3.items()},
    "f": ("a", "b"), "f2": ("a", "b"), "g": ("b", "c"), "h": ("a", "c"), "h2": ("a", "c"),
}


def test_isomorphism_search_can_say_no():
    abc = ("a", "b", "c")
    apart = FinDirectCat(abc, TWO_WAYS, {("g", "f"): "h", ("g", "f2"): "h2"}, IDS3)
    merged = FinDirectCat(abc, TWO_WAYS, {("g", "f"): "h", ("g", "f2"): "h"}, IDS3)
    assert validate_lfd(apart).dims == validate_lfd(merged).dims
    assert cat_isomorphic(apart, merged) is None
    assert cat_isomorphic(merged, apart) is None
    assert_isomorphism(apart, apart, cat_isomorphic(apart, apart))

    ids = {"a": "ia", "b": "ib"}
    arrows = {"ia": ("a", "a"), "ib": ("b", "b"), "f": ("a", "b")}
    one = FinDirectCat(("a", "b"), arrows, {}, ids)
    two = FinDirectCat(("a", "b"), {**one.morphisms, "f2": ("a", "b")}, {}, ids)
    assert validate_lfd(one).dims == validate_lfd(two).dims
    assert cat_isomorphic(one, two) is None
    assert cat_isomorphic(two, one) is None


def test_isomorphism_keeps_identities():
    """The monoid {1, e} with e.e = e against a copy that lists 1 first:
    the identity 1 is still sent to the identity, and e to e."""
    law = {("e", "e"): "e"}
    one = FinDirectCat(("o",), {"e": ("o", "o"), "1": ("o", "o")}, law, {"o": "1"})
    first = FinDirectCat(("o",), {"1": ("o", "o"), "e": ("o", "o")}, law, {"o": "1"})
    assert_isomorphism(one, first, cat_isomorphic(one, first))


def test_two_cycle_is_reported_along_its_arrows():
    arrows = {"ia": ("a", "a"), "ib": ("b", "b"), "f": ("a", "b"), "g": ("b", "a")}
    cyclic = FinDirectCat(("a", "b"), arrows, {}, {"a": "ia", "b": "ib"})
    report = validate_lfd(cyclic)
    assert not report.ok
    assert report.dims == {}
    assert report.cycle[0] == report.cycle[-1] and set(report.cycle) == {"a", "b"}
    for x, y in zip(report.cycle, report.cycle[1:]):
        assert any(
            ends == (x, y) and not cyclic.is_identity(m) for m, ends in arrows.items()
        )
    with pytest.raises(ValueError, match="not direct"):
        object_dimensions(cyclic)

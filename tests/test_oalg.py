"""Algebras over opetopic sets: free pastings, the monad laws, finite
categories, ordinal realization, diagrammatic morphisms, and nerves."""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import pytest

from opetopes.opetope import (
    ARROW,
    POINT,
    Addr,
    Degenerate,
    STAR,
    T_GEN,
    Tree,
    corolla,
    enumerate_opetopes,
    faces,
    generators,
    node_addrs,
    opetopic_integer,
    parse,
    readdress,
    render,
    size,
    source,
    target,
    tree,
)
from opetopes.opset import (
    FinOpSet,
    WindowMismatch,
    maps,
    render_gen,
    representable,
    validate_opset,
)
from opetopes.oalg import (
    FiniteCategory,
    LambdaMorphism,
    NotACategory,
    NotComposable,
    OAlgebra,
    PastingCell,
    ShapeMismatch,
    category_algebra,
    category_family,
    check_algebra_laws,
    ensure_category,
    free_cells,
    h_morphism,
    h_object,
    monad_unit,
    nerve_axioms_check,
    nerve_category,
    parse_category,
    pasting_chain,
)

from monad_oracle import monad_mult, split_pasting
from paper_results import Diagram, diagram_compose, diagram_for_monotone, diagram_map
from scaffold import lambda_identity, monotone_maps, terminal_opset

I = opetopic_integer
E1 = Addr(1)
E2 = Addr(2)
XI_EX = parse("{ [] <- I3 [[*]] <- I2 [[**]] <- I1 }")


def a1(j: int) -> Addr:
    return Addr(1, (STAR,) * j)


# Graph with a composable pair and a loop: v0 -e0-> v1 -e1-> v2, e2: v2 -> v2.
GRAPH_EDGES = {"e0": ("v0", "v1"), "e1": ("v1", "v2"), "e2": ("v2", "v2")}


def graph_family(edges: dict[str, tuple[str, str]], vertices: tuple[str, ...]) -> FinOpSet:
    fac = {}
    for e, (a, b) in edges.items():
        fac[(e, ("s", STAR))] = a
        fac[(e, T_GEN)] = b
    return FinOpSet((0, 1), {POINT: vertices, ARROW: tuple(sorted(edges))}, fac)


GRAPH = graph_family(GRAPH_EDGES, ("v0", "v1", "v2"))
GRAPH_CELLS = free_cells(GRAPH, ARROW, 4)


def by_path(shape, start: str, *es: str) -> PastingCell:
    for c in GRAPH_CELLS:
        if c.shape == shape and pasting_chain(c) == (start, es):
            return c
    raise KeyError((start, es))


def graph_paths(
    vertices: tuple[str, ...], edges: dict[str, tuple[str, str]], bound: int
) -> set[tuple[str, tuple[str, ...]]]:
    """Directed paths with at most bound edges, by breadth-first search."""
    out = {(v, ()) for v in vertices}
    frontier = [(v, v, ()) for v in vertices]
    for _ in range(bound):
        nxt = []
        for start, tip, path in frontier:
            for name, (a, b) in edges.items():
                if a == tip:
                    nxt.append((start, b, path + (name,)))
        out |= {(s, p) for s, _, p in nxt}
        frontier = nxt
    return out


# ----------------------------------------------------------------- free pastings


def test_free_cells_are_paths():
    got = {pasting_chain(c) for c in GRAPH_CELLS}
    want = graph_paths(("v0", "v1", "v2"), GRAPH_EDGES, 4)
    assert len(GRAPH_CELLS) == len(got) == 15
    assert got == want


def test_free_cell_shape_matches_path_length():
    for c in GRAPH_CELLS:
        start, es = pasting_chain(c)
        assert c.shape == I(len(es))
        assert c.output == ARROW or len(es) == 0 and isinstance(c.shape, Degenerate)


def test_free_cells_rejects_wrong_output_dimension():
    with pytest.raises(ShapeMismatch):
        free_cells(GRAPH, POINT, 3)


def test_unit_is_the_one_edge_path():
    u = monad_unit(GRAPH, "e1")
    assert u == by_path(I(1), "v1", "e1")
    with pytest.raises(ShapeMismatch):
        monad_unit(GRAPH, "v0")


def test_pasting_face_reads_endpoints():
    def face_value(cell: PastingCell, gen) -> str:
        """The filling at the face word (t, gen) of the pasting's shape."""
        return cell.filling(faces(cell.shape).name((T_GEN, gen)))

    c = by_path(I(2), "v0", "e0", "e1")
    assert face_value(c, ("s", STAR)) == "v0"
    assert face_value(c, T_GEN) == "v2"
    d = by_path(I(0), "v1")
    assert face_value(d, T_GEN) == "v1"
    assert pasting_chain(d) == ("v1", ())


# ------------------------------------------------------------------ monad laws


def test_unit_laws_on_all_small_pastings():
    for cell in GRAPH_CELLS:
        nu = cell.shape
        xi_l = tree({E2: corolla(target(nu)), Addr(2, (E1,)): nu})
        assert monad_mult(GRAPH, xi_l, {E1: cell}) == cell
        if isinstance(nu, Tree):
            nodes = {E2: nu}
            inner = {}
            for p in node_addrs(nu):
                nodes[E2.extend(p)] = corolla(source(nu, p))
                inner[p] = monad_unit(GRAPH, cell.filling(f"s{p}"))
            assert monad_mult(GRAPH, tree(nodes), inner) == cell


def test_mult_concatenates_paths():
    xi = tree({E2: I(2), E2.extend(E1): I(1), E2.extend(a1(1)): I(2)})
    inner = {E1: by_path(I(1), "v2", "e2"), a1(1): by_path(I(2), "v0", "e0", "e1")}
    flat = monad_mult(GRAPH, xi, inner)
    assert flat.shape == I(3)
    assert pasting_chain(flat) == ("v0", ("e0", "e1", "e2"))
    back = split_pasting(GRAPH, xi, flat)
    assert back == inner


def test_mult_with_degenerate_inner_drops_a_node():
    xi = tree({E2: I(2), E2.extend(E1): I(0), E2.extend(a1(1)): I(1)})
    flat = monad_mult(GRAPH, xi, {E1: by_path(I(0), "v2"), a1(1): by_path(I(1), "v1", "e1")})
    assert flat.shape == I(1)
    assert pasting_chain(flat) == ("v1", ("e1",))


def test_mult_rejects_mismatched_degenerate_colour():
    xi = tree({E2: I(2), E2.extend(E1): I(0), E2.extend(a1(1)): I(1)})
    with pytest.raises(ShapeMismatch, match="conflicting values"):
        monad_mult(GRAPH, xi, {E1: by_path(I(0), "v0"), a1(1): by_path(I(1), "v1", "e1")})


def test_mult_with_degenerate_outer_needs_a_colour():
    xi = corolla(I(0))
    with pytest.raises(ShapeMismatch, match="colour"):
        monad_mult(GRAPH, xi, {})
    got = monad_mult(GRAPH, xi, {}, shell="v1")
    assert got == by_path(I(0), "v1")


def test_mult_validates_its_input():
    with pytest.raises(ShapeMismatch, match="uniform height 2"):
        monad_mult(GRAPH, XI_EX, {})
    xi = tree({E2: I(1), E2.extend(E1): I(1)})
    with pytest.raises(ShapeMismatch, match="indexed by the outer nodes"):
        monad_mult(GRAPH, xi, {})
    with pytest.raises(ShapeMismatch, match="has shape"):
        monad_mult(GRAPH, xi, {E1: by_path(I(2), "v0", "e0", "e1")})
    with pytest.raises(ShapeMismatch, match="dimension"):
        monad_mult(GRAPH, I(2), {})


def test_split_checks_the_flattened_shape():
    xi = tree({E2: I(2), E2.extend(E1): I(1), E2.extend(a1(1)): I(2)})
    with pytest.raises(ShapeMismatch, match="expected"):
        split_pasting(GRAPH, xi, by_path(I(1), "v1", "e1"))


# Three stacked layers flattened in either order must agree.  layers maps
# each node of alpha to its middle shape with bottom cells, or directly to a
# ready pasting cell when the middle shape there is degenerate.
Layer = "PastingCell | tuple"


def route_a(alpha, layers) -> PastingCell:
    inner = {}
    for p in node_addrs(alpha):
        lay = layers[p]
        if isinstance(lay, PastingCell):
            inner[p] = lay
            continue
        beta, gz = lay
        nodes = {E2: beta}
        for l in node_addrs(beta):
            nodes[E2.extend(l)] = gz[l].shape
        inner[p] = monad_mult(GRAPH, tree(nodes), gz)
    nodes = {E2: alpha}
    for p in node_addrs(alpha):
        nodes[E2.extend(p)] = inner[p].shape
    return monad_mult(GRAPH, tree(nodes), inner)


def route_b(alpha, layers) -> PastingCell:
    betas = {
        p: (lay.shape if isinstance(lay, PastingCell) else lay[0])
        for p, lay in layers.items()
    }
    xi = tree({E2: alpha, **{E2.extend(p): beta for p, beta in betas.items()}})
    flat = target(xi)
    placed = {a: j.entries for j, a in readdress(xi).items()}
    if isinstance(flat, Degenerate):
        v = next(
            lay.filling(c)
            for lay in layers.values()
            if isinstance(lay, PastingCell)
            for c in lay.filling.src.of_shape(POINT)
        )
        return monad_mult(GRAPH, corolla(flat), {}, shell=v)
    nodes = {E2: flat}
    inner = {}
    for a, (p, l) in placed.items():
        inner[a] = layers[p][1][l]
        nodes[E2.extend(a)] = inner[a].shape
    return monad_mult(GRAPH, tree(nodes), inner)


ASSOC_TOWERS = [
    (
        I(2),
        {
            E1: (I(1), {E1: "I2 v2 e2 e2"}),
            a1(1): (I(2), {E1: "I1 v1 e1", a1(1): "I1 v0 e0"}),
        },
        ("v0", ("e0", "e1", "e2", "e2")),
    ),
    (
        I(2),
        {
            E1: (I(1), {E1: "I0 v2"}),
            a1(1): (I(2), {E1: "I2 v1 e1 e2", a1(1): "I1 v0 e0"}),
        },
        ("v0", ("e0", "e1", "e2")),
    ),
    (
        I(2),
        {
            E1: "I0 v2",
            a1(1): (I(2), {E1: "I1 v2 e2", a1(1): "I2 v0 e0 e1"}),
        },
        ("v0", ("e0", "e1", "e2")),
    ),
    (
        I(3),
        {
            E1: (I(1), {E1: "I1 v1 e1"}),
            a1(1): "I0 v1",
            a1(2): (I(2), {E1: "I1 v0 e0", a1(1): "I0 v0"}),
        },
        ("v0", ("e0", "e1")),
    ),
    (
        I(1),
        {E1: "I0 v2"},
        ("v2", ()),
    ),
]


def decode_cell(label: str) -> PastingCell:
    shape, start, *es = label.split()
    return by_path(I(int(shape[1:])), start, *es)


def decode_layers(layers):
    out = {}
    for p, lay in layers.items():
        if isinstance(lay, str):
            out[p] = decode_cell(lay)
        else:
            beta, gz = lay
            out[p] = (beta, {l: decode_cell(s) for l, s in gz.items()})
    return out


@pytest.mark.parametrize("case", range(len(ASSOC_TOWERS)))
def test_mult_is_associative(case):
    alpha, raw, expected = ASSOC_TOWERS[case]
    layers = decode_layers(raw)
    a = route_a(alpha, layers)
    b = route_b(alpha, layers)
    assert a == b
    assert pasting_chain(a) == expected


# -------------------------------------------------------------------- algebras


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


def test_category_algebra_satisfies_the_laws():
    C = parse_category(CHAIN_CAT)
    A = category_algebra(C, 6)
    report = check_algebra_laws(A)
    assert report.ok
    assert report.units_checked == 6
    assert report.squares_checked == 49
    assert report.failures == ()


def test_algebra_table_is_bounded():
    C = parse_category(CHAIN_CAT)
    A = category_algebra(C, 4)
    big = [c for c in free_cells(A.base, ARROW, 5) if size(c.shape) == 5]
    assert big
    with pytest.raises(ShapeMismatch, match="built up to 4 nodes"):
        A.compose(big[0])


def test_algebra_refuses_degenerate_pastings_past_the_bound():
    # {{arrow}} has no nodes, but its output sort I1 has one
    X = terminal_opset((1, 2), 1)
    cells = [c for c in free_cells(X, I(1), 1) if isinstance(c.shape, Degenerate)]
    assert [render(c.shape) for c in cells] == ["{{arrow}}"]
    A = OAlgebra(X, lambda cell: "never", 0)
    with pytest.raises(ShapeMismatch, match="built up to 0 nodes"):
        A.compose(cells[0])


@pytest.mark.parametrize("m, units, squares", [(4, 4, 2), (6, 6, 4), (8, 8, 12)])
def test_laws_hold_over_the_window_one_two(m, units, squares):
    # n is the top of the window: the units are corollas of 2-shapes, and a
    # rule that answers a unit with a cell of another shape fails
    X = terminal_opset((1, 2), m)
    report = check_algebra_laws(OAlgebra(X, lambda cell: X.of_shape(cell.output)[0], m))
    assert (report.units_checked, report.squares_checked, report.failures) == (units, squares, ())
    x, y = X.of_shape(I(1))[0], X.of_shape(I(2))[0]

    def rule(cell: PastingCell) -> str:
        return y if cell == monad_unit(X, x) else X.of_shape(cell.output)[0]

    report = check_algebra_laws(OAlgebra(X, rule, m))
    assert f"unit: compose(unit({x})) = {y}" in report.failures


def test_algebra_refuses_pastings_over_another_family():
    other = graph_family({"d0": ("w0", "w1")}, ("w0", "w1"))
    A = OAlgebra(GRAPH, lambda cell: "e0", 4)
    for cell in free_cells(other, ARROW, 2):
        with pytest.raises(ShapeMismatch, match="built up to 4 nodes"):
            A.compose(cell)
    # nor one of the wrong dimension, though its filling lands in the family
    with pytest.raises(ShapeMismatch, match="built up to 4 nodes"):
        A.compose(PastingCell(ARROW, monad_unit(GRAPH, "e0").filling))


def test_algebra_applies_its_rule_only_on_compose():
    def rule(cell: PastingCell) -> str:
        raise RuntimeError(f"no value for {cell}")

    A = OAlgebra(GRAPH, rule, 4)
    with pytest.raises(RuntimeError, match="no value for pasting of shape I1"):
        A.compose(by_path(I(1), "v0", "e0"))


def test_nonassociative_table_fails_the_square():
    elems = ("m0", "m1", "m2")
    X = FinOpSet(
        (0, 1),
        {POINT: ("p",), ARROW: elems},
        {(e, ("s", STAR)): "p" for e in elems} | {(e, T_GEN): "p" for e in elems},
    )

    def star(a: str, b: str) -> str:
        return f"m{max(int(a[1]) - int(b[1]), 0)}"

    def rule(cell: PastingCell) -> str:
        _, edges = pasting_chain(cell)
        if not edges:
            return "m0"
        c = edges[0]
        for e in edges[1:]:
            c = star(e, c)
        return c

    A = OAlgebra(X, rule, 8)
    report = check_algebra_laws(A)
    assert not report.ok
    assert report.units_checked == 3
    assert len(report.failures) == 34
    assert all("square at" in f for f in report.failures)


# ------------------------------------------------------------ finite categories


def test_parse_category_walking_arrow():
    C = parse_category(
        "obj x y\nmor ix: x -> x\nmor iy: y -> y\nmor f: x -> y\nid x = ix\nid y = iy\n"
    )
    assert C.objects == ("x", "y")
    assert C.src("f") == "x" and C.tgt("f") == "y"
    assert C.compose("iy", "f") == "f"
    assert C.compose("f", "ix") == "f"
    assert C.chain_composite("x", ("ix", "f", "iy")) == "f"
    assert C.chain_composite("y", ()) == "iy"


def test_parse_category_reports_the_line():
    with pytest.raises(NotACategory, match="line 2"):
        parse_category("obj a\nfrob a\n")


def test_category_axioms_are_enforced():
    with pytest.raises(NotACategory, match="no identity"):
        parse_category("obj a\nmor f: a -> a\n")
    with pytest.raises(NotACategory, match="not composable"):
        parse_category(
            "obj a b\nmor ia: a -> a\nmor ib: b -> b\nmor f: a -> b\n"
            "id a = ia\nid b = ib\ncomp f.ib = f\n"
        )
    with pytest.raises(NotACategory, match="no composite"):
        parse_category(
            "obj a\nmor ia: a -> a\nmor f: a -> a\nid a = ia\n"
        )


def test_associativity_is_enforced():
    C = FiniteCategory(
        ("a",),
        {"ia": ("a", "a"), "f": ("a", "a"), "g": ("a", "a")},
        {("f", "f"): "g", ("g", "g"): "g", ("f", "g"): "f", ("g", "f"): "g"},
        {"a": "ia"},
    )
    with pytest.raises(NotACategory, match="associativity"):
        ensure_category(C)


def test_category_family_is_its_graph():
    C = parse_category(CHAIN_CAT)
    X = category_family(C)
    assert set(X.of_shape(POINT)) == {"o.a", "o.b", "o.c"}
    assert len(X.of_shape(ARROW)) == 6
    assert validate_opset(X) == []


# --------------------------------------------------------- ordinal realization


def test_realized_ordinals():
    assert h_object(POINT) == 0
    assert h_object(ARROW) == 1
    assert h_object(I(3)) == 3
    assert h_object(XI_EX) == 4
    with pytest.raises(ValueError):
        h_object(corolla(XI_EX))


def test_realized_faces_of_low_shapes():
    assert h_morphism(ARROW, ("s", STAR)).values == (0,)
    assert h_morphism(ARROW, T_GEN).values == (1,)
    assert h_morphism(I(4), T_GEN).values == (0, 4)
    assert h_morphism(I(4), ("s", a1(2))).values == (1, 2)
    assert h_morphism(I(0), T_GEN).values == (0, 0)


def test_realized_faces_of_three_shapes():
    assert h_morphism(XI_EX, T_GEN) == lambda_identity(4)
    assert h_morphism(XI_EX, ("s", E2)).values == (0, 1, 3, 4)
    assert h_morphism(XI_EX, ("s", Addr(2, (a1(1),)))).values == (1, 2, 3)
    assert h_morphism(XI_EX, ("s", Addr(2, (a1(2),)))).values == (0, 1)
    xi_d3 = tree({E2: I(2), Addr(2, (a1(1),)): I(2)})
    assert h_morphism(xi_d3, ("s", Addr(2, (a1(1),)))).values == (0, 1, 2)
    xi_s0 = tree({E2: I(2), Addr(2, (a1(1),)): I(0)})
    assert h_morphism(xi_s0, ("s", E2)).values == (0, 0, 1)
    assert h_morphism(xi_s0, ("s", Addr(2, (a1(1),)))).values == (0,)


def test_realized_face_blocks_tile():
    # The root face spans the whole target ordinal, and each child face
    # spans exactly the segment its input occupies in the parent face.
    for xi in enumerate_opetopes(3, 5):
        if not isinstance(xi, Tree):
            continue
        m = h_object(xi)
        phis = {p: h_morphism(xi, ("s", p)) for p in node_addrs(xi)}
        root = phis[E2]
        assert root(0) == 0 and root(root.src) == m
        for c in node_addrs(xi):
            if c == E2:
                continue
            parent = phis[c.parent()]
            j = len(c.last().entries)
            assert phis[c](0) == parent(parent.src - 1 - j)
            assert phis[c](phis[c].src) == parent(parent.src - j)


H_GOLDEN = Path(__file__).resolve().parent / "golden" / "oalg-h.txt"


def h_lines() -> list[str]:
    """One line SHAPE FACE VALUES per generating face of arrow, I0-I6 and
    every 3-shape of at most 7 nodes."""
    shapes = [ARROW] + [I(m) for m in range(7)] + list(enumerate_opetopes(3, 7))
    return [
        f"{render(w)} {render_gen(g)} {','.join(map(str, h_morphism(w, g).values))}"
        for w in shapes
        for g in generators(w)
    ]


def test_realized_faces_match_golden():
    assert h_lines() == H_GOLDEN.read_text(encoding="utf-8").splitlines()


def test_monotone_map_validation():
    with pytest.raises(ValueError, match="monotone"):
        LambdaMorphism(1, 1, (1, 0))
    with pytest.raises(ValueError, match="outside"):
        LambdaMorphism(1, 1, (0, 2))
    with pytest.raises(ValueError, match="number of values"):
        LambdaMorphism(2, 2, (0, 1))
    with pytest.raises(NotComposable):
        LambdaMorphism(1, 1, (0, 1)).after(LambdaMorphism(1, 2, (0, 1)))


def test_monotone_map_enumeration_counts():
    assert len(monotone_maps(1, 1)) == 3
    assert len(monotone_maps(2, 3)) == 20
    assert lambda_identity(3) in monotone_maps(3, 3)
    rng = random.Random(7)
    pool = [m for p in range(4) for q in range(4) for m in monotone_maps(p, q)]
    for _ in range(200):
        f = rng.choice(pool)
        g = rng.choice([x for x in pool if x.src == f.dst])
        h = rng.choice([x for x in pool if x.src == g.dst])
        assert h.after(g).after(f) == h.after(g.after(f))


def test_realized_faces_generate_all_monotone_maps():
    # Faces of shapes up to dimension 3 close under composition to the whole
    # arrow category of ordinals up to [3].
    gens = {h_morphism(ARROW, ("s", STAR)), h_morphism(ARROW, T_GEN)}
    for m in range(4):
        for g in generators(I(m)):
            gens.add(h_morphism(I(m), g))
    for xi in enumerate_opetopes(3, 6):
        if h_object(xi) > 3:
            continue
        gens.add(h_morphism(xi, T_GEN))
        if isinstance(xi, Tree):
            for p in node_addrs(xi):
                f = h_morphism(xi, ("s", p))
                if f.src <= 3:
                    gens.add(f)
    closed = set(gens)
    frontier = set(gens)
    while frontier:
        new = set()
        for f in frontier:
            for g in closed:
                if g.dst == f.src and f.after(g) not in closed:
                    new.add(f.after(g))
                if f.dst == g.src and g.after(f) not in closed:
                    new.add(g.after(f))
        closed |= new
        frontier = new
    for m in range(4):
        for mp in range(4):
            have = {f for f in closed if (f.src, f.dst) == (m, mp)}
            assert have == set(monotone_maps(m, mp)), (m, mp)


# ---------------------------------------------------------------------- diagrams


def test_diagram_validation():
    with pytest.raises(ValueError, match="dimension 3"):
        Diagram(I(2), E1)
    with pytest.raises(ValueError, match="not a node"):
        Diagram(XI_EX, Addr(2, (a1(3),)))
    with pytest.raises(ValueError, match="m >= 1"):
        diagram_for_monotone(lambda_identity(0))


def test_every_monotone_map_is_a_diagram():
    for m in range(1, 5):
        for mp in range(5):
            for f in monotone_maps(m, mp):
                d = diagram_for_monotone(f)
                assert d.source_shape == I(m)
                assert d.target_shape == I(mp)
                assert diagram_map(d) == f


def test_diagram_composition_is_functorial():
    diagrams = []
    for xi in enumerate_opetopes(3, 4):
        if isinstance(xi, Tree):
            diagrams.extend(Diagram(xi, p) for p in node_addrs(xi))
    pairs = 0
    for d1 in diagrams:
        for d2 in diagrams:
            if target(d1.shape) != source(d2.shape, d2.node):
                continue
            pairs += 1
            c = diagram_compose(d1, d2)
            assert diagram_map(c) == diagram_map(d2).after(diagram_map(d1))
    assert pairs == 44


def test_diagram_composition_recovers_identities():
    # Collapsing the repeated vertex undoes inserting it, on either side.
    collapse = diagram_for_monotone(LambdaMorphism(2, 1, (0, 0, 1)))
    for skip in ((0, 2), (1, 2)):
        insert = diagram_for_monotone(LambdaMorphism(1, 2, skip))
        got = diagram_compose(insert, collapse)
        assert diagram_map(got) == lambda_identity(1)


def test_diagram_composition_checks_interfaces():
    d = diagram_for_monotone(LambdaMorphism(1, 2, (0, 1)))
    with pytest.raises(NotComposable):
        diagram_compose(d, d)


# ------------------------------------------------------------------------ nerves


WALKING_ARROW = (
    "obj x y\nmor ix: x -> x\nmor iy: y -> y\nmor f: x -> y\nid x = ix\nid y = iy\n"
)


def test_nerve_of_the_walking_arrow():
    N = nerve_category(parse_category(WALKING_ARROW), 4)
    assert validate_opset(N) == []
    assert sorted(N.of_shape(I(2))) == ["c.x.f.iy", "c.x.ix.f", "c.x.ix.ix", "c.y.iy.iy"]
    assert N.faces[("c.x.ix.f", ("s", Addr(1)))] == "a.f"
    assert N.faces[("c.x.ix.f", ("s", a1(1)))] == "a.ix"
    assert N.faces[("c.x.ix.f", T_GEN)] == "a.f"
    assert len(maps(representable(I(2), (0, 3)), N)) == 4


def test_nerve_satisfies_the_axioms():
    N = nerve_category(parse_category(WALKING_ARROW), 4)
    report = nerve_axioms_check(N, 4)
    assert report.ok
    assert report.flags == {"segal2": True, "segal3": True, "boundary3": True}
    assert report.failures == ()


def test_an_empty_categorys_nerve_has_no_cells_at_any_bound():
    empty = FiniteCategory((), {}, {}, {})
    for bound in range(5):
        N = nerve_category(empty, bound)
        assert N.window == (0, 3)
        assert N.all_cells() == []
        assert N == FinOpSet((0, 3), {}, {})


def test_nerve_of_the_terminal_category_is_terminal():
    N = nerve_category(parse_category("obj a\nmor ia: a -> a\nid a = ia\n"), 3)
    T = terminal_opset((0, 3), 3)
    assert {render(s): len(N.of_shape(s)) for s in N.shapes()} == {
        render(s): len(T.of_shape(s)) for s in T.shapes()
    }
    assert all(len(N.of_shape(s)) == 1 for s in N.shapes())


def test_nerve_axioms_detect_a_missing_composite():
    N = nerve_category(parse_category(WALKING_ARROW), 3)
    drop = "c.x.ix.f"
    dead = {cid for (cid, _), v in N.faces.items() if v == drop}
    cells = {
        s: tuple(c for c in N.of_shape(s) if c != drop and c not in dead)
        for s in N.shapes()
    }
    faces = {
        (cid, g): v
        for (cid, g), v in N.faces.items()
        if cid != drop and cid not in dead
    }
    B = FinOpSet((0, 3), cells, faces)
    assert validate_opset(B) == []
    report = nerve_axioms_check(B, 3)
    assert not report.ok
    assert not report.flags["segal2"]
    assert (
        "spine extension in dimension 2 fails at I2: a map extends 0 times"
        in report.failures
    )


def test_nerve_axioms_name_a_doubled_three_cell():
    N = nerve_category(parse_category(WALKING_ARROW), 3)
    w = next(s for s in N.shapes() if s.dim == 3)
    x = N.of_shape(w)[0]
    cells = {**N.cells, w: N.of_shape(w) + ("twin",)}
    faces = {**N.faces, **{("twin", g): y for (c, g), y in N.faces.items() if c == x}}
    B = FinOpSet((0, 3), cells, faces)
    assert validate_opset(B) == []
    report = nerve_axioms_check(B, 3)
    assert report.flags == {"segal2": True, "segal3": False, "boundary3": False}
    assert report.failures == (
        "spine extension in dimension 3 fails at {[] <- I0}: a map extends 2 times",
        "boundary extension in dimension 3 fails at {[] <- I0}: a map extends 2 times",
    )


def test_nerve_axioms_require_the_full_window():
    with pytest.raises(WindowMismatch):
        nerve_axioms_check(GRAPH, 2)

"""Properties over generated shapes, finite categories and presheaves.

Shapes are random trees of dimension 3 and 4 whose nodes carry small
decorations.  Checked: the face identities hold, and the readdressing is a
bijection onto the target's nodes that agrees with the peeling oracle.
On dimension-3 shapes, the text form of an opetopic set reads back its
representable, boundary and spine in every window that holds the shape.

Categories are random posets of up to four objects, cyclic monoids and
left-zero monoids.  Checked: the category axioms hold, into and
is_identity agree with a scan of the tables (on these and on tables that
form no category), posets are finite direct categories, maps out of a
representable into a nerve are its cells at that shape (Yoneda), the
isomorphism search agrees with the first bijective map of the full map
search, the nerve's 2-cells are the chains with the faces the arrows
read off by hand (arrow i of I_m at [*^(m-1-i)]), each 3-cell's target
is the 2-cell of its own chain, and the nerve cut at the node bound 0, 1
or 2 passes the nerve checks at that bound.  The nerve theorem both ways
at (1, 1): a nerve with one 2- or 3-cell removed, or doubled, fails every
row of the check that asks the cell's dimension, at the cell's shape;
`category_of` reads the category back off its nerve, and the nerve of
the category read off a renamed nerve is that nerve again, through a
bijective map that `maps` finds.  On these nerves and on
terminal sets, each maybe less one cell, `orthogonal_witness` against a
spine or boundary agrees with counting every map out of the
representable, also where the shape lies above the window.

Type signatures are the signatures of generated posets, globular
signatures up to dimension 4, bipartite signatures, and signatures whose
types list their arguments in a drawn order and bind repeated sorts.
Checked: their categories equal those of the search oracle
`signature_oracle`, items in the same order; and every poset, monoid and
signature category is found isomorphic, through its structure, to a copy
renamed at random with its tables reordered.

The presheaf kernel, on representables and boundaries over generated
posets, on realized graph contexts, and on opetopic representables and
boundaries of small shapes: every map the search finds passes the
naturality check, every map that re-points one cell against its faces
fails it at that cell, and a set of cells that drops a face of a kept
cell is refused as a sub-presheaf.  On posets' presheaves and realized
graph contexts, the injective map search yields exactly the injective
maps of the plain search, in the same order.

The free pasting monad, over the graphs of the 3-object chain and of Z/2:
on every filling of every uniform-height-2 shape of at most 7 nodes,
splitting and then multiplying gives the filling back, and each slice is
a natural map that covers its whole spine.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opetopes import oalg, opset
from opetopes.oalg import (
    FiniteCategory,
    PastingCell,
    _height_two_shapes,
    _nerve_shapes,
    category_algebra,
    category_family,
    check_algebra_laws,
    ensure_category,
    nerve_axioms_check,
    nerve_category,
)
from opetopes.opetope import (
    STAR,
    T_GEN,
    Addr,
    check_identities,
    enumerate_opetopes,
    epsilon,
    leaf_addrs,
    node_addrs,
    opetopic_integer,
    render,
    readdress,
    source,
    target,
    tree,
)
from opetopes.kernel import sub_presheaf
from opetopes.opset import (
    FinOpSet,
    boundary,
    dump_opset,
    hlift_check,
    load_opset,
    maps,
    orthogonal_witness,
    representable,
    spine,
)
from opetopes.theory import (
    PshMap,
    SortExpr,
    Term,
    cat_isomorphic,
    check_psh_map,
    lfd_to_signature,
    natural_maps,
    psh_isomorphism,
    realize_bindings,
    roundtrip_isomorphism,
    signature_category,
    signature_to_lfd,
    validate_lfd,
)

from monad_oracle import monad_mult, split_pasting
from paper_results import boundary_c, category_of, psh_maps, representable_psh
from peel_oracle import peel_target_readdress
from scaffold import parse_signature, terminal_opset
from test_opset import counting_witness, without_cell
from signature_oracle import oracle_signature_category
from test_theory import assert_isomorphism

SETTINGS = settings(max_examples=25, deadline=None)


@st.composite
def shapes(draw, n: int, max_nodes: int = 10):
    """A tree of dimension n: breadth first, each input of a node gets a
    child, decorated to match the input's colour, or stays a leaf."""
    decs = enumerate_opetopes(n - 1, 4)
    by_target: dict = {}
    for d in decs:
        by_target.setdefault(target(d), []).append(d)
    root = epsilon(n - 1)
    nodes = {root: draw(st.sampled_from(decs))}
    queue = [root]
    while queue:
        a = queue.pop(0)
        for q in node_addrs(nodes[a]):
            if len(nodes) < max_nodes and draw(st.booleans()):
                nodes[a.extend(q)] = draw(st.sampled_from(by_target[source(nodes[a], q)]))
                queue.append(a.extend(q))
    return tree(nodes)


@SETTINGS
@given(st.one_of(shapes(3), shapes(4)))
def test_identities_and_readdressing_on_generated_shapes(w):
    assert check_identities(w) == []
    p = readdress(w)
    assert sorted(p, key=lambda a: a.key) == list(leaf_addrs(w))
    assert sorted(p.values(), key=lambda a: a.key) == list(node_addrs(target(w)))
    assert (target(w), p) == peel_target_readdress(w)


@SETTINGS
@given(shapes(3))
def test_text_form_reads_back_representables_boundaries_and_spines(w):
    for lo in range(w.dim + 1):
        for X in (representable(w, (lo, w.dim)), boundary(w, (lo, w.dim)).src,
                  spine(w, (lo, w.dim)).src):
            assert load_opset(dump_opset(X)) == X


def poset_category(n: int, less: set[tuple[int, int]]) -> FiniteCategory:
    """The poset on 0..n-1 generated by the relations i < j in less."""
    le = {(i, i) for i in range(n)} | less
    while True:
        extra = {(i, k) for i, j in le for j2, k in le if j == j2} - le
        if not extra:
            break
        le |= extra
    name = {(i, j): f"m{i}_{j}" for i, j in le}
    composition = {
        (name[j, k], name[i, j]): name[i, k]
        for i, j in le
        for j2, k in le
        if j == j2 and i != j and j != k
    }
    return FiniteCategory(
        tuple(f"p{i}" for i in range(n)),
        {m: (f"p{i}", f"p{j}") for (i, j), m in name.items()},
        composition,
        {f"p{i}": name[i, i] for i in range(n)},
    )


def monoid_category(kind: str, size: int) -> FiniteCategory:
    """One object; `cyclic` is Z/size, `leftzero` is a unit plus size-1
    left zeros (g after f is g unless g is the unit)."""
    elems = [f"e{i}" for i in range(size)]

    def mul(g: int, f: int) -> int:
        return (g + f) % size if kind == "cyclic" else g

    return FiniteCategory(
        ("o",),
        {e: ("o", "o") for e in elems},
        {(elems[g], elems[f]): elems[mul(g, f)] for g in range(1, size) for f in range(1, size)},
        {"o": "e0"},
    )


@st.composite
def posets(draw) -> FiniteCategory:
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return poset_category(n, set(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []))


monoids = st.builds(monoid_category, st.sampled_from(["cyclic", "leftzero"]), st.integers(1, 4))
categories = st.one_of(posets(), monoids)


@SETTINGS
@given(categories)
def test_generated_categories_satisfy_the_axioms(C):
    ensure_category(C)


@st.composite
def raw_tables(draw) -> FiniteCategory:
    """Morphism and identity tables that need not form a category: ends
    may lie outside the objects, and an identity may be any morphism."""
    objects = tuple(f"p{i}" for i in range(draw(st.integers(0, 3))))
    ends = st.sampled_from(objects + ("q",))
    morphisms = draw(st.dictionaries(st.sampled_from("abcdefgh"), st.tuples(ends, ends)))
    names = sorted(morphisms)
    identities = {a: draw(st.sampled_from(names)) for a in objects if names and draw(st.booleans())}
    return FiniteCategory(objects, morphisms, {}, identities)


def scanned_into(C: FiniteCategory, c: str) -> tuple[str, ...]:
    """into as a scan of the whole morphism table."""
    return tuple(
        sorted(f for f, (_, b) in C.morphisms.items() if b == c and f not in C.identities.values())
    )


@SETTINGS
@given(st.one_of(categories, raw_tables()))
def test_into_and_is_identity_agree_with_a_scan_of_the_tables(C):
    for c in C.objects + ("q", "r"):
        assert C.into(c) == scanned_into(C, c)
    for f in C.morphisms:
        assert C.is_identity(f) == (f in C.identities.values())


@SETTINGS
@given(posets())
def test_posets_are_finite_direct_categories(P):
    report = validate_lfd(P)
    assert report.ok, report.problems
    assert set(report.dims) == set(P.objects)


@SETTINGS
@given(categories)
def test_yoneda_on_nerves(C):
    N = nerve_category(C, 2)
    for w in N.shapes():
        assert len(maps(representable(w, N.window), N)) == len(N.of_shape(w))


@SETTINGS
@given(categories)
def test_nerve_cells_are_chains_with_hand_read_faces(C):
    N = nerve_category(C, 3)
    for m in range(4):
        chains = [(a, ()) for a in C.objects] if m == 0 else [
            (C.src(ms[0]), ms)
            for ms in itertools.product(sorted(C.morphisms), repeat=m)
            if all(C.tgt(f) == C.src(g) for f, g in zip(ms, ms[1:]))
        ]
        names = [".".join(("c", start) + ms) for start, ms in chains]
        assert sorted(N.of_shape(opetopic_integer(m))) == sorted(names)
        for cid, (start, ms) in zip(names, chains):
            for i in range(m):
                assert N.faces[(cid, ("s", Addr(1, (STAR,) * i)))] == f"a.{ms[m - 1 - i]}"
            assert N.faces[(cid, T_GEN)] == f"a.{C.chain_composite(start, ms)}"
    for xi in N.shapes():
        if xi.dim == 3:
            tag = "x" + render(xi).replace(" ", "")
            for x in N.of_shape(xi):
                assert N.faces[(x, T_GEN)] == "c" + x.removeprefix(tag)


@SETTINGS
@given(categories)
def test_nerve_passes_its_checks_at_small_bounds(C):
    for bound in (0, 1, 2):
        report = nerve_axioms_check(nerve_category(C, bound), bound)
        assert report.ok, report.failures


def perturbed(N, x: str, how: str):
    """N less x and every cell above it, or N with a twin of x: a cell of
    x's shape with x's faces and a fresh id."""
    if how == "remove":
        return without_cell(N, x)
    w = N.shape_of(x)
    cells = {**N.cells, w: N.of_shape(w) + ("twin",)}
    return FinOpSet(N.window, cells, {**N.faces, **{("twin", g): N.face[x, g] for g in N.gens[w]}})


@st.composite
def perturbed_nerves(draw):
    """A category, a bound from 1 to 3, a 2- or 3-cell of the nerve at that
    bound, and whether to remove or double it."""
    C, bound = draw(categories), draw(st.integers(1, 3))
    N = nerve_category(C, bound)
    x = draw(st.sampled_from(sorted(x for x, w in N.sort.items() if w.dim >= 2)))
    return C, bound, x, draw(st.sampled_from(["remove", "double"]))


@settings(max_examples=50, deadline=None)
@given(perturbed_nerves())
@example((monoid_category("cyclic", 2), 2, "c.o.e1.e1", "remove"))
@example((monoid_category("cyclic", 2), 2, "c.o.e1.e1", "double"))
@example((monoid_category("cyclic", 2), 2, "x{[]<-I1}.o.e1", "remove"))
@example((monoid_category("cyclic", 2), 2, "x{[]<-I1}.o.e1", "double"))
def test_a_perturbed_nerve_fails_its_check_at_the_cell_shape(case):
    """Removing a 2- or 3-cell of a nerve, or doubling it, fails every row
    that asks the cell's dimension, at the cell's shape: the cell's spine,
    and in dimension 3 its boundary, extends 0 times or 2 times."""
    C, bound, x, how = case
    N = nerve_category(C, bound)
    report = nerve_axioms_check(N, bound)
    assert report.flags == {"segal2": True, "segal3": True, "boundary3": True}
    assert report.ok == all(report.flags.values())
    w = N.shape_of(x)
    report = nerve_axioms_check(perturbed(N, x, how), bound)
    assert not report.ok
    assert report.ok == all(report.flags.values())
    extends = 0 if how == "remove" else 2
    for kind in ("spine", "boundary") if w.dim == 3 else ("spine",):
        text = f"{kind} extension in dimension {w.dim} fails at {render(w)}"
        assert f"{text}: a map extends {extends} times" in report.failures


@st.composite
def renamed_nerves(draw):
    """A bound from 2 to 3, and the nerve of a category at that bound with
    its cell ids renamed at random."""
    bound = draw(st.integers(2, 3))
    N = nerve_category(draw(categories), bound)
    ids = sorted(N.sort)
    new = dict(zip(ids, draw(st.permutations([f"z{i}" for i in range(len(ids))]))))
    cells = {w: tuple(new[x] for x in xs) for w, xs in N.cells.items()}
    return bound, FinOpSet(N.window, cells, {(new[x], g): new[y] for (x, g), y in N.faces.items()})


@SETTINGS
@given(categories, st.integers(2, 3))
def test_the_category_of_a_nerve_is_the_category(C, bound):
    D = category_of(nerve_category(C, bound))
    ensure_category(D)
    assert D.objects == tuple(f"o.{a}" for a in C.objects)
    assert D.morphisms == {f"a.{f}": (f"o.{a}", f"o.{b}") for f, (a, b) in C.morphisms.items()}
    assert D.identities == {f"o.{a}": f"a.{i}" for a, i in C.identities.items()}
    for f, g in itertools.product(C.morphisms, repeat=2):
        if C.tgt(f) == C.src(g):
            assert D.compose(f"a.{g}", f"a.{f}") == f"a.{C.compose(g, f)}"


@SETTINGS
@given(renamed_nerves())
def test_the_nerve_of_the_category_of_a_nerve_is_the_nerve(case):
    bound, X = case
    assert nerve_axioms_check(X, bound).ok
    N = nerve_category(category_of(X), bound)
    assert N.size() == X.size()
    assert any(len(set(f.comp.values())) == X.size() for f in maps(N, X))


@st.composite
def lifting_cases(draw):
    """An opetopic set, maybe less one cell and every cell above it, a shape
    of at most 3 nodes whose dimension runs from the window's bottom (at
    least 1) to one above its top, and `spine` or `boundary`."""
    if draw(st.booleans()):
        X = nerve_category(draw(categories), draw(st.integers(1, 3)))
    else:
        X = terminal_opset(draw(st.sampled_from([(0, 2), (1, 3), (0, 3)])), draw(st.integers(1, 3)))
    if draw(st.booleans()):
        X = without_cell(X, draw(st.sampled_from(sorted(X.sort))))
    lo, hi = X.window
    w = draw(st.sampled_from(enumerate_opetopes(draw(st.integers(max(lo, 1), hi + 1)), 3)))
    return X, w, draw(st.sampled_from([spine, boundary]))


@settings(max_examples=100, deadline=None)
@given(lifting_cases())
@example((terminal_opset((1, 3), 3), opetopic_integer(1), boundary))
@example((nerve_category(monoid_category("cyclic", 2), 2), opetopic_integer(2), spine))
@example((terminal_opset((0, 2), 2), enumerate_opetopes(3, 3)[-1], spine))
def test_orthogonal_witness_counts_the_maps_by_hand(case):
    X, omega, include = case
    assert orthogonal_witness(omega, include, X) == counting_witness(include(omega, X.window), X)


@SETTINGS
@given(categories, st.integers(1, 3), st.data())
def test_checks_answer_alike_from_cold_and_warm_plans(C, bound, data):
    N = nerve_category(C, bound)
    if data.draw(st.booleans()):
        N = without_cell(N, data.draw(st.sampled_from(sorted(N.sort))))
    n, A = data.draw(st.integers(0, 1)), category_algebra(C, data.draw(st.integers(3, 6)))
    checks = [
        lambda: hlift_check(N, n, bound),
        lambda: nerve_axioms_check(N, bound),
        lambda: check_algebra_laws(A),
    ]
    for check in checks:
        opset._lifting_plan.cache_clear()
        oalg._square_plan.cache_clear()
        cold = check()
        assert check() == cold


@SETTINGS
@given(categories, st.sampled_from([spine, boundary]), st.data())
def test_a_shape_is_planned_apart_in_each_window(C, include, data):
    N = nerve_category(C, 2)
    w = data.draw(st.sampled_from([w for w in N.shapes() if w.dim >= 2]))
    a = opset._lifting_plan(w, include, (0, 2))
    b = opset._lifting_plan(w, include, (0, 3))
    assert a[0].dst.window == (0, 2) and b[0].dst.window == (0, 3)
    assert (a[3] is None) == (w.dim == 3) and b[3] is not None


@SETTINGS
@given(categories, st.integers(1, 3))
def test_cached_inclusions_are_left_as_built(C, bound):
    N = nerve_category(C, bound)
    opset._lifting_plan.cache_clear()
    rows = [(spine, (2, 3)), (boundary, (3,))]
    plans = [
        opset._lifting_plan(w, include, N.window)
        for w in _nerve_shapes(bound)
        for include, dims in rows
        if w.dim in dims
    ]
    built = [(dict(p[0].src.face), dict(p[0].dst.face), dict(p[0].comp)) for p in plans]
    nerve_axioms_check(N, bound)
    nerve_axioms_check(without_cell(N, sorted(N.sort)[-1]), bound)
    for (incl, *_), (src_face, dst_face, comp) in zip(plans, built):
        assert (incl.src.face, incl.dst.face, incl.comp) == (src_face, dst_face, comp)


def first_bijection(X, Y):
    for f in psh_maps(X, Y):
        values = set(f.comp.values())
        if len(values) == len(f.comp) and len(values) == sum(len(ys) for ys in Y.cells.values()):
            return f
    return None


@SETTINGS
@given(posets(), st.data())
def test_isomorphism_search_on_representables_and_boundaries(P, data):
    def presheaf():
        c = data.draw(st.sampled_from(P.objects))
        if data.draw(st.booleans()):
            return representable_psh(P, c)
        return boundary_c(P, c).src

    X, Y = presheaf(), presheaf()
    assert psh_isomorphism(X, Y) == first_bijection(X, Y)


GRAPHS = parse_signature("|- V type\nx y : V |- E(x, y) type\n")


@st.composite
def graph_contexts(draw):
    points = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    edges = draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(points)), max_size=3))
    bindings = [(v, SortExpr("V")) for v in points]
    bindings += [(f"f{i}", SortExpr("E", (Term(a), Term(b)))) for i, (a, b) in enumerate(edges)]
    return realize_bindings(GRAPHS, tuple(bindings))


@SETTINGS
@given(graph_contexts(), graph_contexts())
def test_isomorphism_search_on_realized_contexts(X, Y):
    assert psh_isomorphism(X, Y) == first_bijection(X, Y)
    assert psh_isomorphism(X, X) == first_bijection(X, X) is not None


def assert_injective_search_filters_the_plain_one(X, Y, data):
    order = data.draw(st.permutations(list(X.sort)))
    plain = [m for m in natural_maps(order, X, Y) if len(set(m.values())) == len(m)]
    assert list(natural_maps(order, X, Y, injective=True)) == plain


@SETTINGS
@given(posets(), graph_contexts(), graph_contexts(), st.data())
def test_injective_search_yields_the_injective_maps_in_order(P, G, H, data):
    X, Y = poset_presheaf(P, data), poset_presheaf(P, data)
    for src, dst in ((X, Y), (Y, X), (G, H), (G, G)):
        assert_injective_search_filters_the_plain_one(src, dst, data)


def test_injective_search_refuses_a_step_that_merges_two_cells():
    # choosing f first assigns f, x and y at once, and x, y both land on v
    edge = realize_bindings(GRAPHS, (("x", SortExpr("V")), ("y", SortExpr("V")),
                                     ("f", SortExpr("E", (Term("x"), Term("y"))))))
    loop = realize_bindings(GRAPHS, (("v", SortExpr("V")),
                                     ("l", SortExpr("E", (Term("v"), Term("v"))))))
    order = list(reversed(edge.sort))
    assert len(list(natural_maps(order, edge, loop))) == 1
    assert list(natural_maps(order, edge, loop, injective=True)) == []


def poset_presheaf(P, data):
    c = data.draw(st.sampled_from(P.objects))
    return representable_psh(P, c) if data.draw(st.booleans()) else boundary_c(P, c).src


SMALL_SHAPES = [w for n in (1, 2, 3) for w in enumerate_opetopes(n, 2)]


def opset_presheaf(data):
    w = data.draw(st.sampled_from(SMALL_SHAPES))
    return representable(w, (0, 3)) if data.draw(st.booleans()) else boundary(w, (0, 3)).src


def repointed(f):
    """(x, g) for every map g that agrees with f except at the cell x,
    where its value has a face that f's value on that face does not match."""
    X, Y = f.src, f.dst
    for x, s in X.sort.items():
        for y in Y.cells[s]:
            if any(Y.face[y, m] != f.comp[X.face[x, m]] for m in X.gens[s]):
                yield x, PshMap(X, Y, {**f.comp, x: y})


def assert_natural_and_repointing_reported(found, check):
    for f in found:
        assert check(f) == []
        for x, g in repointed(f):
            assert any(p.startswith(f"naturality fails at {x} along ") for p in check(g))


@SETTINGS
@given(posets(), st.data())
def test_found_presheaf_maps_are_natural(P, data):
    X, Y = poset_presheaf(P, data), poset_presheaf(P, data)
    assert_natural_and_repointing_reported(psh_maps(X, Y), check_psh_map)


@SETTINGS
@given(graph_contexts(), graph_contexts())
def test_found_maps_of_realized_contexts_are_natural(X, Y):
    assert_natural_and_repointing_reported(psh_maps(X, Y), check_psh_map)


@SETTINGS
@given(st.data())
def test_found_opset_maps_are_natural(data):
    X, Y = opset_presheaf(data), opset_presheaf(data)
    assert_natural_and_repointing_reported(maps(X, Y), check_psh_map)


def without_a_face(X):
    """All cells but one face of some cell, or None if no cell has faces."""
    for x, s in X.sort.items():
        for m in X.gens[s]:
            return set(X.sort) - {X.face[x, m]}
    return None


@SETTINGS
@given(posets(), st.data())
def test_sub_presheaf_refuses_a_keep_without_a_face(P, data):
    for X in (poset_presheaf(P, data), opset_presheaf(data)):
        keep = without_a_face(X)
        if keep is not None:
            with pytest.raises(ValueError, match="closed under faces"):
                sub_presheaf(X, keep)
        assert sub_presheaf(X, set(X.sort)).src == X


@pytest.mark.parametrize(
    "C, count",
    [(poset_category(3, {(0, 1), (1, 2)}), 103), (monoid_category("cyclic", 2), 49)],
    ids=["chain", "z2"],
)
def test_split_then_multiply_is_the_identity(C, count):
    X = category_family(C)
    fillings = 0
    for xi in _height_two_shapes(1, 7):
        flat = target(xi)
        for f in maps(spine(flat, X.window).src, X):
            fillings += 1
            cell = PastingCell(flat, f)
            inner = split_pasting(X, xi, cell)
            assert monad_mult(X, xi, inner) == cell
            for part in inner.values():
                assert check_psh_map(part.filling) == []
                assert set(part.filling.comp) == set(part.filling.src.sort)
    assert fillings == count


def globular_signature(n: int):
    """G0, ..., Gn, each Gk over two variables of every earlier Gi."""
    lines, ctx, args = [], [], []
    for k in range(n + 1):
        head = f"G{k}({', '.join(args)})" if args else f"G{k}"
        lines.append(f"{', '.join(ctx)} |- {head} type")
        ctx.append(f"x{k} y{k} : {head}")
        args += [f"x{k}", f"y{k}"]
    return parse_signature("\n".join(lines))


def sort_text(head: str, args) -> str:
    return f"{head}({', '.join(args)})" if args else head


@st.composite
def bipartite_signatures(draw):
    """Closed types U0, ..., and edge types, each over one to three
    variables of closed types."""
    closed = draw(st.integers(1, 3))
    lines = [f"|- U{i} type" for i in range(closed)]
    for j in range(draw(st.integers(1, 3))):
        heads = draw(st.lists(st.integers(0, closed - 1), min_size=1, max_size=3))
        ctx = ", ".join(f"v{k} : U{i}" for k, i in enumerate(heads))
        lines.append(f"{ctx} |- E{j} type")
    return parse_signature("\n".join(lines))


@st.composite
def permuted_signatures(draw):
    """Types T0, T1, ...: each context binds variables of earlier types,
    instantiating that type's context with fresh variables or with ones
    already bound to the right sort, so that sorts repeat and arguments
    cross; each type lists its arguments in a drawn order."""
    types: list = []  # (name, [(variable, head, arguments)], argument order)
    for k in range(draw(st.integers(1, 3))):
        ctx: list = []
        for _ in range(draw(st.integers(0, 3)) if types else 0):
            name, dctx, dorder = draw(st.sampled_from(types))
            rename: dict = {}
            for v, head, args in dctx:
                sort = [head, [rename[a] for a in args]]
                bound = [u for u, *s in ctx if s == sort]
                rename[v] = draw(st.sampled_from(bound + [f"v{len(ctx)}"]))
                if rename[v] not in bound:
                    ctx.append((rename[v], *sort))
            ctx.append((f"v{len(ctx)}", name, [rename[a] for a in dorder]))
        types.append((f"T{k}", ctx, draw(st.permutations([v for v, _, _ in ctx]))))
    return parse_signature("\n".join(
        ", ".join(f"{v} : {sort_text(head, args)}" for v, head, args in ctx)
        + f" |- {sort_text(name, order)} type"
        for name, ctx, order in types
    ))


signatures = st.one_of(
    st.builds(lfd_to_signature, posets()),
    st.builds(globular_signature, st.integers(0, 4)),
    bipartite_signatures(),
    permuted_signatures(),
)


# f's arguments come after g's in the search's order, and f before g in F's context
CROSSED = parse_signature(
    "|- V type\nx y : V |- E(x, y) type\n"
    "x y : V, f : E(y, x), g : E(x, y) |- F(x, y, f, g) type\n"
)


@SETTINGS
@given(signatures)
@example(CROSSED)
def test_signature_category_matches_the_search_oracle(sig):
    (C, assign), (D, searched) = signature_category(sig), oracle_signature_category(sig)
    assert C.objects == D.objects
    assert list(C.morphisms.items()) == list(D.morphisms.items())
    assert list(C.composition.items()) == list(D.composition.items())
    assert C.identities == D.identities
    assert assign == searched


@st.composite
def renamed(draw, C: FiniteCategory) -> FiniteCategory:
    """C with fresh object and morphism names, its tuple and dicts in drawn orders."""
    ob = {a: f"o{i}" for i, a in enumerate(draw(st.permutations(C.objects)))}
    mor = {f: f"m{i}" for i, f in enumerate(draw(st.permutations(list(C.morphisms))))}

    def reordered(d: dict) -> dict:
        return dict(draw(st.permutations(list(d.items()))))

    return FiniteCategory(
        tuple(draw(st.permutations([ob[a] for a in C.objects]))),
        reordered({mor[f]: (ob[a], ob[b]) for f, (a, b) in C.morphisms.items()}),
        reordered({(mor[g], mor[f]): mor[h] for (g, f), h in C.composition.items()}),
        reordered({ob[a]: mor[i] for a, i in C.identities.items()}),
    )


@SETTINGS
@given(st.one_of(categories, st.builds(signature_to_lfd, signatures)), st.data())
def test_isomorphism_found_to_a_renamed_copy(C, data):
    D = data.draw(renamed(C))
    assert_isomorphism(C, D, cat_isomorphic(C, D))
    assert_isomorphism(D, C, cat_isomorphic(D, C))


@SETTINGS
@given(st.one_of(posets(), st.builds(signature_to_lfd, signatures)), st.data())
def test_the_named_roundtrip_map_is_an_isomorphism(C, data):
    """The map roundtrip_isomorphism names is one, and the search finds one
    too, on C and on a copy of C with arbitrary names and orders."""
    for D in (C, data.draw(renamed(C))):
        sig = lfd_to_signature(D)
        back = signature_to_lfd(sig)
        assert_isomorphism(D, back, roundtrip_isomorphism(D, sig))
        assert cat_isomorphic(D, back) is not None

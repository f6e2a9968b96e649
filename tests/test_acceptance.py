"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass or fail line; timings guard the stated
runtime budgets.
"""

from __future__ import annotations

import functools
import random
import time

from opetopes.opetope import (
    ARROW,
    POINT,
    STAR,
    Addr,
    Tree,
    check_identities,
    corolla,
    enumerate_opetopes,
    generators,
    leaf_addrs,
    node_addrs,
    opetopic_integer,
    parse,
    readdress,
    render,
    source,
    target,
    tree,
)
from opetopes.oalg import (
    LambdaMorphism,
    PastingCell,
    T_GEN,
    category_algebra,
    check_algebra_laws,
    free_cells,
    h_morphism,
    h_object,
    monad_unit,
    nerve_axioms_check,
    nerve_category,
    parse_category,
    pasting_chain,
)
from opetopes.kernel import PshMap as OpSetMap
from opetopes.opset import (
    FinOpSet,
    spine,
    validate_opset,
)
from opetopes.theory import (
    FinDirectCat,
    cat_isomorphic,
    check_model,
    check_psh_map,
    lfd_to_signature,
    parse_model,
    parse_theory,
    presheaf_to_context,
    psh_isomorphism,
    signature_to_lfd,
    validate_context,
    validate_lfd,
)
from opetopes.theory import FinPresheafC

from monad_oracle import monad_mult
from paper_results import (
    Diagram,
    diagram_compose,
    diagram_map,
    replay_by_pushouts,
    spine_cell_decomposition,
    validate_presheaf,
)
from scaffold import monotone_maps

I = opetopic_integer
E1 = Addr(1)
E2 = Addr(2)
XI = parse("{ [] <- I3  [[*]] <- I2  [[**]] <- I1 }")


def a1(j: int) -> Addr:
    return Addr(1, (STAR,) * j)


def acceptance(num: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"acceptance {num:2d}: FAIL  {title}")
                raise
            print(f"acceptance {num:2d}: PASS  {title}")

        return wrapper

    return deco


# ---------------------------------------------------------------- fixtures


def graph_family(
    edges: dict[str, tuple[str, str]], vertices: tuple[str, ...]
) -> FinOpSet:
    fac = {}
    for e, (a, b) in edges.items():
        fac[(e, ("s", STAR))] = a
        fac[(e, T_GEN)] = b
    return FinOpSet((0, 1), {POINT: vertices, ARROW: tuple(sorted(edges))}, fac)


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


GRAPH_EDGES = {"e0": ("v0", "v1"), "e1": ("v1", "v2"), "e2": ("v2", "v2")}
GRAPH = graph_family(GRAPH_EDGES, ("v0", "v1", "v2"))

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

WALKING_ARROW = (
    "obj x y\nmor ix: x -> x\nmor iy: y -> y\nmor f: x -> y\nid x = ix\nid y = iy\n"
)

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


def gg1_graph(vs, es) -> FinPresheafC:
    cells = {k: v for k, v in {"D0": tuple(vs), "D1": tuple(es)}.items() if v}
    restr = {}
    for e, (a, b) in es.items():
        restr[(e, "s")] = a
        restr[(e, "t")] = b
    return FinPresheafC(GG1, cells, restr)


# --------------------------------------------------------------- criteria


@acceptance(1, "one 0-shape, one 1-shape, K+1 two-shapes with <= K nodes")
def test_acceptance_01_shape_counts():
    start = time.monotonic()
    assert [render(o) for o in enumerate_opetopes(0, 8)] == ["point"]
    assert [render(o) for o in enumerate_opetopes(1, 8)] == ["arrow"]
    for k in range(9):
        shapes = enumerate_opetopes(2, k)
        assert len(shapes) == k + 1
        assert [render(o) for o in shapes] == [f"I{m}" for m in range(k + 1)]
    assert time.monotonic() - start < 1.0


@acceptance(2, "face identities and readdressing bijection, dim <= 4, size <= 5")
def test_acceptance_02_identity_sweep():
    start = time.monotonic()
    swept = 0
    for dim in range(5):
        for omega in enumerate_opetopes(dim, 5):
            swept += 1
            assert check_identities(omega) == [], render(omega)
            if omega.dim >= 2 and isinstance(omega, Tree):
                p = readdress(omega)
                assert set(p.keys()) == set(leaf_addrs(omega))
                values = list(p.values())
                assert len(set(values)) == len(values)
                assert set(values) == set(node_addrs(target(omega)))
    assert swept == 44
    assert time.monotonic() - start < 120.0


@acceptance(3, "target of the worked three-cell pasting is I4")
def test_acceptance_03_worked_target():
    assert target(XI) == I(4)
    assert render(target(XI)) == "I4"


@acceptance(4, "realized faces compose to exactly the monotone maps, m <= 4")
def test_acceptance_04_ordinal_recovery():
    gens = {h_morphism(ARROW, ("s", STAR)), h_morphism(ARROW, T_GEN)}
    for m in range(5):
        for g in generators(I(m)):
            gens.add(h_morphism(I(m), g))
    for xi in enumerate_opetopes(3, 7):
        if h_object(xi) > 4:
            continue
        gens.add(h_morphism(xi, T_GEN))
        if isinstance(xi, Tree):
            for p in node_addrs(xi):
                f = h_morphism(xi, ("s", p))
                if f.src <= 4:
                    gens.add(f)
    closed = set(gens)
    frontier = set(gens)
    while frontier:
        fresh = set()
        for f in frontier:
            for g in closed:
                if g.dst == f.src and f.after(g) not in closed:
                    fresh.add(f.after(g))
                if f.dst == g.src and g.after(f) not in closed:
                    fresh.add(g.after(f))
        closed |= fresh
        frontier = fresh
    for m in range(5):
        for mp in range(5):
            have = {f for f in closed if (f.src, f.dst) == (m, mp)}
            assert have == set(monotone_maps(m, mp)), (m, mp)
    assert len(monotone_maps(2, 3)) == 20

    # the two basic diagrams: skip the top vertex, repeat the bottom one
    xi_d3 = tree({E2: I(2), Addr(2, (a1(1),)): I(2)})
    xi_s0 = tree({E2: I(2), Addr(2, (a1(1),)): I(0)})
    d3 = diagram_map(Diagram(xi_d3, Addr(2, (a1(1),))))
    s0 = diagram_map(Diagram(xi_s0, E2))
    assert d3 == LambdaMorphism(2, 3, (0, 1, 2))
    assert s0 == LambdaMorphism(2, 1, (0, 0, 1))


@acceptance(5, "diagram composition is functorial on all dim-3 size-4 pairs")
def test_acceptance_05_diagram_functoriality():
    diagrams = []
    for xi in enumerate_opetopes(3, 4):
        if isinstance(xi, Tree):
            diagrams.extend(Diagram(xi, p) for p in node_addrs(xi))
    pairs = 0
    failures = 0
    for d1 in diagrams:
        for d2 in diagrams:
            if target(d1.shape) != source(d2.shape, d2.node):
                continue
            pairs += 1
            lhs = diagram_map(diagram_compose(d1, d2))
            rhs = diagram_map(d2).after(diagram_map(d1))
            if lhs != rhs:
                failures += 1
    assert pairs == 44
    assert failures == 0


@acceptance(6, "free pasting cells match enumerated graph paths, 5 random graphs")
def test_acceptance_06_free_category_paths():
    rng = random.Random(101)
    for i in range(5):
        nv = rng.randint(1, 5)
        vs = tuple(f"g{i}v{j}" for j in range(nv))
        ne = rng.randint(0, 8)
        es = {f"g{i}e{j}": (rng.choice(vs), rng.choice(vs)) for j in range(ne)}
        X = graph_family(es, vs)
        cells = free_cells(X, ARROW, 6)
        chains = {pasting_chain(c) for c in cells}
        paths = graph_paths(vs, es, 6)
        assert len(cells) == len(chains) == len(paths)
        assert chains == paths


def _by_path(cells, shape, start: str, *es: str) -> PastingCell:
    for c in cells:
        if c.shape == shape and pasting_chain(c) == (start, es):
            return c
    raise KeyError((start, es))


def _route_a(cells, alpha, layers) -> PastingCell:
    inner = {}
    for p in node_addrs(alpha):
        lay = layers[p]
        if isinstance(lay, PastingCell):
            inner[p] = lay
            continue
        beta, gz = lay
        nodes = {E2: beta}
        for leaf in node_addrs(beta):
            nodes[E2.extend(leaf)] = gz[leaf].shape
        inner[p] = monad_mult(GRAPH, tree(nodes), gz)
    nodes = {E2: alpha}
    for p in node_addrs(alpha):
        nodes[E2.extend(p)] = inner[p].shape
    return monad_mult(GRAPH, tree(nodes), inner)


def _route_b(cells, alpha, layers) -> PastingCell:
    betas = {
        p: (lay.shape if isinstance(lay, PastingCell) else lay[0])
        for p, lay in layers.items()
    }
    xi = tree({E2: alpha, **{E2.extend(p): beta for p, beta in betas.items()}})
    flat = target(xi)
    placed = {a: j.entries for j, a in readdress(xi).items()}
    nodes = {E2: flat}
    inner = {}
    for a, (p, leaf) in placed.items():
        inner[a] = layers[p][1][leaf]
        nodes[E2.extend(a)] = inner[a].shape
    return monad_mult(GRAPH, tree(nodes), inner)


@acceptance(7, "unit laws <= 6 nodes; associativity squares <= 8 nodes")
def test_acceptance_07_monad_laws():
    cells = free_cells(GRAPH, ARROW, 6)
    assert len(cells) == 21
    for cell in cells:
        nu = cell.shape
        xi_left = tree({E2: corolla(target(nu)), Addr(2, (E1,)): nu})
        assert monad_mult(GRAPH, xi_left, {E1: cell}) == cell
        if isinstance(nu, Tree):
            nodes = {E2: nu}
            inner = {}
            for p in node_addrs(nu):
                nodes[E2.extend(p)] = corolla(source(nu, p))
                inner[p] = monad_unit(GRAPH, cell.filling(f"s{p}"))
            assert monad_mult(GRAPH, tree(nodes), inner) == cell

    algebra = category_algebra(parse_category(CHAIN_CAT), 8)
    report = check_algebra_laws(algebra)
    assert report.ok
    assert report.units_checked == 6
    assert report.squares_checked == 209
    assert report.failures == ()

    # height-3 towers flattened inner-first and outer-first must agree
    towers = [
        (
            I(2),
            {
                E1: (I(1), {E1: ("I2", "v2", "e2", "e2")}),
                a1(1): (I(2), {E1: ("I1", "v1", "e1"), a1(1): ("I1", "v0", "e0")}),
            },
            ("v0", ("e0", "e1", "e2", "e2")),
        ),
        (
            I(3),
            {
                E1: (I(1), {E1: ("I1", "v1", "e1")}),
                a1(1): _by_path(cells, I(0), "v1"),
                a1(2): (I(2), {E1: ("I1", "v0", "e0"), a1(1): ("I0", "v0")}),
            },
            ("v0", ("e0", "e1")),
        ),
    ]
    for alpha, raw, expected in towers:
        layers = {}
        for p, lay in raw.items():
            if isinstance(lay, PastingCell):
                layers[p] = lay
            else:
                beta, gz = lay
                layers[p] = (
                    beta,
                    {
                        leaf: _by_path(cells, I(int(lab[0][1:])), lab[1], *lab[2:])
                        for leaf, lab in gz.items()
                    },
                )
        a = _route_a(cells, alpha, layers)
        b = _route_b(cells, alpha, layers)
        assert a == b
        assert pasting_chain(a) == expected


@acceptance(8, "five finite categories pass the nerve axioms; a broken one fails")
def test_acceptance_08_nerve_checks():
    square = (
        "obj p00 p01 p10 p11\n"
        "mor i00: p00 -> p00\nmor i01: p01 -> p01\n"
        "mor i10: p10 -> p10\nmor i11: p11 -> p11\n"
        "mor l: p00 -> p01\nmor t: p01 -> p11\n"
        "mor b: p00 -> p10\nmor r: p10 -> p11\nmor d: p00 -> p11\n"
        "comp t.l = d\ncomp r.b = d\n"
        "id p00 = i00\nid p01 = i01\nid p10 = i10\nid p11 = i11\n"
    )
    discrete = (
        "obj p q r s\nmor ip: p -> p\nmor iq: q -> q\n"
        "mor ir: r -> r\nmor is_: s -> s\n"
        "id p = ip\nid q = iq\nid r = ir\nid s = is_\n"
    )
    terminal = "obj a\nmor ia: a -> a\nid a = ia\n"
    for text in (WALKING_ARROW, CHAIN_CAT, terminal, discrete, square):
        C = parse_category(text)
        assert len(C.objects) <= 4 and len(C.morphisms) <= 10
        N = nerve_category(C, 3)
        assert validate_opset(N) == []
        report = nerve_axioms_check(N, 3)
        assert report.ok, report.failures
        assert report.flags == {"segal2": True, "segal3": True, "boundary3": True}

    # dropping a filler cell must break the two-dimensional spine condition
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
    broken = FinOpSet((0, 3), cells, faces)
    assert validate_opset(broken) == []
    report = nerve_axioms_check(broken, 3)
    assert not report.ok
    assert not report.flags["segal2"]
    assert (
        "spine extension in dimension 2 fails at I2: a map extends 0 times"
        in report.failures
    )


@acceptance(9, "spine decompositions replay as pushouts, all 3-shapes <= 4 nodes")
def test_acceptance_09_spine_decomposition():
    def cell_counts(X: FinOpSet) -> dict[str, int]:
        return {render(s): len(X.of_shape(s)) for s in X.shapes()}

    replayed = 0
    for xi in list(enumerate_opetopes(3, 4)) + [XI]:
        steps = spine_cell_decomposition(xi)
        if not steps:
            continue
        replay, rename = replay_by_pushouts(xi, steps)
        wanted = spine(xi, (0, xi.dim - 1)).src
        assert replay.size() == wanted.size()
        assert cell_counts(replay) == cell_counts(wanted)
        assert steps[-1].complex_after == wanted
        # the replay is an opetopic set, and renaming its cells back is a
        # natural bijection onto the spine: no search
        assert validate_opset(replay) == [], render(xi)
        back = {y: x for x, y in rename.items()}
        assert len(back) == len(rename) == replay.size()
        assert set(back.values()) == set(wanted.all_cells())
        assert check_psh_map(OpSetMap(replay, wanted, back)) == [], render(xi)
        replayed += 1
    assert replayed == 9


@acceptance(10, "presheaf/context round trips; order-sensitive parallel edges")
def test_acceptance_10_contexts():
    def random_graph(rng, tag):
        nv = rng.randint(0, 4)
        vs = [f"{tag}v{i}" for i in range(nv)]
        es = {}
        if nv:
            for i in range(rng.randint(0, 5)):
                es[f"{tag}e{i}"] = (rng.choice(vs), rng.choice(vs))
        return gg1_graph(vs, es)

    def random_complex(rng, tag):
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

    rng = random.Random(11)
    builders = [lambda i: random_graph(rng, f"g{i}")] * 10
    builders += [lambda i: random_complex(rng, f"s{i}")] * 10
    for i, build in enumerate(builders):
        X = build(i)
        assert validate_presheaf(X) == []
        ctx = presheaf_to_context(X)
        assert validate_context(ctx) == []
        iso = psh_isomorphism(X, ctx.realization())
        assert iso is not None
        assert check_psh_map(iso) == []
        for c in X.cat.objects:
            images = sorted(iso.comp[x] for x in X.of_obj(c))
            assert images == sorted(ctx.realization().of_obj(c))

    # two parallel edges: vertex order swaps the attachments
    X = gg1_graph(["x", "y"], {"f": ("x", "y"), "g": ("x", "y")})
    Y = gg1_graph(["y", "x"], {"f": ("x", "y"), "g": ("x", "y")})
    cx, cy = presheaf_to_context(X), presheaf_to_context(Y)
    assert cx != cy
    assert cx.steps[2].attach == (("s", "x0"), ("t", "x1"))
    assert cy.steps[2].attach == (("s", "x1"), ("t", "x0"))
    assert psh_isomorphism(cx.realization(), cy.realization()) is not None


@acceptance(11, "theory parses, chain model passes, perturbation is named")
def test_acceptance_11_theory_checker():
    theory = parse_theory(TCAT)
    sig, ops, eqns = theory
    assert [(d.name, d.grade) for d in sig.declarations] == [("V", 0), ("E", 1)]
    assert [(d.name, d.grade) for d in ops.declarations] == [("i", 1), ("c", 1)]
    assert len(eqns.equations) == 3

    report = check_model(theory, parse_model(CHAIN_MODEL))
    assert report.ok
    assert [e.checked for e in report.equations] == [6, 6, 15]

    # a model with a parallel edge leaves exactly one table entry free;
    # flipping it must fail the right-unit law by name
    text = CHAIN_MODEL.replace("sort E(a, b) = {f}", "sort E(a, b) = {f, f2}")
    text = text.replace(
        "  c(f, ia) = f\n", "  c(f, ia) = f\n  c(f2, ia) = f2\n"
    )
    text = text.replace("  c(ib, f) = f\n", "  c(ib, f) = f\n  c(ib, f2) = f2\n")
    text = text.replace("  c(g, f) = gf\n", "  c(g, f) = gf\n  c(g, f2) = gf\n")
    assert check_model(theory, parse_model(text)).ok
    perturbed = text.replace("  c(f, ia) = f\n", "  c(f, ia) = f2\n")
    report = check_model(theory, parse_model(perturbed))
    assert not report.ok
    assert [e.witness is not None for e in report.equations] == [False, True, False]
    assert report.equations[1].label == "c(f, i(x)) = f"
    assert "c(f, i(x)) = f2 but f = f" in report.equations[1].witness

    for cat in (GG1, SS2):
        back = signature_to_lfd(lfd_to_signature(cat))
        assert validate_lfd(back).ok
        assert cat_isomorphic(cat, back) is not None
    grades = [d.grade for d in lfd_to_signature(SS2).declarations]
    assert grades == [0, 1, 2]

"""Opetopic algebras over a window of dimensions.

A sorted family is a finite opetopic set over the window [n-k, n].  Free
pasting cells over such a family, the unit and multiplication of the free
pasting monad, algebra structures given by finite composition tables, the
ordinal realization for (k, n) = (1, 1) together with diagrammatic
presentations of monotone maps, and nerves of finite categories all live
here.

The monad and the realization read cells off the face structure of a
shape.  A pasting of pastings is a uniform-height-2 shape xi, and in
faces(xi) each spine cell of an inner shape equals one spine cell of
target(xi): multiplication glues the inner fillings along that map, and
splitting reads them back through it.  The realization names the points
of a shape by face words, and sends each point of a face to the point it
equals in faces(omega).  The finite-category type and its axiom checks
come from `theory`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cache
from typing import Iterable

from .opetope import (
    Addr,
    Degenerate,
    Gen,
    Opetope,
    POINT,
    ARROW,
    STAR,
    T_GEN,
    Tree,
    corolla,
    epsilon,
    enumerate_opetopes,
    face,
    faces,
    node_addrs,
    opetopic_integer,
    render,
    render_word,
    size,
    source,
    substitute,
    target,
    tree,
)
from .opset import (
    CellId,
    FinOpSet,
    OpSetMap,
    _cell_words,
    Window,
    WindowMismatch,
    boundary,
    empty_opset,
    maps,
    orthogonal_witness,
    spine,
)
from .theory import (
    FinDirectCat,  # noqa: F401  (the same class as FiniteCategory, re-exported)
    FiniteCategory,
    NotACategory,
    line_error,
    ensure_category,
    numbered_lines,
    propagate,
)


class ShapeMismatch(ValueError):
    pass


class NotComposable(ValueError):
    pass


class InfiniteNerve(ValueError):
    pass


# ---------------------------------------------------------------------------
# Sorted families and pasting cells


@dataclass(frozen=True, eq=False)
class SortedFamily:
    """A finite opetopic set over the window [n-k, n].

    k > n is clamped to k = n, so the window never dips below dimension 0.
    """

    family: FinOpSet
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 0 or self.k < 0:
            raise ValueError("parameters must be non-negative")
        if self.k > self.n:
            object.__setattr__(self, "k", self.n)
        want = (self.n - self.k, self.n)
        if self.family.window != want:
            raise WindowMismatch(
                f"family window {self.family.window} is not {want}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SortedFamily):
            return NotImplemented
        return (self.k, self.n) == (other.k, other.n) and self.family == other.family


@dataclass(frozen=True, eq=False)
class PastingCell:
    """A pasting shape together with a filling of its spine.

    The shape is an (n+1)-opetope nu; the filling maps the spine of nu,
    truncated to the family's window, into the family.  Its output sort is
    target(nu).
    """

    shape: Opetope
    filling: OpSetMap

    @property
    def output(self) -> Opetope:
        return target(self.shape)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PastingCell):
            return NotImplemented
        return self.shape == other.shape and self.filling == other.filling

    def __str__(self) -> str:
        return f"pasting of shape {render(self.shape)}"


def pasting_key(cell: PastingCell):
    """Hashable canonical form, used to index composition tables."""
    return cell.shape, tuple(sorted(cell.filling.comp.items()))


@cache
def _spine_of(nu: Opetope, window: Window) -> FinOpSet:
    return spine(nu, window).src


def _natural_fill(
    S: FinOpSet, X: FinOpSet, seeds: Iterable[tuple[CellId, CellId]], what: str
) -> dict[CellId, CellId]:
    """Extend (cell, value) seeds to a map S -> X along faces.

    Every cell of S must end up covered, and no cell may receive two
    different values; either failure means the seeds do not present a
    natural map.
    """
    comp: dict[CellId, CellId] = {}
    bad = propagate(seeds, comp, [], S, X)
    if bad is not None:
        c, v = bad
        if S.shape_of(c) != X.shape_of(v):
            raise ShapeMismatch(
                f"{what}: cell {c} has shape {S.shape_of(c)} "
                f"but value {v} has shape {X.shape_of(v)}"
            )
        raise ShapeMismatch(f"{what}: conflicting values {comp[c]} and {v} at cell {c}")
    if len(comp) != S.size():
        raise ShapeMismatch(
            f"{what}: seeds determine {len(comp)} of {S.size()} cells"
        )
    return comp


def _node_cell(a: Addr) -> CellId:
    return f"s{a}"


def _face_cell(nu: Opetope, word: tuple[Gen, ...]) -> CellId:
    """Name of the cell of nu that the face word reaches."""
    fs = faces(nu)
    return render_word(fs.word_of(fs.cell_of_word(word)))


def _shell_cell(S: FinOpSet, shell: Opetope) -> CellId:
    """The unique shell-shaped cell in the spine of a degenerate shape."""
    cells = S.of_shape(shell)
    if len(cells) != 1:
        raise ShapeMismatch(f"expected one {shell}-shaped cell, found {len(cells)}")
    return cells[0]


# ---------------------------------------------------------------------------
# Free cells and the monad structure


def free_cells(X: SortedFamily, omega: Opetope, max_nodes: int) -> list[PastingCell]:
    """All pastings over X with output sort omega and at most max_nodes nodes."""
    if omega.dim != X.n:
        raise ShapeMismatch(f"output sort must have dimension {X.n}")
    out: list[PastingCell] = []
    for nu in enumerate_opetopes(X.n + 1, max_nodes):
        if target(nu) != omega:
            continue
        S = _spine_of(nu, X.family.window)
        for f in maps(S, X.family):
            out.append(PastingCell(nu, f))
    return out


def monad_unit(X: SortedFamily, x: CellId) -> PastingCell:
    """The trivial pasting of a single cell: a corolla filled with x."""
    omega = X.family.shape_of(x)
    if omega.dim != X.n:
        raise ShapeMismatch(f"unit takes a cell of dimension {X.n}")
    nu = corolla(omega)
    S = _spine_of(nu, X.family.window)
    root = node_addrs(nu)[0]
    comp = _natural_fill(S, X.family, [(_node_cell(root), x)], "unit")
    return PastingCell(nu, OpSetMap(S, X.family, comp))


def _height_two_parts(xi: Opetope) -> tuple[Opetope, dict[Addr, Opetope]]:
    """Split a uniform-height-2 shape into its root decoration and the
    decorations sitting immediately above it."""
    if isinstance(xi, Degenerate):
        raise ShapeMismatch("a degenerate shape is not a height-2 pasting")
    if not isinstance(xi, Tree):
        raise ShapeMismatch(f"{render(xi)} has no height-2 structure")
    root = epsilon(xi.dim - 1)
    alpha = xi.decoration(root)
    parts: dict[Addr, Opetope] = {}
    expected = {root.extend(p) for p in node_addrs(alpha)}
    actual = set(xi.node_map())
    actual.discard(root)
    if actual != expected:
        raise ShapeMismatch(f"{render(xi)} is not of uniform height 2")
    for p in node_addrs(alpha):
        parts[p] = xi.decoration(root.extend(p))
    return alpha, parts


def _gluing(
    xi: Opetope, parts: dict[Addr, Opetope], window: Window
) -> dict[Addr, dict[CellId, CellId]]:
    """Where the inner spines of a uniform-height-2 shape land in its target.

    In faces(xi) the spine cell w of the inner shape at outer node p, the
    word (s[p]) + w, equals exactly one spine cell w' of target(xi), the
    word (t) + w'.  Returns, for each p, the map w -> w' on cell names.
    """
    fs = faces(xi)

    def spine_cells(nu: Opetope, head: Gen) -> dict[CellId, int]:
        """Each spine cell of the face nu of xi at head, as a cell of fs."""
        S = _spine_of(nu, window)
        words = _cell_words(nu)
        return {x: fs.cell_of_word((head,) + words[x]) for x in S.sort}

    on_flat = {c: x for x, c in spine_cells(target(xi), T_GEN).items()}
    root = epsilon(xi.dim - 1)
    return {
        p: {y: on_flat[c] for y, c in spine_cells(nu, ("s", root.extend(p))).items()}
        for p, nu in parts.items()
    }


def _slice(
    X: SortedFamily, nu: Opetope, glue: dict[CellId, CellId], f: OpSetMap
) -> PastingCell:
    """The pasting of shape nu that reads the filling f through glue."""
    S = _spine_of(nu, X.family.window)
    return PastingCell(nu, OpSetMap(S, X.family, {y: f(x) for y, x in glue.items()}))


def monad_mult(
    X: SortedFamily,
    xi: Opetope,
    inner: dict[Addr, PastingCell],
    shell: CellId | None = None,
) -> PastingCell:
    """Flatten a pasting of pastings into a single pasting.

    xi must be of uniform height 2: a root decorated by the outer shape
    alpha, with exactly one node above it per node of alpha, decorated by
    the inner shapes.  inner supplies the pasting cell for each node of
    alpha.  When alpha is degenerate there are no inner cells; shell then
    names the single colour of the result.  The result has shape
    target(xi), and its filling merges the inner fillings along the gluing
    of their spines into the spine of target(xi); a cell that two inner
    fillings give different values is an error.
    """
    if xi.dim != X.n + 2:
        raise ShapeMismatch(f"multiplication takes a shape of dimension {X.n + 2}")
    if isinstance(xi, Tree) and isinstance(xi.decoration(epsilon(xi.dim - 1)), Degenerate):
        if len(xi.node_map()) != 1:
            raise ShapeMismatch(f"{render(xi)} is not of uniform height 2")
        alpha = xi.decoration(epsilon(xi.dim - 1))
        if inner:
            raise ShapeMismatch("a degenerate outer shape admits no inner cells")
        if shell is None:
            raise ShapeMismatch("a degenerate outer shape needs its colour")
        S = _spine_of(alpha, X.family.window)
        comp = _natural_fill(
            S, X.family, [(_shell_cell(S, alpha.shell), shell)], "multiplication"
        )
        return PastingCell(alpha, OpSetMap(S, X.family, comp))

    alpha, parts = _height_two_parts(xi)
    if set(inner) != set(parts):
        raise ShapeMismatch("inner cells must be indexed by the outer nodes")
    for p, cell in inner.items():
        if cell.shape != parts[p]:
            raise ShapeMismatch(
                f"inner cell at {p} has shape {render(cell.shape)}, "
                f"expected {render(parts[p])}"
            )
        if cell.filling.dst != X.family:
            raise ShapeMismatch("inner cells must be pastings over the same family")

    flat = target(xi)
    glue = _gluing(xi, parts, X.family.window)
    seeds = [(x, inner[p].filling(y)) for p in parts for y, x in glue[p].items()]
    S = _spine_of(flat, X.family.window)
    comp = _natural_fill(S, X.family, seeds, "multiplication")
    return PastingCell(flat, OpSetMap(S, X.family, comp))


def split_pasting(X: SortedFamily, xi: Opetope, cell: PastingCell) -> dict[Addr, PastingCell]:
    """Invert monad_mult: slice a filling of the flattened tree back into
    one pasting cell per outer node of the uniform-height-2 shape xi."""
    _, parts = _height_two_parts(xi)
    if cell.shape != target(xi):
        raise ShapeMismatch(
            f"filling has shape {render(cell.shape)}, expected {render(target(xi))}"
        )
    glue = _gluing(xi, parts, X.family.window)
    return {p: _slice(X, nu, glue[p], cell.filling) for p, nu in parts.items()}


def pasting_face(X: SortedFamily, cell: PastingCell, gen: Gen) -> CellId:
    """The boundary value of a pasting cell along a generating face of its
    output sort: the value at the face word (t, gen) of its shape."""
    return cell.filling(_face_cell(cell.shape, (T_GEN, gen)))


# ---------------------------------------------------------------------------
# Algebras as finite composition tables


@dataclass
class OAlgebra:
    """A sorted family with a materialized composition table.

    The table is indexed by the canonical form of each pasting cell and
    must cover every pasting up to the node bound it was built with.
    """

    base: SortedFamily
    table: dict[tuple, CellId] = field(default_factory=dict)
    max_nodes: int = 0

    def compose(self, cell: PastingCell) -> CellId:
        key = pasting_key(cell)
        if key not in self.table:
            raise ShapeMismatch(
                f"composition table has no entry for {cell} "
                f"(built up to {self.max_nodes} nodes)"
            )
        return self.table[key]


def build_algebra(X: SortedFamily, rule, max_nodes: int) -> OAlgebra:
    """Materialize an algebra structure by tabulating rule over every
    pasting with at most max_nodes nodes."""
    table: dict[tuple, CellId] = {}
    for omega in enumerate_opetopes(X.n, max_nodes):
        for cell in free_cells(X, omega, max_nodes):
            table[pasting_key(cell)] = rule(cell)
    return OAlgebra(X, table, max_nodes)


@dataclass(frozen=True)
class AlgebraLawReport:
    units_checked: int
    squares_checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _height_two_shapes(n: int, max_nodes: int) -> list[Opetope]:
    """All uniform-height-2 shapes of dimension n+2 within the node bound."""
    out: list[Opetope] = []
    root = epsilon(n + 1)
    for alpha in enumerate_opetopes(n + 1, max_nodes):
        if isinstance(alpha, Degenerate):
            continue
        budget = max_nodes - 1 - size(alpha)
        ps = node_addrs(alpha)
        if budget < len(ps):
            continue
        pools = []
        for p in ps:
            tgt = source(alpha, p)
            pool = [
                beta
                for beta in enumerate_opetopes(n + 1, budget)
                if target(beta) == tgt
            ]
            pools.append(pool)
        for combo in itertools.product(*pools):
            if sum(1 + size(b) for b in combo) > budget:
                continue
            nodes = {root: alpha}
            for p, beta in zip(ps, combo):
                nodes[root.extend(p)] = beta
            out.append(tree(nodes))
    return out


def check_algebra_laws(A: OAlgebra, max_nodes: int) -> AlgebraLawReport:
    """Check the unit law on every cell and the multiplication square on
    every uniform-height-2 pasting of pastings within the node bound."""
    X = A.base
    failures: list[str] = []
    units = 0
    for omega in X.family.shapes():
        if omega.dim != X.n:
            continue
        for x in X.family.of_shape(omega):
            units += 1
            got = A.compose(monad_unit(X, x))
            if got != x:
                failures.append(f"unit: compose(unit({x})) = {got}")

    squares = 0
    for xi in _height_two_shapes(X.n, max_nodes):
        flat = target(xi)
        if size(flat) > A.max_nodes:
            continue
        S = _spine_of(flat, X.family.window)
        alpha, parts = _height_two_parts(xi)
        glue = _gluing(xi, parts, X.family.window)
        for f in maps(S, X.family):
            squares += 1
            lhs = A.compose(PastingCell(flat, f))
            label = f"square at {render(xi)} with {sorted(f.comp.items())}"
            try:
                seeds = {
                    _node_cell(p): A.compose(_slice(X, nu, glue[p], f))
                    for p, nu in parts.items()
                }
                SA = _spine_of(alpha, X.family.window)
                comp = _natural_fill(SA, X.family, seeds.items(), "outer pasting")
            except ShapeMismatch as err:
                failures.append(f"{label}: {err}")
                continue
            rhs = A.compose(PastingCell(alpha, OpSetMap(SA, X.family, comp)))
            if lhs != rhs:
                failures.append(f"{label}: flattened {lhs} != staged {rhs}")
    return AlgebraLawReport(units, squares, tuple(failures))


# ---------------------------------------------------------------------------
# Finite categories


def parse_category(text: str) -> FiniteCategory:
    """Read a finite category from lines of the form

        obj a b c
        mor f: a -> b
        id a = ida
        comp g.f = h
    """
    objects: dict[str, None] = {}
    morphisms: dict[str, tuple[str, str]] = {}
    composition: dict[tuple[str, str], str] = {}
    identities: dict[str, str] = {}

    def declare(table: dict, key, value, what: str) -> None:
        if key in table:
            raise ValueError(f"{what} declared twice")
        table[key] = value

    try:
        for lineno, line in numbered_lines(text):
            parts = line.split()
            if parts[0] == "obj":
                for a in parts[1:]:
                    declare(objects, a, None, f"object {a}")
            elif parts[0] == "mor":
                body = line[len("mor") :].strip()
                name, arrow = body.split(":", 1)
                a, b = arrow.split("->")
                declare(morphisms, name.strip(), (a.strip(), b.strip()), f"morphism {name.strip()}")
            elif parts[0] == "id":
                body = line[len("id") :].strip()
                a, i = body.split("=")
                declare(identities, a.strip(), i.strip(), f"identity of {a.strip()}")
            elif parts[0] == "comp":
                body = line[len("comp") :].strip()
                pair, h = body.split("=")
                g, f = pair.split(".")
                g, f = g.strip(), f.strip()
                declare(composition, (g, f), h.strip(), f"composite {g}.{f}")
            else:
                raise ValueError(f"unknown directive {parts[0]!r}")
    except ValueError as err:
        raise line_error(lineno, err, NotACategory) from None
    C = FiniteCategory(tuple(objects), morphisms, composition, identities)
    ensure_category(C)
    return C


def category_family(C: FiniteCategory) -> SortedFamily:
    """The underlying graph of a category as a sorted family for k = n = 1."""
    cells = {POINT: tuple(f"o.{a}" for a in C.objects)}
    if C.morphisms:
        cells[ARROW] = tuple(f"a.{f}" for f in sorted(C.morphisms))
    fac = {}
    for f, (a, b) in C.morphisms.items():
        fac[(f"a.{f}", ("s", STAR))] = f"o.{a}"
        fac[(f"a.{f}", T_GEN)] = f"o.{b}"
    return SortedFamily(FinOpSet((0, 1), cells, fac), 1, 1)


def pasting_chain(cell: PastingCell) -> tuple[str, tuple[str, ...]]:
    """Read off the path a pasting over a graph traces out, as the start
    vertex followed by the edges in diagram order."""
    m = len(node_addrs(cell.shape))
    edges = tuple(
        cell.filling(_node_cell(Addr(1, (STAR,) * (m - 1 - i)))) for i in range(m)
    )
    return cell.filling(_face_cell(cell.shape, (T_GEN, ("s", STAR)))), edges


def category_algebra(C: FiniteCategory, max_nodes: int) -> OAlgebra:
    """The category as an algebra: pastings compose along its table."""
    ensure_category(C)
    X = category_family(C)

    def rule(cell: PastingCell) -> CellId:
        start, edges = pasting_chain(cell)
        return f"a.{C.chain_composite(start[2:], tuple(e[2:] for e in edges))}"

    return build_algebra(X, rule, max_nodes)


# ---------------------------------------------------------------------------
# The ordinal realization for (k, n) = (1, 1)


@dataclass(frozen=True)
class LambdaMorphism:
    """A monotone map between finite ordinals; [m] has points 0..m."""

    src: int
    dst: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.src + 1:
            raise ValueError("wrong number of values")
        for v in self.values:
            if not 0 <= v <= self.dst:
                raise ValueError(f"value {v} outside [0, {self.dst}]")
        if any(a > b for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"values {self.values} are not monotone")

    def __call__(self, i: int) -> int:
        return self.values[i]

    def after(self, other: "LambdaMorphism") -> "LambdaMorphism":
        if other.dst != self.src:
            raise NotComposable(
                f"cannot compose [{other.src}]->[{other.dst}] "
                f"with [{self.src}]->[{self.dst}]"
            )
        return LambdaMorphism(
            other.src, self.dst, tuple(self.values[v] for v in other.values)
        )

    def __str__(self) -> str:
        return f"[{self.src}]->[{self.dst}] {self.values}"


def lambda_identity(m: int) -> LambdaMorphism:
    return LambdaMorphism(m, m, tuple(range(m + 1)))


def monotone_maps(m: int, mp: int) -> list[LambdaMorphism]:
    """Direct enumeration of all monotone maps [m] -> [mp]."""
    return [
        LambdaMorphism(m, mp, vals)
        for vals in itertools.combinations_with_replacement(range(mp + 1), m + 1)
    ]


def _points(omega: Opetope) -> list[tuple[Gen, ...]]:
    """The points 0..m of the ordinal realized by a shape of dimension at
    most 3, as face words into it.  Arrow i of a 2-shape I_m is its node
    at [*^(m-1-i)]; a 3-shape realizes the points of its target."""
    d = omega.dim
    if d == 0:
        return [()]
    if d == 1:
        return [(("s", STAR),), (T_GEN,)]
    if d == 2:
        m = len(node_addrs(omega))
        arrows = [("s", Addr(1, (STAR,) * (m - 1 - i))) for i in range(m)]
        return [(a, ("s", STAR)) for a in arrows] + [(T_GEN, T_GEN)]
    if d == 3:
        return [(T_GEN,) + w for w in _points(target(omega))]
    raise ValueError(f"no ordinal realization in dimension {d}")


def h_object(omega: Opetope) -> int:
    """The ordinal realized by a shape of dimension at most 3: the number
    of composable arrows it presents."""
    return len(_points(omega)) - 1


def h_morphism(omega: Opetope, gen: Gen) -> LambdaMorphism:
    """The monotone map realizing a generating face of a shape of
    dimension at most 3: each point of the face goes to the point of
    omega that it equals in faces(omega)."""
    if not 1 <= omega.dim <= 3:
        raise ValueError(f"no realization for faces in dimension {omega.dim}")
    fs = faces(omega)
    index = {fs.cell_of_word(w): i for i, w in enumerate(_points(omega))}
    values = tuple(index[fs.cell_of_word((gen,) + w)] for w in _points(face(omega, gen)))
    return LambdaMorphism(len(values) - 1, len(index) - 1, values)


# ---------------------------------------------------------------------------
# Diagrammatic morphisms


@dataclass(frozen=True)
class Diagram:
    """A monotone map presented inside a single 3-shape: the marked source
    face maps to the target face."""

    shape: Opetope
    node: Addr

    def __post_init__(self) -> None:
        if self.shape.dim != 3:
            raise ValueError("diagrams live in dimension 3")
        if not (isinstance(self.shape, Tree) and self.shape.has_node(self.node)):
            raise ValueError(f"{self.node} is not a node of the shape")

    @property
    def source_shape(self) -> Opetope:
        return source(self.shape, self.node)

    @property
    def target_shape(self) -> Opetope:
        return target(self.shape)


def diagram_map(d: Diagram) -> LambdaMorphism:
    return h_morphism(d.shape, ("s", d.node))


def diagram_compose(d1: Diagram, d2: Diagram) -> Diagram:
    """Substitute d1's shape into the marked node of d2's; realizes the
    composite of the two monotone maps."""
    if target(d1.shape) != source(d2.shape, d2.node):
        raise NotComposable(
            f"target of the first diagram is {render(target(d1.shape))}, "
            f"the second expects {render(source(d2.shape, d2.node))}"
        )
    composite = substitute(d2.shape, d2.node, d1.shape)
    return Diagram(composite, d2.node + d1.node)


def diagram_for_monotone(f: LambdaMorphism) -> Diagram:
    """Present a monotone map [m] -> [mp], m >= 1, as a diagram.

    The root is a chain long enough to leave f(0) arrows below and
    mp - f(m) arrows above the image; the marked node carries the source
    chain, and each source arrow's image block is filled in by a chain of
    its own length.
    """
    m, mp = f.src, f.dst
    if m < 1:
        raise ValueError("only maps from [m] with m >= 1 are diagrams")
    r = f(0) + 1 + mp - f(m)
    q = Addr(1, (STAR,) * (r - 1 - f(0)))
    nodes: dict[Addr, Opetope] = {
        epsilon(2): opetopic_integer(r),
        Addr(2, (q,)): opetopic_integer(m),
    }
    for i in range(m):
        li = Addr(1, (STAR,) * (m - 1 - i))
        nodes[Addr(2, (q, li))] = opetopic_integer(f(i + 1) - f(i))
    return Diagram(tree(nodes), Addr(2, (q,)))


# ---------------------------------------------------------------------------
# Nerves of finite categories


def _chain_id(shape_tag: str, start: str, ms: tuple[str, ...]) -> CellId:
    body = ".".join((start,) + ms)
    return f"{shape_tag}.{body}"


def _chains(C: FiniteCategory, m: int) -> list[tuple[str, tuple[str, ...]]]:
    outgoing: dict[str, list[str]] = {a: [] for a in C.objects}
    for f in sorted(C.morphisms):
        outgoing[C.src(f)].append(f)
    chains: list[tuple[str, tuple[str, ...]]] = [
        (a, ()) for a in C.objects
    ]
    for _ in range(m):
        nxt = []
        for start, ms in chains:
            tip = C.tgt(ms[-1]) if ms else start
            for f in outgoing[tip]:
                nxt.append((start, ms + (f,)))
        chains = nxt
    return chains


def _chain_restrict(
    C: FiniteCategory, start: str, ms: tuple[str, ...], phi: LambdaMorphism
) -> tuple[str, tuple[str, ...]]:
    objs = [start]
    for e in ms:
        objs.append(C.tgt(e))
    out = []
    for j in range(phi.src):
        a, b = phi(j), phi(j + 1)
        out.append(C.chain_composite(objs[a], ms[a:b]))
    return objs[phi(0)], tuple(out)


def nerve_category(C: FiniteCategory, max_shape_nodes: int | None = None) -> FinOpSet:
    """The opetopic nerve of a finite category over the window [0, 3].

    Point cells are objects, arrow cells morphisms, 2-cells composable
    chains, and each 3-shape is filled uniquely by the chain its target
    presents.  Every nonempty category has chains of every length, so a
    shape bound is required; omitting it raises InfiniteNerve.
    """
    ensure_category(C)
    if max_shape_nodes is None:
        if C.objects:
            raise InfiniteNerve(
                "a nonempty category has cells at arbitrarily large shapes; "
                "pass a shape bound"
            )
        return empty_opset((0, 3))
    graph = category_family(C).family
    cells: dict[Opetope, tuple[CellId, ...]] = dict(graph.cells)
    fac: dict[tuple[CellId, Gen], CellId] = dict(graph.faces)
    for m in range(max_shape_nodes + 1):
        shape = opetopic_integer(m)
        ids = []
        for start, ms in _chains(C, m):
            cid = _chain_id("c", start, ms)
            ids.append(cid)
            for i in range(m):
                fac[(cid, ("s", Addr(1, (STAR,) * i)))] = f"a.{ms[m - 1 - i]}"
            fac[(cid, T_GEN)] = f"a.{C.chain_composite(start, ms)}"
        if ids:
            cells[shape] = tuple(ids)
    for xi in enumerate_opetopes(3, max_shape_nodes):
        m = h_object(xi)
        if m > max_shape_nodes:
            continue
        tag = "x" + render(xi).replace(" ", "")
        ids = []
        phis = {p: h_morphism(xi, ("s", p)) for p in node_addrs(xi)}
        for start, ms in _chains(C, m):
            cid = _chain_id(tag, start, ms)
            ids.append(cid)
            for p, phi in phis.items():
                s2, ms2 = _chain_restrict(C, start, ms, phi)
                fac[(cid, ("s", p))] = _chain_id("c", s2, ms2)
            fac[(cid, T_GEN)] = _chain_id("c", start, ms)
        if ids:
            cells[xi] = tuple(ids)
    return FinOpSet((0, 3), cells, fac)


@dataclass(frozen=True)
class NerveReport:
    segal2: bool
    segal3: bool
    boundary3: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.segal2 and self.segal3 and self.boundary3


def nerve_axioms_check(N: FinOpSet, max_nodes: int = 4) -> NerveReport:
    """Check unique spine extension in dimensions 2 and 3 and unique
    boundary extension in dimension 3, over shapes within the node bound."""
    if N.window != (0, 3):
        raise WindowMismatch(f"nerve checks need window (0, 3), got {N.window}")
    failures: list[str] = []

    def run(kind: str, incls) -> bool:
        good = True
        for label, incl in incls:
            w = orthogonal_witness(incl, N)
            if w is not None:
                f, count = w
                good = False
                failures.append(
                    f"{kind} fails at {label}: a map extends {count} times"
                )
        return good

    twos = [
        (render(opetopic_integer(m)), spine(opetopic_integer(m), (0, 3)))
        for m in range(max_nodes + 1)
    ]
    threes = list(enumerate_opetopes(3, max_nodes))
    s3 = [(render(xi), spine(xi, (0, 3))) for xi in threes]
    b3 = [(render(xi), boundary(xi, (0, 3))) for xi in threes]
    return NerveReport(
        run("spine extension in dimension 2", twos),
        run("spine extension in dimension 3", s3),
        run("boundary extension in dimension 3", b3),
        tuple(failures),
    )

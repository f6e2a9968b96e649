"""Opetopic algebras over a window of dimensions.

An algebra lives on a finite opetopic set X over a window [n-k, n]; the
top of the window, n = X.window[1], is the dimension of the sorts its
pastings output.  Free pasting cells over X, the unit of the free pasting
monad, algebra structures given by a composition rule (a map from pastings
to cells, built up to a node bound), the ordinal realization for
(k, n) = (1, 1), and nerves of finite categories all live here.  The
monad multiplication is the oracle of the law square in
`tests/monad_oracle.py`, and diagrammatic presentations of monotone maps
are stated in `tests/paper_results.py`.

The law check and the realization read cells off the face structure of a
shape.  A pasting of pastings is a uniform-height-2 shape xi, and in
faces(xi) each spine cell of an inner shape equals one spine cell of
target(xi): the law check slices a filling of target(xi) back into inner
fillings along that map.  What the law check needs of the shapes alone
(each height-2 shape with its flattened shape, parts, gluing and seeds)
is planned once per window and node bound and cached per process
(`_square_plan`); it is read-only, like every cached presheaf, and only
the map searches and the composites read the algebra.  The realization
names the points of a shape by face words, and sends each point of a
face to the point it equals in faces(omega).  The nerve of a category
is read off the realization: its cells at a shape omega are the chains
of length h(omega), the faces of a cell are its restrictions along the
realization of omega's faces, and one shape rule cuts it off at a node
bound.  The nerve check is a table of three rows that
`opset.lifting_report` asks at those shapes.  The finite-category type
and its axiom checks come from `kernel`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable

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
    generators,
    node_addrs,
    opetopic_integer,
    render,
    size,
    source,
    target,
    tree,
)
from .opset import (
    CellId,
    FinOpSet,
    LiftingReport,
    Window,
    WindowMismatch,
    boundary,
    lifting_report,
    maps,
    spine,
)
from .kernel import (
    FiniteCategory,
    NotACategory,
    PshMap,
    line_error,
    ensure_category,
    numbered_lines,
    propagate,
)


class ShapeMismatch(ValueError):
    pass


class NotComposable(ValueError):
    pass


# ---------------------------------------------------------------------------
# Pasting cells


@dataclass(frozen=True, eq=False)
class PastingCell:
    """A pasting shape together with a filling of its spine.

    The shape is an (n+1)-opetope nu; the filling maps the spine of nu,
    truncated to the window of a set X, into X.  Its output sort is
    target(nu).
    """

    shape: Opetope
    filling: PshMap

    @property
    def output(self) -> Opetope:
        return target(self.shape)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PastingCell):
            return NotImplemented
        return self.shape == other.shape and self.filling == other.filling

    def __str__(self) -> str:
        return f"pasting of shape {render(self.shape)}"


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


# ---------------------------------------------------------------------------
# Free cells and the monad structure


def free_cells(X: FinOpSet, omega: Opetope, max_nodes: int) -> list[PastingCell]:
    """All pastings over X with output sort omega and at most max_nodes nodes."""
    n = X.window[1]
    if omega.dim != n:
        raise ShapeMismatch(f"output sort must have dimension {n}")
    out: list[PastingCell] = []
    for nu in enumerate_opetopes(n + 1, max_nodes):
        if target(nu) != omega:
            continue
        S = _spine_of(nu, X.window)
        for f in maps(S, X):
            out.append(PastingCell(nu, f))
    return out


def monad_unit(X: FinOpSet, x: CellId) -> PastingCell:
    """The trivial pasting of a single cell: a corolla filled with x."""
    omega = X.shape_of(x)
    if omega.dim != X.window[1]:
        raise ShapeMismatch(f"unit takes a cell of dimension {X.window[1]}")
    nu = corolla(omega)
    S = _spine_of(nu, X.window)
    root = node_addrs(nu)[0]
    comp = _natural_fill(S, X, [(faces(nu).name((("s", root),)), x)], "unit")
    return PastingCell(nu, PshMap(S, X, comp))


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

    def spine_cells(nu: Opetope, head: Gen) -> dict[CellId, CellId]:
        """Each spine cell of the face nu of xi at head, named as a cell of xi."""
        names = faces(xi).along(head)
        return {x: names[x] for x in _spine_of(nu, window).sort}

    on_flat = {c: x for x, c in spine_cells(target(xi), T_GEN).items()}
    root = epsilon(xi.dim - 1)
    return {
        p: {y: on_flat[c] for y, c in spine_cells(nu, ("s", root.extend(p))).items()}
        for p, nu in parts.items()
    }


# ---------------------------------------------------------------------------
# Algebras as composition rules


@dataclass(frozen=True)
class OAlgebra:
    """An opetopic set with its composition rule, a map from pastings to cells.

    compose applies the rule to the pastings over the set whose shape and
    output sort have at most max_nodes nodes, and refuses every other one.
    It does not check that a filling is natural.
    """

    base: FinOpSet
    rule: Callable[[PastingCell], CellId]
    max_nodes: int

    def compose(self, cell: PastingCell) -> CellId:
        if (
            cell.filling.dst != self.base
            or cell.shape.dim != self.base.window[1] + 1
            or size(cell.shape) > self.max_nodes
            or size(cell.output) > self.max_nodes
        ):
            raise ShapeMismatch(
                f"composition table has no entry for {cell} "
                f"(built up to {self.max_nodes} nodes)"
            )
        return self.rule(cell)


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


@cache
def _square_plan(window: Window, max_nodes: int) -> tuple:
    """The half of the square check that depends on shapes alone: for each
    uniform-height-2 shape xi of dimension window[1] + 2 whose flattened
    shape flat = target(xi) is within the node bound, in the order of
    _height_two_shapes, (xi, flat, alpha, slices, seeds).  alpha is the
    root decoration of xi; slices holds, per inner shape nu, (nu, the
    spine cells of flat that nu's spine cells are glued to, in nu's spine
    order), and seeds the cells of alpha's spine that the inner composites
    fill.  Equal shapes are one object, so that keys compare them by
    identity.  Cached per process; nothing may change what it returns."""
    same = {}.setdefault  # the first object seen equal to a shape
    plan = []
    for xi in _height_two_shapes(window[1], max_nodes):
        flat = target(xi)
        flat = same(flat, flat)
        if size(flat) > max_nodes:
            continue
        alpha, parts = _height_two_parts(xi)
        glue = _gluing(xi, parts, window)
        slices = tuple((same(nu, nu), tuple(glue[p].values())) for p, nu in parts.items())
        seeds = tuple(faces(alpha).name((("s", p),)) for p in parts)
        plan.append((xi, flat, same(alpha, alpha), slices, seeds))
    return tuple(plan)


def check_algebra_laws(A: OAlgebra) -> AlgebraLawReport:
    """Check the unit law on every cell and the multiplication square on
    every uniform-height-2 pasting of pastings within the algebra's node
    bound, A.max_nodes.  It skips each unit whose corolla, and each square
    whose flattened shape, has more nodes than the bound.

    Each distinct pasting, a shape and its filling, is composed once per
    check, so the rule must be a function of its pasting; an outer pasting,
    alpha filled by its parts' composites, is filled and composed once."""
    X = A.base
    window = X.window
    n = window[1]
    failures: list[str] = []

    @cache
    def compose(nu: Opetope, values: tuple[CellId, ...]) -> CellId:
        """The composite of the pasting of shape nu filled by values, in spine order."""
        S = _spine_of(nu, window)
        return A.compose(PastingCell(nu, PshMap(S, X, dict(zip(S.sort, values)))))

    @cache
    def stage(alpha: Opetope, seeds: tuple[CellId, ...], inner: tuple[CellId, ...]) -> tuple:
        """(the composite of alpha filled by its parts' composites inner at
        the cells seeds, None), or (None, why they fill no pasting)."""
        S = _spine_of(alpha, window)
        try:
            comp = _natural_fill(S, X, zip(seeds, inner), "outer pasting")
        except ShapeMismatch as err:
            return None, str(err)
        return compose(alpha, tuple(map(comp.__getitem__, S.sort))), None

    units = 0
    for omega in X.shapes():
        if omega.dim != n or size(corolla(omega)) > A.max_nodes:
            continue
        for x in X.of_shape(omega):
            units += 1
            unit = monad_unit(X, x)
            got = compose(unit.shape, tuple(map(unit.filling, unit.filling.src.sort)))
            if got != x:
                failures.append(f"unit: compose(unit({x})) = {got}")

    squares = 0
    # each flattened shape's fillings with their values, searched once
    flattened: dict[Opetope, list[tuple[PshMap, tuple[CellId, ...]]]] = {}
    for xi, flat, alpha, slices, seeds in _square_plan(window, A.max_nodes):
        if flat not in flattened:
            S = _spine_of(flat, window)
            flattened[flat] = [(f, tuple(map(f, S.sort))) for f in maps(S, X)]
        for f, values in flattened[flat]:
            squares += 1
            lhs = compose(flat, values)
            value = f.comp.__getitem__
            try:
                inner = tuple(compose(nu, tuple(map(value, cells))) for nu, cells in slices)
            except ShapeMismatch as err:
                rhs, problem = None, str(err)
            else:
                rhs, problem = stage(alpha, seeds, inner)
            if problem is None:
                if lhs == rhs:
                    continue
                problem = f"flattened {lhs} != staged {rhs}"
            label = f"square at {render(xi)} with {sorted(f.comp.items())}"
            failures.append(f"{label}: {problem}")
    return AlgebraLawReport(units, squares, tuple(failures))


# ---------------------------------------------------------------------------
# Finite categories


_END = r"((?:[^\s.-]|-(?!>))+)"  # an end of an arrow: a name that holds no `.` or `->`
# a line's first word -> its form and regex; names hold no `.`, which joins
# them in the nerve's cell ids, and no separator of their form
_CATEGORY_LINES = {
    "obj": ("obj NAME...", re.compile(r"obj(?:\s+[^\s.]+)*")),
    "mor": ("mor NAME: SRC -> DST", re.compile(rf"mor\s+([^\s:.]+)\s*:\s*{_END}\s*->\s*{_END}")),
    "id": ("id OBJ = NAME", re.compile(r"id\s+([^\s=.]+)\s*=\s*([^\s=.]+)")),
    "comp": ("comp G.F = H", re.compile(r"comp\s+([^\s.=]+)\s*\.\s*([^\s.=]+)\s*=\s*([^\s.=]+)")),
}


def parse_category(text: str) -> FiniteCategory:
    """Read a finite category from lines of the form

        obj a b c
        mor f: a -> b
        id a = ida
        comp g.f = h

    where each name is one run of non-space characters other than `.`; a
    malformed line is an error naming the form its first word names."""
    objects: dict[str, None] = {}
    morphisms: dict[str, tuple[str, str]] = {}
    composition: dict[tuple[str, str], str] = {}
    identities: dict[str, str] = {}

    def declare(table: dict, key, value, what: str) -> None:
        if key in table:
            raise NotACategory(f"{what} declared twice")
        table[key] = value

    try:
        for lineno, line in numbered_lines(text):
            word = line.split(None, 1)[0]
            if word not in _CATEGORY_LINES:
                raise NotACategory(f"unknown directive {word!r}")
            form, regex = _CATEGORY_LINES[word]
            m = regex.fullmatch(line)
            if m is None:
                raise NotACategory(f"expected {form!r}")
            if word == "obj":
                for a in line.split()[1:]:
                    declare(objects, a, None, f"object {a}")
            elif word == "mor":
                declare(morphisms, m[1], (m[2], m[3]), f"morphism {m[1]}")
            elif word == "id":
                declare(identities, m[1], m[2], f"identity of {m[1]}")
            else:
                declare(composition, (m[1], m[2]), m[3], f"composite {m[1]}.{m[2]}")
    except ValueError as err:
        raise line_error(lineno, err) from None
    C = FiniteCategory(tuple(objects), morphisms, composition, identities)
    ensure_category(C)
    return C


def category_family(C: FiniteCategory) -> FinOpSet:
    """The underlying graph of a category as an opetopic set over [0, 1]."""
    cells = {POINT: tuple(f"o.{a}" for a in C.objects)} if C.objects else {}
    if C.morphisms:
        cells[ARROW] = tuple(f"a.{f}" for f in sorted(C.morphisms))
    fac = {}
    for f, (a, b) in C.morphisms.items():
        fac[(f"a.{f}", ("s", STAR))] = f"o.{a}"
        fac[(f"a.{f}", T_GEN)] = f"o.{b}"
    return FinOpSet((0, 1), cells, fac)


@cache
def _chain_cells(nu: Opetope) -> tuple[CellId, tuple[CellId, ...]]:
    """The spine cells of a 2-shape that a path runs through: its start
    point, then its arrows in diagram order."""
    name = faces(nu).name
    return name((T_GEN, ("s", STAR))), tuple(name((("s", a),)) for a in _arrows(nu))


def pasting_chain(cell: PastingCell) -> tuple[str, tuple[str, ...]]:
    """Read off the path a pasting over a graph traces out, as the start
    vertex followed by the edges in diagram order."""
    start, arrows = _chain_cells(cell.shape)
    f = cell.filling
    return f(start), tuple(f(a) for a in arrows)


def category_algebra(C: FiniteCategory, max_nodes: int) -> OAlgebra:
    """The category as an algebra: pastings compose along its table."""
    ensure_category(C)
    X = category_family(C)

    def rule(cell: PastingCell) -> CellId:
        start, edges = pasting_chain(cell)
        return f"a.{C.chain_composite(start[2:], tuple(e[2:] for e in edges))}"

    return OAlgebra(X, rule, max_nodes)


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


def _arrows(omega: Opetope) -> list[Addr]:
    """The nodes of a 2-shape I_m in diagram order: arrow i is at [*^(m-1-i)]."""
    m = len(node_addrs(omega))
    return [Addr(1, (STAR,) * (m - 1 - i)) for i in range(m)]


def _points(omega: Opetope) -> list[tuple[Gen, ...]]:
    """The points 0..m of the ordinal realized by a shape of dimension at
    most 3, as face words into it: the sources of the arrows of a 2-shape,
    then its last target; a 3-shape realizes the points of its target."""
    d = omega.dim
    if d == 0:
        return [()]
    if d == 1:
        return [(("s", STAR),), (T_GEN,)]
    if d == 2:
        return [(("s", a), ("s", STAR)) for a in _arrows(omega)] + [(T_GEN, T_GEN)]
    if d == 3:
        return [(T_GEN,) + w for w in _points(target(omega))]
    raise ValueError(f"no ordinal realization in dimension {d}")


@cache
def _point_index(omega: Opetope) -> dict[int, int]:
    """Each point's cell in faces(omega), mapped to its place in the ordinal."""
    fs = faces(omega)
    return {fs.cell_of_word(w): i for i, w in enumerate(_points(omega))}


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
    index = _point_index(omega)
    values = tuple(index[fs.cell_of_word((gen,) + w)] for w in _points(face(omega, gen)))
    return LambdaMorphism(len(values) - 1, len(index) - 1, values)


# ---------------------------------------------------------------------------
# Nerves of finite categories


def _chain_id(shape_tag: str, start: str, ms: tuple[str, ...]) -> CellId:
    return ".".join((shape_tag, start) + ms)


def _chains(C: FiniteCategory, m: int) -> list[tuple[str, tuple[str, ...]]]:
    outgoing: dict[str, list[str]] = {a: [] for a in C.objects}
    for f in sorted(C.morphisms):
        outgoing[C.src(f)].append(f)
    chains: list[tuple[str, tuple[str, ...]]] = [(a, ()) for a in C.objects]
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
    """The chain that phi picks out of (start, ms): between its points
    phi(j) and phi(j + 1), the composite of the arrows of ms there."""
    objs = [start] + [C.tgt(e) for e in ms]
    cuts = phi.values
    return objs[cuts[0]], tuple(
        C.chain_composite(objs[a], ms[a:b]) for a, b in zip(cuts, cuts[1:])
    )


def _nerve_shapes(bound: int) -> list[Opetope]:
    """The shapes at which the nerve cut at a node bound has cells: I_m for
    m <= bound, then the 3-shapes within the bound that realize at most
    bound arrows."""
    threes = [xi for xi in enumerate_opetopes(3, bound) if h_object(xi) <= bound]
    return [opetopic_integer(m) for m in range(bound + 1)] + threes


def nerve_category(C: FiniteCategory, max_shape_nodes: int) -> FinOpSet:
    """The opetopic nerve of a finite category over the window [0, 3], cut
    at a shape bound: a nonempty category has chains of every length.

    Point cells are objects and arrow cells morphisms.  At each shape of
    dimension 2 or 3 that the shape bound keeps, the cells are the chains
    of length h(omega), and the face g of a chain is its restriction along
    the realization h(g): a morphism when the face is an arrow, a chain
    otherwise.
    """
    ensure_category(C)
    graph = category_family(C)
    cells: dict[Opetope, tuple[CellId, ...]] = dict(graph.cells)
    fac: dict[tuple[CellId, Gen], CellId] = dict(graph.faces)
    for omega in _nerve_shapes(max_shape_nodes):
        tag = "c" if omega.dim == 2 else "x" + render(omega).replace(" ", "")
        phis = {g: h_morphism(omega, g) for g in generators(omega)}
        ids = []
        for start, ms in _chains(C, h_object(omega)):
            cid = _chain_id(tag, start, ms)
            ids.append(cid)
            for g, phi in phis.items():
                s2, ms2 = _chain_restrict(C, start, ms, phi)
                fac[(cid, g)] = f"a.{ms2[0]}" if omega.dim == 2 else _chain_id("c", s2, ms2)
        if ids:
            cells[omega] = tuple(ids)
    return FinOpSet((0, 3), cells, fac)


def nerve_axioms_check(N: FinOpSet, max_nodes: int) -> LiftingReport:
    """Check unique spine extension in dimensions 2 and 3 and unique
    boundary extension in dimension 3, over the shapes of the nerve cut at
    the node bound."""
    if N.window != (0, 3):
        raise WindowMismatch(f"nerve checks need window (0, 3), got {N.window}")
    rows = [("segal2", spine, (2,)), ("segal3", spine, (3,)), ("boundary3", boundary, (3,))]

    def text(include, w: Opetope, n: int) -> str:
        what = f"{include.__name__} extension in dimension {w.dim} fails at"
        return f"{what} {render(w)}: a map extends {n} times"

    return lifting_report(N, rows, _nerve_shapes(max_nodes), text)

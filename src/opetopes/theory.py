"""Dependently sorted algebraic theories over direct categories.

The kernel shared with `opset` and `oalg` lives here: the finite-category
table type (FiniteCategory, also named FinDirectCat) and its axiom checks,
and the one finite-presheaf type, FinPresheaf, with what works on any
presheaf: maps (PshMap, Inclusion), the naturality check, identities,
composites, face-closed sub-presheaves and the natural-map search.
Opetopic sets (`opset.FinOpSet`) and presheaves on a category table
(FinPresheafC) are its two kinds.  numbered_lines and line_error read
the lines of every text format of the package and name the line of an
error.  This module imports nothing from the rest of the package.

The semantic side: finite direct categories, whose direction and
dimensions validate_lfd checks in one pass after the table and law checks
it shares with ensure_category, presheaves on them, boundaries, and cell
contexts built by attaching one cell at a time, carrying the strict
parent/projection/pullback structure.

The syntactic side: type signatures, term signatures, and equation sets
parsed from a small declaration grammar, the translation between
signatures and direct categories (a morphism a -> b is a variable of b's
extended context of sort a(...)), and an exhaustive finite-model checker.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator


class EmptyContext(ValueError):
    pass


class NotAMap(ValueError):
    pass


class ParseError(ValueError):
    pass


class FreshnessViolation(ValueError):
    pass


class IllFormedContext(ValueError):
    pass


class NotACategory(ValueError):
    pass


def numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, text) for each line of text that is not blank once its
    `#` comment is cut off; the text is stripped."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def line_error(
    lineno: int, err: ValueError, error: type[ValueError] | None = None
) -> ValueError:
    """err with `line lineno: ` before its message, as error or, by default,
    as the type it had: what a text parser raises for a bad line."""
    return (error or type(err))(f"line {lineno}: {err}")


# ---------------------------------------------------------------------------
# Finite direct categories


@dataclass(frozen=True)
class FiniteCategory:
    """A finite category given by tables.

    morphisms maps every morphism name, identities included, to its
    (source, target); identities designates one endomorphism per object;
    composition lists g after f for composable pairs, and composites with
    an identity may be left implicit.  A direct category is one whose
    non-identity morphisms form no cycle; validate_lfd checks that in the
    one pass that also computes the dimensions.
    """

    objects: tuple[str, ...]
    morphisms: dict[str, tuple[str, str]]
    composition: dict[tuple[str, str], str]
    identities: dict[str, str]

    def src(self, f: str) -> str:
        return self.morphisms[f][0]

    def tgt(self, f: str) -> str:
        return self.morphisms[f][1]

    def is_identity(self, f: str) -> bool:
        return f in self.identities.values()

    def compose(self, g: str, f: str) -> str:
        """g after f."""
        if (g, f) in self.composition:
            return self.composition[(g, f)]
        if f == self.identities.get(self.src(f)):
            return g
        if g == self.identities.get(self.tgt(f)):
            return f
        raise NotACategory(f"no composite for {g}.{f}")

    def chain_composite(self, start: str, ms: tuple[str, ...]) -> str:
        """The composite of a chain given in diagram order; the identity
        of start for the empty chain."""
        if not ms:
            return self.identities[start]
        c = ms[0]
        for e in ms[1:]:
            c = self.compose(e, c)
        return c

    def into(self, c: str) -> tuple[str, ...]:
        """Non-identity morphisms with target c, sorted by name."""
        return tuple(
            sorted(
                f
                for f, (_, b) in self.morphisms.items()
                if b == c and not self.is_identity(f)
            )
        )


FinDirectCat = FiniteCategory  # the name the direct-category side uses


def _table_problems(C: FiniteCategory) -> Iterator[str]:
    """Defects of the tables themselves: endpoints, identities and
    composition entries."""
    for f, (a, b) in C.morphisms.items():
        if a not in C.objects or b not in C.objects:
            yield f"morphism {f} has unknown endpoints"
    for a in C.objects:
        i = C.identities.get(a)
        if i is None:
            yield f"object {a} has no identity"
        elif C.morphisms.get(i) != (a, a):
            yield f"identity {i} of {a} is not an endomorphism of {a}"
    for (g, f), h in C.composition.items():
        if f not in C.morphisms or g not in C.morphisms:
            yield f"composite {g}.{f} names an unknown morphism"
        elif C.tgt(f) != C.src(g):
            yield f"composite {g}.{f} declared but not composable"
        elif h not in C.morphisms:
            yield f"composite {g}.{f} = {h} is not a morphism"
        elif (C.src(h), C.tgt(h)) != (C.src(f), C.tgt(g)):
            yield f"composite {g}.{f} = {h} has wrong endpoints"


def _law_problems(C: FiniteCategory) -> Iterator[str]:
    """Failures of totality, the identity laws and associativity, on
    tables without defects."""
    out_of: dict[str, list[str]] = {a: [] for a in C.objects}
    for f, (a, _) in C.morphisms.items():
        out_of[a].append(f)
    for f, (_, b) in C.morphisms.items():
        for g in out_of[b]:
            try:
                C.compose(g, f)
            except NotACategory as err:
                yield str(err)
    for f, (a, b) in C.morphisms.items():
        if C.compose(f, C.identities[a]) != f:
            yield f"right identity fails at {f}"
        if C.compose(C.identities[b], f) != f:
            yield f"left identity fails at {f}"
    for f, (_, b) in C.morphisms.items():
        for g in out_of[b]:
            for h in out_of[C.tgt(g)]:
                try:
                    if C.compose(h, C.compose(g, f)) != C.compose(C.compose(h, g), f):
                        yield f"associativity fails at {h}.{g}.{f}"
                except NotACategory:
                    continue  # a missing composite, reported above


def ensure_category(C: FiniteCategory) -> None:
    """Raise NotACategory at the first failure of the category axioms:
    defects of the tables first, then the laws."""
    for problems in (_table_problems, _law_problems):
        for problem in problems(C):
            raise NotACategory(problem)


def _dimensions(C: FinDirectCat) -> tuple[dict[str, int], tuple[str, ...] | None]:
    """The dimension of each object, the length of the longest chain of
    non-identity morphisms ending at it, and None; or {} and a cycle of
    non-identity morphisms, in arrow order.  Each round takes every object
    whose non-identity predecessors all have a dimension already; when no
    object is ready, walking back along predecessors meets a cycle."""
    preds = {c: {C.src(f) for f in C.into(c)} for c in C.objects}
    dims: dict[str, int] = {}
    rest = list(C.objects)
    while rest:
        ready = [c for c in rest if preds[c].issubset(dims)]
        if not ready:
            path = [rest[0]]
            while True:
                c = min(preds[path[-1]] - dims.keys())
                if c in path:
                    return {}, tuple(reversed(path[path.index(c) :] + [c]))
                path.append(c)
        for c in ready:
            dims[c] = 1 + max((dims[p] for p in preds[c]), default=-1)
        rest = [c for c in rest if c not in dims]
    return dims, None


def object_dimensions(C: FinDirectCat) -> dict[str, int]:
    """Dimension of each object: the length of the longest chain of
    non-identity morphisms ending at it.  Requires an acyclic category."""
    dims, cycle = _dimensions(C)
    if cycle is not None:
        raise ValueError("the category is not direct")
    return dims


@dataclass(frozen=True)
class LfdReport:
    dims: dict[str, int]
    covers: dict[str, tuple[str, ...]]
    cycle: tuple[str, ...] | None
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.cycle is None and not self.problems


def validate_lfd(C: FinDirectCat) -> LfdReport:
    """Check that C is a well-formed finite direct category: the category
    axioms, the reachability order acyclic, and for each object the
    family of non-identity morphisms into it a saturated cover closed
    under precomposition.  Dimensions are computed along the way."""
    table = tuple(_table_problems(C))
    if table:
        return LfdReport({}, {}, None, table)
    dims, cycle = _dimensions(C)
    if cycle is not None:
        return LfdReport({}, {}, cycle, ())
    # with sound tables and no cycle, a listed composite of two non-identity
    # morphisms into c is again one, so the totality check of the laws also
    # checks that each cover is closed under precomposition
    covers = {c: C.into(c) for c in C.objects}
    return LfdReport(dims, covers, None, tuple(_law_problems(C)))


# ---------------------------------------------------------------------------
# Finite presheaves and the map search


class FinPresheaf:
    """A finite presheaf on a direct category, the one type that opetopic
    sets and presheaves on a category table share.

    Plain attributes, read directly by the map search: cells lists the
    cells of each sort, sort gives the sort of each cell, gens lists the
    generators stored for each sort that has cells, and face maps
    (cell, generator) to a cell.  Cell ids are globally unique.
    Subclasses fix what sorts and generators are; _like builds a
    presheaf of the same kind on other cells and faces.
    """

    cells: dict
    sort: dict
    gens: dict
    face: dict

    def _index(self, face: dict, gens: dict) -> None:
        sort: dict = {}
        for s, xs in self.cells.items():
            for x in xs:
                if x in sort:
                    raise ValueError(f"cell id {x!r} is not unique")
                sort[x] = s
        for name, value in (("sort", sort), ("gens", gens), ("face", face)):
            object.__setattr__(self, name, value)

    def _like(self, cells: dict, face: dict) -> FinPresheaf:
        raise NotImplementedError


def propagate(pairs, comp: dict, trail: list, src: FinPresheaf, dst: FinPresheaf):
    """Extend the partial map comp by the (cell, value) pairs and by every
    pair their faces force, last in first out, appending each newly
    assigned cell to trail.  Returns None when all agree, otherwise the
    first pair whose sorts or earlier value disagree."""
    stack = list(pairs)
    while stack:
        x, y = stack.pop()
        sort = src.sort[x]
        if sort != dst.sort[y]:
            return x, y
        if x in comp:
            if comp[x] != y:
                return x, y
            continue
        comp[x] = y
        trail.append(x)
        for g in src.gens[sort]:
            stack.append((src.face[x, g], dst.face[y, g]))
    return None


def natural_maps(order: list, src: FinPresheaf, dst: FinPresheaf, injective: bool = False):
    """Yield every map from src to dst that commutes with faces.  The
    cells of order are chosen in turn, each value tried in dst's cell
    order and followed by propagate; cells already forced are skipped.
    With injective set, distinct cells get distinct values."""
    comp: dict = {}

    def extend(i: int):
        while i < len(order) and order[i] in comp:
            i += 1
        if i == len(order):
            yield dict(comp)
            return
        x = order[i]
        for y in dst.cells.get(src.sort[x], ()):
            trail: list = []
            if propagate([(x, y)], comp, trail, src, dst) is None and (
                not injective or len(set(comp.values())) == len(comp)
            ):
                yield from extend(i + 1)
            for z in trail:
                del comp[z]

    yield from extend(0)


@dataclass(frozen=True, eq=False)
class PshMap:
    """A map of presheaves, given by its component on every cell."""

    src: FinPresheaf
    dst: FinPresheaf
    comp: dict

    def __call__(self, x: str) -> str:
        return self.comp[x]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PshMap) and vars(self) == vars(other)


class Inclusion(PshMap):
    """A componentwise injective map."""

    def __init__(self, src: FinPresheaf, dst: FinPresheaf, comp: dict):
        if len(set(comp.values())) != len(comp):
            raise ValueError("an inclusion must be injective")
        super().__init__(src, dst, comp)


def psh_identity(X: FinPresheaf) -> Inclusion:
    return Inclusion(X, X, {x: x for x in X.sort})


def psh_compose(g: PshMap, f: PshMap) -> PshMap:
    """g after f."""
    if f.dst != g.src:
        raise NotAMap("maps are not composable")
    return PshMap(f.src, g.dst, {x: g.comp[y] for x, y in f.comp.items()})


def check_psh_map(f: PshMap) -> list[str]:
    """Cells without an image or with an image of another sort, then
    failures of naturality at the cells whose images have the right sort."""
    X, Y, comp = f.src, f.dst, f.comp
    problems: list[str] = []
    for c, xs in X.cells.items():
        for x in xs:
            if x not in comp:
                problems.append(f"no image for {x}")
            elif Y.sort.get(comp[x]) != c:
                problems.append(f"image of {x} is not a cell at {c}")
    for c, xs in X.cells.items():
        for m in X.gens[c]:
            for x in xs:
                y, z = comp.get(x), comp.get(X.face[x, m])
                if Y.sort.get(y) == c and z is not None and Y.face[y, m] != z:
                    problems.append(f"naturality fails at {x} along {m}")
    return problems


def sub_presheaf(X: FinPresheaf, keep: set) -> Inclusion:
    """The sub-presheaf on a face-closed set of cells, with its inclusion."""
    for x in keep:
        if any(X.face[x, g] not in keep for g in X.gens[X.sort[x]]):
            raise ValueError(f"{x}: kept cells must be closed under faces")
    cells = {s: tuple(x for x in xs if x in keep) for s, xs in X.cells.items()}
    face = {k: y for k, y in X.face.items() if k[0] in keep}
    A = X._like({s: xs for s, xs in cells.items() if xs}, face)
    return Inclusion(A, X, {x: x for x in A.sort})


@dataclass(frozen=True)
class FinPresheafC(FinPresheaf):
    """A finite presheaf on a finite direct category.

    cells lists the elements at each object; restriction maps a cell at
    the target of a non-identity morphism to a cell at its source.  The
    generators of an object are the non-identity morphisms into it;
    identity restrictions are implicit.
    """

    cat: FinDirectCat
    cells: dict[str, tuple[str, ...]]
    restriction: dict[tuple[str, str], str]

    def __post_init__(self) -> None:
        self._index(self.restriction, {c: self.cat.into(c) for c in self.cells})

    def _like(self, cells: dict, face: dict) -> FinPresheafC:
        return FinPresheafC(self.cat, cells, face)

    def of_obj(self, c: str) -> tuple[str, ...]:
        return self.cells.get(c, ())

    def restrict(self, x: str, f: str) -> str:
        if self.cat.is_identity(f):
            return x
        return self.restriction[(x, f)]


def validate_presheaf(X: FinPresheafC) -> list[str]:
    problems: list[str] = []
    for c in X.cells:
        if c not in X.cat.objects:
            problems.append(f"cells declared at unknown object {c}")
    for f, (a, b) in X.cat.morphisms.items():
        if X.cat.is_identity(f):
            continue
        for x in X.of_obj(b):
            y = X.restriction.get((x, f))
            if y is None:
                problems.append(f"missing restriction of {x} along {f}")
            elif y not in X.of_obj(a):
                problems.append(f"restriction of {x} along {f} is not a cell at {a}")
    for (x, f), y in X.restriction.items():
        if X.cat.morphisms.get(f) is None or x not in X.of_obj(X.cat.tgt(f)):
            problems.append(f"stray restriction entry ({x}, {f})")
    C = X.cat
    for c in C.objects:
        for g in C.into(c):
            for f in C.into(C.src(g)):
                gf = C.compose(g, f)
                for x in X.of_obj(c):
                    if X.restrict(x, gf) != X.restrict(X.restrict(x, g), f):
                        problems.append(f"functoriality fails at {x} along {g}.{f}")
    return problems


def _cells_by_dimension(X: FinPresheafC) -> list[tuple[str, str]]:
    """(object, cell) pairs ordered by dimension, object order, cell order."""
    dims = object_dimensions(X.cat)
    order = {c: i for i, c in enumerate(X.cat.objects)}
    out: list[tuple[str, str]] = []
    for c in sorted(X.cells, key=lambda c: (dims[c], order[c])):
        out.extend((c, x) for x in X.cells[c])
    return out


def psh_maps(X: FinPresheafC, Y: FinPresheafC) -> list[PshMap]:
    """All natural maps X -> Y, by backtracking in dimension order."""
    if X.cat != Y.cat:
        raise NotAMap("presheaves live over different categories")
    order = [x for _, x in _cells_by_dimension(X)]
    return [PshMap(X, Y, comp) for comp in natural_maps(order, X, Y)]


def psh_isomorphism(X: FinPresheafC, Y: FinPresheafC) -> PshMap | None:
    """An isomorphism X -> Y if one exists: a natural map bijective at
    every object, found by backtracking."""
    if X.cat != Y.cat:
        return None
    if any(len(X.of_obj(c)) != len(Y.of_obj(c)) for c in X.cat.objects):
        return None
    order = [x for _, x in _cells_by_dimension(X)]
    for comp in natural_maps(order, X, Y, injective=True):
        return PshMap(X, Y, comp)
    return None


def representable_psh(C: FinDirectCat, c: str) -> FinPresheafC:
    """The presheaf of morphisms into c; cells are morphism names."""
    cells: dict[str, tuple[str, ...]] = {}
    for b in C.objects:
        ms = sorted(f for f, (s, t) in C.morphisms.items() if s == b and t == c)
        if ms:
            cells[b] = tuple(ms)
    restriction = {}
    for b, ms in cells.items():
        for x in ms:
            for e in C.into(b):
                restriction[(x, e)] = C.compose(x, e)
    return FinPresheafC(C, cells, restriction)


def boundary_c(C: FinDirectCat, c: str) -> Inclusion:
    """The inclusion of the boundary of c into its representable.  The
    boundary keeps exactly the non-identity morphisms into c."""
    if c not in C.objects:
        raise ValueError(f"unknown object {c}")
    return sub_presheaf(representable_psh(C, c), set(C.into(c)))


# ---------------------------------------------------------------------------
# Cell contexts


@dataclass(frozen=True)
class AttachStep:
    """One attachment: a new cell at obj whose boundary lands in the
    previous stage.  attach pairs each non-identity morphism into obj
    with the cell of the previous stage it restricts to."""

    obj: str
    attach: tuple[tuple[str, str], ...]
    name: str

    def __str__(self) -> str:
        att = ", ".join(f"{m}->{y}" for m, y in self.attach)
        return f"{self.name}: {self.obj}({att})" if att else f"{self.name}: {self.obj}"


@dataclass(frozen=True)
class Context:
    """A presheaf presented as an ordered sequence of cell attachments.
    Two contexts are equal only if they attach the same cells in the
    same order along the same maps."""

    cat: FinDirectCat
    steps: tuple[AttachStep, ...]

    def realization(self, upto: int | None = None) -> FinPresheafC:
        n = len(self.steps) if upto is None else upto
        cells: dict[str, list[str]] = {}
        restriction: dict[tuple[str, str], str] = {}
        for step in self.steps[:n]:
            cells.setdefault(step.obj, []).append(step.name)
            for m, y in step.attach:
                restriction[(step.name, m)] = y
        return FinPresheafC(
            self.cat, {c: tuple(xs) for c, xs in cells.items()}, restriction
        )

    def __str__(self) -> str:
        return "[" + "; ".join(map(str, self.steps)) + "]"


def validate_context(ctx: Context) -> list[str]:
    problems: list[str] = []
    for i, step in enumerate(ctx.steps):
        if step.name != f"x{i}":
            problems.append(f"step {i} is named {step.name}, expected x{i}")
        if step.obj not in ctx.cat.objects:
            problems.append(f"step {i} attaches at unknown object {step.obj}")
            continue
        prev = ctx.realization(i)
        attach = dict(step.attach)
        want = set(ctx.cat.into(step.obj))
        if set(attach) != want:
            problems.append(f"step {i} must attach along exactly {sorted(want)}")
            continue
        for m, y in attach.items():
            if y not in prev.of_obj(ctx.cat.src(m)):
                problems.append(f"step {i} sends {m} to a missing cell {y}")
        for m in want:
            for e in ctx.cat.into(ctx.cat.src(m)):
                if attach.get(ctx.cat.compose(m, e)) != prev.restrict(attach[m], e):
                    problems.append(f"step {i} attaching map is not natural at {m}.{e}")
    return problems


def presheaf_to_context(X: FinPresheafC) -> Context:
    """Present a finite presheaf as a context, attaching its cells in
    dimension order and then in the deterministic cell order.  The
    realization is isomorphic to X via the cell order."""
    steps: list[AttachStep] = []
    name_of: dict[str, str] = {}
    for c, x in _cells_by_dimension(X):
        name = f"x{len(steps)}"
        attach = tuple(
            sorted((m, name_of[X.restrict(x, m)]) for m in X.cat.into(c))
        )
        steps.append(AttachStep(c, attach, name))
        name_of[x] = name
    return Context(X.cat, tuple(steps))


def ctx_ft(ctx: Context) -> Context:
    """Drop the last attachment."""
    if not ctx.steps:
        raise EmptyContext("the empty context has no parent")
    return Context(ctx.cat, ctx.steps[:-1])


def ctx_pr(ctx: Context) -> PshMap:
    """The inclusion of the parent stage into the full realization."""
    if not ctx.steps:
        raise EmptyContext("the empty context has no projection")
    prev = ctx.realization(len(ctx.steps) - 1)
    return Inclusion(prev, ctx.realization(), {x: x for x in prev.sort})


def ctx_pullback(
    ctx: Context, f: PshMap, base: Context
) -> tuple[Context, PshMap]:
    """Reattach the last cell of ctx along f, over the context base.

    f must be a map from the realization of the parent of ctx to the
    realization of base.  Returns the extended context together with the
    connecting map from the realization of ctx to its realization.  The
    construction is strictly functorial: pulling back along a composite
    equals the two-step pullback, as equality of contexts.
    """
    if not ctx.steps:
        raise EmptyContext("cannot pull back the empty context")
    last = ctx.steps[-1]
    parent = ctx.realization(len(ctx.steps) - 1)
    if f.src != parent:
        raise NotAMap("the map must start at the parent realization")
    if f.dst != base.realization():
        raise NotAMap("the map must land in the base realization")
    if ctx.cat != base.cat:
        raise NotAMap("contexts live over different categories")
    bad = check_psh_map(f)
    if bad:
        raise NotAMap(bad[0])
    name = f"x{len(base.steps)}"
    attach = tuple(sorted((m, f(y)) for m, y in last.attach))
    result = Context(base.cat, base.steps + (AttachStep(last.obj, attach, name),))
    comp = dict(f.comp)
    comp[last.name] = name
    connecting = PshMap(ctx.realization(), result.realization(), comp)
    return result, connecting


# ---------------------------------------------------------------------------
# Syntax: terms, sorts, declarations


@dataclass(frozen=True)
class Term:
    """A variable occurrence when args is None, an operation application
    otherwise."""

    head: str
    args: tuple["Term", ...] | None = None

    def __str__(self) -> str:
        if self.args is None:
            return self.head
        return f"{self.head}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class SortExpr:
    head: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.head
        return f"{self.head}({', '.join(map(str, self.args))})"


Binding = tuple[str, SortExpr]


@dataclass(frozen=True)
class TypeDecl:
    name: str
    context: tuple[Binding, ...]
    arg_order: tuple[str, ...]
    grade: int

    def __str__(self) -> str:
        ctx = ", ".join(f"{v}: {s}" for v, s in self.context)
        head = self.name if not self.arg_order else f"{self.name}({', '.join(self.arg_order)})"
        return f"{ctx} |- {head} type" if ctx else f"|- {head} type"


@dataclass(frozen=True)
class TermDecl:
    name: str
    context: tuple[Binding, ...]
    explicit: tuple[str, ...]
    output: SortExpr
    grade: int

    def __str__(self) -> str:
        ctx = ", ".join(f"{v}: {s}" for v, s in self.context)
        head = f"{self.name}({', '.join(self.explicit)})"
        return f"{ctx} |- {head} : {self.output}" if ctx else f"|- {head} : {self.output}"


@dataclass(frozen=True)
class Equation:
    context: tuple[Binding, ...]
    lhs: Term
    rhs: Term
    sort: SortExpr
    grade: int

    @property
    def label(self) -> str:
        return f"{self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class _Declarations:
    """Declarations in order, looked up by name."""

    declarations: tuple

    def decl(self, name: str):
        for d in self.declarations:
            if d.name == name:
                return d
        raise KeyError(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.declarations)


@dataclass(frozen=True)
class Signature(_Declarations):
    declarations: tuple[TypeDecl, ...]


@dataclass(frozen=True)
class TermSignature(_Declarations):
    declarations: tuple[TermDecl, ...]


@dataclass(frozen=True)
class EquationSet:
    equations: tuple[Equation, ...]


_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|\|-|[(),:={}]|\S")


class _Tokens:
    def __init__(self, line: str):
        self.items = _TOKEN.findall(line.replace("⊢", "|-"))
        self.pos = 0

    def peek(self) -> str | None:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self) -> str:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of line")
        self.pos += 1
        return t

    def expect(self, token: str) -> None:
        t = self.next()
        if t != token:
            raise ParseError(f"expected {token!r}, found {t!r}")

    def done(self) -> None:
        t = self.peek()
        if t is not None:
            raise ParseError(f"trailing input {t!r}")


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


def _ident(tok: _Tokens) -> str:
    t = tok.next()
    if not _IDENT.match(t):
        raise ParseError(f"expected a name, found {t!r}")
    return t


def _names(tok: _Tokens, close: str) -> list[str]:
    """Names separated by commas, up to the closing token, which is consumed."""
    names: list[str] = []
    if tok.peek() != close:
        names.append(_ident(tok))
        while tok.peek() == ",":
            tok.next()
            names.append(_ident(tok))
    tok.expect(close)
    return names


def _parse_term(tok: _Tokens) -> Term:
    head = _ident(tok)
    if tok.peek() != "(":
        return Term(head)
    tok.next()
    args: list[Term] = []
    if tok.peek() != ")":
        args.append(_parse_term(tok))
        while tok.peek() == ",":
            tok.next()
            args.append(_parse_term(tok))
    tok.expect(")")
    return Term(head, tuple(args))


def _parse_sortexpr(tok: _Tokens) -> SortExpr:
    t = _parse_term(tok)
    return SortExpr(t.head, t.args or ())


def _parse_ctx(tok: _Tokens) -> tuple[Binding, ...]:
    if tok.peek() == "|-":
        return ()
    bindings: list[Binding] = []
    while True:
        names = [_ident(tok)]
        while tok.peek() not in (":",) and tok.peek() is not None and _IDENT.match(tok.peek() or ""):
            names.append(_ident(tok))
        tok.expect(":")
        sort = _parse_sortexpr(tok)
        bindings.extend((n, sort) for n in names)
        if tok.peek() == ",":
            tok.next()
            continue
        break
    return tuple(bindings)


# ---------------------------------------------------------------------------
# Typing


def _subst_term(t: Term, theta: dict[str, Term]) -> Term:
    if t.args is None:
        return theta.get(t.head, t)
    return Term(t.head, tuple(_subst_term(a, theta) for a in t.args))


def _subst_sort(s: SortExpr, theta: dict[str, Term]) -> SortExpr:
    return SortExpr(s.head, tuple(_subst_term(a, theta) for a in s.args))


def _match_term(pattern: Term, actual: Term, theta: dict[str, Term]) -> None:
    if pattern.args is None:
        if pattern.head in theta:
            if theta[pattern.head] != actual:
                raise ParseError(
                    f"{pattern.head} matches both {theta[pattern.head]} and {actual}"
                )
        else:
            theta[pattern.head] = actual
        return
    if actual.args is None or actual.head != pattern.head:
        raise ParseError(f"{actual} does not match {pattern}")
    for p, a in zip(pattern.args, actual.args):
        _match_term(p, a, theta)


def _match_sort(pattern: SortExpr, actual: SortExpr, theta: dict[str, Term]) -> None:
    if pattern.head != actual.head or len(pattern.args) != len(actual.args):
        raise ParseError(f"sort {actual} does not match {pattern}")
    for p, a in zip(pattern.args, actual.args):
        _match_term(p, a, theta)


def _sort_of(
    t: Term,
    ctx: dict[str, SortExpr],
    sig: Signature,
    ops: dict[str, TermDecl],
) -> SortExpr:
    if t.args is None:
        if t.head in ctx:
            return ctx[t.head]
        if t.head in ops and not ops[t.head].explicit:
            return _apply(ops[t.head], (), ctx, sig, ops)[1]
        raise ParseError(f"unbound variable {t.head}")
    if t.head not in ops:
        raise ParseError(f"unknown operation {t.head}")
    return _apply(ops[t.head], t.args, ctx, sig, ops)[1]


def _apply(
    op: TermDecl,
    args: tuple[Term, ...],
    ctx: dict[str, SortExpr],
    sig: Signature,
    ops: dict[str, TermDecl],
) -> tuple[dict[str, Term], SortExpr]:
    """Infer the full instantiation of op's context from its explicit
    arguments, verify it, and return it with the instantiated output sort."""
    if len(args) != len(op.explicit):
        raise ParseError(f"{op.name} takes {len(op.explicit)} arguments, got {len(args)}")
    opctx = dict(op.context)
    theta: dict[str, Term] = dict(zip(op.explicit, args))
    for name, actual in zip(op.explicit, args):
        declared = opctx[name]
        _match_sort(declared, _sort_of(actual, ctx, sig, ops), theta)
    for v, _ in op.context:
        if v not in theta:
            raise ParseError(f"cannot infer {v} in {op.name}")
    for v, s in op.context:
        want = _subst_sort(s, theta)
        got = _sort_of(theta[v], ctx, sig, ops)
        if got != want:
            raise ParseError(f"{theta[v]} has sort {got}, expected {want}")
    return theta, _subst_sort(op.output, theta)


def _check_context(
    bindings: tuple[Binding, ...], sig: Signature, ops: dict[str, TermDecl]
) -> None:
    """A context must be built from the type signature alone: sorts name
    declared types and their arguments are previously bound variables."""
    seen: dict[str, SortExpr] = {}
    declared = set(sig.names) | set(ops)
    for v, s in bindings:
        if v in declared:
            raise IllFormedContext(f"variable {v} shadows a declared symbol")
        if v in seen:
            raise IllFormedContext(f"variable {v} bound twice")
        if s.head in ops:
            raise IllFormedContext(
                f"context mentions the term symbol {s.head}; "
                "contexts must be well-formed over the type signature alone"
            )
        if s.head not in sig.names:
            raise IllFormedContext(f"unknown type {s.head}")
        for a in s.args:
            if a.args is not None:
                raise IllFormedContext(
                    f"context argument {a} is not a variable; "
                    "contexts must be well-formed over the type signature alone"
                )
            if a.head not in seen:
                raise IllFormedContext(f"unbound variable {a.head} in {s}")
        _check_sort_instance(s, seen, sig, {}, IllFormedContext)
        seen[v] = s


def _grade_of_context(bindings: tuple[Binding, ...], grades: dict[str, int]) -> int:
    if not bindings:
        return 0
    return 1 + max(grades[s.head] for _, s in bindings)


def parse_theory(text: str) -> tuple[Signature, TermSignature, EquationSet]:
    """Parse a theory file: type declarations (ctx |- A(vars) type), term
    declarations (ctx |- t(args) : sort), and equations
    (ctx |- t = u : sort), in dependency order."""
    types: list[TypeDecl] = []
    ops: list[TermDecl] = []
    eqns: list[Equation] = []
    grades: dict[str, int] = {}
    try:
        for lineno, line in numbered_lines(text):
            tok = _Tokens(line)
            ctx = _parse_ctx(tok)
            tok.expect("|-")
            sig = Signature(tuple(types))
            opmap = {d.name: d for d in ops}
            _check_context(ctx, sig, opmap)
            lead = _parse_term(tok)
            nxt = tok.peek()
            if nxt == "type":
                tok.next()
                tok.done()
                name = lead.head
                if name in grades or name in opmap:
                    raise FreshnessViolation(f"{name} is already declared")
                ctx_vars = tuple(v for v, _ in ctx)
                if lead.args is None:
                    arg_order = ctx_vars
                else:
                    arg_order = tuple(a.head for a in lead.args)
                    if any(a.args is not None for a in lead.args):
                        raise ParseError("type arguments must be variables")
                    # _check_context has made ctx_vars distinct
                    if sorted(arg_order) != sorted(ctx_vars):
                        raise ParseError(f"{name} must list each context variable once")
                grade = _grade_of_context(ctx, grades)
                types.append(TypeDecl(name, ctx, arg_order, grade))
                grades[name] = grade
            elif nxt == ":":
                tok.next()
                output = _parse_sortexpr(tok)
                tok.done()
                name = lead.head
                if name in grades or name in opmap:
                    raise FreshnessViolation(f"{name} is already declared")
                if lead.args is None:
                    raise ParseError(f"operation {name} needs an argument list")
                explicit = tuple(a.head for a in lead.args)
                ctx_vars = {v for v, _ in ctx}
                if any(a.args is not None or a.head not in ctx_vars for a in lead.args):
                    raise ParseError(f"arguments of {name} must be context variables")
                if len(set(explicit)) != len(explicit):
                    raise ParseError(f"repeated argument in {name}")
                if output.head not in grades:
                    raise ParseError(f"unknown type {output.head}")
                _check_sort_instance(output, dict(ctx), sig, opmap)
                ops.append(TermDecl(name, ctx, explicit, output, grades[output.head]))
            elif nxt == "=":
                tok.next()
                rhs = _parse_term(tok)
                tok.expect(":")
                sort = _parse_sortexpr(tok)
                tok.done()
                ctxmap = dict(ctx)
                for side in (lead, rhs):
                    got = _sort_of(side, ctxmap, sig, opmap)
                    if got != sort:
                        raise ParseError(f"{side} has sort {got}, expected {sort}")
                if sort.head not in grades:
                    raise ParseError(f"unknown type {sort.head}")
                eqns.append(Equation(ctx, lead, rhs, sort, grades[sort.head]))
            else:
                raise ParseError("expected 'type', ':' or '=' after the head")
    except ValueError as err:
        raise line_error(lineno, err) from None
    return Signature(tuple(types)), TermSignature(tuple(ops)), EquationSet(tuple(eqns))


def _check_sort_instance(
    s: SortExpr,
    ctx: dict[str, SortExpr],
    sig: Signature,
    ops: dict[str, TermDecl],
    error: type[ValueError] = ParseError,
) -> None:
    """Check that the arguments of s have the sorts its declaration asks
    for, raising error otherwise."""
    decl = sig.decl(s.head)
    if len(s.args) != len(decl.arg_order):
        raise error(f"{s.head} takes {len(decl.arg_order)} arguments")
    theta = dict(zip(decl.arg_order, s.args))
    opctx = dict(decl.context)
    for w in decl.arg_order:
        want = _subst_sort(opctx[w], theta)
        got = _sort_of(theta[w], ctx, sig, ops)
        if got != want:
            raise error(f"{theta[w]} has sort {got}, expected {want}")


def parse_signature(text: str) -> Signature:
    """Parse a file of type declarations only."""
    sig, ops, eqns = parse_theory(text)
    if ops.declarations or eqns.equations:
        raise ParseError("a signature file may contain only type declarations")
    return sig


def parse_context(sig: Signature, text: str) -> tuple[Binding, ...]:
    """Parse a bare context such as "x y : V, f : E(x, y)" and check it
    against the type signature."""
    try:
        tok = _Tokens(text)
        if tok.peek() is None:
            return ()
        bindings = _parse_ctx(tok)
        tok.done()
        _check_context(bindings, sig, {})
    except ValueError as err:
        raise line_error(1, err) from None
    return bindings


# ---------------------------------------------------------------------------
# Signatures as direct categories


_SELF = "@"


def _decl_sorts(decl: TypeDecl) -> dict[str, SortExpr]:
    """The extended context of decl: its context, then `@`."""
    out = dict(decl.context)
    out[_SELF] = SortExpr(decl.name, tuple(Term(v) for v in decl.arg_order))
    return out


def signature_category(
    sig: Signature,
) -> tuple[FinDirectCat, dict[str, tuple[str, ...]]]:
    """The direct category of a signature, with one object per type
    declaration, together with the variable assignment realizing each
    morphism (indexed by the source declaration's variables, then `@`).

    A declaration's extended context is its context followed by `@`, a
    variable of the declared type.  A morphism a -> b is a variable w of
    b's extended context whose sort is an instance a(u1, ..., un): it sends
    a's arguments to u1, ..., un and `@` to w.  A type lists every context
    variable once among its arguments, so w fixes the morphism, and the
    composite of f: a -> b and g: b -> c is the morphism at g's image of
    f's `@` image."""
    decls = sig.declarations
    sorts = {d.name: _decl_sorts(d) for d in decls}
    pos = {d.name: {v: i for i, v in enumerate(sorts[d.name])} for d in decls}
    at: dict[tuple[str, str], str] = {}
    morphisms: dict[str, tuple[str, str]] = {}
    assign: dict[str, tuple[str, ...]] = {}
    identities: dict[str, str] = {}
    for a in decls:
        for b in decls:
            found = []
            for w, s in sorts[b.name].items():
                if s.head == a.name:
                    theta = dict(zip(a.arg_order, s.args))
                    found.append(tuple(theta[v].head for v, _ in a.context) + (w,))
            # ordered by the images of a's variables in turn, as b lists them
            for t in sorted(found, key=lambda t: [pos[b.name][v] for v in t]):
                if a.name == b.name and t[-1] == _SELF:
                    mname = identities[a.name] = f"1_{a.name}"
                else:
                    mname = f"{a.name}>{b.name}:{','.join(t)}"
                at[b.name, t[-1]] = mname
                morphisms[mname] = (a.name, b.name)
                assign[mname] = t
    ids = set(identities.values())
    composition: dict[tuple[str, str], str] = {}
    for f, (_, b) in morphisms.items():
        for g, (b2, c) in morphisms.items():
            if b2 == b and f not in ids and g not in ids:
                composition[g, f] = at[c, assign[g][pos[b][assign[f][-1]]]]
    cat = FinDirectCat(tuple(d.name for d in decls), morphisms, composition, identities)
    return cat, assign


def signature_to_lfd(sig: Signature) -> FinDirectCat:
    return signature_category(sig)[0]


def realize_bindings(sig: Signature, bindings: tuple[Binding, ...]) -> FinPresheafC:
    """The presheaf presented by a syntactic context: the cells at each
    object are the bindings whose sort is an instance of it.  A cell x of sort
    b(u1, ..., un) restricts along m: a -> b to what m's `@` image names
    once b's arguments are read as u1, ..., un and `@` as x."""
    cat, assign = signature_category(sig)
    sorts = dict(bindings)
    cells: dict[str, tuple[str, ...]] = {}
    restriction: dict[tuple[str, str], str] = {}
    for decl in sig.declarations:
        xs = tuple(v for v, s in bindings if s.head == decl.name)
        if xs:
            cells[decl.name] = xs
        for x in xs:
            theta = {v: a.head for v, a in zip(decl.arg_order, sorts[x].args)}
            theta[_SELF] = x
            for m in cat.into(decl.name):
                restriction[(x, m)] = theta[assign[m][-1]]
    return FinPresheafC(cat, cells, restriction)


def lfd_to_signature(C: FinDirectCat) -> Signature:
    """A type signature presenting a validated direct category: one
    declaration per object, whose context attaches the cells of its
    boundary in the deterministic order."""
    report = validate_lfd(C)
    if not report.ok:
        raise ValueError("the category is not a valid finite direct category")
    dims = report.dims
    order = {c: i for i, c in enumerate(C.objects)}

    def boundary_order(c: str) -> list[str]:
        return sorted(C.into(c), key=lambda m: (dims[C.src(m)], order[C.src(m)], m))

    decls: list[TypeDecl] = []
    grades: dict[str, int] = {}
    for c in sorted(C.objects, key=lambda c: (dims[c], order[c])):
        cover = boundary_order(c)
        var_of = {m: f"x{i}" for i, m in enumerate(cover)}
        bindings: list[Binding] = []
        for m in cover:
            b = C.src(m)
            args = tuple(Term(var_of[C.compose(m, e)]) for e in boundary_order(b))
            bindings.append((var_of[m], SortExpr(b, args)))
        ctx = tuple(bindings)
        grade = _grade_of_context(ctx, grades)
        decls.append(TypeDecl(c, ctx, tuple(v for v, _ in ctx), grade))
        grades[c] = grade
    return Signature(tuple(decls))


def _graph(C: FinDirectCat) -> FinPresheafC:
    """C's objects and non-identity morphisms, cells o<name> and m<name>, as a
    presheaf on the category with objects o<d> and m<d>.<e> and morphisms
    s<d>.<e>: o<d> -> m<d>.<e> and t<d>.<e>: o<e> -> m<d>.<e>, d and e the
    dimensions of the ends of a morphism (empty when C is not direct)."""
    dims = _dimensions(C)[0] or dict.fromkeys(C.objects, "")
    at = {f"o{a}": f"o{dims[a]}" for a in C.objects}
    ends: dict[str, tuple[str, str]] = {}
    restriction: dict[tuple[str, str], str] = {}
    for f, (a, b) in C.morphisms.items():
        if not C.is_identity(f):
            k = f"{dims[a]}.{dims[b]}"
            at[f"m{f}"] = f"m{k}"
            for g, c in (("s", a), ("t", b)):
                ends[g + k] = (f"o{dims[c]}", f"m{k}")
                restriction[f"m{f}", g + k] = f"o{c}"
    cells: dict[str, tuple[str, ...]] = {}
    for x, k in at.items():
        cells[k] = cells.get(k, ()) + (x,)
    ids = {k: f"1{k}" for k in cells}
    ends.update((i, (k, k)) for k, i in ids.items())
    return FinPresheafC(FinDirectCat(tuple(cells), ends, {}, ids), cells, restriction)


def cat_isomorphic(C1: FinDirectCat, C2: FinDirectCat) -> dict[str, str] | None:
    """An isomorphism of finite categories as a map on objects and morphisms,
    or None.  natural_maps searches the bijections of their graphs that keep
    dimensions, objects in turn and then morphisms by name; identities follow
    their objects, and the first map that keeps every composite is returned."""
    G1, G2 = _graph(C1), _graph(C2)
    if sorted(G1.sort.values()) != sorted(G2.sort.values()):
        return None
    order = [f"o{a}" for a in C1.objects] + sorted(x for x in G1.sort if x[0] == "m")
    for comp in natural_maps(order, G1, G2, injective=True):
        iso = {x[1:]: y[1:] for x, y in comp.items()}
        iso.update((i, C2.identities[comp[f"o{a}"][1:]]) for a, i in C1.identities.items())
        composition = C1.composition.items()
        if all(C2.compose(iso[g], iso[f]) == iso[h] for (g, f), h in composition):
            return iso
    return None


# ---------------------------------------------------------------------------
# Finite models


@dataclass(frozen=True)
class Model:
    """Finite carriers per sort instance and interpretation tables per
    operation, keyed by the explicit arguments."""

    sorts: dict[tuple[str, tuple[str, ...]], tuple[str, ...]]
    ops: dict[str, dict[tuple[str, ...], str]]

    def carrier(self, key: tuple[str, tuple[str, ...]]) -> tuple[str, ...]:
        return self.sorts.get(key, ())


def parse_model(text: str) -> Model:
    """Read a model file: lines `sort V = {a, b}`, `sort E(a, b) = {f}`,
    `op c(g, f) table:` followed by rows `c(g1, f1) = h1`."""
    sorts: dict[tuple[str, tuple[str, ...]], tuple[str, ...]] = {}
    ops: dict[str, dict[tuple[str, ...], str]] = {}
    current: str | None = None
    try:
        for lineno, line in numbered_lines(text):
            tok = _Tokens(line)
            head = tok.next()
            if head == "sort":
                name = _ident(tok)
                args: list[str] = []
                if tok.peek() == "(":
                    tok.next()
                    args = _names(tok, ")")
                tok.expect("=")
                tok.expect("{")
                elems = _names(tok, "}")
                tok.done()
                key = (name, tuple(args))
                if key in sorts:
                    raise ParseError(f"duplicate carrier for {name}{tuple(args)}")
                seen: set[str] = set()
                for e in elems:
                    if e in seen:
                        raise ParseError(f"element {e} listed twice in {name}{tuple(args)}")
                    seen.add(e)
                sorts[key] = tuple(elems)
                current = None
            elif head == "op":
                name = _ident(tok)
                if tok.peek() == "(":
                    depth = 0
                    while True:
                        t = tok.next()
                        depth += {"(": 1, ")": -1}.get(t, 0)
                        if depth == 0:
                            break
                tok.expect("table")
                tok.expect(":")
                tok.done()
                ops.setdefault(name, {})
                current = name
            else:
                if current is None or not _IDENT.match(head) or head != current:
                    raise ParseError("expected a sort, op, or table row")
                tok.expect("(")
                args = _names(tok, ")")
                tok.expect("=")
                value = _ident(tok)
                tok.done()
                key2 = tuple(args)
                if key2 in ops[current]:
                    raise ParseError(f"duplicate row for {current}{key2}")
                ops[current][key2] = value
    except ValueError as err:
        raise line_error(lineno, err) from None
    return Model(sorts, ops)


@dataclass(frozen=True)
class EquationResult:
    label: str
    checked: int
    witness: str | None


@dataclass(frozen=True)
class ModelReport:
    problems: tuple[str, ...]
    equations: tuple[EquationResult, ...]

    @property
    def ok(self) -> bool:
        return not self.problems and all(e.witness is None for e in self.equations)

    @property
    def failures(self) -> tuple[str, ...]:
        out = list(self.problems)
        for e in self.equations:
            if e.witness is not None:
                out.append(f"equation {e.label} fails at {e.witness}")
        return tuple(out)


class _MissingEntry(Exception):
    pass


def _instance_key(s: SortExpr, env: dict[str, str]) -> tuple[str, tuple[str, ...]]:
    return (s.head, tuple(env[a.head] for a in s.args))


def _environments(bindings: tuple[Binding, ...], M: Model):
    """All environments for a context of the type signature, in the
    canonical order: variables left to right, carrier order within each."""

    def go(i: int, env: dict[str, str]):
        if i == len(bindings):
            yield dict(env)
            return
        v, s = bindings[i]
        for e in M.carrier(_instance_key(s, env)):
            env[v] = e
            yield from go(i + 1, env)
            del env[v]

    yield from go(0, {})


def _eval(
    t: Term,
    env: dict[str, str],
    M: Model,
    sig: Signature,
    ops: dict[str, TermDecl],
) -> str:
    if t.args is None:
        if t.head in env:
            return env[t.head]
        if t.head in ops and not ops[t.head].explicit:
            return _eval(Term(t.head, ()), env, M, sig, ops)
        raise _MissingEntry(f"unbound {t.head}")
    op = ops[t.head]
    values = tuple(_eval(a, env, M, sig, ops) for a in t.args)
    table = M.ops.get(t.head, {})
    if values not in table:
        raise _MissingEntry(f"no table entry for {t.head}({', '.join(values)})")
    return table[values]


def check_model(
    theory: tuple[Signature, TermSignature, EquationSet], M: Model
) -> ModelReport:
    """Exhaustively check a finite model: carriers form a consistent
    family of sort instances, every table is of a declared operation, is
    total and lands in the declared instance, and every equation holds in
    every environment.  The first counterexample per equation, in the
    canonical environment order, is reported."""
    sig, terms, eqns = theory
    ops = {d.name: d for d in terms.declarations}
    problems: list[str] = []

    elem_instance: dict[str, tuple[str, tuple[str, ...]]] = {}
    for key, elems in M.sorts.items():
        head, args = key
        try:
            decl = sig.decl(head)
        except KeyError:
            problems.append(f"carrier for unknown type {head}")
            continue
        if len(args) != len(decl.arg_order):
            problems.append(f"instance {head}{args} has the wrong arity")
            continue
        env = dict(zip(decl.arg_order, args))
        opctx = dict(decl.context)
        for w in decl.arg_order:
            want = _instance_key(opctx[w], env)
            if env[w] not in M.carrier(want):
                problems.append(
                    f"instance {head}{args}: {env[w]} is not in {want[0]}{want[1]}"
                )
        for e in elems:
            if e in elem_instance:
                problems.append(f"element {e} appears in two carriers")
            elem_instance[e] = key
    problems.extend(f"table for unknown operation {op}" for op in M.ops if op not in ops)

    for name, decl in ops.items():
        table = M.ops.get(name, {})
        seen: set[tuple[str, ...]] = set()
        for env in _environments(decl.context, M):
            values = tuple(env[v] for v in decl.explicit)
            seen.add(values)
            if values not in table:
                problems.append(f"table for {name} is missing {name}({', '.join(values)})")
                continue
            try:
                out_key = (
                    decl.output.head,
                    tuple(_eval(a, env, M, sig, ops) for a in decl.output.args),
                )
            except _MissingEntry as err:
                problems.append(f"table for {name}: {err}")
                continue
            if table[values] not in M.carrier(out_key):
                problems.append(
                    f"{name}({', '.join(values)}) = {table[values]} "
                    f"is not in {out_key[0]}{out_key[1]}"
                )
        for values in table:
            if values not in seen:
                problems.append(
                    f"table row {name}({', '.join(values)}) is not well-typed"
                )

    results: list[EquationResult] = []
    for eq in eqns.equations:
        witness: str | None = None
        checked = 0
        for env in _environments(eq.context, M):
            checked += 1
            try:
                lhs = _eval(eq.lhs, env, M, sig, ops)
                rhs = _eval(eq.rhs, env, M, sig, ops)
            except _MissingEntry as err:
                witness = f"{_render_env(eq.context, env)} ({err})"
                break
            if lhs != rhs:
                witness = (
                    f"{_render_env(eq.context, env)}: "
                    f"{eq.lhs} = {lhs} but {eq.rhs} = {rhs}"
                )
                break
        results.append(EquationResult(eq.label, checked, witness))
    return ModelReport(tuple(problems), tuple(results))


def _render_env(bindings: tuple[Binding, ...], env: dict[str, str]) -> str:
    return ", ".join(f"{v} = {env[v]}" for v, _ in bindings)

"""Results of the paper that the tests state and no command computes.

Presheaves on a category table (`test_theory.py`, acceptance test 10):
a presheaf satisfies the presheaf axioms (`validate_presheaf`), the maps
between two presheaves are the natural ones (`psh_maps`), and an object
has a representable presheaf, its morphisms (`representable_psh`), with
the boundary of the non-identity ones (`boundary_c`).

The category of opetopes (`test_opetope.py`, `test_opetope_category.py`):
face maps compose by concatenating their words (`compose`); the shapes
of a window under a node bound, with the face maps between them, form a
finite direct category (`opetope_category`), and an opetopic set is a
presheaf on it (`as_presheaf`): the two validators agree, the two map
searches find the same maps, the representables and boundaries of the
two kinds are the same presheaves under the naming of each morphism by
its least face word, and the signature of the category presents the
representable of each shape as the extended context of its type.

The pullback of contexts (`test_theory.py`): a context drops its last
attachment (`ctx_ft`), includes its parent stage (`ctx_pr`), and pulls
its last cell back along a map into another context (`ctx_pullback`),
strictly functorially: along an identity it gives the context back, and
along a composite the two-step pullback, as equality of contexts.

The spine decomposition (`test_opset.py`, acceptance test 9): the spine
of a shape xi is built from the spine of its target by attaching each
node's shape along its spine, children first (`spine_cell_decomposition`),
and each attachment is a pushout (`pushout`); `replay_by_pushouts` replays
the steps as pushouts and names every cell of the result.

The diagrams (`test_oalg.py`, acceptance test 5): a 3-shape with a marked
node presents a monotone map (`Diagram`, `diagram_map`), substituting one
diagram into the marked node of another presents the composite
(`diagram_compose`), and every monotone map [m] -> [mp] with m >= 1 has a
diagram (`diagram_for_monotone`).

The nerve theorem's converse at (1, 1) (`test_properties.py`): an
opetopic set over [0, 3] that passes the nerve check at a bound of at least
2 presents a category (`category_of`), which agrees with C on the nerve of
C, and whose nerve is the set again, up to the names of its cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from opetopes.kernel import (
    FiniteCategory,
    FinPresheaf,
    Inclusion,
    PshMap,
    check_psh_map,
    natural_maps,
    sub_presheaf,
)
from opetopes.oalg import LambdaMorphism, NotComposable, _arrows, h_morphism
from opetopes.opetope import (
    ARROW,
    POINT,
    STAR,
    T_GEN,
    Addr,
    OMorphism,
    Opetope,
    Tree,
    epsilon,
    hom,
    node_addrs,
    opetopic_integer,
    render,
    render_word,
    source,
    target,
    tree,
)
from opetopes.opetope import faces as face_structure
from opetopes.opset import CellId, FinOpSet, representable, spine
from opetopes.theory import (
    _IDENT,
    AttachStep,
    Context,
    FinDirectCat,
    FinPresheafC,
    _cells_by_dimension,
)

from scaffold import substitute


# --------------------------------------------------------------------------
# presheaves on a category table


class NotAMap(ValueError):
    pass


def validate_presheaf(X: FinPresheafC) -> list[str]:
    """The failures of the presheaf axioms: cells at unknown objects,
    restrictions missing, landing at the wrong object or stray, then
    functoriality, checked only at cells whose restrictions, and theirs,
    are all in place."""
    problems: list[str] = []
    reported: set[str] = set()
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
                reported.add(x)
            elif y not in X.of_obj(a):
                problems.append(f"restriction of {x} along {f} is not a cell at {a}")
                reported.add(x)
    for (x, f), y in X.restriction.items():
        if X.cat.morphisms.get(f) is None or x not in X.of_obj(X.cat.tgt(f)):
            problems.append(f"stray restriction entry ({x}, {f})")
    C = X.cat
    for c in C.objects:
        for g in C.into(c):
            for f in C.into(C.src(g)):
                gf = C.compose(g, f)
                for x in X.of_obj(c):
                    if x in reported or X.restrict(x, g) in reported:
                        continue
                    if X.restrict(x, gf) != X.restrict(X.restrict(x, g), f):
                        problems.append(f"functoriality fails at {x} along {g}.{f}")
    return problems


def psh_maps(X: FinPresheafC, Y: FinPresheafC) -> list[PshMap]:
    """All natural maps X -> Y, by backtracking in dimension order."""
    if X.cat != Y.cat:
        raise NotAMap("presheaves live over different categories")
    order = [x for _, x in _cells_by_dimension(X)]
    return [PshMap(X, Y, comp) for comp in natural_maps(order, X, Y)]


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


# --------------------------------------------------------------------------
# the category of opetopes


@dataclass(frozen=True)
class OpetopeCategory(FiniteCategory):
    """A full subcategory of the category of opetopes, with the shape of
    each object, in object order."""

    shapes: tuple[Opetope, ...]


def compose(f: OMorphism, g: OMorphism) -> OMorphism:
    """The composite of g: chi -> psi after f: psi -> omega."""
    if g.dst != f.src:
        raise ValueError("morphisms do not compose")
    fs = face_structure(f.dst)
    c = fs.cell_of_word(f.word + g.word)
    return OMorphism(g.src, f.dst, fs.word_of(c))


def opetope_category(shapes: list[Opetope]) -> OpetopeCategory:
    """The full subcategory of the category of opetopes on a face-closed
    list of shapes.  Objects come in (dim, render) order, each named
    render(omega) where that is an identifier, so that the category's
    signature reads as a theory, and o<index> otherwise.  The morphism
    <object>:<word> is the face map into the object named by its least
    face word, <object>:id its identity, and composites are those of
    `compose`."""
    ordered = sorted(shapes, key=lambda w: (w.dim, render(w)))
    obj = {w: render(w) if _IDENT.match(render(w)) else f"o{i}" for i, w in enumerate(ordered)}
    name = {m: f"{obj[m.dst]}:{render_word(m.word)}" for w in obj for v in obj for m in hom(v, w)}
    composition = {
        (name[g], name[f]): name[compose(g, f)]
        for g in name
        for f in name
        if f.dst == g.src and g.word and f.word
    }
    return OpetopeCategory(
        tuple(obj.values()),
        {n: (obj[m.src], obj[m.dst]) for m, n in name.items()},
        composition,
        {o: f"{o}:id" for o in obj.values()},
        tuple(obj),
    )


def as_presheaf(X: FinOpSet, O: OpetopeCategory) -> FinPresheafC:
    """X as a presheaf on O, whose shapes hold X's: a cell restricts along
    <object>:<word> to the cell it reaches by folding X's faces along the
    word.  A fold that meets a missing face gives no restriction, so that
    validate_presheaf reports it."""
    obj = dict(zip(O.shapes, O.objects))
    restriction = {}
    for w, xs in X.cells.items():
        fs = face_structure(w)
        words = {f"{obj[w]}:{n}": fs.words[c] for c, n in fs.names.items()}
        for m in O.into(obj[w]):
            for x in xs:
                y = x
                for g in words[m]:
                    y = X.face.get((y, g))
                    if y is None:
                        break
                else:
                    restriction[x, m] = y
    return FinPresheafC(O, {obj[w]: xs for w, xs in X.cells.items()}, restriction)


# --------------------------------------------------------------------------
# the pullback of contexts


class EmptyContext(ValueError):
    pass


def psh_identity(X: FinPresheaf) -> Inclusion:
    return Inclusion(X, X, {x: x for x in X.sort})


def psh_compose(g: PshMap, f: PshMap) -> PshMap:
    """g after f."""
    if f.dst != g.src:
        raise NotAMap("maps are not composable")
    return PshMap(f.src, g.dst, {x: g.comp[y] for x, y in f.comp.items()})


def ctx_ft(ctx: Context) -> Context:
    """Drop the last attachment."""
    if not ctx.steps:
        raise EmptyContext("the empty context has no parent")
    return Context(ctx.cat, ctx.steps[:-1])


def ctx_pr(ctx: Context) -> PshMap:
    """The inclusion of the parent stage into the full realization."""
    if not ctx.steps:
        raise EmptyContext("the empty context has no projection")
    prev = ctx_ft(ctx).realization()
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
    parent = ctx_ft(ctx).realization()
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


# --------------------------------------------------------------------------
# pushouts and the spine cell decomposition


def lex_key(a: Addr):
    """Plain lexicographic order on entry sequences (prefixes come first),
    used where reverse-lexicographic node order is required."""
    return tuple(lex_key(e) for e in a.entries)


def pushout(incl: Inclusion, f: PshMap, tag: str = "+"):
    """Push an inclusion A >-> B out along a map A -> X.

    Returns (Y, leg from X, leg from B); fresh cells of B are renamed with
    the tag prefix.
    """
    if incl.src != f.src:
        raise ValueError("pushout legs must share their source")
    A, B, X = incl.src, incl.dst, f.dst
    image = set(incl.comp.values())
    inv = {v: k for k, v in incl.comp.items()}
    b_to_y: dict[CellId, CellId] = {}
    for b in B.all_cells():
        if b in image:
            b_to_y[b] = f.comp[inv[b]]
        else:
            b_to_y[b] = tag + b
    cells: dict[Opetope, tuple[CellId, ...]] = {
        shape: ids for shape, ids in X.cells.items()
    }
    for shape in B.shapes():
        fresh = tuple(b_to_y[b] for b in B.of_shape(shape) if b not in image)
        if fresh:
            cells[shape] = cells.get(shape, ()) + fresh
    faces = dict(X.faces)
    for (b, g), b2 in B.faces.items():
        if b not in image:
            faces[(b_to_y[b], g)] = b_to_y[b2]
    Y = FinOpSet(X.window, cells, faces)
    return Y, PshMap(X, Y, {x: x for x in X.all_cells()}), PshMap(B, Y, b_to_y)


@dataclass(frozen=True)
class SpineAttachment:
    """One pushout step: attach the shape at a node along its spine."""

    node: Addr
    shape: Opetope
    attach: PshMap  # spine of the shape into the complex built so far
    complex_after: FinOpSet


def spine_cell_decomposition(xi: Opetope) -> tuple[SpineAttachment, ...]:
    """Build the spine of xi from the spine of its target, one node at a time.

    Nodes are attached in reverse lexicographic address order, so every child
    is attached before its parent and the attaching maps always land in the
    complex built so far.  Degenerate shapes need no attachments.
    """
    if xi.dim < 2:
        raise ValueError("the decomposition needs dimension >= 2")
    window = (0, xi.dim - 1)
    big = representable(xi, window)
    fs = face_structure(xi)
    # start from the spine of the target, embedded by t-precomposition
    on_t = fs.along(T_GEN)
    current = {on_t[x] for x in spine(target(xi)).src.sort}
    complex_now = sub_presheaf(big, current).src
    steps: list[SpineAttachment] = []
    for p in sorted(node_addrs(xi), key=lex_key, reverse=True):
        nu = source(xi, p)
        nu_spine = spine(nu)
        names = fs.along(("s", p))
        comp = {x: names[x] for x in nu_spine.src.sort}
        attach = PshMap(nu_spine.src, complex_now, comp)
        current |= {names[x] for x in nu_spine.dst.sort}
        complex_now = sub_presheaf(big, current).src
        steps.append(SpineAttachment(p, nu, attach, complex_now))
    return tuple(steps)


def replay_by_pushouts(
    xi: Opetope, steps: tuple[SpineAttachment, ...]
) -> tuple[FinOpSet, dict[CellId, CellId]]:
    """Replay the nonempty decomposition steps of xi as pushouts, from the
    spine of its target.

    The fresh cells of step k are tagged `a{k}:`, so the replay names
    cells apart from the decomposition's complexes.  Each attaching map is
    read through a running rename from complex names to replay names,
    which the pushout's leg from the attached shape extends.  Returns the
    replay and the rename of every cell of the last complex.
    """
    fs = face_structure(xi)
    current = steps[0].attach.dst
    rename = {x: x for x in current.all_cells()}
    for k, s in enumerate(steps):
        sp_nu = spine(s.shape)
        attach = PshMap(sp_nu.src, current, {x: rename[c] for x, c in s.attach.comp.items()})
        current, _, leg = pushout(sp_nu, attach, tag=f"a{k}:")
        names = fs.along(("s", s.node))
        rename.update((names[b], y) for b, y in leg.comp.items())
    return current, rename


# --------------------------------------------------------------------------
# diagrammatic morphisms


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
    root, marked = opetopic_integer(f(0) + 1 + mp - f(m)), opetopic_integer(m)
    q = _arrows(root)[f(0)]
    nodes: dict[Addr, Opetope] = {epsilon(2): root, Addr(2, (q,)): marked}
    for i, li in enumerate(_arrows(marked)):
        nodes[Addr(2, (q, li))] = opetopic_integer(f(i + 1) - f(i))
    return Diagram(tree(nodes), Addr(2, (q,)))


# --------------------------------------------------------------------------
# the category an opetopic set presents


def category_of(X: FinOpSet) -> FiniteCategory:
    """The category of an opetopic set over [0, 3] that passes the nerve
    check at a bound of at least 2: its objects are the point cells, its
    morphisms the arrow cells with their ends at s* and t, the identity of
    an object is the t face of its I0 filler, and g after f is the t face of
    the I2 filler of (f, g).  The check shows that each filler is unique."""
    I0, I2 = opetopic_integer(0), opetopic_integer(2)
    composition = {}
    for x in X.of_shape(I2):
        f, g = (X.face[x, ("s", a)] for a in _arrows(I2))
        composition[g, f] = X.face[x, T_GEN]
    return FiniteCategory(
        X.of_shape(POINT),
        {f: (X.face[f, ("s", STAR)], X.face[f, T_GEN]) for f in X.of_shape(ARROW)},
        composition,
        {X.face[X.face[x, T_GEN], ("s", STAR)]: X.face[x, T_GEN] for x in X.of_shape(I0)},
    )

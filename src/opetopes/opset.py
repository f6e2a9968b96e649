"""Finite opetopic sets over a window of shape dimensions.

An opetopic set is a `theory.FinPresheaf` whose sorts are shapes and whose
generators are the generating faces: it stores, per shape, a tuple of
globally unique cell identifiers, and an action table on generating faces
only; restrictions along composite face words are folded through the
table.  Windows are closed dimension intervals [lo, hi]; faces that would
leave the window are not stored.  Maps, the naturality check, identities,
composites and sub-presheaves are the shared ones of `theory`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from opetopes.opetope import (
    Addr,
    Gen,
    Opetope,
    T_GEN,
    enumerate_opetopes,
    face,
    faces as face_structure,
    generators,
    lex_key,
    node_addrs,
    parse as parse_opetope,
    parse_addr,
    relation_squares,
    render,
    render_word,
    size,
    source,
    target,
)
from opetopes.theory import (
    FinPresheaf,
    Inclusion,
    PshMap,
    line_error,
    check_psh_map,
    natural_maps,
    numbered_lines,
    psh_compose,
    psh_identity,
    sub_presheaf,
)

Window = tuple[int, int]
CellId = str


class WindowMismatch(ValueError):
    pass


@dataclass(frozen=True)
class FinOpSet(FinPresheaf):
    window: Window
    cells: dict[Opetope, tuple[CellId, ...]]
    faces: dict[tuple[CellId, Gen], CellId]

    def __post_init__(self) -> None:
        lo, hi = self.window
        if not (0 <= lo <= hi):
            raise ValueError("window must be a closed interval [lo, hi] with lo >= 0")
        for shape in self.cells:
            if not lo <= shape.dim <= hi:
                raise ValueError(f"shape {render(shape)} lies outside the window")
        # faces that would leave the window are not stored
        self._index(self.faces, {s: generators(s) if s.dim > lo else () for s in self.cells})

    def _like(self, cells: dict, face: dict) -> FinOpSet:
        return FinOpSet(self.window, cells, face)

    def shape_of(self, x: CellId) -> Opetope:
        return self.sort[x]

    def of_shape(self, shape: Opetope) -> tuple[CellId, ...]:
        return self.cells.get(shape, ())

    def all_cells(self) -> list[CellId]:
        out = []
        for shape in self.shapes():
            out.extend(self.cells[shape])
        return out

    def shapes(self) -> list[Opetope]:
        return sorted(self.cells.keys(), key=lambda w: (w.dim, render(w)))

    def restrict(self, x: CellId, word: tuple[Gen, ...]) -> CellId:
        for g in word:
            x = self.faces[(x, g)]
        return x

    def size(self) -> int:
        return len(self.sort)


def validate_opset(X: FinOpSet) -> list[str]:
    """Check totality of the action and every two-step relation square."""
    bad: list[str] = []
    lo, _ = X.window
    for shape in X.shapes():
        gens = X.gens[shape]
        wants = [face(shape, g) for g in gens]
        for x in X.of_shape(shape):
            for g, want in zip(gens, wants):
                key = (x, g)
                if key not in X.faces:
                    bad.append(f"{x}: no face along {render_gen(g)}")
                elif X.sort.get(X.faces[key]) != want:
                    bad.append(f"{x}: face along {render_gen(g)} has the wrong shape")
        if shape.dim - 2 >= lo:
            for (a, b), (c, d) in relation_squares(shape):
                for x in X.of_shape(shape):
                    try:
                        left = X.faces[(X.faces[(x, a)], b)]
                        right = X.faces[(X.faces[(x, c)], d)]
                    except KeyError:
                        continue
                    if left != right:
                        bad.append(
                            f"{x}: relation square {render_gen(a)}.{render_gen(b)} "
                            f"= {render_gen(c)}.{render_gen(d)} broken"
                        )
    return bad


# --------------------------------------------------------------------------
# maps and inclusions


OpSetMap = PshMap
identity_map = psh_identity
compose_maps = psh_compose  # compose_maps(f, g) is f after g
sub_opset = sub_presheaf


def check_natural(f: PshMap) -> list[str]:
    if f.src.window != f.dst.window:
        return ["windows differ"]
    return check_psh_map(f)


# --------------------------------------------------------------------------
# representables, boundaries, spines


def representable(omega: Opetope, window: Window | None = None) -> FinOpSet:
    """The presheaf of all face-map composites into omega, truncated."""
    if window is None:
        window = (0, omega.dim)
    lo, hi = window
    fs = face_structure(omega)
    cells: dict[Opetope, list[CellId]] = {}
    names: dict[int, CellId] = {}
    for c in fs.cells():
        shape = fs.shape_of(c)
        if lo <= shape.dim <= hi:
            name = render_word(fs.word_of(c))
            names[c] = name
            cells.setdefault(shape, []).append(name)
    faces: dict[tuple[CellId, Gen], CellId] = {}
    for c, name in names.items():
        shape = fs.shape_of(c)
        if shape.dim - 1 < lo:
            continue
        for g in generators(shape):
            faces[(name, g)] = names[fs.get(c, g)]
    return FinOpSet(window, {s: tuple(ids) for s, ids in cells.items()}, faces)


def boundary(omega: Opetope, window: Window | None = None) -> Inclusion:
    """All proper faces: the representable minus its identity cell."""
    if omega.dim < 1:
        raise ValueError("the boundary inclusion needs dimension >= 1")
    X = representable(omega, window)
    keep = set(X.all_cells()) - {"id"}
    return sub_opset(X, keep)


def spine(omega: Opetope, window: Window | None = None) -> Inclusion:
    """The boundary minus the target cell (the maximal subpresheaf without it)."""
    if omega.dim < 1:
        raise ValueError("the spine inclusion needs dimension >= 1")
    X = representable(omega, window)
    drop = {"id"}
    if X.window[0] <= omega.dim - 1 <= X.window[1]:
        drop.add(render_word((T_GEN,)))
    keep = set(X.all_cells()) - drop
    return sub_opset(X, keep)


def empty_opset(window: Window) -> FinOpSet:
    return FinOpSet(window, {}, {})


def terminal_opset(window: Window, max_nodes: int) -> FinOpSet:
    """One cell per shape whose whole face closure fits under the size cap.

    The size cap alone is not closed under faces (targets of degenerate
    shapes grow by one node), so shapes are kept only when every face of
    theirs also fits.
    """
    lo, hi = window
    cells: dict[Opetope, tuple[CellId, ...]] = {}
    faces: dict[tuple[CellId, Gen], CellId] = {}
    name: dict[Opetope, CellId] = {}
    for n in range(lo, hi + 1):
        for w in enumerate_opetopes(n, max_nodes):
            fs = face_structure(w)
            if all(size(fs.shape_of(c)) <= max_nodes for c in fs.cells()):
                name[w] = f"c{len(name)}"
                cells[w] = (name[w],)
    for w, x in name.items():
        if w.dim - 1 < lo:
            continue
        for g in generators(w):
            f = face(w, g)
            if f in name:
                faces[(x, g)] = name[f]
            else:
                raise ValueError("size cap is not face-closed; raise max_nodes")
    return FinOpSet(window, cells, faces)


# --------------------------------------------------------------------------
# map enumeration and orthogonality


def _search_order(X: FinOpSet) -> list[CellId]:
    """The cells of X from the top dimension down: the order maps() fills them in."""
    shapes = sorted(X.cells, key=lambda w: (-w.dim, render(w)))
    return [x for w in shapes for x in X.cells[w]]


def maps(X: FinOpSet, Y: FinOpSet) -> tuple[OpSetMap, ...]:
    """All natural maps, by backtracking from the top dimension down."""
    if X.window != Y.window:
        raise WindowMismatch("maps need equal windows")
    return tuple(OpSetMap(X, Y, comp) for comp in natural_maps(_search_order(X), X, Y))


def orthogonal_witness(incl: Inclusion, X: FinOpSet):
    """None if every map from the source extends uniquely along incl;
    otherwise (offending map, number of extensions)."""
    if incl.src.window != X.window:
        raise WindowMismatch("orthogonality needs equal windows")
    # The maps from incl.src, of which a spine can have exponentially many,
    # are streamed, and the search stops at the first witness.  The maps from
    # incl.dst are listed: for a spine or boundary, one per top cell of X.
    order = _search_order(incl.src)
    image = [incl.comp[x] for x in order]
    counts = Counter(tuple(g.comp[y] for y in image) for g in maps(incl.dst, X))
    for f in natural_maps(order, incl.src, X):
        n = counts[tuple(f[x] for x in order)]
        if n != 1:
            return OpSetMap(incl.src, X, f), n
    return None


def orthogonal(incl: Inclusion, X: FinOpSet) -> bool:
    """True iff every map incl.src -> X extends to exactly one map incl.dst -> X."""
    return orthogonal_witness(incl, X) is None


# --------------------------------------------------------------------------
# pushouts and the spine cell decomposition


def pushout(incl: Inclusion, f: OpSetMap, tag: str = "+"):
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
    return Y, OpSetMap(X, Y, {x: x for x in X.all_cells()}), OpSetMap(B, Y, b_to_y)


@dataclass(frozen=True)
class SpineAttachment:
    """One pushout step: attach the shape at a node along its spine."""

    node: Addr
    shape: Opetope
    attach: OpSetMap  # spine of the shape into the complex built so far
    complex_after: FinOpSet


def _cell_words(omega: Opetope) -> dict[CellId, tuple[Gen, ...]]:
    fs = face_structure(omega)
    return {render_word(fs.word_of(c)): fs.word_of(c) for c in fs.cells()}


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

    def cell_name(word: tuple[Gen, ...]) -> CellId:
        return render_word(fs.word_of(fs.cell_of_word(word)))

    # start from the spine of the target, embedded by t-precomposition
    t_words = _cell_words(target(xi))
    t_spine = spine(target(xi))
    current = {cell_name((T_GEN,) + t_words[x]) for x in t_spine.src.all_cells()}
    complex_now = sub_opset(big, current).src
    steps: list[SpineAttachment] = []
    for p in sorted(node_addrs(xi), key=lex_key, reverse=True):
        nu = source(xi, p)
        nu_words = _cell_words(nu)
        nu_spine = spine(nu)
        comp = {
            x: cell_name((("s", p),) + nu_words[x]) for x in nu_spine.src.all_cells()
        }
        attach = OpSetMap(nu_spine.src, complex_now, comp)
        current |= {
            cell_name((("s", p),) + nu_words[x]) for x in nu_spine.dst.all_cells()
        }
        complex_now = sub_opset(big, current).src
        steps.append(SpineAttachment(p, nu, attach, complex_now))
    return tuple(steps)


# --------------------------------------------------------------------------
# unique-lifting report around a dimension


@dataclass(frozen=True)
class HLiftReport:
    spines_low: bool  # spine inclusions at dims n and n+1 are orthogonal
    boundaries_mid: bool  # boundary inclusions at dim n+1
    boundaries_high: bool  # boundary inclusions at dim n+2
    spines_high: bool  # spine inclusions at dim n+2
    failures: tuple[str, ...]

    @property
    def implication_one(self) -> bool:
        return (not self.spines_low) or self.boundaries_mid

    @property
    def implication_two(self) -> bool:
        return not (self.spines_low and self.boundaries_high) or self.spines_high


def hlift_check(X: FinOpSet, n: int, max_nodes: int = 6) -> HLiftReport:
    """Check both unique-lifting implications around dimension n on X,
    over all shapes of total size at most max_nodes."""
    lo, hi = X.window
    if not (lo <= n and n + 2 <= hi):
        raise WindowMismatch("window must cover [n, n+2]")
    failures: list[str] = []

    def family(kind: str, dims: list[int]) -> bool:
        ok = True
        for d in dims:
            if d < 1:
                continue
            for w in enumerate_opetopes(d, max_nodes):
                incl = spine(w, X.window) if kind == "spine" else boundary(w, X.window)
                if not orthogonal(incl, X):
                    ok = False
                    failures.append(f"{kind} of {render(w)} not orthogonal")
        return ok

    return HLiftReport(
        spines_low=family("spine", [n, n + 1]),
        boundaries_mid=family("boundary", [n + 1]),
        boundaries_high=family("boundary", [n + 2]),
        spines_high=family("spine", [n + 2]),
        failures=tuple(failures),
    )


# --------------------------------------------------------------------------
# text form


def render_gen(g: Gen) -> str:
    return "t" if g == T_GEN else f"s{g[1]}"


def parse_gen(text: str, shape: Opetope) -> Gen:
    if text == "t":
        return T_GEN
    if text[:1] == "s":
        return ("s", parse_addr(text[1:], shape.dim - 1))
    raise ValueError(f"not a face generator: {text!r}")


def dump_opset(X: FinOpSet) -> str:
    lines = [f"window {X.window[0]} {X.window[1]}"]
    for shape in X.shapes():
        ids = " ".join(X.of_shape(shape))
        lines.append(f"shape {render(shape)} cells {ids}")
    for (x, g), y in sorted(X.faces.items(), key=lambda kv: (kv[0][0], render_gen(kv[0][1]))):
        lines.append(f"face {x} {render_gen(g)} -> {y}")
    return "\n".join(lines) + "\n"


def load_opset(text: str) -> FinOpSet:
    """Read the text form written by dump_opset; `#` starts a comment
    anywhere on a line.  A malformed line raises ValueError naming its
    number, and so does a set that fails validate_opset, with the first
    problem."""
    window: Window | None = None
    cells: dict[Opetope, tuple[CellId, ...]] = {}
    shape_of: dict[CellId, Opetope] = {}
    pending: list[tuple[int, CellId, str, CellId]] = []
    for lineno, line in numbered_lines(text):
        parts = line.split()
        try:
            if parts[0] == "window" and len(parts) == 3:
                if window is not None:
                    raise ValueError("window declared twice")
                window = (int(parts[1]), int(parts[2]))
            elif parts[0] == "shape" and "cells" in parts:
                k = parts.index("cells")
                shape = parse_opetope(" ".join(parts[1:k]))
                for x in parts[k + 1 :]:
                    if x in shape_of:
                        raise ValueError(f"cell {x} declared twice")
                    shape_of[x] = shape
                cells[shape] = cells.get(shape, ()) + tuple(parts[k + 1 :])
            elif parts[0] == "face" and len(parts) == 5 and parts[3] == "->":
                pending.append((lineno, parts[1], parts[2], parts[4]))
            else:
                raise ValueError(
                    "expected 'window LO HI', 'shape SHAPE cells ID...' or 'face ID GEN -> ID'"
                )
        except ValueError as err:
            raise line_error(lineno, ValueError(f"{err}: {line!r}")) from None
    if window is None:
        raise ValueError("missing window line")
    faces: dict[tuple[CellId, Gen], CellId] = {}
    for lineno, x, gen, y in pending:
        try:
            if x not in shape_of:
                raise ValueError(f"face of an undeclared cell {x!r}")
            key = (x, parse_gen(gen, shape_of[x]))
            if key in faces:
                raise ValueError(f"face of {x} along {gen} declared twice")
            faces[key] = y
        except ValueError as err:
            raise line_error(lineno, err, ValueError) from None
    X = FinOpSet(window, cells, faces)
    problems = validate_opset(X)
    if problems:
        raise ValueError(f"not an opetopic set: {problems[0]}")
    return X

"""Finite opetopic sets over a window of shape dimensions.

An opetopic set is a `kernel.FinPresheaf` whose sorts are shapes and whose
generators are the generating faces: it stores, per shape, a tuple of
globally unique cell identifiers, and an action table on generating faces
only; restrictions along composite face words are folded through the
table.  Windows are closed dimension intervals [lo, hi]; faces that would
leave the window are not stored.  Maps, the naturality check and
sub-presheaves are the shared ones of `kernel`.  The cells of a
representable, a boundary or a spine are named as `opetope.faces(omega)`
names them; this module reads those names and renders no face word itself.
Unique lifting is asked of a shape's spine or boundary, built in the set's
window; each check of it is a table of rows that `lifting_report` asks.
A question's shape half (the inclusion, its search order, its maximal
cells and their face words) is planned once per shape, builder and window
and cached per process (`_lifting_plan`); only the count of the maps out
of y(omega) and the map search read the set.  Cached presheaves are
read-only: nothing changes them once built.  `representable`, `spine` and
`boundary` themselves stay uncached, so that the large shapes a command
asks about once are not kept.
Pushouts and the spine cell decomposition, which no command computes, are
stated in `tests/paper_results.py`.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cache, reduce
from typing import Iterable

from opetopes.opetope import (
    Gen,
    Opetope,
    T_GEN,
    enumerate_opetopes,
    face,
    faces as face_structure,
    generators,
    parse as parse_opetope,
    relation_squares,
    render,
    render_gen,
    target,
)
from opetopes.kernel import (
    FinPresheaf,
    Inclusion,
    PshMap,
    line_error,
    natural_maps,
    numbered_lines,
    sub_presheaf,
)

Window = tuple[int, int]
CellId = str
_INT = re.compile(r"[+-]?\d+").fullmatch  # what a window line holds: two integers


class WindowMismatch(ValueError):
    pass


def _check_window(window: Window, shapes: Iterable[Opetope]) -> None:
    """Raise ValueError unless window is a closed interval [lo, hi] with
    lo >= 0 and every shape's dimension lies in it."""
    lo, hi = window
    if not (0 <= lo <= hi):
        raise ValueError("window must be a closed interval [lo, hi] with lo >= 0")
    for shape in shapes:
        if not lo <= shape.dim <= hi:
            raise ValueError(f"shape {render(shape)} lies outside the window")


@dataclass(frozen=True)
class FinOpSet(FinPresheaf):
    window: Window
    cells: dict[Opetope, tuple[CellId, ...]]
    faces: dict[tuple[CellId, Gen], CellId]

    def __post_init__(self) -> None:
        _check_window(self.window, self.cells)
        # faces that would leave the window are not stored
        lo = self.window[0]
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
# representables, boundaries, spines


def representable(omega: Opetope, window: Window | None = None) -> FinOpSet:
    """The presheaf of all face-map composites into omega, truncated."""
    if window is None:
        window = (0, omega.dim)
    lo, hi = window
    fs = face_structure(omega)
    cells: dict[Opetope, list[CellId]] = {}
    faces: dict[tuple[CellId, Gen], CellId] = {}
    for c, name in fs.names.items():
        shape = fs.shape_of(c)
        if lo <= shape.dim <= hi:
            cells.setdefault(shape, []).append(name)
        if lo < shape.dim <= hi:
            for g in generators(shape):
                faces[(name, g)] = fs.names[fs.get(c, g)]
    return FinOpSet(window, {s: tuple(ids) for s, ids in cells.items()}, faces)


def boundary(omega: Opetope, window: Window | None = None) -> Inclusion:
    """All proper faces: the representable minus its identity cell."""
    if omega.dim < 1:
        raise ValueError("the boundary inclusion needs dimension >= 1")
    X = representable(omega, window)
    return sub_presheaf(X, X.sort.keys() - {face_structure(omega).name(())})


def spine(omega: Opetope, window: Window | None = None) -> Inclusion:
    """The boundary minus the target cell (the maximal subpresheaf without it)."""
    if omega.dim < 1:
        raise ValueError("the spine inclusion needs dimension >= 1")
    X = representable(omega, window)
    fs = face_structure(omega)
    return sub_presheaf(X, X.sort.keys() - {fs.name(()), fs.name((T_GEN,))})


# --------------------------------------------------------------------------
# map enumeration and orthogonality


def _search_order(X: FinOpSet) -> list[CellId]:
    """The cells of X from the top dimension down: the order maps() fills them in."""
    shapes = sorted(X.cells, key=lambda w: (-w.dim, render(w)))
    return [x for w in shapes for x in X.cells[w]]


def maps(X: FinOpSet, Y: FinOpSet) -> tuple[PshMap, ...]:
    """All natural maps, by backtracking from the top dimension down."""
    if X.window != Y.window:
        raise WindowMismatch("maps need equal windows")
    return tuple(PshMap(X, Y, comp) for comp in natural_maps(_search_order(X), X, Y))


@cache
def _lifting_plan(omega: Opetope, include, window: Window) -> tuple:
    """The half of orthogonal_witness that depends on the shape alone:
    (incl, order, top, paths), incl being include(omega, window), order its
    source's search order, top the maximal cells of incl.src and paths, if
    omega lies in the window, the face word of each top cell into omega,
    else None.  Cached per process; nothing may change what it returns."""
    incl = include(omega, window)
    # A map out of incl.src, or out of incl.dst restricted to it, is fixed by
    # its values at the maximal cells of incl.src (top).
    order = tuple(_search_order(incl.src))
    faced = set(incl.src.face.values())
    top = tuple(x for x in order if x not in faced)
    lo, hi = window
    if not lo <= omega.dim <= hi:
        return incl, order, top, None
    fs = face_structure(omega)
    words = {name: fs.words[c] for c, name in fs.names.items()}
    return incl, order, top, tuple(words[incl.comp[x]] for x in top)


def orthogonal_witness(omega: Opetope, include, X: FinOpSet):
    """None if every map from include(omega) extends uniquely to y(omega),
    include being spine or boundary built in X's window; otherwise
    (offending map, number of extensions)."""
    incl, order, top, paths = _lifting_plan(omega, include, X.window)
    # The maps from incl.src, of which a spine can have exponentially many,
    # are streamed, and the search stops at the first witness.  If omega lies
    # in the window, the maps out of incl.dst = y(omega) are the cells of X
    # at omega (Yoneda), read along each maximal cell's face word (any one:
    # X's squares commute).
    if paths is not None:
        counts = Counter(
            tuple(reduce(lambda c, g: X.face[c, g], w, y) for w in paths) for y in X.of_shape(omega)
        )
    else:
        counts = Counter(tuple(g.comp[incl.comp[x]] for x in top) for g in maps(incl.dst, X))
    for f in natural_maps(order, incl.src, X):
        n = counts[tuple(f[x] for x in top)]
        if n != 1:
            return PshMap(incl.src, X, f), n
    return None


# --------------------------------------------------------------------------
# unique-lifting reports


@dataclass(frozen=True)
class LiftingReport:
    flags: dict[str, bool]  # row name -> every shape of the row lifts uniquely
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def lifting_report(X: FinOpSet, rows, shapes: list[Opetope], text) -> LiftingReport:
    """For each row (name, include, dims), ask orthogonal_witness at every
    shape of shapes whose dimension is in dims, in list order: flags[name]
    says none fails, and each failure adds text(include, shape, extensions)."""
    flags: dict[str, bool] = {}
    failures: list[str] = []
    for name, include, dims in rows:
        found = ((w, orthogonal_witness(w, include, X)) for w in shapes if w.dim in dims)
        bad = [text(include, w, witness[1]) for w, witness in found if witness is not None]
        flags[name] = not bad
        failures.extend(bad)
    return LiftingReport(flags, tuple(failures))


def hlift_check(X: FinOpSet, n: int, max_nodes: int) -> LiftingReport:
    """Unique lifting around dimension n on X, over all shapes of total size
    at most max_nodes."""
    lo, hi = X.window
    if not (lo <= n and n + 2 <= hi):
        raise WindowMismatch("window must cover [n, n+2]")
    rows = [
        ("spines_low", spine, (n, n + 1)),
        ("boundaries_mid", boundary, (n + 1,)),
        ("boundaries_high", boundary, (n + 2,)),
        ("spines_high", spine, (n + 2,)),
    ]
    shapes = [w for d in range(max(n, 1), n + 3) for w in enumerate_opetopes(d, max_nodes)]
    return lifting_report(
        X, rows, shapes, lambda include, w, _: f"{include.__name__} of {render(w)} not orthogonal"
    )


# --------------------------------------------------------------------------
# text form


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
    anywhere on a line, and a face line names its generator as dump_opset
    does.  A malformed line raises ValueError naming its number, and so
    does a set that fails validate_opset, with the first problem."""
    window: Window | None = None
    window_line = 0
    cells: dict[Opetope, tuple[CellId, ...]] = {}
    shape_line: dict[Opetope, int] = {}
    shape_of: dict[CellId, Opetope] = {}
    pending: list[tuple[int, CellId, str, CellId]] = []
    for lineno, line in numbered_lines(text):
        parts = line.split()
        try:
            if parts[0] == "window" and len(parts) == 3 and all(map(_INT, parts[1:])):
                if window is not None:
                    raise ValueError("window declared twice")
                window, window_line = (int(parts[1]), int(parts[2])), lineno
            elif parts[0] == "shape" and "cells" in parts:
                k = parts.index("cells")
                shape = parse_opetope(" ".join(parts[1:k]))
                if shape.dim >= 2:
                    target(shape)  # a malformed shape has no target
                for x in parts[k + 1 :]:
                    if x in shape_of:
                        raise ValueError(f"cell {x} declared twice")
                    shape_of[x] = shape
                cells[shape] = cells.get(shape, ()) + tuple(parts[k + 1 :])
                shape_line.setdefault(shape, lineno)
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
    # the window on its own line first, then each shape on its first line
    for lineno, shapes in [(window_line, ())] + [(n, (s,)) for s, n in shape_line.items()]:
        try:
            _check_window(window, shapes)
        except ValueError as err:
            raise line_error(lineno, err) from None
    faces: dict[tuple[CellId, Gen], CellId] = {}
    # the faces FinOpSet stores, by the names dump_opset writes: none at the
    # window's lowest dimension
    named = {
        s: {render_gen(g): g for g in generators(s)} if s.dim > window[0] else {} for s in cells
    }
    for lineno, x, gen, y in pending:
        try:
            if x not in shape_of:
                raise ValueError(f"face of an undeclared cell {x!r}")
            g = named[shape_of[x]].get(gen)
            if g is None:
                raise ValueError(f"{x} has no face along {gen}")
            if y not in shape_of:
                raise ValueError(f"face of {x} along {gen} is an undeclared cell {y!r}")
            key = (x, g)
            if key in faces:
                raise ValueError(f"face of {x} along {gen} declared twice")
            faces[key] = y
        except ValueError as err:
            raise line_error(lineno, err) from None
    X = FinOpSet(window, cells, faces)
    problems = validate_opset(X)
    if problems:
        raise ValueError(f"not an opetopic set: {problems[0]}")
    return X

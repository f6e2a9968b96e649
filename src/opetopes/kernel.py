"""The kernel that opetopic sets, nerves and the contexts of a theory share.

A finite category is given by tables (FiniteCategory, also named
FinDirectCat), with its axiom checks: _table_problems and _law_problems,
which ensure_category raises on and `theory.validate_lfd` reports.  A
finite presheaf on a direct category is one type, FinPresheaf: cells of
each sort and their faces along each generator.  Opetopic sets
(`opset.FinOpSet`) and presheaves on a category table
(`theory.FinPresheafC`) are its two kinds; the first are presheaves on
the category of opetopes (`tests/paper_results.py`).  What works on any
presheaf lives here too: maps (PshMap, Inclusion), the naturality check,
face-closed sub-presheaves, and the natural-map search (natural_maps,
with propagate filling in what a choice forces).

numbered_lines and line_error read the lines of every text format of the
package and name the line of an error; ParseError is the one parse
error.  This module imports nothing from the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator


class ParseError(ValueError):
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


def line_error(lineno: int, err: ValueError) -> ValueError:
    """err, of its own type, with `line lineno: ` before its message: what
    a text parser raises for a bad line."""
    return type(err)(f"line {lineno}: {err}")


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
    one pass that also computes the dimensions.  The tables are never
    changed once built, so into and is_identity read indexes built on
    first use, in one pass over the tables.
    """

    objects: tuple[str, ...]
    morphisms: dict[str, tuple[str, str]]
    composition: dict[tuple[str, str], str]
    identities: dict[str, str]

    def src(self, f: str) -> str:
        return self.morphisms[f][0]

    def tgt(self, f: str) -> str:
        return self.morphisms[f][1]

    @cached_property
    def _identity_set(self) -> frozenset[str]:
        return frozenset(self.identities.values())

    def is_identity(self, f: str) -> bool:
        return f in self._identity_set

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

    @cached_property
    def _into(self) -> dict[str, tuple[str, ...]]:
        """into of every target, built in one pass over the morphisms on
        first use."""
        found: dict[str, list[str]] = {}
        for f, (_, b) in self.morphisms.items():
            if not self.is_identity(f):
                found.setdefault(b, []).append(f)
        return {b: tuple(sorted(fs)) for b, fs in found.items()}

    def into(self, c: str) -> tuple[str, ...]:
        """Non-identity morphisms with target c, sorted by name."""
        return self._into.get(c, ())


FinDirectCat = FiniteCategory  # the name the direct-category side uses


def _table_problems(C: FiniteCategory) -> Iterator[str]:
    """Defects of the tables themselves: endpoints, identities and
    composition entries."""
    objects = set(C.objects)
    for f, (a, b) in C.morphisms.items():
        if a not in objects or b not in objects:
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



# ---------------------------------------------------------------------------
# Finite presheaves and the map search


# sort -> sort id, shared by every presheaf of the process: one small int
# per distinct sort, equal sorts sharing one; it keeps one entry per
# distinct sort any presheaf has had and nothing else
_SORT_IDS: dict = {}


class FinPresheaf:
    """A finite presheaf on a direct category, the one type that opetopic
    sets and presheaves on a category table share.

    Plain attributes, read directly by the map search: cells lists the
    cells of each sort, sort gives the sort of each cell, sid its sort
    id (equal sorts have equal ids, in every presheaf, through the
    module's intern table _SORT_IDS), gens lists the generators stored
    for each sort that has cells, and face maps (cell, generator) to a
    cell.  Cell ids are globally unique.  Subclasses fix what sorts and
    generators are; _like builds a presheaf of the same kind on other
    cells and faces.
    """

    cells: dict
    sort: dict
    sid: dict
    gens: dict
    face: dict

    def _index(self, face: dict, gens: dict) -> None:
        sort: dict = {}
        sid: dict = {}
        for s, xs in self.cells.items():
            i = _SORT_IDS.setdefault(s, len(_SORT_IDS))
            for x in xs:
                if x in sort:
                    raise ValueError(f"cell id {x!r} is not unique")
                sort[x] = s
                sid[x] = i
        for name, value in (("sort", sort), ("sid", sid), ("gens", gens), ("face", face)):
            object.__setattr__(self, name, value)

    def _like(self, cells: dict, face: dict) -> FinPresheaf:
        raise NotImplementedError


def propagate(pairs, comp: dict, trail: list, src: FinPresheaf, dst: FinPresheaf):
    """Extend the partial map comp by the (cell, value) pairs and by every
    pair their faces force, last in first out, appending each newly
    assigned cell to trail.  Returns None when all agree, otherwise the
    first pair whose sorts or earlier value disagree.  Sorts are compared
    by their ids (sid), an int comparison, never by walking two equal
    sorts; the intern table _SORT_IDS behind the ids holds one entry per
    distinct sort that any presheaf of the process has had."""
    stack = list(pairs)
    while stack:
        x, y = stack.pop()
        if src.sid[x] != dst.sid[y]:
            return x, y
        if x in comp:
            if comp[x] != y:
                return x, y
            continue
        comp[x] = y
        trail.append(x)
        for g in src.gens[src.sort[x]]:
            stack.append((src.face[x, g], dst.face[y, g]))
    return None


def natural_maps(order: list, src: FinPresheaf, dst: FinPresheaf, injective: bool = False):
    """Yield every map from src to dst that commutes with faces.  The
    cells of order are chosen in turn, each value tried in dst's cell
    order and followed by propagate; cells already forced are skipped.

    A chosen cell x with a generator g whose face src.face[x, g] is
    already assigned takes its values from a face index, built on first
    use once per search: for x's sort id and g, the cells of dst of that
    sort with each face at g, in dst's cell order.  Only the values
    propagate would accept at that face are tried, so the maps and their
    order are those of a scan of the whole sort, which runs when no face
    of x is assigned.  With injective set, distinct cells get distinct
    values: used holds the values taken, and each choice tests only the
    values it adds."""
    comp: dict = {}
    used: set = set()
    index: dict = {}  # sort id -> {g: {face: values}}

    def faces_of(s):
        gens = src.gens[s]
        by_gen: dict = {g: {} for g in gens}
        for y in dst.cells.get(s, ()):
            for g in gens:
                by_gen[g].setdefault(dst.face[y, g], []).append(y)
        return by_gen

    def values(x):
        s = src.sort[x]
        for g in src.gens[s]:
            f = src.face[x, g]
            if f in comp:
                i = src.sid[x]
                if i not in index:
                    index[i] = faces_of(s)
                return index[i][g].get(comp[f], ())
        return dst.cells.get(s, ())

    def extend(i: int):
        while i < len(order) and order[i] in comp:
            i += 1
        if i == len(order):
            yield dict(comp)
            return
        x = order[i]
        for y in values(x):
            trail: list = []
            if propagate([(x, y)], comp, trail, src, dst) is None:
                if not injective:
                    yield from extend(i + 1)
                else:
                    fresh = {comp[z] for z in trail}
                    if len(fresh) == len(trail) and used.isdisjoint(fresh):
                        used.update(fresh)
                        yield from extend(i + 1)
                        used.difference_update(fresh)
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

"""Opetopes encoded as trees of higher addresses.

The unique 0- and 1-dimensional shapes are atoms.  An n-dimensional shape for
n >= 2 is either degenerate (a bare edge carrying an (n-2)-dimensional shape)
or a finite address-to-decoration map: each node address of depth n-1 maps to
an (n-1)-dimensional decoration, the root address is empty, and a child key
extends its parent key by one node address of the parent's decoration.

A depth-0 address is the symbol *, a depth-(k+1) address is a finite list of
depth-k addresses.  Address order is shortest first, then entrywise.

The target of a shape is the composite of its tree, and the readdressing is
the bijection from its leaf addresses onto the node addresses of the target.
A degenerate shape targets the one-node tree on its edge.  Otherwise both are
built in one pass over the nodes in address order, parents first: the target
starts as the root decoration, and each further node's decoration is
substituted, in place, at the node of the target its address is readdressed
to; only the subtrees hanging above that node move, rewired through the
decoration's own readdressing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterator

from opetopes.kernel import ParseError

DIM_CAP = 6
NODE_CAP = 8


class AddressNotALeaf(ValueError):
    pass


class AddressNotANode(ValueError):
    pass


class ColourMismatch(ValueError):
    pass


# --------------------------------------------------------------------------
# higher addresses


@dataclass(frozen=True, eq=False)
class Addr:
    """A higher address: * at depth 0, a list of depth-(k-1) addresses at depth k."""

    depth: int
    entries: tuple["Addr", ...] = ()

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError("address depth must be >= 0")
        if self.depth == 0 and self.entries:
            raise ValueError("the depth-0 address has no entries")
        for e in self.entries:
            if e.depth != self.depth - 1:
                raise ValueError("address entries must have depth one less")
        object.__setattr__(self, "_hash", hash((self.depth, self.entries)))
        object.__setattr__(self, "_key", (len(self.entries), tuple(e.key for e in self.entries)))

    @property
    def key(self):
        return self._key  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        # for a fixed depth the key determines the address
        return self is other or (
            isinstance(other, Addr)
            and self.depth == other.depth
            and self._key == other._key  # type: ignore[attr-defined]
        )

    def __len__(self) -> int:
        return len(self.entries)

    def extend(self, entry: "Addr") -> "Addr":
        """Append one entry (one step deeper into the tree)."""
        return Addr(self.depth, self.entries + (entry,))

    def __add__(self, other: "Addr") -> "Addr":
        if self.depth != other.depth:
            raise ValueError("can only concatenate addresses of equal depth")
        return Addr(self.depth, self.entries + other.entries)

    def prefix_of(self, other: "Addr") -> bool:
        return (
            self.depth == other.depth
            and other.entries[: len(self.entries)] == self.entries
        )

    def parent(self) -> "Addr":
        if not self.entries:
            raise ValueError("the empty address has no parent")
        return Addr(self.depth, self.entries[:-1])

    def last(self) -> "Addr":
        if not self.entries:
            raise ValueError("the empty address has no last entry")
        return self.entries[-1]

    def __str__(self) -> str:
        if self.depth == 0:
            return "*"
        return "[" + "".join(str(e) for e in self.entries) + "]"

    def __repr__(self) -> str:
        return f"Addr({self})@{self.depth}"


STAR = Addr(0)


def epsilon(depth: int) -> Addr:
    """The empty address at a given depth."""
    return Addr(depth)


# --------------------------------------------------------------------------
# opetopes


class Opetope:
    __slots__ = ()

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def __str__(self) -> str:
        return render(self)


# the hashes of the point and the arrow, computed once
_POINT_HASH = hash(("point",))
_ARROW_HASH = hash(("arrow",))


@dataclass(frozen=True, eq=False)
class Point(Opetope):
    __slots__ = ()

    @property
    def dim(self) -> int:
        return 0

    def __hash__(self) -> int:
        return _POINT_HASH

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Point)


@dataclass(frozen=True, eq=False)
class Arrow(Opetope):
    __slots__ = ()

    @property
    def dim(self) -> int:
        return 1

    def __hash__(self) -> int:
        return _ARROW_HASH

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Arrow)


POINT = Point()
ARROW = Arrow()


@dataclass(frozen=True, eq=False)
class Degenerate(Opetope):
    """A shape with no nodes: a bare edge carrying a shape two dimensions down."""

    shell: Opetope

    def __post_init__(self) -> None:
        object.__setattr__(self, "_dim", self.shell.dim + 2)
        object.__setattr__(self, "_hash", hash(("deg", self.shell)))
        object.__setattr__(self, "_size", size(self.shell))

    @property
    def dim(self) -> int:
        return self._dim  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Degenerate) and self.shell == other.shell


@dataclass(frozen=True, eq=False)
class Tree(Opetope):
    """A nonempty address-to-decoration map, keys sorted in address order."""

    nodes: tuple[tuple[Addr, Opetope], ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a tree opetope has at least one node")
        ordered = tuple(sorted(self.nodes, key=lambda kv: kv[0].key))
        object.__setattr__(self, "nodes", ordered)
        depth = ordered[0][0].depth
        for a, _ in ordered:
            if a.depth != depth:
                raise ValueError("node addresses must share one depth")
        if len({a for a, _ in ordered}) != len(ordered):
            raise ValueError("duplicate node address")
        object.__setattr__(self, "_dim", depth + 1)
        object.__setattr__(self, "_hash", hash(("tree", ordered)))
        object.__setattr__(self, "_map", dict(ordered))
        object.__setattr__(self, "_size", sum(1 + size(dec) for _, dec in ordered))

    @property
    def dim(self) -> int:
        return self._dim  # type: ignore[attr-defined]

    def node_map(self) -> dict[Addr, Opetope]:
        return dict(self._map)  # type: ignore[attr-defined]

    def decoration(self, addr: Addr) -> Opetope:
        try:
            return self._map[addr]  # type: ignore[attr-defined]
        except KeyError:
            raise AddressNotANode(f"no node at address {addr}") from None

    def has_node(self, addr: Addr) -> bool:
        return addr in self._map  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tree) and self.nodes == other.nodes


def tree(nodes: dict[Addr, Opetope]) -> Tree:
    return Tree(tuple(nodes.items()))


def corolla(dec: Opetope) -> Opetope:
    """The one-node tree decorated by a shape one dimension down."""
    if isinstance(dec, Point):
        return ARROW
    return tree({epsilon(dec.dim): dec})


def opetopic_integer(m: int) -> Opetope:
    """The 2-dimensional shape with m arrows pasted in a line."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return Degenerate(POINT)
    addr = epsilon(1)
    nodes = {}
    for _ in range(m):
        nodes[addr] = ARROW
        addr = addr.extend(STAR)
    return tree(nodes)


def size(omega: Opetope) -> int:
    """Total node count, including the nodes inside every decoration.

    A tree or degenerate shape counts its nodes once, when it is built from
    its decorations, and keeps the count."""
    if isinstance(omega, (Point, Arrow)):
        return 0
    return omega._size  # type: ignore[attr-defined]


def node_addrs(omega: Opetope) -> tuple[Addr, ...]:
    """Node addresses, which index the source faces."""
    if isinstance(omega, Point):
        return ()
    if isinstance(omega, Arrow):
        return (STAR,)
    if isinstance(omega, Degenerate):
        return ()
    return tuple(a for a, _ in omega.nodes)


def source(omega: Opetope, addr: Addr) -> Opetope:
    """The source face at a node address."""
    if isinstance(omega, Arrow):
        if addr == STAR:
            return POINT
        raise AddressNotANode(f"the 1-dimensional shape has a single node address *")
    if isinstance(omega, Tree):
        return omega.decoration(addr)
    raise AddressNotANode(f"{render(omega)} has no node at {addr}")


def leaf_addrs(omega: Opetope) -> tuple[Addr, ...]:
    """Leaf addresses of a shape of dimension >= 2, in address order."""
    if isinstance(omega, Degenerate):
        return (epsilon(omega.dim - 1),)
    if not isinstance(omega, Tree):
        raise ValueError("leaf addresses are defined in dimension >= 2")
    leaves = []
    for a, dec in omega.nodes:
        for q in node_addrs(dec):
            ext = a.extend(q)
            if not omega.has_node(ext):
                leaves.append(ext)
    leaves.sort(key=lambda x: x.key)
    return tuple(leaves)


# --------------------------------------------------------------------------
# target and readdressing


def _child_index(nodes: dict[Addr, Opetope]) -> dict[Addr, set[Addr]]:
    kids: dict[Addr, set[Addr]] = {}
    for a in nodes:
        if a.entries:
            kids.setdefault(a.parent(), set()).add(a)
    return kids


def _replace_node(
    nodes: dict[Addr, Opetope], kids: dict[Addr, set[Addr]], p: Addr, u: Opetope
) -> list[tuple[Addr, Addr]]:
    """Replace the node at p by the same-dimensional shape u, in place.

    nodes is a tree as an address map and kids its child index.  The subtree
    hanging from input e of the node at p moves to p + l, where l is the leaf
    of u that the readdressing of u sends to e; nothing outside those subtrees
    moves.  Returns the (old, new) addresses of the nodes that moved.
    """
    if p not in nodes:
        raise AddressNotANode(f"no node at address {p}")
    t_u, p_u = _target_readdress(u)
    if t_u != nodes[p]:
        raise ColourMismatch("target of the replacement differs from the replaced decoration")
    del nodes[p]
    if p.entries:
        kids[p.parent()].discard(p)
    inv = {q: l for l, q in p_u.items()}
    moved: list[tuple[Addr, Addr]] = []
    for c in list(kids.get(p, ())):
        e = c.last()
        l = inv[e]
        if l.entries == (e,):
            continue  # a leaf on the root of u sent to its own input: stays put
        kids[p].discard(c)
        stack = [(c, Addr(p.depth, p.entries + l.entries))]
        while stack:
            old, new = stack.pop()
            moved.append((old, new))
            k = len(old)
            for child in kids.pop(old, ()):
                stack.append((child, Addr(p.depth, new.entries + child.entries[k:])))
    placed = [(p + b, d) for b, d in u.nodes] if isinstance(u, Tree) else []
    placed.extend([(new, nodes.pop(old)) for old, new in moved])
    for a, d in placed:
        nodes[a] = d
        if a.entries:
            kids.setdefault(a.parent(), set()).add(a)
    return moved


@cache
def _target_readdress(omega: Opetope) -> tuple[Opetope, dict[Addr, Addr]]:
    """Target shape and the leaf-to-node readdressing bijection."""
    if omega.dim < 2:
        raise ValueError("readdressing is defined in dimension >= 2")
    if isinstance(omega, Degenerate):
        return corolla(omega.shell), {epsilon(omega.dim - 1): epsilon(omega.dim - 2)}
    assert isinstance(omega, Tree)
    root, psi = omega.nodes[0]
    if root.entries:
        raise AddressNotANode(f"no node at address {epsilon(root.depth)}")
    if len(omega.nodes) == 1:
        return psi, {root.extend(q): q for q in node_addrs(psi)}
    return _compose(omega)


def _compose(omega: Tree) -> tuple[Opetope, dict[Addr, Addr]]:
    """Target and readdressing of a rooted tree with two or more nodes.

    P sends each open leaf of the nodes visited so far to its node in the
    target built so far, and owner is its inverse.
    """
    root, psi = omega.nodes[0]
    if omega.dim == 2:
        # every decoration is the arrow and a depth-1 address is fixed by its
        # length, so the nodes form a chain exactly when the k-th has length k
        for k, (a, _) in enumerate(omega.nodes):
            if len(a) != k:
                raise AddressNotALeaf(f"{a} is not a leaf of the nodes below it")
        return ARROW, {Addr(1, (STAR,) * len(omega.nodes)): STAR}
    nodes = psi.node_map() if isinstance(psi, Tree) else {}
    kids = _child_index(nodes)
    P = {root.extend(q): q for q in nodes}
    owner = {q: l for l, q in P.items()}
    for a, psi in omega.nodes[1:]:
        slot = P.pop(a, None)
        if slot is None:
            raise AddressNotALeaf(f"{a} is not a leaf of the nodes below it")
        del owner[slot]
        moved = _replace_node(nodes, kids, slot, psi)
        leaves = [owner.pop(old) for old, _ in moved]
        for j, (_, new) in zip(leaves, moved):
            P[j] = new
            owner[new] = j
        for q in node_addrs(psi):
            j = a.extend(q)
            P[j] = slot + q
            owner[P[j]] = j
    if not nodes:
        return psi, P  # the last decoration was degenerate and emptied the target
    return tree(nodes), P


def target(omega: Opetope) -> Opetope:
    """The output face: one dimension lower, the tree composed down."""
    if isinstance(omega, Arrow):
        return POINT
    if isinstance(omega, Point):
        raise ValueError("the point has no target")
    return _target_readdress(omega)[0]


def readdress(omega: Opetope) -> dict[Addr, Addr]:
    """The bijection from leaf addresses onto node addresses of the target."""
    return dict(_target_readdress(omega)[1])


# --------------------------------------------------------------------------
# validation and the four identities


def validate(omega: Opetope) -> list[str]:
    """Structural checks; returns one message per violated address."""
    bad: list[str] = []
    if isinstance(omega, (Point, Arrow)):
        return bad
    if isinstance(omega, Degenerate):
        return [f"shell: {m}" for m in validate(omega.shell)]
    assert isinstance(omega, Tree)
    n = omega.dim
    root = epsilon(n - 1)
    if not omega.has_node(root):
        bad.append("missing root address []")
        return bad
    for a, dec in omega.nodes:
        if dec.dim != n - 1:
            bad.append(f"{a}: decoration has dimension {dec.dim}, expected {n - 1}")
            continue
        sub_bad = validate(dec)
        bad.extend(f"{a}: {m}" for m in sub_bad)
        if len(a) > 0:
            parent, e = a.parent(), a.last()
            if not omega.has_node(parent):
                bad.append(f"{a}: parent address {parent} is absent")
                continue
            pdec = omega.decoration(parent)
            if e not in node_addrs(pdec):
                bad.append(f"{a}: {e} is not an input of the decoration at {parent}")
                continue
            if not sub_bad and target(dec) != source(pdec, e):
                bad.append(f"{a}: target of decoration differs from the input at {parent}")
    return bad


def check_identities(omega: Opetope) -> list[str]:
    """Verify the four face identities; returns one message per failure."""
    bad: list[str] = []
    if omega.dim < 2:
        return bad
    if isinstance(omega, Degenerate):
        # degenerate: the root source of the target equals the target of the target
        t_omega = target(omega)
        root = epsilon(omega.dim - 2)
        if source(t_omega, root) != target(t_omega):
            bad.append("Degen: source [] of target differs from target of target")
        return bad
    assert isinstance(omega, Tree)
    for a, dec in omega.nodes:
        if len(a) > 0:
            parent, e = a.parent(), a.last()
            if target(dec) != source(omega.decoration(parent), e):
                bad.append(f"Inner at {a}: target of source differs from input of parent")
    try:
        t_omega = target(omega)
        p_omega = readdress(omega)
    except (ValueError, KeyError) as exc:
        bad.append(f"Glob: target is undefined ({exc})")
        return bad
    root = epsilon(omega.dim - 1)
    if target(omega.decoration(root)) != target(t_omega):
        bad.append("Glob1: target of root source differs from target of target")
    for j in leaf_addrs(omega):
        parent, q = j.parent(), j.last()
        if source(omega.decoration(parent), q) != source(t_omega, p_omega[j]):
            bad.append(f"Glob2 at {j}: leaf edge differs from the readdressed target input")
    return bad


# --------------------------------------------------------------------------
# enumeration


def _skey(omega: Opetope):
    if isinstance(omega, Point):
        return (0,)
    if isinstance(omega, Arrow):
        return (1,)
    if isinstance(omega, Degenerate):
        return (2, _skey(omega.shell))
    return (3, tuple((a.key, _skey(d)) for a, d in omega.nodes))


def enumerate_opetopes(n: int, max_nodes: int = NODE_CAP) -> tuple[Opetope, ...]:
    """All n-dimensional shapes of total size <= max_nodes.

    Size counts nodes at every level (a decoration's nodes included), so the
    enumeration is finite.  Ordered by size, then by a structural key.
    """
    if n < 0:
        raise ValueError("dimension must be >= 0")
    if n > DIM_CAP:
        raise ValueError(f"dimension cap is {DIM_CAP}")
    if max_nodes < 0:
        raise ValueError("the node bound must be >= 0")
    return _enumerate(n, max_nodes)


# cached apart from enumerate_opetopes, so that a defaulted max_nodes shares
# its entry and perfbench/tracing.py can wrap a plain function
@cache
def _enumerate(n: int, max_nodes: int) -> tuple[Opetope, ...]:
    if n == 0:
        out: list[Opetope] = [POINT]
    elif n == 1:
        out = [ARROW]
    else:
        out = [Degenerate(shell) for shell in _enumerate(n - 2, max_nodes)]
        decs = _enumerate(n - 1, max_nodes)
        by_target: dict[Opetope, list[Opetope]] = {}
        for d in decs:
            if d.dim >= 1:
                by_target.setdefault(target(d), []).append(d)

        def grow(dec: Opetope, budget: int) -> Iterator[dict[Addr, Opetope]]:
            # trees with root decorated by dec, total size <= budget, as
            # relative address maps
            cost = 1 + size(dec)
            if cost > budget:
                return
            slots = node_addrs(dec)

            def fill(i: int, left: int) -> Iterator[dict[Addr, Opetope]]:
                if i == len(slots):
                    yield {}
                    return
                q = slots[i]
                colour = source(dec, q)
                for rest in fill(i + 1, left):
                    yield rest
                for child_dec in by_target.get(colour, ()):
                    for sub in grow(child_dec, left):
                        c = sum(1 + size(d) for d in sub.values())
                        for rest in fill(i + 1, left - c):
                            child = {
                                Addr(dec.dim, (q,) + a.entries): d for a, d in sub.items()
                            }
                            yield {**child, **rest}

            for assignment in fill(0, budget - cost):
                yield {epsilon(dec.dim): dec, **assignment}

        for dec in decs:
            for m in grow(dec, max_nodes):
                out.append(tree(m))
    out.sort(key=lambda w: (size(w), _skey(w)))
    return tuple(out)


# --------------------------------------------------------------------------
# the category of opetopes: generators, relations, hom-sets

Gen = tuple  # ("s", Addr) or ("t",)

T_GEN: Gen = ("t",)


def generators(omega: Opetope) -> tuple[Gen, ...]:
    """Generating faces into omega: one per source, plus the target."""
    if omega.dim == 0:
        return ()
    return tuple(("s", a) for a in node_addrs(omega)) + (T_GEN,)


def face(omega: Opetope, gen: Gen) -> Opetope:
    return target(omega) if gen == T_GEN else source(omega, gen[1])


def _gen_key(gen: Gen):
    return (1,) if gen == T_GEN else (0, gen[1].key)


def word_key(word: tuple[Gen, ...]):
    return (len(word), tuple(_gen_key(g) for g in word))


def render_gen(g: Gen) -> str:
    return "t" if g == T_GEN else f"s{g[1]}"


def render_word(word: tuple[Gen, ...]) -> str:
    """Canonical name of a face word; injective for words out of one shape."""
    return ".".join(map(render_gen, word)) if word else "id"


def relation_squares(omega: Opetope) -> tuple[tuple[tuple[Gen, Gen], tuple[Gen, Gen]], ...]:
    """Pairs of two-step face words into omega that agree in the category."""
    if omega.dim < 2:
        return ()
    if isinstance(omega, Degenerate):
        root = epsilon(omega.dim - 2)
        return ((((T_GEN, ("s", root)), (T_GEN, T_GEN))),)
    assert isinstance(omega, Tree)
    out = []
    for a, _ in omega.nodes:
        if len(a) > 0:
            out.append(
                ((("s", a.parent()), ("s", a.last())), (("s", a), T_GEN))
            )
    root = epsilon(omega.dim - 1)
    out.append(((("s", root), T_GEN), (T_GEN, T_GEN)))
    p_omega = readdress(omega)
    for j in leaf_addrs(omega):
        out.append(
            ((("s", j.parent()), ("s", j.last())), (T_GEN, ("s", p_omega[j])))
        )
    return tuple(out)


class FaceStructure:
    """All face-map composites into a fixed shape, modulo the relations.

    Cells are numbered; cell 0 is the identity.  The action table sends
    (cell, generator of the cell's shape) to a cell one dimension down.
    The cells are those of the representable of the shape, and only this
    class names them: names, built on first use, gives each cell its least
    face word rendered (id, t, s[*], s[*].t, ...); name(word) names the cell
    a face word reaches; along(gen) is the map into this representable from
    that of the face psi at gen, on names: x -> name((gen,) + word of x).
    """

    def __init__(self, top: Opetope):
        self.top = top
        self.shapes: list[Opetope] = [top]
        self.words: list[tuple[Gen, ...]] = [()]
        self._parent: list[int] = [0]
        self.act: dict[tuple[int, Gen], int] = {}
        self._build()

    def find(self, c: int) -> int:
        while self._parent[c] != c:
            self._parent[c] = self._parent[self._parent[c]]
            c = self._parent[c]
        return c

    def _union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        if word_key(self.words[ry]) < word_key(self.words[rx]):
            rx, ry = ry, rx
        self._parent[ry] = rx

    def get(self, c: int, gen: Gen) -> int:
        return self.find(self.act[(self.find(c), gen)])

    def _build(self) -> None:
        level = [0]
        prev: list[int] = []
        while level:
            fresh: list[int] = []
            for c in level:
                if self.find(c) != c:
                    continue
                for g in generators(self.shapes[c]):
                    nid = len(self.shapes)
                    self.shapes.append(face(self.shapes[c], g))
                    self.words.append(self.words[c] + (g,))
                    self._parent.append(nid)
                    self.act[(c, g)] = nid
                    fresh.append(nid)
            for u in prev:
                if self.find(u) != u:
                    continue
                for (a, b), (a2, b2) in relation_squares(self.shapes[u]):
                    self._union(self.get(self.get(u, a), b), self.get(self.get(u, a2), b2))
            prev = [c for c in level if self.find(c) == c]
            level = fresh

    def cells(self) -> list[int]:
        return [c for c in range(len(self.shapes)) if self.find(c) == c]

    def shape_of(self, c: int) -> Opetope:
        return self.shapes[self.find(c)]

    def word_of(self, c: int) -> tuple[Gen, ...]:
        return self.words[self.find(c)]

    def cell_of_word(self, word: tuple[Gen, ...]) -> int:
        c = 0
        for g in word:
            c = self.get(c, g)
        return c

    def target_cell(self) -> int:
        return self.get(0, T_GEN)

    @cached_property
    def names(self) -> dict[int, str]:
        return {c: render_word(self.words[c]) for c in self.cells()}

    def name(self, word: tuple[Gen, ...]) -> str:
        return self.names[self.cell_of_word(word)]

    def along(self, gen: Gen) -> dict[str, str]:
        sub = faces(face(self.top, gen))
        return {x: self.name((gen,) + sub.words[c]) for c, x in sub.names.items()}

    def closure(self, seeds: set[int]) -> set[int]:
        """Downward closure of a set of cells under the action."""
        out = {self.find(c) for c in seeds}
        queue = list(out)
        while queue:
            c = queue.pop()
            for g in generators(self.shapes[c]):
                d = self.get(c, g)
                if d not in out:
                    out.add(d)
                    queue.append(d)
        return out


_face_structure = cache(FaceStructure)


# a plain function, not the cache itself, so that perfbench/tracing.py can wrap it
def faces(omega: Opetope) -> FaceStructure:
    return _face_structure(omega)


@dataclass(frozen=True)
class OMorphism:
    """A morphism of the category of shapes, named by its least face word."""

    src: Opetope
    dst: Opetope
    word: tuple[Gen, ...]

    def __str__(self) -> str:
        return render_word(self.word)


def hom(psi: Opetope, omega: Opetope) -> tuple[OMorphism, ...]:
    """All morphisms from psi into omega, in word order."""
    if psi.dim > omega.dim:
        return ()
    fs = faces(omega)
    found = [
        OMorphism(psi, omega, fs.word_of(c))
        for c in fs.cells()
        if fs.shape_of(c) == psi
    ]
    found.sort(key=lambda f: word_key(f.word))
    return tuple(found)


def compose(f: OMorphism, g: OMorphism) -> OMorphism:
    """The composite of g: chi -> psi after f: psi -> omega."""
    if g.dst != f.src:
        raise ValueError("morphisms do not compose")
    fs = faces(f.dst)
    c = fs.cell_of_word(f.word + g.word)
    return OMorphism(g.src, f.dst, fs.word_of(c))


# --------------------------------------------------------------------------
# text form


def render(omega: Opetope) -> str:
    if isinstance(omega, Point):
        return "point"
    if isinstance(omega, Arrow):
        return "arrow"
    if omega.dim == 2:
        if isinstance(omega, Degenerate):
            return "I0"
        return f"I{len(omega.nodes)}"
    if isinstance(omega, Degenerate):
        return "{{" + render(omega.shell) + "}}"
    assert isinstance(omega, Tree)
    entries = " ".join(f"{a} <- {render(d)}" for a, d in omega.nodes)
    return "{" + entries + "}"


# \w and \s are exactly str.isalnum() plus "_" and str.isspace()
_TOKEN = re.compile(r"[{}\[\]*]|<-|\w+")
# a character outside every token: "<" not starting "<-", "-" not ending it
_STRAY = re.compile(r"<(?!-)|(?<!<)-|[^\s\w{}\[\]*<-]")


def _tokens(text: str) -> list[str]:
    stray = _STRAY.search(text)
    if stray:
        raise ParseError(f"unexpected character {stray[0]!r} at position {stray.start()}")
    return _TOKEN.findall(text)


def _calibrate(raw: tuple | None, depth: int) -> Addr:
    """The address at depth of a parsed one: None for *, else its entries."""
    if raw is None:
        if depth != 0:
            raise ParseError(f"* used where a depth-{depth} address is needed")
        return STAR
    if depth == 0:
        raise ParseError("a bracketed address cannot have depth 0")
    return Addr(depth, tuple(_calibrate(e, depth - 1) for e in raw))


# Deeper input would overflow the recursion of the parser and of the
# functions that walk the parsed shape.
NEST_CAP = 200


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0
        self.depth = 0

    def enter(self) -> None:
        """Open one more level of braces or brackets."""
        self.depth += 1
        if self.depth > NEST_CAP:
            raise ParseError(f"braces and brackets nest more than {NEST_CAP} levels deep")

    def peek(self) -> str | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        if self.pos >= len(self.toks):
            raise ParseError("unexpected end of input")
        tok = self.toks[self.pos]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def opetope(self) -> Opetope:
        tok = self.take()
        if tok == "point":
            return POINT
        if tok == "arrow":
            return ARROW
        if tok == "I":
            num = self.take()
            if not (num.isascii() and num.isdigit()):
                raise ParseError(f"expected a number after I, found {num!r}")
            return opetopic_integer(int(num))
        if tok[:1] == "I" and tok[1:].isascii() and tok[1:].isdigit():
            return opetopic_integer(int(tok[1:]))
        if tok == "{":
            self.enter()
            if self.peek() == "{":
                self.take()
                shell = self.opetope()
                self.take("}")
                self.take("}")
                self.depth -= 1
                return Degenerate(shell)
            entries: list[tuple[tuple | None, Opetope]] = []
            while self.peek() != "}":
                raw = self.raw_addr()
                self.take("<-")
                dec = self.opetope()
                entries.append((raw, dec))
            self.take("}")
            self.depth -= 1
            if not entries:
                raise ParseError("a tree needs at least one 'address <- shape' entry")
            dims = {dec.dim for _, dec in entries}
            if len(dims) != 1:
                raise ParseError("tree decorations must share one dimension")
            depth = dims.pop()
            return tree({_calibrate(raw, depth): dec for raw, dec in entries})
        raise ParseError(f"unexpected token {tok!r}")

    def raw_addr(self) -> tuple | None:
        tok = self.take()
        if tok == "*":
            return None
        if tok == "[":
            self.enter()
            entries = []
            while self.peek() != "]":
                entries.append(self.raw_addr())
            self.take("]")
            self.depth -= 1
            return tuple(entries)
        raise ParseError(f"expected an address, found {tok!r}")


def parse(text: str) -> Opetope:
    """Parse the text grammar: point, arrow, Ik, {{shape}}, or
    { addr <- shape ... }, with braces and brackets nested at most NEST_CAP
    levels deep."""
    p = _Parser(text)
    out = p.opetope()
    if p.peek() is not None:
        raise ParseError(f"trailing input from token {p.peek()!r}")
    return out

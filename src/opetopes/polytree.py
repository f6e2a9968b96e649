"""Finitary polynomial endofunctors and their trees.

A polynomial endofunctor is given by a set of colours, a set of node symbols,
an ordered list of labelled input edges per node (each carrying a colour), and
an output colour per node.  Trees over such a functor are finite, rooted and
rigid: a tree is either a bare edge or a node with one subtree per input label.

Addresses are paths: a tree address is the tuple of input labels walked from
the root.  Address order is shortest-first, then lexicographic step by step in
the declared input order of the node where two paths diverge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Hashable, Iterator

Label = Hashable
Colour = Hashable
TreeAddress = tuple  # tuple of labels, root is ()


class AddressNotALeaf(ValueError):
    pass


class AddressNotANode(ValueError):
    pass


class ColourMismatch(ValueError):
    pass


class ReaddressingNotBijective(ValueError):
    pass


@dataclass(frozen=True)
class PolyFun:
    """A finitary polynomial endofunctor with ordered inputs per node."""

    colours: tuple[Colour, ...]
    nodes: tuple[Hashable, ...]
    inputs: tuple[tuple[Hashable, tuple[tuple[Label, Colour], ...]], ...]
    target: tuple[tuple[Hashable, Colour], ...]

    def __post_init__(self) -> None:
        seen_colours = set(self.colours)
        inp = dict(self.inputs)
        tgt = dict(self.target)
        if set(inp) != set(self.nodes) or set(tgt) != set(self.nodes):
            raise ValueError("inputs and target must cover exactly the declared nodes")
        for b in self.nodes:
            if tgt[b] not in seen_colours:
                raise ColourMismatch(f"target colour of {b!r} is not a declared colour")
            labels = [l for l, _ in inp[b]]
            if len(labels) != len(set(labels)):
                raise ValueError(f"duplicate input labels on node {b!r}")
            for _, c in inp[b]:
                if c not in seen_colours:
                    raise ColourMismatch(f"input colour on {b!r} is not a declared colour")

    def input_list(self, node: Hashable) -> tuple[tuple[Label, Colour], ...]:
        return dict(self.inputs)[node]

    def input_colour(self, node: Hashable, label: Label) -> Colour:
        for l, c in self.input_list(node):
            if l == label:
                return c
        raise KeyError(label)

    def target_colour(self, node: Hashable) -> Colour:
        return dict(self.target)[node]

    @staticmethod
    def build(colours, nodes, inputs, target) -> "PolyFun":
        """Convenience constructor from mappings."""
        return PolyFun(
            tuple(colours),
            tuple(nodes),
            tuple((b, tuple(inputs[b])) for b in nodes),
            tuple((b, target[b]) for b in nodes),
        )


class PTree:
    """A tree over a polynomial endofunctor: either an Edge or a Corolla."""

    __slots__ = ()


@dataclass(frozen=True)
class Edge(PTree):
    colour: Colour


@dataclass(frozen=True)
class Corolla(PTree):
    node: Hashable
    children: tuple[tuple[Label, PTree], ...]  # one entry per input label, in input order

    def child(self, label: Label) -> PTree:
        for l, t in self.children:
            if l == label:
                return t
        raise KeyError(label)


def corolla(p: PolyFun, node: Hashable) -> Corolla:
    """The one-node tree on a node symbol, all inputs bare edges."""
    kids = tuple((l, Edge(c)) for l, c in p.input_list(node))
    return Corolla(node, kids)


def root_colour(p: PolyFun, t: PTree) -> Colour:
    if isinstance(t, Edge):
        return t.colour
    return p.target_colour(t.node)


def validate_tree(p: PolyFun, t: PTree, expect_colour: Colour | None = None) -> None:
    """Check node symbols, child completeness, and edge colour agreement."""
    if expect_colour is not None and root_colour(p, t) != expect_colour:
        raise ColourMismatch(f"root colour {root_colour(p, t)!r} != {expect_colour!r}")
    if isinstance(t, Edge):
        if t.colour not in p.colours:
            raise ColourMismatch(f"unknown edge colour {t.colour!r}")
        return
    declared = p.input_list(t.node)
    if tuple(l for l, _ in t.children) != tuple(l for l, _ in declared):
        raise ValueError(f"children of {t.node!r} do not match declared inputs in order")
    for (label, sub), (_, colour) in zip(t.children, declared):
        validate_tree(p, sub, colour)


def n_nodes(t: PTree) -> int:
    if isinstance(t, Edge):
        return 0
    return 1 + sum(n_nodes(sub) for _, sub in t.children)


def _walk_nodes(p: PolyFun, t: PTree, prefix: TreeAddress, rank: tuple) -> Iterator[tuple[tuple, TreeAddress]]:
    if isinstance(t, Edge):
        return
    yield rank, prefix
    for i, (label, sub) in enumerate(t.children):
        yield from _walk_nodes(p, sub, prefix + (label,), rank + (i,))


def node_addresses(p: PolyFun, t: PTree) -> tuple[TreeAddress, ...]:
    """All node addresses, shortest first, then in declared input order."""
    found = list(_walk_nodes(p, t, (), ()))
    found.sort(key=lambda pair: (len(pair[0]), pair[0]))
    return tuple(addr for _, addr in found)


def _walk_leaves(p: PolyFun, t: PTree, prefix: TreeAddress, rank: tuple) -> Iterator[tuple[tuple, TreeAddress]]:
    if isinstance(t, Edge):
        yield rank, prefix
        return
    for i, (label, sub) in enumerate(t.children):
        yield from _walk_leaves(p, sub, prefix + (label,), rank + (i,))


def leaf_addresses(p: PolyFun, t: PTree) -> tuple[TreeAddress, ...]:
    """All leaf edge addresses, shortest first, then in declared input order."""
    found = list(_walk_leaves(p, t, (), ()))
    found.sort(key=lambda pair: (len(pair[0]), pair[0]))
    return tuple(addr for _, addr in found)


def subtree_at(t: PTree, addr: TreeAddress) -> PTree:
    for label in addr:
        if isinstance(t, Edge):
            raise AddressNotANode(f"address {addr!r} walks through an edge")
        t = t.child(label)
    return t


def leaf_colour(p: PolyFun, t: PTree, addr: TreeAddress) -> Colour:
    sub = subtree_at(t, addr)
    if not isinstance(sub, Edge):
        raise AddressNotALeaf(f"no leaf at address {addr!r}")
    return sub.colour


def _replace(t: PTree, addr: TreeAddress, new: PTree) -> PTree:
    if not addr:
        return new
    if isinstance(t, Edge):
        raise AddressNotANode(f"address {addr!r} walks through an edge")
    label, rest = addr[0], addr[1:]
    kids = tuple((l, _replace(sub, rest, new) if l == label else sub) for l, sub in t.children)
    return Corolla(t.node, kids)


def graft(p: PolyFun, s: PTree, leaf: TreeAddress, t: PTree) -> PTree:
    """Graft t onto the named leaf of s.  Bare-edge s or t act as units."""
    sub = subtree_at(s, leaf)
    if not isinstance(sub, Edge):
        raise AddressNotALeaf(f"no leaf at address {leaf!r}")
    if sub.colour != root_colour(p, t):
        raise ColourMismatch(
            f"leaf colour {sub.colour!r} != root colour {root_colour(p, t)!r}"
        )
    return _replace(s, leaf, t)


def graft_all(p: PolyFun, s: PTree, pairs: dict[TreeAddress, PTree]) -> PTree:
    """Graft several trees onto distinct leaves.  Order independent."""
    out = s
    for leaf in sorted(pairs, key=lambda a: (len(a), tuple(map(str, a)))):
        out = graft(p, out, leaf, pairs[leaf])
    return out


def substitute(p: PolyFun, t: PTree, addr: TreeAddress, u: PTree, re: dict[TreeAddress, Label]) -> PTree:
    """Replace the node at addr by the tree u, rewiring the hanging subtrees.

    re sends each leaf address of u to an input label of the replaced node;
    it must be a colour-preserving bijection.
    """
    old = subtree_at(t, addr)
    if isinstance(old, Edge):
        raise AddressNotANode(f"no node at address {addr!r}")
    labels = [l for l, _ in p.input_list(old.node)]
    u_leaves = leaf_addresses(p, u)
    if sorted(map(repr, re.keys())) != sorted(map(repr, u_leaves)) or sorted(
        map(repr, re.values())
    ) != sorted(map(repr, labels)):
        raise ReaddressingNotBijective(
            "re must biject the leaves of the replacement tree with the node inputs"
        )
    if root_colour(p, u) != p.target_colour(old.node):
        raise ColourMismatch("replacement root colour differs from the node output")
    for u_leaf, label in re.items():
        if leaf_colour(p, u, u_leaf) != p.input_colour(old.node, label):
            raise ColourMismatch(f"leaf {u_leaf!r} and input {label!r} have different colours")
    new_sub = u
    for u_leaf, label in re.items():
        hanging = old.child(label)
        new_sub = _replace(new_sub, u_leaf, hanging)
    return _replace(t, addr, new_sub)


def _tree_key(t: PTree):
    if isinstance(t, Edge):
        return (0, str(t.colour))
    return (1, str(t.node), tuple(_tree_key(sub) for _, sub in t.children))


def enumerate_trees(p: PolyFun, colour: Colour, max_nodes: int) -> tuple[PTree, ...]:
    """All trees with the given root colour and at most max_nodes nodes.

    Ordered by node count, then by a structural key (node symbol, then
    children left to right).
    """
    cache: dict[tuple[Colour, int], list[PTree]] = {}

    def go(c: Colour, budget: int) -> list[PTree]:
        key = (c, budget)
        if key in cache:
            return cache[key]
        out: list[PTree] = [Edge(c)]
        if budget >= 1:
            for b in p.nodes:
                if p.target_colour(b) != c:
                    continue
                slots = p.input_list(b)
                child_options = [go(cc, budget - 1) for _, cc in slots]
                for combo in product(*child_options):
                    if sum(n_nodes(x) for x in combo) <= budget - 1:
                        out.append(Corolla(b, tuple((l, x) for (l, _), x in zip(slots, combo))))
        out.sort(key=lambda x: (n_nodes(x), _tree_key(x)))
        cache[key] = out
        return out

    return tuple(go(colour, max_nodes))

"""`opetope` checked against the polynomial-tree oracle `polytree_oracle`.

The Baez–Dolan functor at level n has the n-dimensional shapes as colours
and the (n+1)-dimensional shapes as nodes; a node's inputs are its sources,
labelled by its node addresses, and its output is its target (Kock, Joyal,
Batanin & Mascari, *Polynomial functors and opetopes*, arXiv:0706.1033).
Its trees are the (n+2)-dimensional shapes, and composing a tree, node by
node with the oracle's `substitute`, gives the target.

For every tree within the bounds, two properties are checked:
- the oracle's trees, read as shapes, are exactly the shapes of
  `enumerate_opetopes(n + 2, ...)` within the same bounds;
- the oracle's composite and readdressing equal `opetope.target` and
  `opetope.readdress`.

The oracle enumerates by number of nodes, `enumerate_opetopes` by total
size, so the trees are bounded twice: at most N nodes, each decorated by a
shape of size at most D.  A single bound of 4 for both takes minutes.

The functor's outputs are `opetope.target` one dimension down, so the
checks at dimension n + 2 rest on the target at dimension n + 1, which the
same checks cover at the level below.
"""

from __future__ import annotations

import pytest

from opetopes.opetope import (
    ARROW,
    STAR,
    Addr,
    Degenerate,
    Opetope,
    enumerate_opetopes,
    epsilon,
    node_addrs,
    readdress,
    size,
    source,
    target,
    tree,
)
from polytree_oracle import (
    Corolla,
    Edge,
    PolyFun,
    PTree,
    enumerate_trees,
    leaf_addresses,
    node_addresses,
    subtree_at,
    substitute,
)

# (n, N, D): trees of dimension n + 2 with at most N nodes, each decorated
# by a shape of size at most D
ENUMERATION_BOUNDS = [(0, 6, 0), (1, 3, 2), (2, 2, 3), (2, 3, 2)]
# larger: these need no `enumerate_opetopes` up to N * (D + 1); the
# oracle's own enumeration at (1, 4, 3) takes a minute and a half
TARGET_BOUNDS = [(1, 5, 2), (1, 3, 3), (2, 3, 4)]


def baez_dolan(nodes: dict, colours=()) -> PolyFun:
    """The functor whose node b stands for the shape nodes[b]: its inputs are
    the sources of that shape, labelled by node address, and its output is
    its target.  colours adds colours that no node uses."""
    inputs = {b: [(q, source(w, q)) for q in node_addrs(w)] for b, w in nodes.items()}
    outputs = {b: target(w) for b, w in nodes.items()}
    used = {c for slots in inputs.values() for _, c in slots} | set(outputs.values())
    return PolyFun.build(list(dict.fromkeys([*colours, *used])), list(nodes), inputs, outputs)


def to_ptree(omega: Opetope, symbol) -> PTree:
    """A shape of dimension >= 2 as a tree one level down; the node at
    address a gets the symbol symbol(a)."""
    if isinstance(omega, Degenerate):
        return Edge(omega.shell)

    def grow(a: Addr) -> PTree:
        nu = omega.decoration(a)
        kids = []
        for q in node_addrs(nu):
            child = a.extend(q)
            kids.append((q, grow(child) if omega.has_node(child) else Edge(source(nu, q))))
        return Corolla(symbol(a), tuple(kids))

    return grow(epsilon(omega.dim - 1))


# the oracle's address functions take a functor but never read it, so None
# is passed below where no functor is at hand
def to_opetope(t: PTree, dim: int, decoration) -> Opetope:
    """The dim-dimensional shape of a tree whose node symbol b stands for the
    shape decoration(b)."""
    if isinstance(t, Edge):
        return Degenerate(t.colour)
    nodes = {Addr(dim - 1, a): decoration(subtree_at(t, a).node) for a in node_addresses(None, t)}
    return tree(nodes)


def where(t: PTree, symbol) -> tuple:
    """The address of the node of t with the given symbol."""
    (found,) = [a for a in node_addresses(None, t) if subtree_at(t, a).node == symbol]
    return found


def oracle_target(omega: Opetope) -> tuple[Opetope, dict[Addr, Addr]]:
    """Target and readdressing of a shape of dimension >= 2, composed with
    the oracle.  The readdressing of each decoration, needed to substitute
    it, is this function one dimension down."""
    n = omega.dim - 2
    if isinstance(omega, Degenerate):
        unit = ARROW if n == 0 else tree({epsilon(n): omega.shell})
        return unit, {epsilon(n + 1): epsilon(n)}
    if n == 0:
        (leaf,) = leaf_addresses(None, to_ptree(omega, lambda a: a))
        return ARROW, {Addr(1, leaf): STAR}
    # node q of the decoration at x is the symbol (x, q), so each can be
    # found in the composite after the substitutions move it
    symbols = {(x, q): source(psi, q) for x, psi in omega.nodes for q in node_addrs(psi)}
    functor = baez_dolan(symbols)
    (root, psi), *rest = omega.nodes  # address order: parents before children
    composite = to_ptree(psi, lambda q: (root, q))
    for x, psi in rest:
        u = to_ptree(psi, lambda q, x=x: (x, q))
        re = {leaf.entries: q for leaf, q in oracle_target(psi)[1].items()}
        composite = substitute(functor, composite, where(composite, (x.parent(), x.last())), u, re)
    readdressing = {
        x.extend(q): Addr(n, where(composite, (x, q)))
        for x, psi in omega.nodes
        for q in node_addrs(psi)
        if not omega.has_node(x.extend(q))
    }
    return to_opetope(composite, n + 1, symbols.get), readdressing


def oracle_shapes(n: int, max_nodes: int, max_decoration: int) -> list[Opetope]:
    """The (n+2)-dimensional shapes the oracle enumerates within the bounds.
    The colours are the n-dimensional shapes up to size max_decoration + 1,
    which holds every source and target of the nodes."""
    nodes = enumerate_opetopes(n + 1, max_decoration)
    functor = baez_dolan({w: w for w in nodes}, enumerate_opetopes(n, max_decoration + 1))
    return [
        to_opetope(t, n + 2, lambda w: w)
        for c in functor.colours
        for t in enumerate_trees(functor, c, max_nodes)
    ]


def within(omega: Opetope, max_nodes: int, max_decoration: int) -> bool:
    if isinstance(omega, Degenerate):
        return size(omega.shell) <= max_decoration + 1
    return len(omega.nodes) <= max_nodes and all(size(d) <= max_decoration for _, d in omega.nodes)


@pytest.mark.parametrize("n, max_nodes, max_decoration", ENUMERATION_BOUNDS)
def test_oracle_trees_are_the_enumerated_shapes(n, max_nodes, max_decoration):
    ours = oracle_shapes(n, max_nodes, max_decoration)
    # every shape within the bounds has size at most this
    theirs = enumerate_opetopes(n + 2, max_nodes * (max_decoration + 1))
    expected = [w for w in theirs if within(w, max_nodes, max_decoration)]
    assert len(set(ours)) == len(ours)
    assert len(set(expected)) == len(expected)
    assert set(ours) == set(expected)


@pytest.mark.parametrize("n, max_nodes, max_decoration", TARGET_BOUNDS)
def test_oracle_composites_are_the_targets(n, max_nodes, max_decoration):
    shapes = oracle_shapes(n, max_nodes, max_decoration)
    assert any(isinstance(w, Degenerate) for w in shapes)
    assert any(len(getattr(w, "nodes", ())) == max_nodes for w in shapes)
    for omega in shapes:
        assert oracle_target(omega) == (target(omega), readdress(omega)), omega

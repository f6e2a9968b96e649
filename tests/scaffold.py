"""Test inputs, shape builders and oracles that no command needs.

`terminal_opset` builds the terminal opetopic set under a size cap, an
input of the map-search, orthogonality and algebra tests.  `monotone_maps`
enumerates the monotone maps [m] -> [mp] directly: the oracle that the
realized faces and the diagrammatic presentations of Delta are checked
against.  `lambda_identity` is the identity of [m] among them.

The shape builders write shapes the tests need and state what `opetope`
computes on them: `graft` grafts onto a leaf, `substitute` replaces a node
by a tree through the readdressing `target` builds, `edge_addrs` and
`edge_colour` list and colour a shape's edges, and `parse_addr` reads one
address, the inverse of its rendering.  `parse_signature` reads a file of
type declarations only, the input of the signature and context tests.
"""

from __future__ import annotations

import itertools

from opetopes.kernel import ParseError
from opetopes.oalg import LambdaMorphism
from opetopes.opetope import (
    ARROW,
    STAR,
    AddressNotALeaf,
    AddressNotANode,
    Addr,
    Arrow,
    ColourMismatch,
    Degenerate,
    Gen,
    Opetope,
    Tree,
    _calibrate,
    _Parser,
    _replace_node,
    corolla,
    enumerate_opetopes,
    epsilon,
    face,
    generators,
    leaf_addrs,
    node_addrs,
    size,
    source,
    target,
    tree,
)
from opetopes.opetope import faces as face_structure
from opetopes.opset import CellId, FinOpSet, Window
from opetopes.theory import Signature, parse_theory


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


def lambda_identity(m: int) -> LambdaMorphism:
    return LambdaMorphism(m, m, tuple(range(m + 1)))


def monotone_maps(m: int, mp: int) -> list[LambdaMorphism]:
    """Direct enumeration of all monotone maps [m] -> [mp]."""
    return [
        LambdaMorphism(m, mp, vals)
        for vals in itertools.combinations_with_replacement(range(mp + 1), m + 1)
    ]


# --------------------------------------------------------------------------
# shape builders


def edge_addrs(omega: Opetope) -> tuple[Addr, ...]:
    """All edge addresses: the root edge plus one edge per node input."""
    if isinstance(omega, Degenerate):
        return (epsilon(omega.dim - 1),)
    if not isinstance(omega, Tree):
        raise ValueError("edge addresses are defined in dimension >= 2")
    out = [epsilon(omega.dim - 1)]
    for a, dec in omega.nodes:
        out.extend(a.extend(q) for q in node_addrs(dec))
    out.sort(key=lambda x: x.key)
    return tuple(out)


def edge_colour(omega: Opetope, addr: Addr) -> Opetope:
    """The shape two dimensions down that decorates an edge."""
    if isinstance(omega, Degenerate):
        if addr == epsilon(omega.dim - 1):
            return omega.shell
        raise AddressNotALeaf(f"a degenerate shape has a single edge, not {addr}")
    if not isinstance(omega, Tree):
        raise ValueError("edges exist in dimension >= 2 only")
    if addr == epsilon(omega.dim - 1):
        return target(omega.decoration(addr))
    parent, q = addr.parent(), addr.last()
    return source(omega.decoration(parent), q)


def _root_edge_colour(t: Opetope) -> Opetope:
    if isinstance(t, Degenerate):
        return t.shell
    if isinstance(t, Tree):
        return target(t.nodes[0][1]) if t.nodes[0][0] == epsilon(t.dim - 1) else None
    raise ValueError("no root edge below dimension 2")


def graft(nu: Opetope, leaf: Addr, x: Opetope) -> Opetope:
    """Graft onto a leaf.  x may be a decoration (one dimension down, grafted
    as its corolla) or a whole tree of the same dimension."""
    if x.dim == nu.dim - 1:
        x = corolla(x)
    elif x.dim != nu.dim:
        raise ColourMismatch(
            f"cannot graft a {x.dim}-dimensional shape onto a {nu.dim}-dimensional tree"
        )
    if isinstance(nu, Degenerate):
        if leaf != epsilon(nu.dim - 1):
            raise AddressNotALeaf(f"no leaf at {leaf}")
        if _root_edge_colour(x) != nu.shell:
            raise ColourMismatch("root edge of the graft does not match the bare edge")
        return x
    if not isinstance(nu, Tree):
        raise ValueError("grafting is defined in dimension >= 2")
    if leaf not in leaf_addrs(nu):
        raise AddressNotALeaf(f"no leaf at {leaf}")
    if isinstance(x, Degenerate):
        if edge_colour(nu, leaf) != x.shell:
            raise ColourMismatch("edge colours differ at the graft point")
        return nu
    if edge_colour(nu, leaf) != _root_edge_colour(x):
        raise ColourMismatch("edge colours differ at the graft point")
    out = nu.node_map()
    for a, dec in x.nodes:
        out[leaf + a] = dec
    return tree(out)


def _child_index(nodes: dict[Addr, Opetope]) -> dict[Addr, set[Addr]]:
    kids: dict[Addr, set[Addr]] = {}
    for a in nodes:
        if a.entries:
            kids.setdefault(a.parent(), set()).add(a)
    return kids


def substitute(t: Opetope, p: Addr, u: Opetope) -> Opetope:
    """Replace the node of t at p by the tree u; t and u share a dimension.

    The rewiring of hanging subtrees is forced by the readdressing of u.
    """
    if u.dim != t.dim:
        raise ColourMismatch("substitution needs equal dimensions")
    if isinstance(t, Arrow):
        if p != STAR:
            raise AddressNotANode("the 1-dimensional shape has a single node *")
        if u != ARROW:
            raise ColourMismatch("only the 1-dimensional shape substitutes into it")
        return ARROW
    if not isinstance(t, Tree):
        raise AddressNotANode("substitution needs a node to replace")
    nodes = t.node_map()
    _replace_node(nodes, _child_index(nodes), p, u)
    return tree(nodes) if nodes else u


def parse_addr(text: str, depth: int) -> Addr:
    """Parse one address at a known depth."""
    p = _Parser(text)
    raw = p.raw_addr()
    if p.peek() is not None:
        raise ParseError(f"trailing input from token {p.peek()!r}")
    return _calibrate(raw, depth)


def parse_signature(text: str) -> Signature:
    """Parse a file of type declarations only."""
    sig, ops, eqns = parse_theory(text)
    if ops.declarations or eqns.equations:
        raise ParseError("a signature file may contain only type declarations")
    return sig

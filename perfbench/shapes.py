"""Seeded shapes with answers known from their construction.

The benchmark never asks the program under test for an expected answer.
Shapes are built here as plain data, and every fact a job's output is
checked against (target, leaf counts, face and square counts, shape
counts of the enumeration) follows from how the shape was built.

A dim-3 shape is a dict from node address to the arity k of its
decoration I_k (k >= 1); a dim-4 shape is a dict from node address to a
dim-3 shape.  Addresses are kept as the text the program prints them as.
"""

from __future__ import annotations

import random


# --------------------------------------------------------------------------
# addresses


def addr1(j: int) -> str:
    """The j-th node address of I_k, a depth-1 address."""
    return "[" + "*" * j + "]"


def child_addr(parent: str, slot: str) -> str:
    """Extend an address by one entry: '[' + entries + slot + ']'."""
    return parent[:-1] + slot + "]"


# --------------------------------------------------------------------------
# dim 3: trees of I_k nodes


def tree3(rng: random.Random, arities: list[int], chain: bool = False) -> dict[str, int]:
    """A dim-3 tree whose nodes, in creation order, are I_k for k in arities.
    Each new node goes into a free input of least depth, chosen at random
    among those, so trees of one size have nearly one depth profile and
    cost; with chain set it goes into the last free input instead, which
    makes one long branch."""
    nodes = {"[]": arities[0]}
    free = [("[]", j, 0) for j in range(arities[0])]
    for k in arities[1:]:
        if chain:
            i = len(free) - 1
        else:
            low = min(d for _, _, d in free)
            i = rng.choice([i for i, (_, _, d) in enumerate(free) if d == low])
        parent, j, depth = free.pop(i)
        addr = child_addr(parent, addr1(j))
        nodes[addr] = k
        free.extend((addr, i, depth + 1) for i in range(k))
    return nodes


def leaves3(t: dict[str, int]) -> int:
    """Leaf count of a dim-3 tree: inputs not filled by a child node."""
    return sum(t.values()) - (len(t) - 1)


def size3(t: dict[str, int]) -> int:
    return sum(1 + k for k in t.values())


def render3(t: dict[str, int]) -> str:
    return "{" + " ".join(f"{a} <- I{k}" for a, k in t.items()) + "}"


def random_arities(rng: random.Random, n: int, kmax: int) -> list[int]:
    """n arities cycling through 1..kmax, shuffled: the leaf count depends
    on n alone, the seed only picks the order."""
    ks = [1 + i % kmax for i in range(n)]
    rng.shuffle(ks)
    return ks


def arities_with_leaves(rng: random.Random, n: int, leaves: int) -> list[int]:
    """n arities >= 1 whose tree has the given leaf count: leaves - 1 extra
    inputs spread over the nodes (a tree has 1 + sum(k - 1) leaves)."""
    ks = [1] * n
    for _ in range(leaves - 1):
        ks[rng.randrange(n)] += 1
    return ks


# --------------------------------------------------------------------------
# dim 4: trees of dim-3 nodes


def tree4(rng: random.Random, n: int, root_nodes: int, child_nodes: int) -> dict[str, dict[str, int]]:
    """A dim-4 tree with n nodes.  A child plugged into the input at node q
    of its parent's decoration must have target I_k, k the arity at q, so
    its decoration is a dim-3 tree with k leaves; the i-th child has
    1 + i % child_nodes nodes."""
    root = tree3(rng, random_arities(rng, root_nodes, 3))
    nodes = {"[]": root}
    free = [("[]", q) for q in root]
    while len(nodes) < n and free:
        parent, q = free.pop(rng.randrange(len(free)))
        k = nodes[parent][q]
        m = 1 + (len(nodes) - 1) % child_nodes
        dec = tree3(rng, arities_with_leaves(rng, m, k))
        addr = child_addr(parent, q)
        nodes[addr] = dec
        free.extend((addr, p) for p in dec)
    return nodes


def leaf_colours4(t: dict[str, dict[str, int]]) -> list[int]:
    """Arity of the I_k at every leaf of a dim-4 tree (inputs with no child)."""
    out = []
    for a, dec in t.items():
        for q, k in dec.items():
            if child_addr(a, q) not in t:
                out.append(k)
    return out


def size4(t: dict[str, dict[str, int]]) -> int:
    return sum(1 + size3(d) for d in t.values())


def render4(t: dict[str, dict[str, int]]) -> str:
    return "{" + " ".join(f"{a} <- {render3(d)}" for a, d in t.items()) + "}"


# --------------------------------------------------------------------------
# facts


def facts(t: dict) -> dict:
    """Counts every job on shape t is checked against.

    Cells of the face complex: a dim-3 tree with n nodes and L leaves has
    itself, n + 1 two-cells, L + n arrows and L + 1 points.  A dim-4 tree
    with n nodes, N leaves, S nodes in all its decorations and root
    decoration of L leaves has itself, n + 1 three-cells, S + 1 two-cells,
    and the arrows and points of its target (N nodes over L leaves).
    Relation squares: one per inner node, one for the root, one per leaf.
    Face lines of the boundary dump: one per generator (sources plus the
    target) of every cell of dimension >= 1.
    """
    dim3 = isinstance(next(iter(t.values())), int)
    n = len(t)
    if dim3:
        leaves = leaves3(t)
        cells = [1, n + 1, leaves + n, leaves + 1]
        boundary_faces = (
            sum(k + 1 for k in t.values()) + (leaves + 1) + 2 * (leaves + n)
        )
        target_gens = leaves + 1
        size = size3(t)
    else:
        leaves = len(leaf_colours4(t))
        root_leaves = leaves3(t["[]"])
        s = sum(len(d) for d in t.values())
        cells = [1, n + 1, s + 1, root_leaves + leaves, root_leaves + 1]
        two_gens = sum(k + 1 for d in t.values() for k in d.values()) + root_leaves + 1
        boundary_faces = (
            sum(len(d) + 1 for d in t.values()) + (leaves + 1) + two_gens
            + 2 * (root_leaves + leaves)
        )
        target_gens = leaves + 1
        size = size4(t)
    total = sum(cells)
    return {
        "dim": 3 if dim3 else 4,
        "size": size,
        "leaves": leaves,
        "cells": total,
        "squares": n + leaves,
        "boundary_cells": total - 1,
        "boundary_faces": boundary_faces,
        "spine_cells": total - 2,
        "spine_faces": boundary_faces - target_gens,
    }


# --------------------------------------------------------------------------
# counting the enumeration


def _poly_mul(a: list[int], b: list[int], m: int) -> list[int]:
    out = [0] * (m + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: m + 1 - i]):
                out[i + j] += x * y
    return out


def _trees3(m: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """Every dim-3 tree of size <= m as (size, leaves, node arities)."""

    def grow(budget: int):
        # trees under one node, as (size, arities)
        for k in range(budget):
            cost = 1 + k
            for rest, used in fill(k, budget - cost):
                yield cost + used, (k,) + rest

    def fill(slots: int, budget: int):
        if slots == 0:
            yield (), 0
            return
        for rest, used in fill(slots - 1, budget):
            yield rest, used
        for sub_size, sub in grow(budget):
            for rest, used in fill(slots - 1, budget - sub_size):
                yield sub + rest, sub_size + used

    out = []
    for s, ks in grow(m + 1):
        if s <= m:
            out.append((s, sum(ks) - len(ks) + 1, ks))
    return out


def count_shapes(dim: int, m: int) -> int:
    """Number of shapes of a dimension with total size <= m, counted from
    the grammar: a degenerate shape on every shape two dimensions down,
    plus trees whose inputs are empty or filled by a matching subtree."""
    if dim == 3:
        return 1 + len(_trees3(m))
    if dim != 4:
        raise ValueError("only dimensions 3 and 4 are counted")
    # dim-3 decorations: trees, plus the degenerate one on the arrow,
    # whose target is I_1 and which has no inputs
    decs = [(s, leaves, ks) for s, leaves, ks in _trees3(m)] + [(0, 1, ())]
    # g[k][s]: dim-4 trees of size s whose root decoration targets I_k
    g = {k: [0] * (m + 1) for k in range(m + 2)}
    for _ in range(m + 1):
        new = {k: [0] * (m + 1) for k in range(m + 2)}
        for s, leaves, ks in decs:
            if 1 + s > m:
                continue
            poly = [0] * (m + 1)
            poly[1 + s] = 1
            for k in ks:
                slot = [1] + g[k][1:]
                poly = _poly_mul(poly, slot, m)
            new[leaves] = [x + y for x, y in zip(new[leaves], poly)]
        g = new
    trees = sum(sum(p) for p in g.values())
    return (m + 1) + trees

"""Generic polynomial-tree engine: enumeration, grafting, substitution."""

from __future__ import annotations

import random

import pytest

from polytree_oracle import (
    AddressNotALeaf,
    AddressNotANode,
    ColourMismatch,
    Corolla,
    Edge,
    PolyFun,
    ReaddressingNotBijective,
    corolla,
    enumerate_trees,
    graft,
    graft_all,
    leaf_addresses,
    n_nodes,
    node_addresses,
    root_colour,
    subtree_at,
    substitute,
    validate_tree,
)

# one colour, one binary node
BIN = PolyFun.build(
    colours=["c"],
    nodes=["b"],
    inputs={"b": [("l", "c"), ("r", "c")]},
    target={"b": "c"},
)

# one colour, one unary node
UN = PolyFun.build(
    colours=["c"],
    nodes=["u"],
    inputs={"u": [("i", "c")]},
    target={"u": "c"},
)

# two colours, mixed arities
MIX = PolyFun.build(
    colours=["x", "y"],
    nodes=["f", "g", "h"],
    inputs={"f": [("a", "x"), ("b", "y")], "g": [], "h": [("a", "x")]},
    target={"f": "x", "g": "y", "h": "y"},
)


def test_enumerate_binary_counts_catalan():
    # full binary trees with k nodes: 1, 1, 2, 5 for k = 0..3
    trees = enumerate_trees(BIN, "c", 3)
    by_size = {}
    for t in trees:
        by_size.setdefault(n_nodes(t), []).append(t)
    assert [len(by_size.get(k, [])) for k in range(4)] == [1, 1, 2, 5]
    assert len(trees) == 9


def test_enumerate_unary_chains():
    trees = enumerate_trees(UN, "c", 3)
    assert len(trees) == 4
    assert sorted(n_nodes(t) for t in trees) == [0, 1, 2, 3]


def test_enumerate_mixed_all_valid():
    for colour in ("x", "y"):
        for t in enumerate_trees(MIX, colour, 4):
            validate_tree(MIX, t, expect_colour=colour)


def test_addresses_of_corolla():
    t = corolla(BIN, "b")
    assert node_addresses(BIN, t) == ((),)
    assert leaf_addresses(BIN, t) == (("l",), ("r",))


def test_addresses_sorted_shallow_first():
    t = Corolla("b", (("l", corolla(BIN, "b")), ("r", Edge("c"))))
    assert node_addresses(BIN, t) == ((), ("l",))
    assert leaf_addresses(BIN, t) == (("r",), ("l", "l"), ("l", "r"))


def test_graft_leaf_counts():
    rng = random.Random(7)
    pool = enumerate_trees(BIN, "c", 4)
    for _ in range(25):
        s = rng.choice(pool)
        t = rng.choice(pool)
        leaves = leaf_addresses(BIN, s)
        if not leaves:
            continue
        l = rng.choice(leaves)
        out = graft(BIN, s, l, t)
        validate_tree(BIN, out, expect_colour="c")
        assert n_nodes(out) == n_nodes(s) + n_nodes(t)
        assert len(leaf_addresses(BIN, out)) == len(leaves) - 1 + len(
            leaf_addresses(BIN, t)
        )


def test_graft_onto_edge_is_identity():
    t = corolla(BIN, "b")
    assert graft(BIN, Edge("c"), (), t) == t
    assert graft(BIN, t, ("l",), Edge("c")) == t


def test_graft_all_order_independent():
    s = corolla(BIN, "b")
    t1 = corolla(BIN, "b")
    out1 = graft_all(BIN, s, {("l",): t1, ("r",): Edge("c")})
    out2 = graft_all(BIN, s, {("r",): Edge("c"), ("l",): t1})
    assert out1 == out2
    assert n_nodes(out1) == 2


def test_graft_rejects_bad_addresses_and_colours():
    s = corolla(MIX, "f")
    with pytest.raises(AddressNotALeaf):
        graft(MIX, s, (), corolla(MIX, "g"))
    with pytest.raises(ColourMismatch):
        # leaf "a" wants colour x, g produces y
        graft(MIX, s, ("a",), corolla(MIX, "g"))
    out = graft(MIX, s, ("b",), corolla(MIX, "g"))
    validate_tree(MIX, out, expect_colour="x")


def test_substitute_identity():
    # replacing a node by the corolla on its own label changes nothing
    t = Corolla("b", (("l", corolla(BIN, "b")), ("r", Edge("c"))))
    re = {("l",): "l", ("r",): "r"}
    assert substitute(BIN, t, ("l",), corolla(BIN, "b"), re) == t


def test_substitute_requires_bijective_readdressing():
    t = Corolla("b", (("l", corolla(BIN, "b")), ("r", Edge("c"))))
    u = Corolla("b", (("l", Edge("c")), ("r", corolla(BIN, "b"))))
    # u has three leaves but the replaced node has two inputs
    re = {("l",): "l", ("r", "l"): "r"}
    with pytest.raises(ReaddressingNotBijective):
        substitute(BIN, t, (), u, re)
    re = {("l",): "l", ("r", "l"): "r", ("r", "r"): "r"}
    with pytest.raises(ReaddressingNotBijective):
        substitute(BIN, t, (), u, re)


def test_substitute_with_unary_inflation():
    # replace the unary node by a two-node chain
    t = corolla(UN, "u")
    u = Corolla("u", (("i", corolla(UN, "u")),))
    out = substitute(UN, t, (), u, {("i", "i"): "i"})
    assert out == u
    assert n_nodes(out) == 2


def test_substitute_rejects_non_node():
    t = corolla(BIN, "b")
    with pytest.raises(AddressNotANode):
        substitute(BIN, t, ("l",), corolla(BIN, "b"), {("l",): "l", ("r",): "r"})


def test_subtree_and_root_colour():
    t = Corolla("f", (("a", corolla(MIX, "f")), ("b", Edge("y"))))
    validate_tree(MIX, t, expect_colour="x")
    assert root_colour(MIX, subtree_at(t, ("a",))) == "x"
    assert root_colour(MIX, t) == "x"

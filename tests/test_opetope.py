"""Shapes, higher addresses, targets, readdressing, hom-sets."""

from __future__ import annotations

import pytest

from opetopes.opetope import (
    ARROW,
    POINT,
    Addr,
    Degenerate,
    ParseError,
    STAR,
    check_identities,
    compose,
    corolla,
    enumerate_opetopes,
    faces,
    hom,
    leaf_addrs,
    node_addrs,
    opetopic_integer,
    parse,
    readdress,
    render,
    size,
    source,
    target,
    tree,
    validate,
)
from opetopes.opetope import AddressNotALeaf, AddressNotANode, ColourMismatch, OMorphism, _target_readdress
from peel_oracle import peel_target_readdress
from scaffold import edge_addrs, edge_colour, graft, parse_addr, substitute

I = opetopic_integer
E1 = Addr(1)
E2 = Addr(2)


def a1(n: int) -> Addr:
    """The depth-1 address [*^n]."""
    return Addr(1, (STAR,) * n)


XI_EX = parse("{ [] <- I3 [[*]] <- I2 [[**]] <- I1 }")


# ---------------------------------------------------------------- addresses


def test_addr_ordering_shallow_then_lex():
    addrs = [E1, a1(1), a1(2), a1(3)]
    assert sorted(addrs, key=lambda a: a.key) == addrs
    nested = [E2, E2.extend(E1), E2.extend(a1(1)), E2.extend(E1).extend(E1)]
    assert sorted(nested, key=lambda a: a.key) == nested


def test_addr_prefix_and_extend():
    p = E2.extend(a1(1))
    assert E2.prefix_of(p)
    assert p.prefix_of(p)
    assert not p.prefix_of(E2)
    assert p.parent() == E2 and p.last() == a1(1)


def test_addr_render_parse_round_trip():
    for a in [STAR, E1, a1(2), E2, E2.extend(a1(1)).extend(E1)]:
        assert parse_addr(str(a), a.depth) == a
    with pytest.raises(ParseError):
        parse_addr("[*]", 2)  # * sits at depth 0, not 1
    assert parse_addr("[]", 5) == Addr(5)  # empty brackets fit any depth >= 1


# ------------------------------------------------------- basic shape algebra


def test_opetopic_integers():
    assert I(0) == Degenerate(POINT)
    for m in range(7):
        w = I(m)
        assert w.dim == 2 and size(w) == m
        assert len(node_addrs(w)) == m  # m source faces
        assert render(w) == f"I{m}"
        assert target(w) == ARROW
        if m > 0:
            assert leaf_addrs(w) == (a1(m),)
            assert readdress(w) == {a1(m): STAR}
            # the corolla on I_m has m leaves again
            assert len(leaf_addrs(corolla(w))) == m


def test_source_and_edge_colours():
    w = I(3)
    for a in node_addrs(w):
        assert source(w, a) == ARROW
    for e in edge_addrs(w):
        assert edge_colour(w, e) == POINT
    assert source(ARROW, STAR) == POINT
    with pytest.raises(AddressNotANode):
        source(w, a1(5))


def test_size_counts_all_levels():
    assert size(XI_EX) == 3 + 3 + 2 + 1
    assert size(Degenerate(I(4))) == 4
    assert size(corolla(I(2))) == 1 + 2


def _node_count(omega) -> int:
    """Nodes counted by walking every decoration, as size once did."""
    if omega in (POINT, ARROW):
        return 0
    if isinstance(omega, Degenerate):
        return _node_count(omega.shell)
    return sum(1 + _node_count(dec) for _, dec in omega.nodes)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_size_is_the_recursive_node_count(dim):
    shapes = enumerate_opetopes(dim, 6)
    assert shapes
    for omega in shapes + tuple(Degenerate(w) for w in shapes):
        assert size(omega) == _node_count(omega)


@pytest.mark.parametrize(
    "text",
    ["point", "arrow", "I0", "I5", "{{arrow}}", "{{I3}}", "{ [] <- I3 [[*]] <- I2 [[**]] <- I1 }"],
)
def test_size_of_parsed_shapes_is_the_recursive_node_count(text):
    omega = parse(text)
    assert size(omega) == _node_count(omega)


# --------------------------------------------------------------- the target


def test_target_of_worked_example():
    assert validate(XI_EX) == []
    assert target(XI_EX) == I(4)
    assert readdress(XI_EX) == {
        E2.extend(E1): E1,
        E2.extend(a1(1)).extend(E1): a1(1),
        E2.extend(a1(1)).extend(a1(1)): a1(2),
        E2.extend(a1(2)).extend(E1): a1(3),
    }


def test_target_collapses_degenerate_node():
    w = parse("{ [] <- I2 [[*]] <- I0 }")
    assert target(w) == I(1)
    assert readdress(w) == {E2.extend(E1): E1}


def test_target_of_degenerate_shapes():
    assert target(I(0)) == ARROW
    assert target(Degenerate(ARROW)) == corolla(ARROW) == I(1)
    assert readdress(Degenerate(ARROW)) == {E2: E1}


def test_target_of_corolla_is_decoration():
    for psi in enumerate_opetopes(2, 4):
        assert target(corolla(psi)) == psi


def test_readdress_is_bijective_onto_target_nodes():
    for n in (2, 3, 4):
        for w in enumerate_opetopes(n, 4):
            p = readdress(w)
            assert sorted(p.keys(), key=lambda a: a.key) == list(leaf_addrs(w))
            assert sorted(p.values(), key=lambda a: a.key) == list(
                node_addrs(target(w))
            )
            assert target(w).dim == w.dim - 1


def test_target_independent_of_peel_order():
    shapes = list(enumerate_opetopes(3, 5)) + list(enumerate_opetopes(4, 4))
    shapes.append(XI_EX)
    for w in shapes:
        for peel_smallest in (False, True):
            assert peel_target_readdress(w, peel_smallest) == _target_readdress(w)


def test_target_matches_peeling_oracle():
    shapes = [w for n in range(2, 6) for w in enumerate_opetopes(n, 7)]
    shapes.append(XI_EX)
    for w in shapes:
        t_oracle, p_oracle = peel_target_readdress(w)
        assert target(w) == t_oracle
        assert readdress(w) == p_oracle


def unary_chain(m: int):
    """The 3-dimensional shape of m nodes decorated by I1, stacked in a line."""
    addr, nodes = E2, {}
    for _ in range(m):
        nodes[addr] = I(1)
        addr = addr.extend(E1)
    return tree(nodes)


def test_target_of_long_shapes():
    w = unary_chain(1200)
    assert target(w) == I(1)
    p, leaves = readdress(w), leaf_addrs(w)
    assert len(leaves) == 1 and list(p) == list(leaves)
    assert sorted(p.values(), key=lambda a: a.key) == list(node_addrs(target(w)))
    assert target(I(5000)) == ARROW


# ------------------------------------------------- grafting and substitution


def test_graft_arrow_corolla_extends_chain():
    assert graft(corolla(ARROW), a1(1), ARROW) == I(2)
    assert graft(I(2), a1(2), ARROW) == I(3)


def test_graft_whole_tree():
    w = graft(corolla(I(2)), E2.extend(E1), corolla(I(1)))
    assert w == parse("{ [] <- I2 [[]] <- I1 }")
    assert validate(w) == []


def test_graft_degenerate_is_neutral():
    assert graft(corolla(I(2)), E2.extend(E1), Degenerate(ARROW)) == corolla(I(2))


def test_graft_rejects_bad_input():
    with pytest.raises(AddressNotALeaf):
        graft(corolla(I(2)), E2, corolla(I(1)))
    with pytest.raises(ColourMismatch):
        graft(corolla(I(2)), E2.extend(E1), POINT)  # dimensions clash
    with pytest.raises(ColourMismatch):
        # the grafted corolla closes off an I2 edge with an I1 target
        graft(corolla(corolla(I(2))), Addr(3, (E2,)), corolla(I(1)))


def test_substitute_by_corolla_is_identity():
    for w in enumerate_opetopes(3, 4):
        for p in node_addrs(w):
            assert substitute(w, p, corolla(source(w, p))) == w
    for p in node_addrs(XI_EX):
        assert substitute(XI_EX, p, corolla(source(XI_EX, p))) == XI_EX


def test_substitute_degenerate_deletes_unary_node():
    w = parse("{ [] <- I2 [[]] <- I1 }")
    assert substitute(w, E2.extend(E1), Degenerate(ARROW)) == corolla(I(2))
    with pytest.raises(ColourMismatch):
        substitute(w, E2, Degenerate(ARROW))  # the root is binary, not unary


def test_substitute_rewires_hanging_subtrees():
    # replace the root of xi_ex by a two-node tree with the same target
    u = parse("{ [] <- I2 [[]] <- I2 }")
    assert target(u) == I(3) == source(XI_EX, E2)
    out = substitute(XI_EX, E2, u)
    assert validate(out) == []
    assert target(out) == target(XI_EX)
    assert size(out) == size(XI_EX) - (1 + 3) + (1 + 2 + 1 + 2)


# -------------------------------------------------- validation and identities


E3 = Addr(3)
BROKEN = tree({E3: corolla(I(2)), E3.extend(E2): corolla(I(1))})


def test_validate_reports_bad_addresses():
    msgs = validate(BROKEN)
    assert len(msgs) == 1 and "[[]]" in msgs[0]
    orphan = tree({E1: ARROW, a1(2): ARROW})
    assert any("parent" in m for m in validate(orphan))
    not_input = tree({E2: I(1), E2.extend(a1(1)): I(0)})
    assert any("not an input" in m for m in validate(not_input))


def test_check_identities_clean_sweep():
    for n in range(2, 5):
        for w in enumerate_opetopes(n, 5):
            assert check_identities(w) == []
    assert check_identities(XI_EX) == []


def test_check_identities_flags_broken_tree():
    assert any("Inner" in m for m in check_identities(BROKEN))


# ---------------------------------------------------------------- enumeration


def test_enumerate_two_dimensional_is_linear():
    for k in (3, 5, 8):
        assert list(enumerate_opetopes(2, k)) == [I(m) for m in range(k + 1)]


def _brute_force_count_dim3(budget: int) -> int:
    # independent model: rooted planar trees whose nodes carry an arity m >= 0
    # and exactly m child slots, each empty or another such tree, with total
    # cost sum(1 + m) <= budget; plus the single degenerate shape
    def trees(cost_left: int) -> list[tuple]:
        out = []
        m = 0
        while 1 + m <= cost_left:
            for kids in products(m, cost_left - (1 + m)):
                out.append((m, kids))
            m += 1
        return out

    def products(k: int, cost_left: int) -> list[tuple]:
        if k == 0:
            return [()]
        out = []
        for first in [None] + trees(cost_left):
            c = tree_cost(first)
            for rest in products(k - 1, cost_left - c):
                out.append((first,) + rest)
        return out

    def tree_cost(t) -> int:
        if t is None:
            return 0
        m, kids = t
        return 1 + m + sum(tree_cost(k) for k in kids)

    return 1 + len(trees(budget))


def test_enumerate_dim3_matches_brute_force():
    for budget in (2, 3, 4):
        assert len(enumerate_opetopes(3, budget)) == _brute_force_count_dim3(budget)


def test_enumerate_all_valid_and_sorted():
    for n in range(5):
        shapes = enumerate_opetopes(n, 4)
        assert len({render(w) for w in shapes}) == len(shapes)
        assert all(validate(w) == [] for w in shapes)
        assert [size(w) for w in shapes] == sorted(size(w) for w in shapes)


def test_enumerate_caps():
    with pytest.raises(ValueError):
        enumerate_opetopes(7, 2)
    with pytest.raises(ValueError):
        enumerate_opetopes(-1, 2)


# ------------------------------------------------------------------- hom-sets


def test_hom_point_into_two_cell():
    assert len(hom(POINT, I(2))) == 3


def test_hom_counts_against_geometry():
    # arrows into a 3-shape are the edges of its pasting tree; points are the
    # vertices of the target chain
    shapes = list(enumerate_opetopes(3, 4)) + [XI_EX]
    for w in shapes:
        assert len(hom(ARROW, w)) == len(edge_addrs(w))
        assert len(hom(POINT, w)) == len(node_addrs(target(w))) + 1


def test_hom_of_worked_example():
    # one morphism per edge of the pasting tree: the three leaf edges and the
    # root edge are identified with inputs and target of the output chain
    ms = hom(ARROW, XI_EX)
    assert [str(m) for m in ms] == [
        "s[].s[]",
        "s[].s[*]",
        "s[].s[**]",
        "s[].t",
        "s[[*]].s[]",
        "s[[*]].s[*]",
        "s[[**]].s[]",
    ]


def test_hom_same_dimension():
    assert len(hom(XI_EX, XI_EX)) == 1
    assert hom(I(2), I(3)) == ()
    assert len(hom(I(3), XI_EX)) == 1  # the source face at the root
    assert len(hom(I(4), XI_EX)) == 1  # the target face


def test_hom_contravariant_sizes():
    # every face of a face is a face
    fs = faces(XI_EX)
    for c in fs.cells():
        assert fs.shape_of(c).dim <= 3


def test_compose_functorial():
    w = XI_EX
    for f in hom(I(3), w):
        for g in hom(ARROW, I(3)):
            fg = compose(f, g)
            assert fg.src == ARROW and fg.dst == w
            assert fg.word in {m.word for m in hom(ARROW, w)}
            for h in hom(POINT, ARROW):
                assert compose(compose(f, g), h) == compose(f, compose(g, h))
    for f in hom(ARROW, w):
        assert compose(f, OMorphism(ARROW, ARROW, ())) == f
        assert compose(OMorphism(w, w, ()), f) == f


def test_target_cell_identified_with_glob_faces():
    fs = faces(I(2))
    t = fs.target_cell()
    # Glob2: the outer leaf edge of the chain equals the target's same input
    left = fs.cell_of_word((("s", a1(1)), ("s", STAR)))
    right = fs.cell_of_word((("t",), ("s", STAR)))
    assert left == right
    assert fs.shape_of(t) == ARROW


# ------------------------------------------------------------------ text form


def test_parse_render_round_trip():
    samples = [
        "point",
        "arrow",
        "I0",
        "I4",
        "{{arrow}}",
        "{{I2}}",
        "{[] <- I3 [[*]] <- I2 [[**]] <- I1}",
        "{[] <- {[] <- I1} [[[]]] <- {{arrow}}}",
    ]
    for s in samples:
        w = parse(s)
        assert parse(render(w)) == w
    assert render(parse("{{ arrow }}")) == "{{arrow}}"
    assert parse("{[]<-I2 [[*]]<-I0}") == parse("{ [] <- I2 [[*]] <- I0 }")


def test_parse_errors():
    for bad in ["", "I", "Ix", "{}", "{ [] <- }", "{ [] <- I2", "arrow point", "{{arrow}"]:
        with pytest.raises(ParseError):
            parse(bad)

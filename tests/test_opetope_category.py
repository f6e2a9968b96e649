"""The category of opetopes, and opetopic sets as presheaves on it.

The shapes of a window under a node bound, with the face maps between
them, form a finite direct category (`paper_results.opetope_category`),
and an opetopic set is a presheaf on it (`as_presheaf`).  The inputs are
the terminal sets of five windows and node bounds, nerves of generated
categories at the node bound 3, the representables, spines and
boundaries of their shapes, and sets that differ from these in one face
entry, redirected or removed.  Checked:

(a) validate_presheaf passes on the presheaf exactly when validate_opset
    passes on the set;
(b) psh_maps and opset.maps find the same maps;
(c) naming each morphism into a shape by its least face word is a natural
    bijection from representable_psh onto the representable, and it
    takes boundary_c onto the boundary;
(d) realizing the extended context of a shape's type in the category's
    signature gives the representable of the shape, read along
    roundtrip_isomorphism: each morphism is its variable, the identity
    the new one.

(c) and (d) range over the objects of the terminal sets' categories; a
nerve at the node bound 3 has the shapes of the terminal set over [0, 3]
at that bound, so they cover nerves too.  At the window [0, 1] the signature is the graph signature of the paper's
opening.
"""

from __future__ import annotations

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opetopes.kernel import PshMap, check_psh_map
from opetopes.oalg import nerve_category
from opetopes.opset import FinOpSet, boundary, maps, representable, spine, validate_opset
from opetopes.theory import (
    FinPresheafC,
    SortExpr,
    Term,
    _cover_variables,
    lfd_to_signature,
    realize_bindings,
    roundtrip_isomorphism,
    validate_lfd,
)

from paper_results import (
    OpetopeCategory,
    as_presheaf,
    boundary_c,
    opetope_category,
    psh_maps,
    representable_psh,
    validate_presheaf,
)
from scaffold import terminal_opset
from test_properties import categories, monoid_category, posets

# (window, node bound) -> (objects, morphisms) of the category of its shapes
TERMINAL = {
    ((0, 1), 1): (2, 4),
    ((0, 2), 3): (6, 28),
    ((0, 2), 5): (8, 52),
    ((1, 2), 4): (6, 21),
    ((0, 3), 3): (11, 61),
}
TERMINAL_SETS = {key: terminal_opset(*key) for key in TERMINAL}
NERVE_BOUND = 3


@cache
def category_of(shapes: tuple) -> OpetopeCategory:
    return opetope_category(list(shapes))


def category(X: FinOpSet) -> OpetopeCategory:
    """The category of X's shapes, built once per list of shapes."""
    return category_of(tuple(X.shapes()))


@pytest.mark.parametrize("key", TERMINAL, ids=str)
def test_the_shapes_of_a_window_form_a_finite_direct_category(key):
    O = category(TERMINAL_SETS[key])
    assert (len(O.objects), len(O.morphisms)) == TERMINAL[key]
    assert validate_lfd(O).ok
    assert roundtrip_isomorphism(O, lfd_to_signature(O)) is not None


@settings(max_examples=25, deadline=None)
@given(categories)
def test_nerves_live_on_the_shapes_of_a_terminal_set(C):
    assert category(nerve_category(C, NERVE_BOUND)) == category(TERMINAL_SETS[(0, 3), 3])


def test_the_window_zero_one_signature_is_the_graph_signature():
    O = category(TERMINAL_SETS[(0, 1), 1])
    assert [str(d) for d in lfd_to_signature(O).declarations] == [
        "|- point type",
        "x0: point, x1: point |- arrow(x0, x1) type",
    ]


# --- inputs ------------------------------------------------------------------


def parts(X: FinOpSet) -> list[FinOpSet]:
    """X, then the representable, spine and boundary of each of its shapes."""
    out = [X]
    for w in X.shapes():
        out.append(representable(w, X.window))
        if w.dim >= 1:
            out += [spine(w, X.window).src, boundary(w, X.window).src]
    return out


def perturbations(X: FinOpSet):
    """Each set that differs from X in one face entry, removed or
    redirected to another cell."""
    for key, y in X.face.items():
        for z in [None] + [z for z in X.sort if z != y]:
            face = {k: v for k, v in X.face.items() if k != key}
            if z is not None:
                face[key] = z
            yield FinOpSet(X.window, X.cells, face)


@st.composite
def bases(draw) -> FinOpSet:
    """A terminal set or the nerve of a generated category."""
    if draw(st.booleans()):
        return draw(st.sampled_from(list(TERMINAL_SETS.values())))
    return nerve_category(draw(categories), NERVE_BOUND)


@st.composite
def cases(draw) -> tuple[FinOpSet, FinOpSet]:
    """A base, and one of its parts, maybe with one face entry removed or
    redirected, to a cell of the shape it had or to any cell."""
    base = draw(bases())
    X = draw(st.sampled_from(parts(base)))
    if X.face and draw(st.booleans()):
        key = draw(st.sampled_from(list(X.face)))
        face = dict(X.face)
        same_shape = X.cells[X.sort[face.pop(key)]]
        y = draw(st.one_of(st.none(), st.sampled_from(same_shape), st.sampled_from(list(X.sort))))
        if y is not None:
            face[key] = y
        X = FinOpSet(X.window, X.cells, face)
    return base, X


# --- (a) the two validators agree ---------------------------------------------


def validators_agree(X: FinOpSet, O: OpetopeCategory) -> bool:
    return (validate_presheaf(as_presheaf(X, O)) == []) == (validate_opset(X) == [])


@pytest.mark.parametrize("key", TERMINAL, ids=str)
def test_validators_agree_on_every_change_of_one_face_of_a_terminal_set(key):
    X = TERMINAL_SETS[key]
    O = category(X)
    assert validators_agree(X, O)
    assert all(validators_agree(Y, O) for Y in perturbations(X))


@settings(max_examples=100, deadline=None)
@given(cases())
def test_validators_agree(case):
    base, X = case
    assert validators_agree(X, category(base))


# --- (b) the two map searches agree -------------------------------------------


def searches_agree(X: FinOpSet, Y: FinOpSet, O: OpetopeCategory) -> bool:
    """psh_maps and opset.maps find the same maps, each in its own order."""
    found = psh_maps(as_presheaf(X, O), as_presheaf(Y, O))
    return sorted(sorted(f.comp.items()) for f in found) == sorted(
        sorted(f.comp.items()) for f in maps(X, Y)
    )


@settings(max_examples=40, deadline=None)
@given(bases(), st.data())
def test_presheaf_maps_are_opetopic_set_maps(base, data):
    X = data.draw(st.sampled_from(parts(base)))
    Y = data.draw(st.sampled_from(parts(base)))
    assert searches_agree(X, Y, category(base))


# at most three objects or elements: maps from a 4-chain to a 4-monoid
# take seconds to search
small_categories = st.one_of(
    posets().filter(lambda P: len(P.objects) <= 3),
    st.builds(monoid_category, st.sampled_from(["cyclic", "leftzero"]), st.integers(1, 3)),
)


@settings(max_examples=25, deadline=None)
@given(small_categories, small_categories)
def test_functors_are_found_as_presheaf_maps_of_nerves(C, D):
    X, Y = nerve_category(C, NERVE_BOUND), nerve_category(D, NERVE_BOUND)
    assert searches_agree(X, Y, category(X))


# --- (c) and (d): representables and boundaries ------------------------------


@pytest.mark.parametrize("key", TERMINAL, ids=str)
def test_the_representables_of_the_two_kinds_are_one(key):
    X = TERMINAL_SETS[key]
    O = category(X)
    for w, o in zip(O.shapes, O.objects):
        Y = representable_psh(O, o)
        R = as_presheaf(representable(w, X.window), O)
        # the least face word of a morphism o:word, which names its cell in R
        f = PshMap(Y, R, {m: m.removeprefix(f"{o}:") for m in Y.sort})
        assert check_psh_map(f) == []
        assert sorted(f.comp.values()) == sorted(R.sort)
        if w.dim >= 1:
            inner = set(boundary(w, X.window).src.sort)
            assert {f(m) for m in boundary_c(O, o).src.sort} == inner


@pytest.mark.parametrize("key", TERMINAL, ids=str)
def test_the_extended_context_of_a_shape_realizes_its_representable(key):
    O = category(TERMINAL_SETS[key])
    sig = lfd_to_signature(O)
    back = {m: f for f, m in roundtrip_isomorphism(O, sig).items() if f in O.morphisms}
    cover = _cover_variables(O, tuple(d.name for d in sig.declarations))
    for o in O.objects:
        decl = sig.decl(o)
        top = SortExpr(o, tuple(Term(v) for v in decl.arg_order))
        R = realize_bindings(sig, decl.context + (("top", top),))
        read = FinPresheafC(O, R.cells, {(x, back[m]): y for (x, m), y in R.restriction.items()})
        Y = representable_psh(O, o)
        f = PshMap(Y, read, {m: cover[o].get(m, "top") for m in Y.sort})
        assert check_psh_map(f) == []
        assert sorted(f.comp.values()) == sorted(read.sort)

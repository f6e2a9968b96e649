"""The natural-map search against the oracle that scans every sort.

`kernel.natural_maps` takes a chosen cell's values from a face index when
one of its faces is assigned, and `kernel.propagate` compares sorts by
their interned ids.  `search_oracle` keeps the search without either.
Over representables and boundaries of generated posets, realized graph
contexts, and nerves of small posets and monoids read back through
`load_opset` (their sorts are parsed again, so equal sorts are distinct
objects), with representables, boundaries and spines of the nerve's
shapes and other nerves as sources: in a random search order, plain and
injective search yield the oracle's maps in the oracle's order, and
propagate returns the oracle's first disagreeing pair with the same
partial map and trail.

The index cuts the search: the propagate calls of the boundary of I3
against the nerve of the 8-object chain are bounded well under the
17,862 of the scanning search.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import search_oracle
from opetopes import kernel
from opetopes.oalg import nerve_category
from opetopes.opetope import parse
from opetopes.opset import (
    FinOpSet,
    boundary,
    dump_opset,
    load_opset,
    orthogonal_witness,
    representable,
    spine,
)
from opetopes.kernel import natural_maps, propagate

from test_properties import categories, graph_contexts, poset_category, poset_presheaf, posets

SETTINGS = settings(max_examples=150, deadline=None)


def loaded_nerve(C, bound: int):
    """The nerve of C at the shape bound, written out and read back."""
    return load_opset(dump_opset(nerve_category(C, bound)))


def nerve_source(N, data):
    """A representable of one of N's shapes, a boundary or spine of one of
    its shapes of dimension 1 or more, or N."""
    kind = data.draw(st.sampled_from(["representable", "boundary", "spine", "nerve"]))
    if kind == "nerve":
        return N
    if kind == "representable":
        return representable(data.draw(st.sampled_from(N.shapes())), N.window)
    w = data.draw(st.sampled_from([w for w in N.shapes() if w.dim >= 1]))
    return {"boundary": boundary, "spine": spine}[kind](w, N.window).src


@st.composite
def presheaf_pairs(draw):
    """(src, dst) of one of the three kinds, src drawn first; nerves, whose
    shapes share generators, are drawn as often as the other two."""
    kind = draw(st.sampled_from(["poset", "graph", "nerve", "nerve"]))
    if kind == "poset":
        P = draw(posets())
        data = draw(st.data())
        return poset_presheaf(P, data), poset_presheaf(P, data)
    if kind == "graph":
        return draw(graph_contexts()), draw(graph_contexts())
    dst = loaded_nerve(draw(categories), draw(st.integers(0, 2)))
    src = nerve_source(dst, draw(st.data()))
    if src is dst:
        src = loaded_nerve(draw(categories), draw(st.integers(0, 1)))
    return src, dst


@SETTINGS
@given(presheaf_pairs(), st.data())
def test_search_yields_the_oracles_maps_in_its_order(pair, data):
    src, dst = pair
    order = data.draw(st.permutations(list(src.sort)))
    for injective in (False, True):
        want = list(search_oracle.natural_maps(order, src, dst, injective))
        assert list(natural_maps(order, src, dst, injective)) == want


@SETTINGS
@given(presheaf_pairs(), st.data())
def test_propagate_stops_at_the_oracles_first_disagreement(pair, data):
    src, dst = pair
    if not (src.sort and dst.sort):
        return  # no pair to propagate
    cells = st.tuples(st.sampled_from(list(src.sort)), st.sampled_from(list(dst.sort)))
    comp, trail, want_comp, want_trail = {}, [], {}, []
    for _ in range(data.draw(st.integers(1, 3))):
        pairs = data.draw(st.lists(cells, min_size=1, max_size=3))
        got = propagate(pairs, comp, trail, src, dst)
        assert got == search_oracle.propagate(pairs, want_comp, want_trail, src, dst)
        assert (comp, trail) == (want_comp, want_trail)


def test_boundary_search_against_a_chain_nerve_is_cut_by_the_index(monkeypatch):
    # the nerve of 0 < 1 < ... < 7 in the window [0, 2], chains up to length 3
    N = nerve_category(poset_category(8, {(i, i + 1) for i in range(7)}), 3)
    X = FinOpSet(
        (0, 2),
        {w: xs for w, xs in N.cells.items() if w.dim <= 2},
        {k: y for k, y in N.faces.items() if N.sort[k[0]].dim <= 2},
    )
    calls = []

    def counting(*args):
        calls.append(args)
        return propagate(*args)

    monkeypatch.setattr(kernel, "propagate", counting)
    assert orthogonal_witness(parse("I3"), boundary, X) is None
    assert 0 < len(calls) <= 4000

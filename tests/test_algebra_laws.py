"""The algebra-law check against its oracle, and the per-shape work it does
once: one map search per flattened shape, one face-word walk per shape."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import laws_oracle
from opetopes import oalg
from opetopes.oalg import (
    FiniteCategory,
    OAlgebra,
    _height_two_shapes,
    category_algebra,
    category_family,
    check_algebra_laws,
    ensure_category,
    free_cells,
    parse_category,
    pasting_chain,
)
from opetopes.opetope import ARROW, FaceStructure, opetopic_integer, size, target

CHAIN_CAT = """
obj a b c
mor ia: a -> a
mor ib: b -> b
mor ic: c -> c
mor f: a -> b
mor g: b -> c
mor gf: a -> c
comp g.f = gf
id a = ia
id b = ib
id c = ic
"""


def poset(n: int, related: set[tuple[int, int]]) -> FiniteCategory:
    """The poset on 0..n-1 generated by the pairs i < j in related."""
    order = set(related) | {(i, i) for i in range(n)}
    grown = True
    while grown:
        more = {(i, k) for i, j in order for j2, k in order if j == j2}
        grown = not more <= order
        order |= more
    m = {(i, j): f"m{i}_{j}" for i, j in order}
    return FiniteCategory(
        tuple(f"o{i}" for i in range(n)),
        {name: (f"o{i}", f"o{j}") for (i, j), name in m.items()},
        {(m[(j, k)], m[(i, j)]): m[(i, k)] for i, j in order for j2, k in order if j == j2},
        {f"o{i}": m[(i, i)] for i in range(n)},
    )


def cyclic_monoid(k: int) -> FiniteCategory:
    """Z/k as a one-object category with elements z0..z(k-1)."""
    z = [f"z{i}" for i in range(k)]
    return FiniteCategory(
        ("p",),
        {e: ("p", "p") for e in z},
        {(z[i], z[j]): z[(i + j) % k] for i in range(k) for j in range(k)},
        {"p": "z0"},
    )


@st.composite
def categories(draw) -> FiniteCategory:
    kind = draw(st.sampled_from(["chain", "poset", "monoid"]))
    if kind == "monoid":
        return cyclic_monoid(draw(st.integers(1, 3)))
    n = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "chain":
        return poset(n, set(pairs))
    return poset(n, {p for p in pairs if draw(st.booleans())})


def composite_rule(C: FiniteCategory, chain, wrong=None):
    """Compose a pasting's path along C's table; wrong, if given, is a path
    (start, edges) and the value the rule gives it instead."""

    def rule(cell):
        start, edges = chain(cell)
        if wrong is not None and (start, edges) == wrong[0]:
            return wrong[1]
        return f"a.{C.chain_composite(start[2:], tuple(e[2:] for e in edges))}"

    return rule


def star_rule(C: FiniteCategory, chain):
    """Fold a path with the non-associative a * b = m[max(a - b, 0)], the
    morphisms numbered in name order."""
    names = sorted(C.morphisms)

    def rule(cell):
        start, edges = chain(cell)
        if not edges:
            return f"a.{C.identities[start[2:]]}"
        c = names.index(edges[0][2:])
        for e in edges[1:]:
            c = max(names.index(e[2:]) - c, 0)
        return f"a.{names[c]}"

    return rule


@st.composite
def laws_cases(draw):
    C = draw(categories())
    # squares start at bound 4, and most of them lie at the top bounds
    bound = draw(st.one_of(st.integers(1, 7), st.integers(6, 7)))
    kind = draw(st.sampled_from(["composite", "wrong", "star"]))
    wrong = None
    if kind == "wrong":
        tip = start = draw(st.sampled_from(C.objects))
        edges = []
        for choice in draw(st.lists(st.integers(0, 9), min_size=1, max_size=2)):
            out = sorted(f for f, (a, _) in C.morphisms.items() if a == tip)
            edges.append(f"a.{out[choice % len(out)]}")
            tip = C.tgt(edges[-1][2:])
        right = C.chain_composite(start, tuple(e[2:] for e in edges))
        others = sorted(set(C.morphisms) - {right}) or [right]
        value = f"a.{draw(st.sampled_from(others))}"
        wrong = ((f"o.{start}", tuple(edges)), value)
    return C, bound, kind, wrong


@settings(max_examples=200, deadline=None)
@given(laws_cases())
def test_laws_match_the_oracle(case):
    C, bound, kind, wrong = case
    ensure_category(C)
    X = category_family(C)
    if kind == "star":
        A = OAlgebra(X, star_rule(C, pasting_chain), bound)
        B = OAlgebra(X, star_rule(C, laws_oracle.pasting_chain), bound)
    elif kind == "wrong":
        A = OAlgebra(X, composite_rule(C, pasting_chain, wrong), bound)
        B = OAlgebra(X, composite_rule(C, laws_oracle.pasting_chain, wrong), bound)
    else:
        A = category_algebra(C, bound)
        B = OAlgebra(X, composite_rule(C, laws_oracle.pasting_chain), bound)
    report = check_algebra_laws(A)
    assert report == laws_oracle.check_algebra_laws(B, bound)
    if kind == "composite":
        assert report.ok


def test_the_nonassociative_rule_fails_like_the_oracle():
    C = cyclic_monoid(3)
    X = category_family(C)
    report = check_algebra_laws(OAlgebra(X, star_rule(C, pasting_chain), 8))
    oracle = OAlgebra(X, star_rule(C, laws_oracle.pasting_chain), 8)
    assert report.failures
    assert report == laws_oracle.check_algebra_laws(oracle, 8)


def test_laws_search_each_flattened_shape_once(monkeypatch):
    searched = []
    real = oalg.maps
    monkeypatch.setattr(oalg, "maps", lambda S, X: searched.append(S) or real(S, X))
    check_algebra_laws(category_algebra(parse_category(CHAIN_CAT), 7))
    shapes = [xi for xi in _height_two_shapes(1, 7) if size(target(xi)) <= 7]
    flattened = {target(xi) for xi in shapes}
    assert len(searched) == len(flattened) < len(shapes)


def test_composing_pastings_of_one_shape_walks_its_words_once(monkeypatch):
    A = category_algebra(parse_category(CHAIN_CAT), 6)
    cells = [c for c in free_cells(A.base, ARROW, 6) if c.shape == opetopic_integer(6)]
    walks = []
    real = FaceStructure.cell_of_word
    monkeypatch.setattr(
        FaceStructure, "cell_of_word", lambda fs, word: walks.append(word) or real(fs, word)
    )
    A.compose(cells[0])
    first = len(walks)
    for cell in cells:
        A.compose(cell)
    assert len(cells) > 1
    assert len(walks) == first


def test_laws_compose_each_distinct_pasting_once(monkeypatch):
    ran = []
    real = oalg.pasting_chain
    monkeypatch.setattr(oalg, "pasting_chain", lambda cell: ran.append(cell) or real(cell))
    C = parse_category(CHAIN_CAT)
    check_algebra_laws(category_algebra(C, 8))
    oracle_ran = []

    def chain(cell):
        oracle_ran.append(cell)
        return laws_oracle.pasting_chain(cell)

    laws_oracle.check_algebra_laws(OAlgebra(category_family(C), composite_rule(C, chain), 8), 8)

    def pasting(cell):
        return cell.shape, tuple(sorted(cell.filling.comp.items()))

    distinct = {pasting(cell) for cell in oracle_ran}
    assert sorted(map(pasting, ran), key=repr) == sorted(distinct, key=repr)
    assert len(ran) < len(oracle_ran)


def test_laws_at_each_algebra_bound_match_the_oracle():
    # the check runs at the algebra's own bound, so it reaches no pasting
    # the algebra refuses
    C = cyclic_monoid(3)
    X = category_family(C)
    for own in range(1, 8):
        report = check_algebra_laws(OAlgebra(X, star_rule(C, pasting_chain), own))
        oracle = OAlgebra(X, star_rule(C, laws_oracle.pasting_chain), own)
        assert report == laws_oracle.check_algebra_laws(oracle, own), own
    assert report.failures

"""`theory.check_model` against the recursive oracle `model_oracle`.

Models are category models of the theory of categories (posets times
Z/k, one-object monoids and discrete categories), monoid models of the
theory of monoids, whose unit is a constant, and models of a theory with
operations of arity 0 to 3 applied to variables, constants and nested
applications in every argument position.  Each may be perturbed: a
table value swapped for another element, a table row deleted or added, a
carrier deleted or emptied.  Checked: `check_model` returns the oracle's
report, its problems in order and every count and first witness.  On a
discrete category of 12 objects, `check_model` looks up few carriers,
since it drops a prefix as soon as a later carrier is fixed and empty.
"""

from __future__ import annotations

from collections.abc import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from opetopes.theory import (
    Equation,
    EquationSet,
    Model,
    SortExpr,
    Term,
    check_model,
    parse_theory,
)

from model_oracle import oracle_check_model
from test_theory import TCAT

TMON = parse_theory(
    "|- M type\n"
    "|- e() : M\n"
    "x y : M |- m(x, y) : M\n"
    "x : M |- m(e, x) = x : M\n"
    "x : M |- m(x, e) = x : M\n"
    "x y z : M |- m(m(x, y), z) = m(x, m(y, z)) : M\n"
)
THEORY_OF_CATEGORIES = parse_theory(TCAT)
# operations of arity 0 to 3, whose arguments are variables, constants
# (bare and applied) and nested applications in every position
TARITY = parse_theory(
    "|- M type\n"
    "|- e() : M\n"
    "x : M |- n(x) : M\n"
    "x y : M |- m(x, y) : M\n"
    "x y z : M |- t(x, y, z) : M\n"
    "x : M |- n(n(x)) = x : M\n"
    "|- n(e) = e() : M\n"
    "x : M |- m(e, x) = m(x, e()) : M\n"
    "x y z : M |- m(m(x, y), z) = m(x, m(y, z)) : M\n"
    "x y z : M |- t(x, y, z) = m(x, m(y, z)) : M\n"
    "x y : M |- t(m(x, y), n(y), e) = t(e, x, n(n(e))) : M\n"
    "x y : M |- m(n(x), n(y)) = n(m(y, x)) : M\n"
)


def category_model(objects, morphisms: dict, identity: dict, compose) -> Model:
    """The model of the theory of categories with these objects,
    morphisms (name -> (source, target)), identities and composition."""
    sorts = {("V", ()): tuple(objects)}
    for f, ab in morphisms.items():
        sorts[("E", ab)] = sorts.get(("E", ab), ()) + (f,)
    ops = {
        "i": {(a,): identity[a] for a in objects},
        "c": {
            (g, f): compose(g, f)
            for g, (b, _) in morphisms.items()
            for f, (_, b2) in morphisms.items()
            if b2 == b
        },
    }
    return Model(sorts, ops)


@st.composite
def poset_times_cyclic(draw):
    """A poset on up to 4 objects times Z/k; a discrete category when the
    poset has no relations and k is 1."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    le = {(i, i) for i in range(n)}
    le |= set(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ())
    while True:
        more = {(i, l) for i, j in le for j2, l in le if j == j2} - le
        if not more:
            break
        le |= more
    obj = [f"o{i}" for i in range(n)]
    arrow = {f"m{i}{j}r{r}": (i, j, r) for i, j in sorted(le) for r in range(k)}

    def compose(g: str, f: str) -> str:
        (i, _, r1), (_, l, r2) = arrow[f], arrow[g]
        return f"m{i}{l}r{(r1 + r2) % k}"

    morphisms = {m: (obj[i], obj[j]) for m, (i, j, _) in arrow.items()}
    return category_model(obj, morphisms, {a: f"m{i}{i}r0" for i, a in enumerate(obj)}, compose)


def discrete(n: int) -> Model:
    obj = [f"o{i}" for i in range(n)]
    return category_model(obj, {f"i{a}": (a, a) for a in obj}, {a: f"i{a}" for a in obj},
                          lambda g, f: g)


MONOIDS = {
    # Z/size, and a unit e0 plus size-1 left zeros (g after f is g unless g is e0)
    "cyclic": lambda g, f, size: (g + f) % size,
    "leftzero": lambda g, f, size: f if g == 0 else g,
}


@st.composite
def monoid_model(draw, as_category: bool):
    size, mul = draw(st.integers(1, 4)), MONOIDS[draw(st.sampled_from(sorted(MONOIDS)))]
    elems = [f"e{i}" for i in range(size)]

    def compose(g: str, f: str) -> str:
        return elems[mul(int(g[1:]), int(f[1:]), size)]

    if as_category:
        return category_model(["o"], {e: ("o", "o") for e in elems}, {"o": "e0"}, compose)
    table = {(g, f): compose(g, f) for g in elems for f in elems}
    return Model({("M", ()): tuple(elems)}, {"e": {(): "e0"}, "m": table})


@st.composite
def arity_model(draw) -> Model:
    """A model of TARITY on up to 3 elements: e any element, n negation
    mod size or the identity, m one of MONOIDS, and t the product of its
    three arguments in order or in reverse.  Only some of them satisfy
    every equation."""
    size, unit = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    elems = [f"e{i}" for i in range(size)]
    mul = MONOIDS[draw(st.sampled_from(sorted(MONOIDS)))]
    neg, reverse = draw(st.booleans()), draw(st.booleans())

    def m(x: int, y: int) -> int:
        return mul(x, y, size)

    def t(x: int, y: int, z: int) -> int:
        return m(z, m(y, x)) if reverse else m(x, m(y, z))

    tables = {
        "e": {(): elems[unit % size]},
        "n": {(elems[x],): elems[-x % size if neg else x] for x in range(size)},
        "m": {(elems[x], elems[y]): elems[m(x, y)] for x in range(size) for y in range(size)},
        "t": {
            (elems[x], elems[y], elems[z]): elems[t(x, y, z)]
            for x in range(size) for y in range(size) for z in range(size)
        },
    }
    return Model({("M", ()): tuple(elems)}, tables)


@st.composite
def perturbed(draw, M: Model) -> Model:
    """M with up to two perturbations, each on a copy of its tables."""
    sorts, ops = dict(M.sorts), {name: dict(t) for name, t in M.ops.items()}
    elements = sorted({e for c in sorts.values() for e in c}) + ["zz"]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["swap", "delete-row", "extra-row", "delete-carrier",
                                     "empty-carrier"]))
        if kind.endswith("carrier"):
            if not sorts:
                continue
            key = draw(st.sampled_from(sorted(sorts)))
            if kind == "delete-carrier":
                del sorts[key]
            else:
                sorts[key] = ()
            continue
        name = draw(st.sampled_from(sorted(ops)))
        rows = sorted(ops[name])
        if kind == "extra-row" or not rows:
            arity = len(rows[0]) if rows else 1
            key = tuple(draw(st.lists(st.sampled_from(elements), min_size=arity, max_size=arity)))
            ops[name][key] = draw(st.sampled_from(elements))
        elif kind == "swap":
            ops[name][draw(st.sampled_from(rows))] = draw(st.sampled_from(elements))
        else:
            del ops[name][draw(st.sampled_from(rows))]
    return Model(sorts, ops)


cases = st.one_of(
    st.tuples(st.just(THEORY_OF_CATEGORIES),
              st.one_of(poset_times_cyclic(), monoid_model(True),
                        st.builds(discrete, st.integers(1, 6)))),
    st.tuples(st.just(TMON), monoid_model(False)),
    st.tuples(st.just(TARITY), arity_model()),
).flatmap(lambda case: st.tuples(st.just(case[0]), perturbed(case[1])))


@settings(max_examples=200, deadline=None)
@given(cases)
def test_check_model_matches_the_oracle(case):
    theory, M = case
    assert check_model(theory, M) == oracle_check_model(theory, M)


def test_unbound_name_matches_the_oracle():
    """An equation built by hand, past parse_theory, that names a variable
    its context lacks reports it as the oracle does."""
    sig, ops, eqns = THEORY_OF_CATEGORIES
    V = SortExpr("V")
    stray = Equation((("x", V), ("y", V)), Term("i", (Term("x"),)), Term("q"), V, 1)
    theory = (sig, ops, EquationSet(eqns.equations + (stray,)))
    M = discrete(2)
    report = check_model(theory, M)
    assert report == oracle_check_model(theory, M)
    assert report.equations[-1].witness == "x = o0, y = o0 (unbound q)"


class CountingSorts(Mapping):
    """A carrier mapping that counts its lookups: `get`, `in` and `items`
    all go through `__getitem__`."""

    def __init__(self, sorts: dict):
        self.sorts, self.lookups = sorts, 0

    def __getitem__(self, key):
        self.lookups += 1
        return self.sorts[key]

    def __iter__(self):
        return iter(self.sorts)

    def __len__(self) -> int:
        return len(self.sorts)


def test_a_discrete_category_costs_few_carrier_lookups():
    """With only identities, x, y, z, w of associativity run over the
    12 * 12 * 12 * 12 prefixes unless an empty E(x, y) drops a prefix as
    soon as x and y are bound."""
    M = discrete(12)
    counting = CountingSorts(M.sorts)
    report = check_model(THEORY_OF_CATEGORIES, Model(counting, M.ops))
    assert report.ok
    assert [e.checked for e in report.equations] == [12, 12, 12]
    assert counting.lookups <= 2000

"""The category of a type signature by search: an independent oracle.

A morphism from declaration a to declaration b is found as a
sort-compatible map from the variables of a's extended context (its
context, then `@`, a variable of the declared type) into the variables of
b's, by backtracking over a's variables in turn.  Composites are built
for every composable pair by composing the two maps, and the pairs with
an identity are dropped afterwards.  The tests compare
`theory.signature_category`, which reads each morphism off the variable
that `@` goes to, against this search.
"""

from __future__ import annotations

from opetopes.theory import FinDirectCat, Signature, SortExpr, Term, TypeDecl

SELF = "@"


def decl_vars(decl: TypeDecl) -> tuple[str, ...]:
    return tuple(v for v, _ in decl.context) + (SELF,)


def decl_sorts(decl: TypeDecl) -> dict[str, SortExpr]:
    out = dict(decl.context)
    out[SELF] = SortExpr(decl.name, tuple(Term(v) for v in decl.arg_order))
    return out


def subst(s: SortExpr, theta: dict[str, str]) -> SortExpr:
    """s with each variable argument renamed by theta."""
    return SortExpr(s.head, tuple(Term(theta[a.head]) for a in s.args))


def assignments(src: TypeDecl, dst: TypeDecl) -> list[tuple[str, ...]]:
    """Sort-compatible maps from the variables of src's extended context
    into the variables of dst's extended context, in the order the
    backtracking finds them."""
    svars = decl_vars(src)
    ssorts = decl_sorts(src)
    dsorts = decl_sorts(dst)
    out: list[tuple[str, ...]] = []

    def place(i: int, theta: dict[str, str]) -> None:
        if i == len(svars):
            out.append(tuple(theta[v] for v in svars))
            return
        v = svars[i]
        want = subst(ssorts[v], theta)
        for w in decl_vars(dst):
            if dsorts[w] == want:
                theta[v] = w
                place(i + 1, theta)
                del theta[v]

    place(0, {})
    return out


def oracle_signature_category(
    sig: Signature,
) -> tuple[FinDirectCat, dict[str, tuple[str, ...]]]:
    """The direct category of sig and the assignment of each morphism,
    with the names `signature_category` gives."""
    decls = sig.declarations
    names: dict[tuple[str, str, tuple[str, ...]], str] = {}
    morphisms: dict[str, tuple[str, str]] = {}
    assign: dict[str, tuple[str, ...]] = {}
    identities: dict[str, str] = {}
    for a in decls:
        for b in decls:
            for t in assignments(a, b):
                if a.name == b.name and t == decl_vars(a):
                    mname = f"1_{a.name}"
                    identities[a.name] = mname
                else:
                    mname = f"{a.name}>{b.name}:{','.join(t)}"
                names[(a.name, b.name, t)] = mname
                morphisms[mname] = (a.name, b.name)
                assign[mname] = t
    composition: dict[tuple[str, str], str] = {}
    by_obj = {d.name: d for d in decls}
    for f, (a, b) in morphisms.items():
        for g, (b2, c) in morphisms.items():
            if b != b2:
                continue
            fa = dict(zip(decl_vars(by_obj[a]), assign[f]))
            ga = dict(zip(decl_vars(by_obj[b]), assign[g]))
            comp = tuple(ga[fa[v]] for v in decl_vars(by_obj[a]))
            composition[(g, f)] = names[(a, c, comp)]
    composition = {
        (g, f): h
        for (g, f), h in composition.items()
        if g not in identities.values() and f not in identities.values()
    }
    cat = FinDirectCat(tuple(d.name for d in decls), morphisms, composition, identities)
    return cat, assign

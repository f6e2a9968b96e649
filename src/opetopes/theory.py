"""Dependently sorted algebraic theories over direct categories.

The semantic side, on the category tables and finite presheaves of
`kernel` (the only module of the package this one imports): finite
direct categories, whose direction and dimensions validate_lfd checks in
one pass after the table and law checks it shares with ensure_category,
presheaves on them, and cell contexts built by attaching one cell at a
time.  `tests/paper_results.py` states what no command computes: the
validator, representables, boundaries and maps of presheaves, and the
strict parent/projection/pullback structure of contexts.

The syntactic side: type signatures, term signatures, and equation sets
parsed from a small declaration grammar, the translation between
signatures and direct categories (a morphism a -> b is a variable of b's
extended context of sort a(...)), and an exhaustive finite-model checker.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

from .kernel import (
    FinDirectCat,
    FinPresheaf,
    ParseError,
    PshMap,
    _law_problems,
    _table_problems,
    check_psh_map,
    line_error,
    natural_maps,
    numbered_lines,
)


class FreshnessViolation(ValueError):
    pass


class IllFormedContext(ValueError):
    pass


# ---------------------------------------------------------------------------
# Finite direct categories


def _dimensions(C: FinDirectCat) -> tuple[dict[str, int], tuple[str, ...] | None]:
    """The dimension of each object, the length of the longest chain of
    non-identity morphisms ending at it, and None; or {} and a cycle of
    non-identity morphisms, in arrow order.  Each round takes every object
    whose non-identity predecessors all have a dimension already; when no
    object is ready, walking back along predecessors meets a cycle."""
    preds = {c: {C.src(f) for f in C.into(c)} for c in C.objects}
    dims: dict[str, int] = {}
    rest = list(C.objects)
    while rest:
        ready = [c for c in rest if preds[c].issubset(dims)]
        if not ready:
            path = [rest[0]]
            while True:
                c = min(preds[path[-1]] - dims.keys())
                if c in path:
                    return {}, tuple(reversed(path[path.index(c) :] + [c]))
                path.append(c)
        for c in ready:
            dims[c] = 1 + max((dims[p] for p in preds[c]), default=-1)
        rest = [c for c in rest if c not in dims]
    return dims, None


def object_dimensions(C: FinDirectCat) -> dict[str, int]:
    """Dimension of each object: the length of the longest chain of
    non-identity morphisms ending at it.  Requires an acyclic category."""
    dims, cycle = _dimensions(C)
    if cycle is not None:
        raise ValueError("the category is not direct")
    return dims


@dataclass(frozen=True)
class LfdReport:
    dims: dict[str, int]
    covers: dict[str, tuple[str, ...]]
    cycle: tuple[str, ...] | None
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.cycle is None and not self.problems


def validate_lfd(C: FinDirectCat) -> LfdReport:
    """Check that C is a well-formed finite direct category: the category
    axioms, the reachability order acyclic, and for each object the
    family of non-identity morphisms into it a saturated cover closed
    under precomposition.  Dimensions are computed along the way."""
    table = tuple(_table_problems(C))
    if table:
        return LfdReport({}, {}, None, table)
    dims, cycle = _dimensions(C)
    if cycle is not None:
        return LfdReport({}, {}, cycle, ())
    # with sound tables and no cycle, a listed composite of two non-identity
    # morphisms into c is again one, so the totality check of the laws also
    # checks that each cover is closed under precomposition
    covers = {c: C.into(c) for c in C.objects}
    return LfdReport(dims, covers, None, tuple(_law_problems(C)))


# ---------------------------------------------------------------------------
# Presheaves on a category table


@dataclass(frozen=True)
class FinPresheafC(FinPresheaf):
    """A finite presheaf on a finite direct category.

    cells lists the elements at each object; restriction maps a cell at
    the target of a non-identity morphism to a cell at its source.  The
    generators of an object are the non-identity morphisms into it;
    identity restrictions are implicit.
    """

    cat: FinDirectCat
    cells: dict[str, tuple[str, ...]]
    restriction: dict[tuple[str, str], str]

    def __post_init__(self) -> None:
        self._index(self.restriction, {c: self.cat.into(c) for c in self.cells})

    def _like(self, cells: dict, face: dict) -> FinPresheafC:
        return FinPresheafC(self.cat, cells, face)

    def of_obj(self, c: str) -> tuple[str, ...]:
        return self.cells.get(c, ())

    def restrict(self, x: str, f: str) -> str:
        if self.cat.is_identity(f):
            return x
        return self.restriction[(x, f)]


def _cells_by_dimension(X: FinPresheafC) -> list[tuple[str, str]]:
    """(object, cell) pairs ordered by dimension, object order, cell order."""
    dims = object_dimensions(X.cat)
    order = {c: i for i, c in enumerate(X.cat.objects)}
    out: list[tuple[str, str]] = []
    for c in sorted(X.cells, key=lambda c: (dims[c], order[c])):
        out.extend((c, x) for x in X.cells[c])
    return out


def psh_isomorphism(X: FinPresheafC, Y: FinPresheafC) -> PshMap | None:
    """An isomorphism X -> Y if one exists: a natural map bijective at
    every object, found by backtracking."""
    if X.cat != Y.cat:
        return None
    if any(len(X.of_obj(c)) != len(Y.of_obj(c)) for c in X.cat.objects):
        return None
    order = [x for _, x in _cells_by_dimension(X)]
    for comp in natural_maps(order, X, Y, injective=True):
        return PshMap(X, Y, comp)
    return None


# ---------------------------------------------------------------------------
# Cell contexts


@dataclass(frozen=True)
class AttachStep:
    """One attachment: a new cell at obj whose boundary lands in the
    previous stage.  attach pairs each non-identity morphism into obj
    with the cell of the previous stage it restricts to."""

    obj: str
    attach: tuple[tuple[str, str], ...]
    name: str

    def __str__(self) -> str:
        att = ", ".join(f"{m}->{y}" for m, y in self.attach)
        return f"{self.name}: {self.obj}({att})" if att else f"{self.name}: {self.obj}"


@dataclass(frozen=True)
class Context:
    """A presheaf presented as an ordered sequence of cell attachments.
    Two contexts are equal only if they attach the same cells in the
    same order along the same maps."""

    cat: FinDirectCat
    steps: tuple[AttachStep, ...]

    def realization(self) -> FinPresheafC:
        cells: dict[str, list[str]] = {}
        restriction: dict[tuple[str, str], str] = {}
        for step in self.steps:
            cells.setdefault(step.obj, []).append(step.name)
            for m, y in step.attach:
                restriction[(step.name, m)] = y
        return FinPresheafC(
            self.cat, {c: tuple(xs) for c, xs in cells.items()}, restriction
        )

    def __str__(self) -> str:
        return "[" + "; ".join(map(str, self.steps)) + "]"


def validate_context(ctx: Context) -> list[str]:
    """Check each step against the stage the steps before it build, kept
    as the object of each cell and the face (cell, morphism) -> cell."""
    C = ctx.cat
    obj: dict[str, str] = {}
    face: dict[tuple[str, str], str] = {}
    problems: list[str] = []
    for i, step in enumerate(ctx.steps):
        if step.name != f"x{i}":
            problems.append(f"step {i} is named {step.name}, expected x{i}")
        attach = dict(step.attach)
        want = C.into(step.obj)
        if step.obj not in C.objects:
            problems.append(f"step {i} attaches at unknown object {step.obj}")
        elif set(attach) != set(want):
            problems.append(f"step {i} must attach along exactly {sorted(want)}")
        else:
            for m, y in attach.items():
                if obj.get(y) != C.src(m):
                    problems.append(f"step {i} sends {m} to a missing cell {y}")
            for m in want:
                for e in C.into(C.src(m)):
                    if attach.get(C.compose(m, e)) != face.get((attach[m], e)):
                        problems.append(f"step {i} attaching map is not natural at {m}.{e}")
        obj[step.name] = step.obj
        face.update(((step.name, m), y) for m, y in step.attach)
    return problems


def presheaf_to_context(X: FinPresheafC) -> Context:
    """Present a finite presheaf as a context, attaching its cells in
    dimension order and then in the deterministic cell order.  The
    realization is isomorphic to X by context_isomorphism."""
    steps: list[AttachStep] = []
    name_of: dict[str, str] = {}
    for c, x in _cells_by_dimension(X):
        name = f"x{len(steps)}"
        attach = tuple(
            sorted((m, name_of[X.restrict(x, m)]) for m in X.cat.into(c))
        )
        steps.append(AttachStep(c, attach, name))
        name_of[x] = name
    return Context(X.cat, tuple(steps))


def context_isomorphism(X: FinPresheafC, ctx: Context) -> PshMap | None:
    """The isomorphism presheaf_to_context names: each cell of X, in the
    order its steps attach them, to its step.  None unless ctx has one
    step per cell and the map is natural."""
    cells = _cells_by_dimension(X)
    f = PshMap(X, ctx.realization(), {x: s.name for (_, x), s in zip(cells, ctx.steps)})
    if X.cat != ctx.cat or len(cells) != len(ctx.steps) or check_psh_map(f):
        return None
    return f


# ---------------------------------------------------------------------------
# Syntax: terms, sorts, declarations


# Deeper terms would overflow the recursion of the reader and of the
# functions that walk terms; substitution can build a sort deeper than
# any term written, so every Term is checked as it is built.
TERM_CAP = 200


def _nest(depth: int) -> int:
    if depth > TERM_CAP:
        raise ParseError(f"terms nest more than {TERM_CAP} levels deep")
    return depth


class Term(tuple):
    """A variable occurrence when args is None, an operation application
    otherwise: the tuple (head, args, depth, hash), so that a sort memo
    compares it in C and hashes it in O(1) at any depth.  depth counts
    nested argument lists; hash is computed once, from head and the
    arguments' own stored hashes."""

    __slots__ = ()

    def __new__(cls, head: str, args: tuple[Term, ...] | None = None) -> Term:
        depth = 0
        if args is not None:
            depth = 1
            for a in args:
                if a.depth >= depth:
                    depth = _nest(a.depth + 1)
        return tuple.__new__(cls, (head, args, depth, hash((head, args))))

    head = property(itemgetter(0))
    args = property(itemgetter(1))
    depth = property(itemgetter(2))

    def __hash__(self) -> int:
        return self[3]

    def __getnewargs__(self) -> tuple:
        """What copy and pickle pass to __new__ to rebuild a Term."""
        return self.head, self.args

    def __str__(self) -> str:
        if self.args is None:
            return self.head
        return f"{self.head}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class SortExpr:
    head: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.head
        return f"{self.head}({', '.join(map(str, self.args))})"


Binding = tuple[str, SortExpr]


@dataclass(frozen=True)
class TypeDecl:
    name: str
    context: tuple[Binding, ...]
    arg_order: tuple[str, ...]
    grade: int

    def __str__(self) -> str:
        ctx = ", ".join(f"{v}: {s}" for v, s in self.context)
        head = self.name if not self.arg_order else f"{self.name}({', '.join(self.arg_order)})"
        return f"{ctx} |- {head} type" if ctx else f"|- {head} type"


@dataclass(frozen=True)
class TermDecl:
    name: str
    context: tuple[Binding, ...]
    explicit: tuple[str, ...]
    output: SortExpr
    grade: int

    def __str__(self) -> str:
        ctx = ", ".join(f"{v}: {s}" for v, s in self.context)
        head = f"{self.name}({', '.join(self.explicit)})"
        return f"{ctx} |- {head} : {self.output}" if ctx else f"|- {head} : {self.output}"


@dataclass(frozen=True)
class Equation:
    context: tuple[Binding, ...]
    lhs: Term
    rhs: Term
    sort: SortExpr
    grade: int

    @property
    def label(self) -> str:
        return f"{self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class _Declarations:
    """Declarations in order, looked up by name through an index built on
    first use."""

    declarations: tuple

    @cached_property
    def _index(self) -> dict:
        return {d.name: d for d in self.declarations}

    def decl(self, name: str):
        return self._index[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._index)


@dataclass(frozen=True)
class Signature(_Declarations):
    declarations: tuple[TypeDecl, ...]


@dataclass(frozen=True)
class TermSignature(_Declarations):
    declarations: tuple[TermDecl, ...]


@dataclass(frozen=True)
class EquationSet:
    equations: tuple[Equation, ...]


_NAME = r"[A-Za-z_][A-Za-z0-9_']*(?![A-Za-z0-9_'])"  # never ends inside a longer name
_TOKEN = re.compile(rf"{_NAME}|\|-|\S")


class _Tokens:
    def __init__(self, line: str):
        self.items = _TOKEN.findall(line.replace("⊢", "|-"))
        self.pos = 0

    def peek(self) -> str | None:
        return self.items[self.pos] if self.pos < len(self.items) else None

    def next(self) -> str:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of line")
        self.pos += 1
        return t

    def expect(self, token: str) -> None:
        t = self.next()
        if t != token:
            raise ParseError(f"expected {token!r}, found {t!r}")

    def done(self) -> None:
        t = self.peek()
        if t is not None:
            raise ParseError(f"trailing input {t!r}")


_IDENT = re.compile(_NAME + r"\Z")


def _ident(tok: _Tokens) -> str:
    t = tok.next()
    if not _IDENT.match(t):
        raise ParseError(f"expected a name, found {t!r}")
    return t


def _parse_term(tok: _Tokens, depth: int = 0) -> Term:
    return Term(_ident(tok), _parse_args(tok, depth))


def _parse_args(tok: _Tokens, depth: int) -> tuple[Term, ...] | None:
    """An argument list nested one level below depth, if one follows."""
    if tok.peek() != "(":
        return None
    depth = _nest(depth + 1)
    tok.next()
    args: list[Term] = []
    if tok.peek() != ")":
        args.append(_parse_term(tok, depth))
        while tok.peek() == ",":
            tok.next()
            args.append(_parse_term(tok, depth))
    tok.expect(")")
    return tuple(args)


def _parse_sortexpr(tok: _Tokens) -> SortExpr:
    """A sort: its arguments may nest as deep as any term."""
    return SortExpr(_ident(tok), _parse_args(tok, -1) or ())


def _parse_ctx(tok: _Tokens) -> tuple[Binding, ...]:
    if tok.peek() == "|-":
        return ()
    bindings: list[Binding] = []
    while True:
        names = [_ident(tok)]
        while _IDENT.match(tok.peek() or ""):
            names.append(_ident(tok))
        tok.expect(":")
        sort = _parse_sortexpr(tok)
        bindings.extend((n, sort) for n in names)
        if tok.peek() == ",":
            tok.next()
            continue
        break
    return tuple(bindings)


# ---------------------------------------------------------------------------
# Typing


def _subst_term(t: Term, theta: dict[str, Term]) -> Term:
    if t.args is None:
        return theta.get(t.head, t)
    return Term(t.head, tuple(_subst_term(a, theta) for a in t.args))


def _subst_sort(s: SortExpr, theta: dict[str, Term]) -> SortExpr:
    return SortExpr(s.head, tuple(_subst_term(a, theta) for a in s.args))


def _match_term(pattern: Term, actual: Term, theta: dict[str, Term]) -> None:
    if pattern.args is None:
        if pattern.head in theta:
            if theta[pattern.head] != actual:
                raise ParseError(
                    f"{pattern.head} matches both {theta[pattern.head]} and {actual}"
                )
        else:
            theta[pattern.head] = actual
        return
    if actual.args is None or actual.head != pattern.head:
        raise ParseError(f"{actual} does not match {pattern}")
    for p, a in zip(pattern.args, actual.args):
        _match_term(p, a, theta)


def _match_sort(pattern: SortExpr, actual: SortExpr, theta: dict[str, Term]) -> None:
    if pattern.head != actual.head or len(pattern.args) != len(actual.args):
        raise ParseError(f"sort {actual} does not match {pattern}")
    for p, a in zip(pattern.args, actual.args):
        _match_term(p, a, theta)


def _sort_of(t: Term, known: dict[Term, SortExpr], ops: dict[str, TermDecl]) -> SortExpr:
    """The sort of t: read from known, or inferred and recorded there."""
    if t in known:
        return known[t]
    if t.args is None and (t.head not in ops or ops[t.head].explicit):
        raise ParseError(f"unbound variable {t.head}")
    if t.head not in ops:
        raise ParseError(f"unknown operation {t.head}")
    known[t] = sort = _apply(ops[t.head], t.args or (), known, ops)
    return sort


def _apply(
    op: TermDecl,
    args: tuple[Term, ...],
    known: dict[Term, SortExpr],
    ops: dict[str, TermDecl],
) -> SortExpr:
    """Infer the full instantiation of op's context from its explicit
    arguments and return the instantiated output sort.  Matching is the
    whole check: an explicit argument's sort is its pattern under theta,
    and each implicit variable is an argument of such a sort, checked by
    _check_sort_instance when that sort was declared or built."""
    if len(args) != len(op.explicit):
        raise ParseError(f"{op.name} takes {len(op.explicit)} arguments, got {len(args)}")
    opctx = dict(op.context)
    theta: dict[str, Term] = dict(zip(op.explicit, args))
    for name, actual in zip(op.explicit, args):
        _match_sort(opctx[name], _sort_of(actual, known, ops), theta)
    for v, _ in op.context:
        if v not in theta:
            raise ParseError(f"cannot infer {v} in {op.name}")
    return _subst_sort(op.output, theta)


def _check_context(
    bindings: tuple[Binding, ...], types: dict[str, TypeDecl], ops: dict[str, TermDecl]
) -> dict[Term, SortExpr]:
    """A context must be built from the type signature alone: sorts name
    declared types and their arguments are previously bound variables.
    Returns the memo of sorts that typing in the context extends."""
    known: dict[Term, SortExpr] = {}
    for v, s in bindings:
        var = Term(v)
        if v in types or v in ops:
            raise IllFormedContext(f"variable {v} shadows a declared symbol")
        if var in known:
            raise IllFormedContext(f"variable {v} bound twice")
        if s.head in ops:
            raise IllFormedContext(
                f"context mentions the term symbol {s.head}; "
                "contexts must be well-formed over the type signature alone"
            )
        if s.head not in types:
            raise IllFormedContext(f"unknown type {s.head}")
        for a in s.args:
            if a.args is not None:
                raise IllFormedContext(
                    f"context argument {a} is not a variable; "
                    "contexts must be well-formed over the type signature alone"
                )
            if a not in known:
                raise IllFormedContext(f"unbound variable {a.head} in {s}")
        _check_sort_instance(s, known, types, {}, IllFormedContext)
        known[var] = s
    return known


def _grade_of_context(bindings: tuple[Binding, ...], types: dict[str, TypeDecl]) -> int:
    if not bindings:
        return 0
    return 1 + max(types[s.head].grade for _, s in bindings)


def parse_theory(text: str) -> tuple[Signature, TermSignature, EquationSet]:
    """Parse a theory file: type declarations (ctx |- A(vars) type), term
    declarations (ctx |- t(args) : sort), and equations
    (ctx |- t = u : sort), in dependency order."""
    types: dict[str, TypeDecl] = {}
    ops: dict[str, TermDecl] = {}
    eqns: list[Equation] = []
    try:
        for lineno, line in numbered_lines(text):
            tok = _Tokens(line)
            ctx = _parse_ctx(tok)
            tok.expect("|-")
            known = _check_context(ctx, types, ops)
            lead = _parse_term(tok)
            nxt = tok.peek()
            if nxt == "type":
                tok.next()
                tok.done()
                name = lead.head
                if name in types or name in ops:
                    raise FreshnessViolation(f"{name} is already declared")
                ctx_vars = tuple(v for v, _ in ctx)
                if lead.args is None:
                    arg_order = ctx_vars
                else:
                    arg_order = tuple(a.head for a in lead.args)
                    if any(a.args is not None for a in lead.args):
                        raise ParseError("type arguments must be variables")
                    # _check_context has made ctx_vars distinct
                    if sorted(arg_order) != sorted(ctx_vars):
                        raise ParseError(f"{name} must list each context variable once")
                types[name] = TypeDecl(name, ctx, arg_order, _grade_of_context(ctx, types))
            elif nxt == ":":
                tok.next()
                output = _parse_sortexpr(tok)
                tok.done()
                name = lead.head
                if name in types or name in ops:
                    raise FreshnessViolation(f"{name} is already declared")
                if lead.args is None:
                    raise ParseError(f"operation {name} needs an argument list")
                explicit = tuple(a.head for a in lead.args)
                if any(a not in known for a in lead.args):
                    raise ParseError(f"arguments of {name} must be context variables")
                if len(set(explicit)) != len(explicit):
                    raise ParseError(f"repeated argument in {name}")
                if output.head not in types:
                    raise ParseError(f"unknown type {output.head}")
                _check_sort_instance(output, known, types, ops)
                ops[name] = TermDecl(name, ctx, explicit, output, types[output.head].grade)
            elif nxt == "=":
                tok.next()
                rhs = _parse_term(tok)
                tok.expect(":")
                sort = _parse_sortexpr(tok)
                tok.done()
                for side in (lead, rhs):
                    got = _sort_of(side, known, ops)
                    if got != sort:
                        raise ParseError(f"{side} has sort {got}, expected {sort}")
                if sort.head not in types:
                    raise ParseError(f"unknown type {sort.head}")
                eqns.append(Equation(ctx, lead, rhs, sort, types[sort.head].grade))
            else:
                raise ParseError("expected 'type', ':' or '=' after the head")
    except ValueError as err:
        raise line_error(lineno, err) from None
    return (
        Signature(tuple(types.values())),
        TermSignature(tuple(ops.values())),
        EquationSet(tuple(eqns)),
    )


def _check_sort_instance(
    s: SortExpr,
    known: dict[Term, SortExpr],
    types: dict[str, TypeDecl],
    ops: dict[str, TermDecl],
    error: type[ValueError] = ParseError,
) -> None:
    """Check that the arguments of s have the sorts its declaration asks
    for, raising error otherwise."""
    decl = types[s.head]
    if len(s.args) != len(decl.arg_order):
        raise error(f"{s.head} takes {len(decl.arg_order)} arguments")
    theta = dict(zip(decl.arg_order, s.args))
    sorts = dict(decl.context)
    for v in decl.arg_order:
        want = _subst_sort(sorts[v], theta)
        got = _sort_of(theta[v], known, ops)
        if got != want:
            raise error(f"{theta[v]} has sort {got}, expected {want}")


def parse_context(sig: Signature, text: str) -> tuple[Binding, ...]:
    """Parse a bare context such as "x y : V, f : E(x, y)" and check it
    against the type signature."""
    try:
        tok = _Tokens(text)
        if tok.peek() is None:
            return ()
        bindings = _parse_ctx(tok)
        tok.done()
        _check_context(bindings, sig._index, {})
    except ValueError as err:
        raise line_error(1, err) from None
    return bindings


# ---------------------------------------------------------------------------
# Signatures as direct categories


_SELF = "@"


def _decl_sorts(decl: TypeDecl) -> dict[str, SortExpr]:
    """The extended context of decl: its context, then `@`."""
    out = dict(decl.context)
    out[_SELF] = SortExpr(decl.name, tuple(Term(v) for v in decl.arg_order))
    return out


def signature_category(
    sig: Signature,
) -> tuple[FinDirectCat, dict[str, tuple[str, ...]]]:
    """The direct category of a signature, with one object per type
    declaration, together with the variable assignment realizing each
    morphism (indexed by the source declaration's variables, then `@`).

    A declaration's extended context is its context followed by `@`, a
    variable of the declared type.  A morphism a -> b is a variable w of
    b's extended context whose sort is an instance a(u1, ..., un): it sends
    a's arguments to u1, ..., un and `@` to w.  A type lists every context
    variable once among its arguments, so w fixes the morphism, and the
    composite of f: a -> b and g: b -> c is the morphism at g's image of
    f's `@` image."""
    decls = sig.declarations
    index = {d.name: i for i, d in enumerate(decls)}
    sorts = {d.name: _decl_sorts(d) for d in decls}
    pos = {b: {v: i for i, v in enumerate(vs)} for b, vs in sorts.items()}
    found = []
    for b, vs in sorts.items():
        for w, s in vs.items():
            a = sig.decl(s.head)
            theta = dict(zip(a.arg_order, s.args))
            t = tuple(theta[v].head for v, _ in a.context) + (w,)
            # ordered by source, target, then the images of a's variables in turn
            found.append(((index[a.name], index[b], [pos[b][v] for v in t]), a.name, b, t))
    at: dict[tuple[str, str], str] = {}
    morphisms: dict[str, tuple[str, str]] = {}
    assign: dict[str, tuple[str, ...]] = {}
    identities: dict[str, str] = {}
    out: dict[str, list[str]] = {}
    for _, a, b, t in sorted(found, key=itemgetter(0)):
        if t[-1] == _SELF:  # b's `@` has sort b(...), so a is b
            mname = identities[a] = f"1_{a}"
        else:
            mname = f"{a}>{b}:{','.join(t)}"
            out.setdefault(a, []).append(mname)
        at[b, t[-1]] = mname
        morphisms[mname] = (a, b)
        assign[mname] = t
    composition: dict[tuple[str, str], str] = {}
    for f, (_, b) in morphisms.items():
        if assign[f][-1] != _SELF:
            for g in out.get(b, ()):
                composition[g, f] = at[morphisms[g][1], assign[g][pos[b][assign[f][-1]]]]
    cat = FinDirectCat(tuple(d.name for d in decls), morphisms, composition, identities)
    return cat, assign


def signature_to_lfd(sig: Signature) -> FinDirectCat:
    return signature_category(sig)[0]


def realize_bindings(sig: Signature, bindings: tuple[Binding, ...]) -> FinPresheafC:
    """The presheaf presented by a syntactic context: the cells at each
    object are the bindings whose sort is an instance of it.  A cell x of sort
    b(u1, ..., un) restricts along m: a -> b to what m's `@` image names
    once b's arguments are read as u1, ..., un and `@` as x."""
    cat, assign = signature_category(sig)
    sorts = dict(bindings)
    cells: dict[str, tuple[str, ...]] = {}
    restriction: dict[tuple[str, str], str] = {}
    for decl in sig.declarations:
        xs = tuple(v for v, s in bindings if s.head == decl.name)
        if xs:
            cells[decl.name] = xs
        for x in xs:
            theta = {v: a.head for v, a in zip(decl.arg_order, sorts[x].args)}
            theta[_SELF] = x
            for m in cat.into(decl.name):
                restriction[(x, m)] = theta[assign[m][-1]]
    return FinPresheafC(cat, cells, restriction)


def _cover_variables(C: FinDirectCat, ranked: tuple[str, ...]) -> dict[str, dict[str, str]]:
    """Each object's variables x0, x1, ..., one per non-identity morphism into
    it, by the place of its source in ranked, then name; ranked is the order of
    lfd_to_signature's declarations, which signature_category keeps."""
    rank = {c: i for i, c in enumerate(ranked)}
    covers = {c: sorted(C.into(c), key=lambda m: (rank[C.src(m)], m)) for c in C.objects}
    return {c: {m: f"x{i}" for i, m in enumerate(ms)} for c, ms in covers.items()}


def lfd_to_signature(C: FinDirectCat) -> Signature:
    """A type signature presenting a validated direct category: one
    declaration per object, by dimension and then in C's order, whose
    context binds one variable per cell of its boundary (_cover_variables)."""
    report = validate_lfd(C)
    if not report.ok:
        raise ValueError("the category is not a valid finite direct category")
    ranked = tuple(sorted(C.objects, key=report.dims.__getitem__))
    var = _cover_variables(C, ranked)
    types: dict[str, TypeDecl] = {}
    for c in ranked:
        ctx = tuple(
            (v, SortExpr(C.src(m), tuple(Term(var[c][C.compose(m, e)]) for e in var[C.src(m)])))
            for m, v in var[c].items()
        )
        types[c] = TypeDecl(c, ctx, tuple(v for v, _ in ctx), _grade_of_context(ctx, types))
    return Signature(tuple(types.values()))


def roundtrip_isomorphism(C: FinDirectCat, sig: Signature) -> dict[str, str] | None:
    """The isomorphism sig = lfd_to_signature(C) names from C to the category
    signature_category(sig): objects and identities to themselves, a morphism m
    into c to the morphism at m's variable in c's context.  None unless that is
    a valid direct category and the map a bijection keeping ends and composites."""
    back, assign = signature_category(sig)
    if not validate_lfd(back).ok or set(back.objects) != set(C.objects):
        return None
    at = {(back.tgt(m), t[-1]): m for m, t in assign.items() if m in back.morphisms}
    iso = {a: a for a in C.objects} | {i: back.identities[a] for a, i in C.identities.items()}
    for c, var in _cover_variables(C, back.objects).items():
        iso.update((m, at.get((c, v))) for m, v in var.items())
    onto = len(C.morphisms) == len({iso[f] for f in C.morphisms}) == len(back.morphisms)
    if not onto or any(back.morphisms.get(iso[f]) != e for f, e in C.morphisms.items()):
        return None
    kept = all(back.compose(iso[g], iso[f]) == iso[h] for (g, f), h in C.composition.items())
    return iso if kept else None


def _graph(C: FinDirectCat) -> FinPresheafC:
    """C's objects and non-identity morphisms, cells o<name> and m<name>, as a
    presheaf on the category with objects o<d> and m<d>.<e> and morphisms
    s<d>.<e>: o<d> -> m<d>.<e> and t<d>.<e>: o<e> -> m<d>.<e>, d and e the
    dimensions of the ends of a morphism (empty when C is not direct)."""
    dims = _dimensions(C)[0] or dict.fromkeys(C.objects, "")
    at = {f"o{a}": f"o{dims[a]}" for a in C.objects}
    ends: dict[str, tuple[str, str]] = {}
    restriction: dict[tuple[str, str], str] = {}
    for f, (a, b) in C.morphisms.items():
        if not C.is_identity(f):
            k = f"{dims[a]}.{dims[b]}"
            at[f"m{f}"] = f"m{k}"
            for g, c in (("s", a), ("t", b)):
                ends[g + k] = (f"o{dims[c]}", f"m{k}")
                restriction[f"m{f}", g + k] = f"o{c}"
    cells: dict[str, tuple[str, ...]] = {}
    for x, k in at.items():
        cells[k] = cells.get(k, ()) + (x,)
    ids = {k: f"1{k}" for k in cells}
    ends.update((i, (k, k)) for k, i in ids.items())
    return FinPresheafC(FinDirectCat(tuple(cells), ends, {}, ids), cells, restriction)


def cat_isomorphic(C1: FinDirectCat, C2: FinDirectCat) -> dict[str, str] | None:
    """An isomorphism of finite categories as a map on objects and morphisms,
    or None.  natural_maps searches the bijections of their graphs that keep
    dimensions, objects in turn and then morphisms by name; identities follow
    their objects, and the first map that keeps every composite is returned."""
    G1, G2 = _graph(C1), _graph(C2)
    if sorted(G1.sort.values()) != sorted(G2.sort.values()):
        return None
    order = [f"o{a}" for a in C1.objects] + sorted(x for x in G1.sort if x[0] == "m")
    for comp in natural_maps(order, G1, G2, injective=True):
        iso = {x[1:]: y[1:] for x, y in comp.items()}
        iso.update((i, C2.identities[comp[f"o{a}"][1:]]) for a, i in C1.identities.items())
        composition = C1.composition.items()
        if all(C2.compose(iso[g], iso[f]) == iso[h] for (g, f), h in composition):
            return iso
    return None


# ---------------------------------------------------------------------------
# Finite models


@dataclass(frozen=True)
class Model:
    """Finite carriers per sort instance and interpretation tables per
    operation, keyed by the explicit arguments."""

    sorts: dict[tuple[str, tuple[str, ...]], tuple[str, ...]]
    ops: dict[str, dict[tuple[str, ...], str]]

    def carrier(self, key: tuple[str, tuple[str, ...]]) -> tuple[str, ...]:
        return self.sorts.get(key, ())


def _written(head: str, args: tuple[str, ...]) -> str:
    """A sort instance as a model file writes it: `V`, `E(a, b)`."""
    return f"{head}({', '.join(args)})" if args else head


_LIST = rf"\s*((?:{_NAME}(?:\s*,\s*{_NAME})*)?)\s*"  # names separated by commas
_ARGS = rf"(?:\s*\({_LIST}\))?"  # an argument list, if one follows
_MODEL_LINES = {  # a line's first name, None for a table row -> its form, the rest's regex
    "sort": ("sort NAME(ARGS) = {ELEMS}", re.compile(rf"\s+({_NAME}){_ARGS}\s*=\s*\{{{_LIST}\}}")),
    "op": ("op NAME(ARGS) table:", re.compile(rf"\s+({_NAME}){_ARGS}\s*table\s*:")),
    None: ("NAME(ARGS) = VALUE", re.compile(rf"\s*\({_LIST}\)\s*=\s*({_NAME})")),
}
_EACH_NAME = re.compile(_NAME).findall


def parse_model(text: str) -> Model:
    """Read a model file: lines `sort V = {a, b}`, `sort E(a, b) = {f}`,
    and `op c table:` or `op c(g, f) table:`, whose names are read but not
    checked, followed by rows `c(g1, f1) = h1`; a malformed line is an
    error naming the form its first name selects."""
    sorts: dict[tuple[str, tuple[str, ...]], tuple[str, ...]] = {}
    ops: dict[str, dict[tuple[str, ...], str]] = {}
    current: str | None = None
    try:
        for lineno, line in numbered_lines(text):
            head = _TOKEN.match(line).group()
            if head not in _MODEL_LINES and head != current:
                raise ParseError("expected a sort, op, or table row")
            form, rest = _MODEL_LINES.get(head, _MODEL_LINES[None])
            m = rest.fullmatch(line, len(head))
            if m is None:
                raise ParseError(f"expected {form!r}")
            if head == "sort":
                key = (m[1], tuple(_EACH_NAME(m[2] or "")))
                if key in sorts:
                    raise ParseError(f"duplicate carrier for {_written(*key)}")
                elems = _EACH_NAME(m[3])
                if len(set(elems)) < len(elems):
                    e = next(e for i, e in enumerate(elems) if e in elems[:i])
                    raise ParseError(f"element {e} listed twice in {_written(*key)}")
                sorts[key] = tuple(elems)
                current = None
            elif head == "op":
                current = m[1]
                ops.setdefault(current, {})
            else:
                key2 = tuple(_EACH_NAME(m[1]))
                if key2 in ops[current]:
                    raise ParseError(f"duplicate row for {current}({', '.join(key2)})")
                ops[current][key2] = m[2]
    except ValueError as err:
        raise line_error(lineno, err) from None
    return Model(sorts, ops)


@dataclass(frozen=True)
class EquationResult:
    label: str
    checked: int
    witness: str | None


@dataclass(frozen=True)
class ModelReport:
    problems: tuple[str, ...]
    equations: tuple[EquationResult, ...]

    @property
    def ok(self) -> bool:
        return not self.problems and all(e.witness is None for e in self.equations)

    @property
    def failures(self) -> tuple[str, ...]:
        out = list(self.problems)
        for e in self.equations:
            if e.witness is not None:
                out.append(f"equation {e.label} fails at {e.witness}")
        return tuple(out)


class _MissingEntry(Exception):
    pass


class _Table(dict):
    """An operation's table as compiled terms read it: a missing row
    raises `_MissingEntry` naming it."""

    __slots__ = ("head",)

    def __init__(self, head: str, rows: dict[tuple[str, ...], str]):
        super().__init__(rows)
        self.head = head

    def __missing__(self, key: tuple[str, ...]) -> str:
        raise _MissingEntry(f"no table entry for {self.head}({', '.join(key)})")


def _instance_key(s: SortExpr, env: dict[str, str]) -> tuple[str, tuple[str, ...]]:
    return (s.head, tuple(env[a.head] for a in s.args))


def _environments(bindings: tuple[Binding, ...], M: Model):
    """All environments for a context of the type signature, in the
    canonical order: variables left to right, carrier order within each.
    Each is yielded as one reused list, the value of the i-th variable in
    slot i.  A variable's carrier is looked up once the arguments of its
    sort are bound, and a prefix is dropped as soon as such a carrier is
    empty (forward checking, as in Haralick & Elliott 1980)."""
    n = len(bindings)
    slots = _slots(bindings)
    # fixed[i]: the variables whose sort is fixed once the first i are bound
    # and the key of each one's carrier (a sort's arguments are variables)
    fixed: list[list[tuple[int, str, Callable]]] = [[] for _ in range(n + 1)]
    for j, (_, s) in enumerate(bindings):
        last = max((slots[a.head] for a in s.args), default=-1)
        fixed[last + 1].append((j, s.head, _key(s.args, slots, {}, {})))
    get = M.sorts.get
    values: list[str] = [""] * n
    carriers: list = [()] * n

    def forward(i: int) -> bool:
        for j, head, key in fixed[i]:
            carriers[j] = get((head, key(values)), ())
            if not carriers[j]:
                return False
        return True

    if not forward(0):
        return
    if n == 0:
        yield values
        return
    choices = [iter(carriers[0])] + [iter(())] * (n - 1)
    i = 0
    while i >= 0:
        for values[i] in choices[i]:
            if not fixed[i + 1] or forward(i + 1):
                break
        else:
            i -= 1
            continue
        if i == n - 1:
            yield values
        else:
            i += 1
            choices[i] = iter(carriers[i])


def _slots(bindings: tuple[Binding, ...]) -> dict[str, int]:
    return {v: i for i, (v, _) in enumerate(bindings)}


def _key(args: tuple[Term, ...], slots: dict[str, int], tables: dict[str, _Table],
         ops: dict[str, TermDecl], look: Callable = tuple) -> Callable:
    """A function of an environment's values (see `_environments`) that
    evaluates args left to right and returns look of their tuple: an
    operation's `_Table` lookup, or `tuple`, which returns the tuple as it
    is.  Two or more variables are read by one itemgetter, anything else
    by one closure for arity 0, 1, 2 or more, so a term costs one Python
    call per application and none per variable."""
    if len(args) >= 2 and all(a.args is None and a.head in slots for a in args):
        get = itemgetter(*[slots[a.head] for a in args])
        return get if look is tuple else lambda values: look(get(values))
    fs = [_compile(a, slots, tables, ops) for a in args]
    if not fs:
        return lambda values: look(())
    if len(fs) == 1:
        (f,) = fs
        return lambda values: look((f(values),))
    if len(fs) == 2:
        f, g = fs
        return lambda values: look((f(values), g(values)))

    def key(values):
        out = []
        for f in fs:
            out.append(f(values))
        return look(tuple(out))

    return key


def _compile(t: Term, slots: dict[str, int], tables: dict[str, _Table],
             ops: dict[str, TermDecl]) -> Callable:
    """t as a function of an environment's values (see `_environments`):
    a name that is no variable but an operation without explicit arguments
    stands for its constant."""
    if t.args is None:
        if t.head in slots:
            return itemgetter(slots[t.head])
        if t.head in ops and not ops[t.head].explicit:
            return _compile(Term(t.head, ()), slots, tables, ops)
        unbound = f"unbound {t.head}"

        def fail(values):
            raise _MissingEntry(unbound)

        return fail
    table = tables.get(t.head) or _Table(t.head, {})
    return _key(t.args, slots, tables, ops, table.__getitem__)


def check_model(
    theory: tuple[Signature, TermSignature, EquationSet], M: Model
) -> ModelReport:
    """Exhaustively check a finite model: carriers form a consistent
    family of sort instances, every table is of a declared operation, is
    total and lands in the declared instance, and every equation holds in
    every environment.  The first counterexample per equation, in the
    canonical environment order, is reported."""
    sig, terms, eqns = theory
    ops = {d.name: d for d in terms.declarations}
    problems: list[str] = []

    elem_instance: dict[str, tuple[str, tuple[str, ...]]] = {}
    for key, elems in M.sorts.items():
        head, args = key
        try:
            decl = sig.decl(head)
        except KeyError:
            problems.append(f"carrier for unknown type {head}")
            continue
        if len(args) != len(decl.arg_order):
            problems.append(f"instance {_written(*key)} has the wrong arity")
            continue
        env = dict(zip(decl.arg_order, args))
        opctx = dict(decl.context)
        for w in decl.arg_order:
            want = _instance_key(opctx[w], env)
            if env[w] not in M.carrier(want):
                problems.append(
                    f"instance {_written(*key)}: {env[w]} is not in {_written(*want)}"
                )
        for e in elems:
            if e in elem_instance:
                problems.append(f"element {e} appears in two carriers")
            elem_instance[e] = key
    problems.extend(f"table for unknown operation {op}" for op in M.ops if op not in ops)

    tables = {name: _Table(name, rows) for name, rows in M.ops.items()}
    for name, decl in ops.items():
        table = M.ops.get(name, {})
        slots = _slots(decl.context)
        explicit = _key(tuple(map(Term, decl.explicit)), slots, tables, ops)
        out_args = _key(decl.output.args, slots, tables, ops)
        seen: set[tuple[str, ...]] = set()
        for env in _environments(decl.context, M):
            values = explicit(env)
            seen.add(values)
            if values not in table:
                problems.append(f"table for {name} is missing {name}({', '.join(values)})")
                continue
            try:
                out_key = (decl.output.head, out_args(env))
            except _MissingEntry as err:
                problems.append(f"table for {name}: {err}")
                continue
            if table[values] not in M.carrier(out_key):
                problems.append(
                    f"{name}({', '.join(values)}) = {table[values]} "
                    f"is not in {_written(*out_key)}"
                )
        for values in table:
            if values not in seen:
                problems.append(
                    f"table row {name}({', '.join(values)}) is not well-typed"
                )

    results: list[EquationResult] = []
    for eq in eqns.equations:
        witness: str | None = None
        checked = 0
        slots = _slots(eq.context)
        lhs_of = _compile(eq.lhs, slots, tables, ops)
        rhs_of = _compile(eq.rhs, slots, tables, ops)
        for env in _environments(eq.context, M):
            checked += 1
            try:
                lhs = lhs_of(env)
                rhs = rhs_of(env)
            except _MissingEntry as err:
                witness = f"{_render_env(eq.context, env)} ({err})"
                break
            if lhs != rhs:
                witness = (
                    f"{_render_env(eq.context, env)}: "
                    f"{eq.lhs} = {lhs} but {eq.rhs} = {rhs}"
                )
                break
        results.append(EquationResult(eq.label, checked, witness))
    return ModelReport(tuple(problems), tuple(results))


def _render_env(bindings: tuple[Binding, ...], values: list[str]) -> str:
    return ", ".join(f"{v} = {e}" for (v, _), e in zip(bindings, values))

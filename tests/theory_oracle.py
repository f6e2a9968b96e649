"""Theory elaboration by re-inference: an independent oracle.

A term is typed by walking it: an operation's explicit arguments are typed
to infer its instantiation, and then every variable of its context,
explicit ones included, is typed again to check that instantiation, so
the work doubles at each level of nesting.  Contexts are checked against
plain dicts from variable names to sorts, copied for each line.  The tests
compare `theory.parse_theory`, which types each subterm of a line once
through one memo, against this on small theories: the same declarations,
or the same exception type and message, line number included.  Lines are
read by the package's own reader (`_Tokens`, `_parse_ctx`, `_parse_term`).
"""

from __future__ import annotations

from opetopes.theory import (
    Binding,
    Equation,
    EquationSet,
    FreshnessViolation,
    IllFormedContext,
    ParseError,
    Signature,
    SortExpr,
    Term,
    TermDecl,
    TermSignature,
    TypeDecl,
    _parse_ctx,
    _parse_sortexpr,
    _parse_term,
    _Tokens,
    line_error,
    numbered_lines,
)


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


def _sort_of(
    t: Term,
    ctx: dict[str, SortExpr],
    sig: Signature,
    ops: dict[str, TermDecl],
) -> SortExpr:
    if t.args is None:
        if t.head in ctx:
            return ctx[t.head]
        if t.head in ops and not ops[t.head].explicit:
            return _apply(ops[t.head], (), ctx, sig, ops)[1]
        raise ParseError(f"unbound variable {t.head}")
    if t.head not in ops:
        raise ParseError(f"unknown operation {t.head}")
    return _apply(ops[t.head], t.args, ctx, sig, ops)[1]


def _apply(
    op: TermDecl,
    args: tuple[Term, ...],
    ctx: dict[str, SortExpr],
    sig: Signature,
    ops: dict[str, TermDecl],
) -> tuple[dict[str, Term], SortExpr]:
    """Infer the full instantiation of op's context from its explicit
    arguments, verify it, and return it with the instantiated output sort."""
    if len(args) != len(op.explicit):
        raise ParseError(f"{op.name} takes {len(op.explicit)} arguments, got {len(args)}")
    opctx = dict(op.context)
    theta: dict[str, Term] = dict(zip(op.explicit, args))
    for name, actual in zip(op.explicit, args):
        declared = opctx[name]
        _match_sort(declared, _sort_of(actual, ctx, sig, ops), theta)
    for v, _ in op.context:
        if v not in theta:
            raise ParseError(f"cannot infer {v} in {op.name}")
    for v, s in op.context:
        want = _subst_sort(s, theta)
        got = _sort_of(theta[v], ctx, sig, ops)
        if got != want:
            raise ParseError(f"{theta[v]} has sort {got}, expected {want}")
    return theta, _subst_sort(op.output, theta)


def _check_context(
    bindings: tuple[Binding, ...], sig: Signature, ops: dict[str, TermDecl]
) -> None:
    seen: dict[str, SortExpr] = {}
    declared = set(sig.names) | set(ops)
    for v, s in bindings:
        if v in declared:
            raise IllFormedContext(f"variable {v} shadows a declared symbol")
        if v in seen:
            raise IllFormedContext(f"variable {v} bound twice")
        if s.head in ops:
            raise IllFormedContext(
                f"context mentions the term symbol {s.head}; "
                "contexts must be well-formed over the type signature alone"
            )
        if s.head not in sig.names:
            raise IllFormedContext(f"unknown type {s.head}")
        for a in s.args:
            if a.args is not None:
                raise IllFormedContext(
                    f"context argument {a} is not a variable; "
                    "contexts must be well-formed over the type signature alone"
                )
            if a.head not in seen:
                raise IllFormedContext(f"unbound variable {a.head} in {s}")
        _check_sort_instance(s, seen, sig, {}, IllFormedContext)
        seen[v] = s


def _check_sort_instance(
    s: SortExpr,
    ctx: dict[str, SortExpr],
    sig: Signature,
    ops: dict[str, TermDecl],
    error: type[ValueError] = ParseError,
) -> None:
    decl = sig.decl(s.head)
    if len(s.args) != len(decl.arg_order):
        raise error(f"{s.head} takes {len(decl.arg_order)} arguments")
    theta = dict(zip(decl.arg_order, s.args))
    opctx = dict(decl.context)
    for w in decl.arg_order:
        want = _subst_sort(opctx[w], theta)
        got = _sort_of(theta[w], ctx, sig, ops)
        if got != want:
            raise error(f"{theta[w]} has sort {got}, expected {want}")


def _grade_of_context(bindings: tuple[Binding, ...], grades: dict[str, int]) -> int:
    if not bindings:
        return 0
    return 1 + max(grades[s.head] for _, s in bindings)


def oracle_parse_theory(text: str) -> tuple[Signature, TermSignature, EquationSet]:
    """`theory.parse_theory`, typing each term by re-inference."""
    types: list[TypeDecl] = []
    ops: list[TermDecl] = []
    eqns: list[Equation] = []
    grades: dict[str, int] = {}
    try:
        for lineno, line in numbered_lines(text):
            tok = _Tokens(line)
            ctx = _parse_ctx(tok)
            tok.expect("|-")
            sig = Signature(tuple(types))
            opmap = {d.name: d for d in ops}
            _check_context(ctx, sig, opmap)
            lead = _parse_term(tok)
            nxt = tok.peek()
            if nxt == "type":
                tok.next()
                tok.done()
                name = lead.head
                if name in grades or name in opmap:
                    raise FreshnessViolation(f"{name} is already declared")
                ctx_vars = tuple(v for v, _ in ctx)
                if lead.args is None:
                    arg_order = ctx_vars
                else:
                    arg_order = tuple(a.head for a in lead.args)
                    if any(a.args is not None for a in lead.args):
                        raise ParseError("type arguments must be variables")
                    if sorted(arg_order) != sorted(ctx_vars):
                        raise ParseError(f"{name} must list each context variable once")
                grade = _grade_of_context(ctx, grades)
                types.append(TypeDecl(name, ctx, arg_order, grade))
                grades[name] = grade
            elif nxt == ":":
                tok.next()
                output = _parse_sortexpr(tok)
                tok.done()
                name = lead.head
                if name in grades or name in opmap:
                    raise FreshnessViolation(f"{name} is already declared")
                if lead.args is None:
                    raise ParseError(f"operation {name} needs an argument list")
                explicit = tuple(a.head for a in lead.args)
                ctx_names = {v for v, _ in ctx}
                if any(a.args is not None or a.head not in ctx_names for a in lead.args):
                    raise ParseError(f"arguments of {name} must be context variables")
                if len(set(explicit)) != len(explicit):
                    raise ParseError(f"repeated argument in {name}")
                if output.head not in grades:
                    raise ParseError(f"unknown type {output.head}")
                _check_sort_instance(output, dict(ctx), sig, opmap)
                ops.append(TermDecl(name, ctx, explicit, output, grades[output.head]))
            elif nxt == "=":
                tok.next()
                rhs = _parse_term(tok)
                tok.expect(":")
                sort = _parse_sortexpr(tok)
                tok.done()
                ctxmap = dict(ctx)
                for side in (lead, rhs):
                    got = _sort_of(side, ctxmap, sig, opmap)
                    if got != sort:
                        raise ParseError(f"{side} has sort {got}, expected {sort}")
                if sort.head not in grades:
                    raise ParseError(f"unknown type {sort.head}")
                eqns.append(Equation(ctx, lead, rhs, sort, grades[sort.head]))
            else:
                raise ParseError("expected 'type', ':' or '=' after the head")
    except ValueError as err:
        raise line_error(lineno, err) from None
    return Signature(tuple(types)), TermSignature(tuple(ops)), EquationSet(tuple(eqns))

"""Finite-model checking by recursive enumeration: an independent oracle.

The environments of a context are enumerated by a recursive generator, one
frame per variable, that looks each variable's carrier up only when it is
reached, so every prefix runs over the whole carrier of the next variable
even when a later one's is empty.  Each environment is a fresh dict, and
terms are evaluated by walking them.  The tests compare
`theory.check_model`, which enumerates over compiled slots with a forward
check and evaluates compiled terms, against this: the whole report must
be equal, problems in order, and every count and first witness.
"""

from __future__ import annotations

from opetopes.theory import (
    Binding,
    EquationResult,
    EquationSet,
    Model,
    ModelReport,
    Signature,
    SortExpr,
    Term,
    TermDecl,
    TermSignature,
)


class _MissingEntry(Exception):
    pass


def _instance_key(s: SortExpr, env: dict[str, str]) -> tuple[str, tuple[str, ...]]:
    return (s.head, tuple(env[a.head] for a in s.args))


def _written(head: str, args: tuple[str, ...]) -> str:
    return head + (f"({', '.join(args)})" if args else "")


def _environments(bindings: tuple[Binding, ...], M: Model):
    """All environments for a context of the type signature, in the
    canonical order: variables left to right, carrier order within each."""

    def go(i: int, env: dict[str, str]):
        if i == len(bindings):
            yield dict(env)
            return
        v, s = bindings[i]
        for e in M.carrier(_instance_key(s, env)):
            env[v] = e
            yield from go(i + 1, env)
            del env[v]

    yield from go(0, {})


def _eval(
    t: Term,
    env: dict[str, str],
    M: Model,
    ops: dict[str, TermDecl],
) -> str:
    if t.args is None:
        if t.head in env:
            return env[t.head]
        if t.head in ops and not ops[t.head].explicit:
            return _eval(Term(t.head, ()), env, M, ops)
        raise _MissingEntry(f"unbound {t.head}")
    op = ops[t.head]
    values = tuple(_eval(a, env, M, ops) for a in t.args)
    table = M.ops.get(t.head, {})
    if values not in table:
        raise _MissingEntry(f"no table entry for {t.head}({', '.join(values)})")
    return table[values]


def oracle_check_model(
    theory: tuple[Signature, TermSignature, EquationSet], M: Model
) -> ModelReport:
    """`theory.check_model`, with each environment a fresh dict and each
    term evaluated by walking it."""
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
            problems.append(f"instance {_written(head, args)} has the wrong arity")
            continue
        env = dict(zip(decl.arg_order, args))
        opctx = dict(decl.context)
        for w in decl.arg_order:
            want = _instance_key(opctx[w], env)
            if env[w] not in M.carrier(want):
                problems.append(
                    f"instance {_written(head, args)}: {env[w]} is not in {_written(*want)}"
                )
        for e in elems:
            if e in elem_instance:
                problems.append(f"element {e} appears in two carriers")
            elem_instance[e] = key
    problems.extend(f"table for unknown operation {op}" for op in M.ops if op not in ops)

    for name, decl in ops.items():
        table = M.ops.get(name, {})
        seen: set[tuple[str, ...]] = set()
        for env in _environments(decl.context, M):
            values = tuple(env[v] for v in decl.explicit)
            seen.add(values)
            if values not in table:
                problems.append(f"table for {name} is missing {name}({', '.join(values)})")
                continue
            try:
                out_key = (
                    decl.output.head,
                    tuple(_eval(a, env, M, ops) for a in decl.output.args),
                )
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
        for env in _environments(eq.context, M):
            checked += 1
            try:
                lhs = _eval(eq.lhs, env, M, ops)
                rhs = _eval(eq.rhs, env, M, ops)
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


def _render_env(bindings: tuple[Binding, ...], env: dict[str, str]) -> str:
    return ", ".join(f"{v} = {env[v]}" for v, _ in bindings)

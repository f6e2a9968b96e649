"""Command line front end.

Four groups of subcommands mirror the library layers: `opetope` for
single shapes, `opset` for finite opetopic sets, `oalg` for algebras and
nerves of finite categories, and `theory` for dependently sorted
theories and their finite models.

Exit codes: 0 on success, 1 when a requested check fails, 2 on usage or
parse errors.  Output formats: `text` (default), `json` (canonical,
sorted keys), and `dot` for the shapes of `opetope validate` and
`opetope target`; the other commands print their text under `dot`.  Each
command computes its exit code, json payload and text lines, and
`_result` prints the requested one.

The parser is built once per process, on the first `main` call, and
never at import.  `main` looks the command up by name at call time, as
the module's `cmd_<group>_<command>` function (dashes read as
underscores), so tests can monkeypatch a command after import.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import oalg, opetope, opset, theory


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return (int(lo), int(hi))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected m:n, got {text!r}") from err


def _exprs(args, count: int, usage: str) -> list[str]:
    exprs = (args.expr or []) + ([_read(args.file)] if args.file else [])
    if len(exprs) != count:
        raise ValueError(usage)
    return exprs


def _one_expr(args) -> str:
    return _exprs(args, 1, "give exactly one shape via --expr or --file")[0]


def _shape(text: str) -> opetope.Opetope:
    """Parse a shape and build its target, which exists exactly when the shape
    is valid: a malformed shape raises the first defect the target meets."""
    omega = opetope.parse(text)
    if omega.dim >= 2:
        opetope.target(omega)
    return omega


def _dot(omega: opetope.Opetope) -> str:
    lines = ["digraph opetope {"]
    lines.append(f'  label="{opetope.render(omega)}";')
    nodes = getattr(omega, "nodes", ())
    for addr, deco in sorted(nodes, key=lambda kv: str(kv[0])):
        lines.append(f'  "{addr}" [label="{opetope.render(deco)}"];')
    for addr, _ in sorted(nodes, key=lambda kv: str(kv[0])):
        if addr.entries:
            lines.append(f'  "{addr.parent()}" -> "{addr}" [label="{addr.last()}"];')
    lines.append("}")
    return "\n".join(lines)


def _result(args, code: int, payload, lines: list[str], shape=None) -> int:
    """Print a command's result in the requested format and return its exit
    code: json prints payload, dot the graph of shape where the command has
    one, and text (or dot without a shape) prints lines."""
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "dot" and shape is not None:
        print(_dot(shape))
    elif lines:
        print("\n".join(lines))
    return code


def _verdict(kind: str, found, bad: str) -> list[str]:
    """One line per problem or failure, then "ok" or bad."""
    return [f"{kind}: {x}" for x in found] + [bad if found else "ok"]


# --- opetope ------------------------------------------------------------------


def cmd_opetope_validate(args) -> int:
    omega = opetope.parse(_one_expr(args))
    problems = opetope.validate(omega)
    expr, dim, size = opetope.render(omega), omega.dim, opetope.size(omega)
    return _result(
        args,
        1 if problems else 0,
        {
            "expr": expr,
            "dim": dim,
            "size": size,
            "ok": not problems,
            "problems": list(problems),
        },
        [f"shape: {expr}", f"dim: {dim}", f"size: {size}"]
        + _verdict("problem", problems, "invalid"),
        omega,
    )


def cmd_opetope_target(args) -> int:
    out = opetope.target(_shape(_one_expr(args)))
    expr = opetope.render(out)
    return _result(args, 0, {"expr": expr, "dim": out.dim}, [expr], out)


def cmd_opetope_source(args) -> int:
    omega = _shape(_one_expr(args))
    items = [
        (str(addr), opetope.render(opetope.source(omega, addr)))
        for addr in opetope.node_addrs(omega)
    ]
    lines = [f"{addr} {expr}" for addr, expr in items]
    return _result(args, 0, {"sources": dict(items)}, lines)


def cmd_opetope_faces(args) -> int:
    fs = opetope.faces(_shape(_one_expr(args)))
    rows = [
        {
            "word": fs.names[cid],
            "shape": opetope.render(fs.shape_of(cid)),
        }
        for cid in fs.cells()
    ]
    lines = [f"cells: {len(rows)}"] + [f"{row['word']} : {row['shape']}" for row in rows]
    return _result(args, 0, {"cells": rows, "count": len(rows)}, lines)


def cmd_opetope_enumerate(args) -> int:
    shapes = opetope.enumerate_opetopes(args.dim, args.max_nodes)
    rendered = [opetope.render(o) for o in shapes]
    payload = {"dim": args.dim, "max_nodes": args.max_nodes, "opetopes": rendered}
    return _result(args, 0, payload, rendered)


def cmd_opetope_hom(args) -> int:
    exprs = _exprs(args, 2, "give two shapes: --expr SOURCE --expr TARGET")
    psi, omega = (_shape(e) for e in exprs)
    words = [opetope.render_word(m.word) for m in opetope.hom(psi, omega)]
    payload = {"count": len(words), "maps": words}
    return _result(args, 0, payload, [f"maps: {len(words)}"] + words)


def cmd_opetope_identities(args) -> int:
    omega = _shape(_one_expr(args))
    problems = opetope.check_identities(omega)
    cells = len(opetope.faces(omega).cells())
    squares = len(opetope.relation_squares(omega))
    return _result(
        args,
        1 if problems else 0,
        {
            "cells": cells,
            "squares": squares,
            "ok": not problems,
            "problems": list(problems),
        },
        [f"cells: {cells}", f"squares: {squares}"]
        + _verdict("problem", problems, "invalid"),
    )


# --- opset --------------------------------------------------------------------


def _inclusion_cmd(args, build) -> int:
    omega = _shape(_one_expr(args))
    inc = build(omega, args.window)
    text = opset.dump_opset(inc.src)
    payload = {"expr": opetope.render(omega), "window": list(inc.src.window), "opset": text}
    return _result(args, 0, payload, [text.removesuffix("\n")])


def cmd_opset_spine(args) -> int:
    return _inclusion_cmd(args, opset.spine)


def cmd_opset_boundary(args) -> int:
    return _inclusion_cmd(args, opset.boundary)


def cmd_opset_orthogonal(args) -> int:
    omega = _shape(args.expr)
    X = opset.load_opset(_read(args.file))
    results = {
        include.__name__: opset.orthogonal_witness(omega, include, X)
        for include in (opset.spine, opset.boundary)
    }
    ok = all(w is None for w in results.values())
    payload = {
        kind: None if w is None else {"extensions": w[1]} for kind, w in results.items()
    }
    lines = [
        f"{kind}: orthogonal"
        if w is None
        else f"{kind}: not orthogonal (a map extends {w[1]} times)"
        for kind, w in results.items()
    ]
    return _result(args, 0 if ok else 1, payload | {"ok": ok}, lines)


def _lifting_result(args, report: opset.LiftingReport, show) -> int:
    """Print a unique-lifting report: each row's flag as show writes it, then the verdict."""
    return _result(
        args,
        0 if report.ok else 1,
        report.flags | {"ok": report.ok, "failures": list(report.failures)},
        [f"{key}: {show(value)}" for key, value in report.flags.items()]
        + _verdict("failure", report.failures, "failed"),
    )


def cmd_opset_hlift(args) -> int:
    X = opset.load_opset(_read(args.file))
    return _lifting_result(args, opset.hlift_check(X, args.n, args.max_nodes), str)


# --- oalg ---------------------------------------------------------------------


def cmd_oalg_free(args) -> int:
    C = oalg.parse_category(_read(args.file))
    family = oalg.category_family(C)
    shape = _shape(args.expr) if args.expr else opetope.ARROW
    rows = []
    for cell in oalg.free_cells(family, shape, args.max_nodes):
        start, edges = oalg.pasting_chain(cell)
        rows.append(
            {"shape": opetope.render(cell.shape), "start": start, "edges": list(edges)}
        )
    lines = [f"cells: {len(rows)}"] + [
        f"{row['shape']} | {' '.join([row['start']] + row['edges'])}" for row in rows
    ]
    return _result(args, 0, {"count": len(rows), "cells": rows}, lines)


def cmd_oalg_laws(args) -> int:
    C = oalg.parse_category(_read(args.file))
    algebra = oalg.category_algebra(C, args.max_nodes)
    report = oalg.check_algebra_laws(algebra)
    return _result(
        args,
        1 if report.failures else 0,
        {
            "units_checked": report.units_checked,
            "squares_checked": report.squares_checked,
            "ok": not report.failures,
            "failures": list(report.failures),
        },
        [
            f"units checked: {report.units_checked}",
            f"squares checked: {report.squares_checked}",
        ]
        + _verdict("failure", report.failures, "failed"),
    )


def cmd_oalg_h(args) -> int:
    omega = _shape(_one_expr(args))
    value = oalg.h_object(omega)
    rows = []
    for gen in opetope.generators(omega):
        m = oalg.h_morphism(omega, gen)
        face = opetope.render_gen(gen)
        rows.append({"face": face, "src": m.src, "dst": m.dst, "values": list(m.values)})
    lines = [f"object: {value}"] + [
        f"{row['face']}: ({', '.join(map(str, row['values']))}) : "
        f"[{row['src']}] -> [{row['dst']}]"
        for row in rows
    ]
    return _result(args, 0, {"object": value, "faces": rows}, lines)


def cmd_oalg_nerve(args) -> int:
    N = oalg.nerve_category(oalg.parse_category(_read(args.file)), args.max_nodes)
    text = opset.dump_opset(N)
    payload = {"window": list(N.window), "opset": text}
    return _result(args, 0, payload, [text.removesuffix("\n")])


def cmd_oalg_nerve_check(args) -> int:
    N = oalg.nerve_category(oalg.parse_category(_read(args.file)), args.max_nodes)
    report = oalg.nerve_axioms_check(N, args.max_nodes)
    return _lifting_result(args, report, lambda value: "yes" if value else "no")


# --- theory -------------------------------------------------------------------


def cmd_theory_parse(args) -> int:
    sig, ops, eqns = theory.parse_theory(_read(args.file))
    payload = {
        "types": [{"name": d.name, "grade": d.grade} for d in sig.declarations],
        "ops": [
            {"name": d.name, "grade": d.grade, "output": str(d.output)}
            for d in ops.declarations
        ],
        "equations": [{"label": e.label, "grade": e.grade} for e in eqns.equations],
    }
    lines = (
        [f"type {d} (grade {d.grade})" for d in sig.declarations]
        + [f"op {d} (grade {d.grade})" for d in ops.declarations]
        + [f"equation {e.label} (grade {e.grade})" for e in eqns.equations]
    )
    return _result(args, 0, payload, lines)


def cmd_theory_lfd(args) -> int:
    sig, _, _ = theory.parse_theory(_read(args.file))
    cat = theory.signature_to_lfd(sig)
    report = theory.validate_lfd(cat)
    return _result(
        args,
        0 if report.ok else 1,
        {
            "objects": {c: report.dims.get(c) for c in cat.objects},
            "morphisms": len(cat.morphisms),
            "ok": report.ok,
            "problems": list(report.problems),
        },
        [f"object {c} (dim {report.dims.get(c)})" for c in cat.objects]
        + [f"morphisms: {len(cat.morphisms)}", "ok" if report.ok else "invalid"],
    )


def cmd_theory_roundtrip(args) -> int:
    sig, _, _ = theory.parse_theory(_read(args.file))
    cat = theory.signature_to_lfd(sig)
    ok = theory.roundtrip_isomorphism(cat, theory.lfd_to_signature(cat)) is not None
    payload = {"ok": ok, "objects": len(cat.objects), "morphisms": len(cat.morphisms)}
    return _result(args, 0 if ok else 1, payload, ["PASS" if ok else "FAIL"])


def cmd_theory_check_model(args) -> int:
    th = theory.parse_theory(_read(args.theory))
    model = theory.parse_model(_read(args.model))
    report = theory.check_model(th, model)
    return _result(
        args,
        0 if report.ok else 1,
        {
            "ok": report.ok,
            "problems": list(report.problems),
            "equations": [
                {"label": e.label, "checked": e.checked, "witness": e.witness}
                for e in report.equations
            ],
        },
        [f"problem: {p}" for p in report.problems]
        + [
            f"  {e.label}: holds ({e.checked} environments)"
            if e.witness is None
            else f"  {e.label}: fails at {e.witness}"
            for e in report.equations
        ]
        + ["PASS" if report.ok else "FAIL"],
    )


def cmd_theory_context(args) -> int:
    sig, _, _ = theory.parse_theory(_read(args.file))
    bindings = theory.parse_context(sig, args.expr or "")
    X = theory.realize_bindings(sig, bindings)
    ctx = theory.presheaf_to_context(X)
    problems = theory.validate_context(ctx)
    iso = theory.context_isomorphism(X, ctx)
    ok = not problems and iso is not None
    lines = [str(s) for s in ctx.steps]
    if iso is not None:
        lines.append("iso: " + ", ".join(f"{k}->{v}" for k, v in sorted(iso.comp.items())))
    return _result(
        args,
        0 if ok else 1,
        {
            "steps": [
                {"name": s.name, "obj": s.obj, "attach": dict(s.attach)} for s in ctx.steps
            ],
            "iso": None if iso is None else iso.comp,
            "ok": ok,
        },
        lines + ["ok" if ok else "failed"],
    )


# --- wiring -------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "dot"), default="text",
        help="output format (dot: validate and target; text elsewhere)",
    )

    parser = argparse.ArgumentParser(
        prog="opetopes",
        description="Opetopes, opetopic sets, algebras, and sorted theories.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    def leaf(group, name, **flags):
        sub = group.add_parser(name, parents=[common])
        for flag, kw in flags.items():
            sub.add_argument(f"--{flag.replace('_', '-')}", **kw)

    g1 = groups.add_parser("opetope").add_subparsers(dest="cmd", required=True)
    expr = {"expr": {"action": "append", "help": "shape expression"}}
    exprfile = expr | {"file": {"help": "file holding a shape expression"}}
    leaf(g1, "validate", **exprfile)
    leaf(g1, "target", **exprfile)
    leaf(g1, "source", **exprfile)
    leaf(g1, "faces", **exprfile)
    leaf(
        g1, "enumerate",
        dim={"type": int, "required": True},
        max_nodes={"type": int, "default": 6},
    )
    leaf(g1, "hom", **exprfile)
    leaf(g1, "identities", **exprfile)

    g2 = groups.add_parser("opset").add_subparsers(dest="cmd", required=True)
    window = {"window": {"type": _window, "default": None, "help": "dimension window m:n"}}
    leaf(g2, "spine", **exprfile, **window)
    leaf(g2, "boundary", **exprfile, **window)
    leaf(
        g2, "orthogonal",
        expr={"required": True, "help": "shape expression"},
        file={"required": True, "help": "opetopic set file"},
    )
    leaf(
        g2, "hlift",
        file={"required": True, "help": "opetopic set file"},
        n={"type": int, "required": True, "help": "dimension to test around"},
        max_nodes={"type": int, "default": 4},
    )

    g3 = groups.add_parser("oalg").add_subparsers(dest="cmd", required=True)
    catfile = {"file": {"required": True, "help": "finite category file"}}
    leaf(
        g3, "free",
        **catfile,
        expr={"help": "pasting shape (default: the arrow)"},
        max_nodes={"type": int, "default": 4},
    )
    leaf(g3, "laws", **catfile, max_nodes={"type": int, "default": 6})
    leaf(g3, "h", **exprfile)
    leaf(g3, "nerve", **catfile, max_nodes={"type": int, "default": 3})
    leaf(g3, "nerve-check", **catfile, max_nodes={"type": int, "default": 3})

    g4 = groups.add_parser("theory").add_subparsers(dest="cmd", required=True)
    thfile = {"file": {"required": True, "help": "theory or signature file"}}
    leaf(g4, "parse", **thfile)
    leaf(g4, "lfd", **thfile)
    leaf(g4, "roundtrip", **thfile)
    leaf(
        g4, "check-model",
        theory={"required": True, "help": "theory file"},
        model={"required": True, "help": "model file"},
    )
    leaf(
        g4, "context",
        **thfile,
        expr={"help": "context to realize, e.g. 'x y : V, f : E(x, y)'"},
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    cmd = globals()[f"cmd_{args.group}_{args.cmd}".replace("-", "_")]
    try:
        return cmd(args)
    except BrokenPipeError:
        # the reader went away mid-output; silence the shutdown flush too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

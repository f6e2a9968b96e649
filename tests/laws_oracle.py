"""The algebra-law check that redoes its per-shape work on every square:
an independent oracle.

For each uniform-height-2 shape xi it searches the fillings of target(xi)
afresh and composes each flattened pasting again, even when an earlier
shape had the same target; and pasting_chain walks the face words of a
pasting's start point and arrows every time it reads one.  The tests
compare `oalg.check_algebra_laws` against this: the whole report must be
equal, failures in order.  Like the check it mirrors, it checks a unit
whatever its size, so it refuses a bound under one node.
"""

from __future__ import annotations

from opetopes.oalg import (
    AlgebraLawReport,
    OAlgebra,
    PastingCell,
    ShapeMismatch,
    _arrows,
    _gluing,
    _height_two_parts,
    _height_two_shapes,
    _natural_fill,
    _spine_of,
    monad_unit,
)
from monad_oracle import _slice
from opetopes.opetope import STAR, T_GEN, faces, render, size, target
from opetopes.kernel import PshMap as OpSetMap
from opetopes.opset import maps


def pasting_chain(cell: PastingCell) -> tuple[str, tuple[str, ...]]:
    """The start vertex and the edges, in diagram order, of a pasting over
    a graph, each read through its face word."""
    name = faces(cell.shape).name
    edges = tuple(cell.filling(name((("s", a),))) for a in _arrows(cell.shape))
    return cell.filling(name((T_GEN, ("s", STAR)))), edges


def check_algebra_laws(A: OAlgebra, max_nodes: int) -> AlgebraLawReport:
    """The unit law on every cell, and the multiplication square on every
    uniform-height-2 pasting of pastings within the node bound."""
    X = A.base
    failures: list[str] = []
    units = 0
    for omega in X.shapes():
        if omega.dim != X.window[1]:
            continue
        for x in X.of_shape(omega):
            units += 1
            got = A.compose(monad_unit(X, x))
            if got != x:
                failures.append(f"unit: compose(unit({x})) = {got}")

    squares = 0
    for xi in _height_two_shapes(X.window[1], max_nodes):
        flat = target(xi)
        if size(flat) > A.max_nodes:
            continue
        S = _spine_of(flat, X.window)
        alpha, parts = _height_two_parts(xi)
        glue = _gluing(xi, parts, X.window)
        name = faces(alpha).name
        for f in maps(S, X):
            squares += 1
            lhs = A.compose(PastingCell(flat, f))
            try:
                seeds = {
                    name((("s", p),)): A.compose(_slice(X, nu, glue[p], f))
                    for p, nu in parts.items()
                }
                SA = _spine_of(alpha, X.window)
                comp = _natural_fill(SA, X, seeds.items(), "outer pasting")
            except ShapeMismatch as err:
                problem = str(err)
            else:
                rhs = A.compose(PastingCell(alpha, OpSetMap(SA, X, comp)))
                if lhs == rhs:
                    continue
                problem = f"flattened {lhs} != staged {rhs}"
            label = f"square at {render(xi)} with {sorted(f.comp.items())}"
            failures.append(f"{label}: {problem}")
    return AlgebraLawReport(units, squares, tuple(failures))

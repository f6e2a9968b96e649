"""The multiplication of the free pasting monad, written out: the oracle of
the law square.

`oalg.check_algebra_laws` reads the flattened side of a square as the
pasting of shape target(xi) itself, and the staged side by slicing that
filling back into one inner pasting per outer node along `oalg._gluing`;
`_slice` here builds such a pasting.  `monad_mult` goes the other way: it
glues inner pastings into the filling of target(xi), and `split_pasting`
inverts it through `_slice`.  The tests state the monad laws with these,
and that splitting then multiplying gives back every filling the search
finds.
"""

from __future__ import annotations

from opetopes.oalg import (
    PastingCell,
    ShapeMismatch,
    _gluing,
    _height_two_parts,
    _natural_fill,
    _spine_of,
)
from opetopes.opetope import Addr, Degenerate, Opetope, Tree, epsilon, render, target
from opetopes.kernel import PshMap
from opetopes.opset import CellId, FinOpSet


def _slice(
    X: FinOpSet, nu: Opetope, glue: dict[CellId, CellId], f: PshMap
) -> PastingCell:
    """The pasting of shape nu that reads the filling f through glue."""
    S = _spine_of(nu, X.window)
    return PastingCell(nu, PshMap(S, X, {y: f(x) for y, x in glue.items()}))


def _shell_cell(S: FinOpSet, shell: Opetope) -> CellId:
    """The unique shell-shaped cell in the spine of a degenerate shape."""
    cells = S.of_shape(shell)
    if len(cells) != 1:
        raise ShapeMismatch(f"expected one {shell}-shaped cell, found {len(cells)}")
    return cells[0]


def monad_mult(
    X: FinOpSet,
    xi: Opetope,
    inner: dict[Addr, PastingCell],
    shell: CellId | None = None,
) -> PastingCell:
    """Flatten a pasting of pastings into a single pasting.

    xi must be of uniform height 2: a root decorated by the outer shape
    alpha, with exactly one node above it per node of alpha, decorated by
    the inner shapes.  inner supplies the pasting cell for each node of
    alpha.  When alpha is degenerate there are no inner cells; shell then
    names the single colour of the result.  The result has shape
    target(xi), and its filling merges the inner fillings along the gluing
    of their spines into the spine of target(xi); a cell that two inner
    fillings give different values is an error.
    """
    if xi.dim != X.window[1] + 2:
        raise ShapeMismatch(f"multiplication takes a shape of dimension {X.window[1] + 2}")
    if isinstance(xi, Tree) and isinstance(xi.decoration(epsilon(xi.dim - 1)), Degenerate):
        if len(xi.node_map()) != 1:
            raise ShapeMismatch(f"{render(xi)} is not of uniform height 2")
        alpha = xi.decoration(epsilon(xi.dim - 1))
        if inner:
            raise ShapeMismatch("a degenerate outer shape admits no inner cells")
        if shell is None:
            raise ShapeMismatch("a degenerate outer shape needs its colour")
        S = _spine_of(alpha, X.window)
        comp = _natural_fill(
            S, X, [(_shell_cell(S, alpha.shell), shell)], "multiplication"
        )
        return PastingCell(alpha, PshMap(S, X, comp))

    alpha, parts = _height_two_parts(xi)
    if set(inner) != set(parts):
        raise ShapeMismatch("inner cells must be indexed by the outer nodes")
    for p, cell in inner.items():
        if cell.shape != parts[p]:
            raise ShapeMismatch(
                f"inner cell at {p} has shape {render(cell.shape)}, "
                f"expected {render(parts[p])}"
            )
        if cell.filling.dst != X:
            raise ShapeMismatch("inner cells must be pastings over the same family")

    flat = target(xi)
    glue = _gluing(xi, parts, X.window)
    seeds = [(x, inner[p].filling(y)) for p in parts for y, x in glue[p].items()]
    S = _spine_of(flat, X.window)
    comp = _natural_fill(S, X, seeds, "multiplication")
    return PastingCell(flat, PshMap(S, X, comp))


def split_pasting(X: FinOpSet, xi: Opetope, cell: PastingCell) -> dict[Addr, PastingCell]:
    """Invert monad_mult: slice a filling of the flattened tree back into
    one pasting cell per outer node of the uniform-height-2 shape xi."""
    _, parts = _height_two_parts(xi)
    if cell.shape != target(xi):
        raise ShapeMismatch(
            f"filling has shape {render(cell.shape)}, expected {render(target(xi))}"
        )
    glue = _gluing(xi, parts, X.window)
    return {p: _slice(X, nu, glue[p], cell.filling) for p, nu in parts.items()}

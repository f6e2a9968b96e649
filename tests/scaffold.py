"""Test inputs and oracles that no command needs.

`terminal_opset` builds the terminal opetopic set under a size cap, an
input of the map-search, orthogonality and algebra tests.  `monotone_maps`
enumerates the monotone maps [m] -> [mp] directly: the oracle that the
realized faces and the diagrammatic presentations of Delta are checked
against.  `lambda_identity` is the identity of [m] among them.
"""

from __future__ import annotations

import itertools

from opetopes.oalg import LambdaMorphism
from opetopes.opetope import Gen, Opetope, enumerate_opetopes, face, generators, size
from opetopes.opetope import faces as face_structure
from opetopes.opset import CellId, FinOpSet, Window


def terminal_opset(window: Window, max_nodes: int) -> FinOpSet:
    """One cell per shape whose whole face closure fits under the size cap.

    The size cap alone is not closed under faces (targets of degenerate
    shapes grow by one node), so shapes are kept only when every face of
    theirs also fits.
    """
    lo, hi = window
    cells: dict[Opetope, tuple[CellId, ...]] = {}
    faces: dict[tuple[CellId, Gen], CellId] = {}
    name: dict[Opetope, CellId] = {}
    for n in range(lo, hi + 1):
        for w in enumerate_opetopes(n, max_nodes):
            fs = face_structure(w)
            if all(size(fs.shape_of(c)) <= max_nodes for c in fs.cells()):
                name[w] = f"c{len(name)}"
                cells[w] = (name[w],)
    for w, x in name.items():
        if w.dim - 1 < lo:
            continue
        for g in generators(w):
            f = face(w, g)
            if f in name:
                faces[(x, g)] = name[f]
            else:
                raise ValueError("size cap is not face-closed; raise max_nodes")
    return FinOpSet(window, cells, faces)


def lambda_identity(m: int) -> LambdaMorphism:
    return LambdaMorphism(m, m, tuple(range(m + 1)))


def monotone_maps(m: int, mp: int) -> list[LambdaMorphism]:
    """Direct enumeration of all monotone maps [m] -> [mp]."""
    return [
        LambdaMorphism(m, mp, vals)
        for vals in itertools.combinations_with_replacement(range(mp + 1), m + 1)
    ]

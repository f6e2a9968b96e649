"""Opetope calculus: polynomial trees, opetopes, opetopic sets and algebras,
and a checker for dependently sorted algebraic theories over direct categories."""

from opetopes.polytree import PolyFun, PTree, Edge, Corolla
from opetopes.opetope import Addr, Opetope, POINT, ARROW, OMorphism
from opetopes.opset import FinOpSet, OpSetMap
from opetopes.oalg import (
    FiniteCategory,
    LambdaMorphism,
    OAlgebra,
    PastingCell,
    SortedFamily,
)
from opetopes.theory import FinDirectCat

__all__ = [
    "PolyFun",
    "PTree",
    "Edge",
    "Corolla",
    "Addr",
    "Opetope",
    "POINT",
    "ARROW",
    "OMorphism",
    "FinOpSet",
    "OpSetMap",
    "SortedFamily",
    "PastingCell",
    "OAlgebra",
    "FiniteCategory",
    "FinDirectCat",
    "LambdaMorphism",
]

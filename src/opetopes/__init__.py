"""Opetope calculus: opetopes as trees of higher addresses, opetopic sets
and algebras, and a checker for dependently sorted algebraic theories over
direct categories."""

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

"""Opetope calculus: opetopes as trees of higher addresses, opetopic sets
and algebras, and a checker for dependently sorted algebraic theories over
direct categories."""

from opetopes.opetope import Addr, Opetope, POINT, ARROW, OMorphism
from opetopes.kernel import FinDirectCat, FiniteCategory, PshMap
from opetopes.opset import FinOpSet
from opetopes.oalg import LambdaMorphism, OAlgebra, PastingCell

__all__ = [
    "Addr",
    "Opetope",
    "POINT",
    "ARROW",
    "OMorphism",
    "FinOpSet",
    "PshMap",
    "PastingCell",
    "OAlgebra",
    "FiniteCategory",
    "FinDirectCat",
    "LambdaMorphism",
]

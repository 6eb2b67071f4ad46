"""Exact arithmetic kernel: prime fields, sparse polynomials, rational function
fields, linear algebra, the expression parser, and the degree-p root extensions
base[y]/(y^p - beta), whose inverse is the Frobenius norm."""

from .extension import (
    ExtElem,
    NotAPthPowerCheckError,
    SimpleExtensionField,
    extension_tower,
)
from .matrix import Matrix, Span
from .multipoly import CACHE_SIZE, MAX_VARIABLES, MultiPoly, poly_gcd
from .parser import ParseError, UnknownVariableError, parse_expr
from .primefield import SUPPORTED_PRIMES, PrimeField, frobenius_power, power
from .ratfunc import FunctionField, RatFunc

__all__ = [
    "CACHE_SIZE",
    "ExtElem",
    "FunctionField",
    "Matrix",
    "MAX_VARIABLES",
    "MultiPoly",
    "NotAPthPowerCheckError",
    "ParseError",
    "PrimeField",
    "RatFunc",
    "SUPPORTED_PRIMES",
    "SimpleExtensionField",
    "Span",
    "UnknownVariableError",
    "extension_tower",
    "frobenius_power",
    "parse_expr",
    "poly_gcd",
    "power",
]

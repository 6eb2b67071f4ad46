"""Exact arithmetic kernel: prime fields, sparse polynomials, rational function
fields, degree-p root extensions, truncated series, dense linear algebra, and
the expression parser."""

from .extension import ExtElem, NotAPthPowerCheckError, SimpleExtensionField, extension_tower
from .matrix import Matrix, row_space_basis
from .multipoly import CACHE_SIZE, MAX_VARIABLES, MultiPoly, poly_gcd
from .parser import ParseError, UnknownVariableError, parse_expr
from .primefield import SUPPORTED_PRIMES, FpElem, PrimeField, power
from .ratfunc import FunctionField, RatFunc
from .series import TruncSeries, TruncSeriesRing

__all__ = [
    "CACHE_SIZE",
    "ExtElem",
    "FpElem",
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
    "TruncSeries",
    "TruncSeriesRing",
    "UnknownVariableError",
    "extension_tower",
    "parse_expr",
    "poly_gcd",
    "power",
    "row_space_basis",
]

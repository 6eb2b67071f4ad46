"""Rational function fields K = F_p(t_1, ..., t_n) with canonical reduced fractions.

Canonical form: gcd(num, den) is a unit and the denominator is monic under the
global lex order, so structural equality coincides with field equality.
"""

from .multipoly import MAX_VARIABLES, MultiPoly, poly_gcd
from .primefield import SUPPORTED_PRIMES, power


class RatFunc:
    """An element of F_p(t_1, ..., t_n), stored as a reduced num/den pair."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, reduce=True):
        if den is None:
            den = MultiPoly.const(num.p, num.vars, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce and den.is_one():
            reduce = False
        if reduce and not num.is_zero():
            g = poly_gcd(num, den)
            if not g.is_one():
                num = num.try_divide(g)
                den = den.try_divide(g)
            lc = den.leading_coeff()
            if lc != 1:
                inv = pow(lc, den.p - 2, den.p)
                num = num.scale(inv)
                den = den.scale(inv)
        elif num.is_zero():
            den = MultiPoly.const(den.p, den.vars, 1)
        self.num = num
        self.den = den
        self._hash = None

    # -- ring/field structure ------------------------------------------------

    @property
    def p(self):
        return self.num.p

    @property
    def vars(self):
        return self.num.vars

    def field(self):
        return FunctionField(self.p, self.vars)

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def __bool__(self):
        return not self.num.is_zero()

    def __add__(self, other):
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduce=False)

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverting zero")
        return RatFunc(self.den, self.num)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, RatFunc(MultiPoly.const(self.p, self.vars, 1), reduce=False))

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    # -- calculus -------------------------------------------------------------

    def derivative(self, var_idx):
        a, b = self.num, self.den
        return RatFunc(a.derivative(var_idx) * b - a * b.derivative(var_idx), b * b)

    def stretch_exponents(self, k):
        return RatFunc(self.num.stretch_exponents(k), self.den.stretch_exponents(k))

    # -- formatting -------------------------------------------------------------

    def format(self):
        if self.den.is_one():
            return self.num.format()
        n = self.num.format()
        if len(self.num.terms) > 1:
            n = "(%s)" % n
        d = self.den.format()
        # X/a*b would reparse as (X/a)*b, so anything but a lone power needs parens
        if not _single_factor(self.den):
            d = "(%s)" % d
        return "%s/%s" % (n, d)

    def __repr__(self):
        return self.format()


def _single_factor(poly):
    """True when the polynomial formats as a lone NAT or var^k factor."""
    if len(poly.terms) != 1:
        return False
    (expo, coef), = poly.terms.items()
    nvars_used = sum(1 for e in expo if e)
    if nvars_used == 0:
        return True
    return nvars_used == 1 and coef == 1


class FunctionField:
    """Field object for K = F_p(t_1, ..., t_n); hands out RatFunc elements."""

    def __init__(self, p, variables):
        if p not in SUPPORTED_PRIMES:
            raise ValueError("unsupported characteristic %r" % (p,))
        variables = tuple(variables)
        if len(variables) > MAX_VARIABLES:
            raise ValueError("at most %d variables supported" % MAX_VARIABLES)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        self.p = p
        self.characteristic = p
        self.vars = variables

    def zero(self):
        return RatFunc(MultiPoly.zero(self.p, self.vars), reduce=False)

    def one(self):
        return RatFunc(MultiPoly.const(self.p, self.vars, 1), reduce=False)

    def from_int(self, n):
        return RatFunc(MultiPoly.const(self.p, self.vars, n), reduce=False)

    def gen(self, name):
        return RatFunc(MultiPoly.variable(self.p, self.vars, name), reduce=False)

    def gens(self):
        return [self.gen(v) for v in self.vars]

    # the degree of imperfection of F_p(t_1,...,t_n) is n
    def imperfection_degree(self):
        return len(self.vars)

    def pth_root(self, elem):
        """Return the p-th root if elem is a p-th power in K, else None."""
        from ..frobenius import pth_root

        return pth_root(elem)

    # tower protocol: K is its own bottom field with no adjoined roots
    @property
    def moduli(self):
        return []

    def to_bottom(self, elem):
        return elem

    def from_bottom(self, elem):
        return elem

    def dim_over_bottom(self):
        return 1

    def __eq__(self, other):
        return isinstance(other, FunctionField) and self.p == other.p and self.vars == other.vars

    def __hash__(self):
        return hash(("FunctionField", self.p, self.vars))

    def __repr__(self):
        return "F_%d(%s)" % (self.p, ",".join(self.vars))

    @classmethod
    def from_descriptor(cls, desc):
        """The field of a JSON descriptor {"p": int, "vars": [names]}; types are checked, not coerced."""
        p, variables = desc["p"], desc["vars"]
        # JSON true/false arrive as bool, a subclass of int
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError("p must be an integer")
        if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
            raise ValueError("vars must be a list of strings")
        return cls(p, variables)

"""Rational function fields K = F_p(t_1, ..., t_n) with canonical reduced fractions.

Canonical form: gcd(num, den) is a unit and the denominator is monic under the
global lex order, so structural equality coincides with field equality.  Nothing
mutates a RatFunc after construction, so a field hands out one shared zero and
one shared one.
"""

from functools import lru_cache

from .multipoly import CACHE_SIZE, MAX_VARIABLES, MultiPoly, poly_gcd
from .primefield import SUPPORTED_PRIMES


class RatFunc:
    """An element of F_p(t_1, ..., t_n), stored as a reduced num/den pair."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, reduce=True):
        if den is None:
            den = MultiPoly.const(num.p, num.vars, 1)  # the ring's shared 1
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if reduce and den.is_one():
            reduce = False
        if reduce and not num.is_zero():
            g = poly_gcd(num, den)
            if not g.is_one():
                num = num.try_divide(g)
                den = den.try_divide(g)
            num, den = _monic_den(num, den)
        elif num.is_zero() and not den.is_one():
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
        return _field(self.p, self.vars)

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def __bool__(self):
        return not self.num.is_zero()

    # Henrici's scheme (Knuth, TAOCP vol. 2, 4.5.1): cancel the small gcds of
    # the reduced operands before multiplying, so every result is already
    # coprime with a monic denominator and no product is reduced afterwards.

    def __add__(self, other):
        return self._add(other.num, other.den)

    def __sub__(self, other):
        return self._add(-other.num, other.den)

    def _add(self, c, d):
        """self + c/d for c/d reduced with d monic."""
        a, b = self.num, self.den
        if c.is_zero():
            return self
        if a.is_zero():
            return RatFunc(c, d, reduce=False)
        if b.is_one():
            return RatFunc(_times(a, d) + c, d, reduce=False)
        if d.is_one():
            return RatFunc(a + c * b, b, reduce=False)
        g = poly_gcd(b, d)
        if g.is_one():
            return RatFunc(a * d + c * b, b * d, reduce=False)
        b_g = b.try_divide(g)
        d_g = d.try_divide(g)
        t = a * d_g + c * b_g
        if t.is_zero():
            return RatFunc(t, reduce=False)
        # t is coprime to b/g and to d/g, so what it shares with b*d/g divides g
        g2 = poly_gcd(t, g)
        if not g2.is_one():
            t = t.try_divide(g2)
            d = d.try_divide(g2)
        return RatFunc(t, _times(b_g, d), reduce=False)

    def __neg__(self):
        return RatFunc(-self.num, self.den, reduce=False)

    def __mul__(self, other):
        a, b, c, d = self.num, self.den, other.num, other.den
        # a zero operand is itself the canonical zero 0/1
        if a.is_zero():
            return self
        if c.is_zero():
            return other
        if not d.is_one():
            g1 = poly_gcd(a, d)
            if not g1.is_one():
                a = a.try_divide(g1)
                d = d.try_divide(g1)
        if not b.is_one():
            g2 = poly_gcd(c, b)
            if not g2.is_one():
                c = c.try_divide(g2)
                b = b.try_divide(g2)
        return RatFunc(_times(a, c), _times(b, d), reduce=False)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        """den/num, with the leading coefficient moved so the new denominator is monic."""
        if self.num.is_zero():
            raise ZeroDivisionError("inverting zero")
        return RatFunc(*_monic_den(self.den, self.num), reduce=False)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        # a^n / b^n is reduced when a/b is, and b^n is monic when b is
        return RatFunc(_power(self.num, n), _power(self.den, n), reduce=False)

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


def _monic_den(num, den):
    """num and den scaled by one constant so that den is monic."""
    lc = den.leading_coeff()
    if lc == 1:
        return num, den
    inv = pow(lc, den.p - 2, den.p)
    return num.scale(inv), den.scale(inv)


def _times(x, y):
    """x * y, without a product when either factor is the constant 1 or -1."""
    if x.is_one():
        return y
    if y.is_one():
        return x
    if x.is_minus_one():
        return -y
    if y.is_minus_one():
        return -x
    return x * y


def _power(x, n):
    """x ** n, without products when x is 1."""
    return x if x.is_one() else x ** n


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
        self.vars = variables
        self._zero = RatFunc(MultiPoly.zero(p, variables), reduce=False)
        self._one = RatFunc(MultiPoly.const(p, variables, 1), reduce=False)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n):
        return RatFunc(MultiPoly.const(self.p, self.vars, n), reduce=False)

    def gen(self, name):
        return RatFunc(MultiPoly.variable(self.p, self.vars, name), reduce=False)

    def gens(self):
        return [self.gen(v) for v in self.vars]

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

    def __eq__(self, other):
        return isinstance(other, FunctionField) and self.p == other.p and self.vars == other.vars

    def __hash__(self):
        return hash(("FunctionField", self.p, self.vars))

    def __repr__(self):
        return "F_%d(%s)" % (self.p, ",".join(self.vars))

    @classmethod
    def from_descriptor(cls, desc):
        """The field of a JSON descriptor {"p": int, "vars": [names]}; types are checked, not
        coerced, and any other key is refused."""
        if not isinstance(desc, dict):
            raise ValueError("must be a JSON object with keys 'p' and 'vars'")
        unknown = [key for key in desc if key not in ("p", "vars")]
        if unknown:
            raise ValueError("unknown key %s; expected 'p', 'vars'" % ", ".join(map(repr, unknown)))
        missing = [key for key in ("p", "vars") if key not in desc]
        if missing:
            raise ValueError("missing key %s" % ", ".join(map(repr, missing)))
        p, variables = desc["p"], desc["vars"]
        # JSON true/false arrive as bool, a subclass of int
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError("p must be an integer")
        if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
            raise ValueError("vars must be a list of strings")
        return cls(p, variables)


@lru_cache(maxsize=CACHE_SIZE)
def _field(p, variables):
    """The one field object of each (p, variables), so its elements share its zero and one."""
    return FunctionField(p, variables)

"""Homogeneous polynomials in U_0,...,U_n with coefficients in K = F_p(t_*).

The U-variables are the projective coordinates; the ground-field variables
live only inside coefficients.  The term order is grevlex: a monomial is
larger when its total degree is higher or, at equal degree, when it has the
smaller exponent in the last variable where the two differ.
A UPoly is never mutated, so it finds its leading monomial once.
"""

from .fieldarith import frobenius_power


def grevlex_key(e):
    """Sort key of an exponent tuple under grevlex."""
    return (sum(e), tuple(-x for x in reversed(e)))


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class UPoly:
    """A polynomial in the U-variables over a rational function field."""

    __slots__ = ("field", "nvars", "terms", "_lead")

    def __init__(self, field, nvars, terms):
        self.field = field
        self.nvars = nvars
        clean = {}
        for e, c in terms.items():
            if c:
                if len(e) != nvars:
                    raise ValueError("exponent %r has wrong arity" % (e,))
                clean[tuple(e)] = c
        self.terms = clean
        self._lead = None

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {})

    @classmethod
    def from_power_form(cls, field, coeffs, power):
        """sum_j coeffs[j] * U_j^power."""
        n = len(coeffs)
        terms = {}
        for j, c in enumerate(coeffs):
            if c:
                e = tuple(power if i == j else 0 for i in range(n))
                terms[e] = c
        return cls(field, n, terms)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, UPoly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __add__(self, other):
        res = dict(self.terms)
        for e, c in other.terms.items():
            s = res.get(e)
            s = c if s is None else s + c
            if s:
                res[e] = s
            else:
                res.pop(e, None)
        return UPoly(self.field, self.nvars, res)

    def __neg__(self):
        return UPoly(self.field, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        res = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                s = res.get(e)
                s = c1 * c2 if s is None else s + c1 * c2
                if s:
                    res[e] = s
                else:
                    res.pop(e, None)
        return UPoly(self.field, self.nvars, res)

    def mul_term(self, coeff, mono):
        scaled = self if coeff.is_one() else self.scale(coeff)
        return UPoly(self.field, self.nvars,
                     {mono_mul(e, mono): c for e, c in scaled.terms.items()})

    def scale(self, coeff):
        if not coeff:
            return UPoly.zero(self.field, self.nvars)
        return UPoly(self.field, self.nvars, {e: c * coeff for e, c in self.terms.items()})

    def frobenius(self):
        """(sum c_e U^e)^p = sum c_e^p U^(p e): the p-th power in characteristic p."""
        p = self.field.characteristic
        return UPoly(self.field, self.nvars,
                     {tuple(p * x for x in e): c ** p for e, c in self.terms.items()})

    def __pow__(self, n):
        one = UPoly(self.field, self.nvars, {(0,) * self.nvars: self.field.one()})
        return frobenius_power(self, n, self.field.characteristic, one)

    def leading_monomial(self):
        if self._lead is None:
            if not self.terms:
                raise ValueError("zero polynomial")
            self._lead = max(self.terms, key=grevlex_key)
        return self._lead

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def monic(self):
        if not self.terms:
            return self
        lc = self.leading_coeff()
        return self if lc.is_one() else self.scale(lc.inverse())

    def evaluate(self, values, one, embed_coeff=None):
        """Evaluate at ring elements; ``embed_coeff`` maps K-coefficients into that ring."""
        embed = embed_coeff or (lambda c: c)
        total = None
        for e, c in sorted(self.terms.items()):
            term = embed(c)
            for v, k in zip(values, e):
                if k:
                    term = term * v ** k
            total = term if total is None else total + term
        if total is None:
            return one - one
        return total

    def format(self):
        if not self.terms:
            return "0"
        names = ["U%d" % i for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            for name, k in zip(names, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append("%s^%d" % (name, k))
            cs = c.format()
            if ("+" in cs) or ("/" in cs):
                cs = "(%s)" % cs
            if not factors:
                parts.append(cs)
            elif cs == "1":
                parts.append("*".join(factors))
            else:
                parts.append(cs + "*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return self.format()

"""Quotient rings base[y]/(y^n - beta) with one element type, ExtElem.

Two rings of the package have this shape.  A SimpleExtensionField is the purely
inseparable extension K(b^(1/p)) of height one: n = p and beta = b.  The modulus
b must come from the bottom rational function field and must not be a p-th
power there modulo the roots already adjoined; this is exactly what makes the
quotient a field, and such fields stack into towers.  A TruncSeriesRing is
base[u]/(u^n) with n <= p: beta = 0, and products past u^(n-1) are never formed.
Elements are length-n coefficient vectors over the base in the basis
1, y, ..., y^(n-1).

In characteristic p both rings send a^p into the base: the field because
y^p = beta, the series ring because u^p = 0.  So every inverse is
a^(-1) = a^(p-1) * (a^p)^(-1), one inverse in the base and no linear algebra.
And a^p needs no product in the ring: a -> a^p is a ring map, so for
a = sum c_i y^i it is the base element sum c_i^p beta^i (just c_0^p in the
series ring), and each c_i^p is again a Frobenius power one level down, down
to the bottom field, where f^p = f(t^p).  Powers a^n go by the base-p digits
of n, so only digits below p are multiplied out.
"""

from .primefield import frobenius_power


class NotAPthPowerCheckError(ValueError):
    """The proposed modulus is already a p-th power, so the quotient is not a field."""


class ExtElem:
    """An element of base[y]/(y^n - beta), as its coefficient vector over the base.

    The one element type of SimpleExtensionField and TruncSeriesRing; its inverse
    is the Frobenius norm in both.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != field.degree:
            raise ValueError("need %d coefficients" % field.degree)

    def __add__(self, other):
        return ExtElem(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return ExtElem(self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return ExtElem(self.field, [-a for a in self.coeffs])

    def __mul__(self, other):
        n = self.field.degree
        beta = self.field._beta_in_base
        # with beta = 0 the products past y^(n-1) vanish, so they are never formed
        top = 2 * n - 1 if beta else n
        raw = [self.field.base.zero()] * top
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[:top - i]):
                if b:
                    raw[i + j] = raw[i + j] + a * b
        # reduce with y^n = beta
        res = raw[:n]
        for k in range(n, top):
            if raw[k]:
                res[k - n] = res[k - n] + raw[k] * beta
        return ExtElem(self.field, res)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        """a^(p-1) * (a^p)^(-1), with a^p in the base by Frobenius substitution; a is
        a unit iff a^p is nonzero."""
        ring = self.field
        norm = self.frobenius().coeffs[0]
        if not norm:
            raise ZeroDivisionError("%r is not a unit" % (self,))
        return self ** (ring.p - 1) * ring.lift(norm.inverse())

    def frobenius(self):
        """a^p = sum_i c_i^p beta^i, by Horner in the base, lifted into this ring.

        With beta = 0 (the series ring) every term but c_0^p vanishes.
        """
        ring = self.field
        p = ring.p
        beta = ring._beta_in_base
        acc = ring.base.zero()
        for c in reversed(self.coeffs if beta else self.coeffs[:1]):
            if acc:
                acc = acc * beta
            if c:
                acc = acc + c ** p if acc else c ** p
        return ring.lift(acc)

    def __pow__(self, n):
        ring = self.field
        return frobenius_power(self, n, ring.p, ring.one())

    def __eq__(self, other):
        return (
            isinstance(other, ExtElem)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def in_base(self):
        return not any(self.coeffs[1:])

    def order_of_vanishing(self):
        """The least i with a nonzero coefficient of y^i; n for zero."""
        return next((i for i, c in enumerate(self.coeffs) if c), len(self.coeffs))

    def __repr__(self):
        gen = self.field.gen_name
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append("(%r)" % (c,))
            elif i == 1:
                parts.append("(%r)*%s" % (c, gen))
            else:
                parts.append("(%r)*%s^%d" % (c, gen, i))
        return " + ".join(parts) if parts else "0"


class _QuotientRing:
    """What both rings share: base, p, degree n, beta in the base, and the constants."""

    def zero(self):
        return ExtElem(self, [self.base.zero()] * self.degree)

    def one(self):
        return self.lift(self.base.one())

    def lift(self, elem_of_base):
        return ExtElem(self, [elem_of_base] + [self.base.zero()] * (self.degree - 1))


class SimpleExtensionField(_QuotientRing):
    """L = base(b^(1/p)) for a modulus b in the bottom function field, b not in base^p."""

    def __init__(self, base, beta, gen_name=None):
        from ..frobenius import in_pspan

        self.base = base
        self.p = base.characteristic
        self.characteristic = self.p
        self.degree = self.p
        self.beta = beta  # element of the bottom rational function field
        self.gen_name = gen_name or ("x%d" % (len(base.moduli) + 1))
        if in_pspan(beta, base.moduli):
            raise NotAPthPowerCheckError(
                "modulus %r is a p-th power in the base field" % (beta,))
        self._beta_in_base = base.from_bottom(beta)

    # -- tower bookkeeping -------------------------------------------------

    @property
    def moduli(self):
        return self.base.moduli + [self.beta]

    def from_bottom(self, elem):
        return self.lift(self.base.from_bottom(elem))

    def to_bottom(self, elem):
        """The bottom-field value of elem, or None if it does not lie there."""
        if not elem.in_base():
            return None
        return self.base.to_bottom(elem.coeffs[0])

    # -- field protocol -------------------------------------------------------

    def from_int(self, n):
        return self.lift(self.base.from_int(n))

    def gen(self):
        z, o = self.base.zero(), self.base.one()
        return ExtElem(self, [z, o] + [z] * (self.p - 2))

    def from_coeffs(self, coeffs):
        """Element with the given base-field coefficients in the basis 1, x, ..., x^(p-1)."""
        return ExtElem(self, coeffs)

    def pth_root(self, elem):
        """Return w with w^p = elem, or None.

        L^p = K^p(moduli), so a p-th power must sit in the bottom field and be a
        p-th combination of modulus monomials; the combination gives the root.
        """
        from ..frobenius import membership_in_pspan

        bottom_val = self.to_bottom(elem)
        if bottom_val is None:
            return None
        combo = membership_in_pspan(bottom_val, self.moduli)
        if combo is None:
            return None
        root = self.zero()
        for expo, coeff in combo.items():
            term = self.from_bottom(coeff)
            for level, e in enumerate(expo):
                term = term * (self.level_gen(level) ** e)
            root = root + term
        return root

    def level_gen(self, level):
        """The root adjoined at the given tower level, as an element of this field."""
        depth = len(self.moduli)
        if not 0 <= level < depth:
            raise ValueError("no tower level %d" % level)
        if level == depth - 1:
            return self.gen()
        return self.lift(self.base.level_gen(level))

    def __eq__(self, other):
        return (
            isinstance(other, SimpleExtensionField)
            and self.base == other.base
            and self.beta == other.beta
        )

    def __hash__(self):
        return hash(("SimpleExtensionField", self.base, self.beta))

    def __repr__(self):
        return "%r(%s) with %s^%d = %r" % (self.base, self.gen_name, self.gen_name, self.p, self.beta)


class TruncSeriesRing(_QuotientRing):
    """base[u]/(u^order) for 1 <= order <= p, so that a^p = a_0^p lies in the base."""

    gen_name = "u"

    def __init__(self, base, order):
        self.base = base
        self.p = base.characteristic
        if not 1 <= order <= self.p:
            raise ValueError("order must lie between 1 and p = %d" % self.p)
        self.degree = order
        self._beta_in_base = base.zero()

    def gen(self):
        """The class of u (zero when order == 1)."""
        return self.from_coeffs([self.base.zero(), self.base.one()])

    def from_coeffs(self, coeffs):
        """sum_i coeffs[i] u^i, padded with zeros or cut off at u^order."""
        coeffs = list(coeffs)[:self.degree]
        return ExtElem(self, coeffs + [self.base.zero()] * (self.degree - len(coeffs)))

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeriesRing)
            and self.base == other.base
            and self.degree == other.degree
        )

    def __hash__(self):
        return hash(("TruncSeriesRing", self.base, self.degree))

    def __repr__(self):
        return "%r[u]/(u^%d)" % (self.base, self.degree)


def extension_tower(bottom_field, moduli):
    """Adjoin p-th roots of the given bottom-field elements in order."""
    field = bottom_field
    for b in moduli:
        field = SimpleExtensionField(field, b)
    return field

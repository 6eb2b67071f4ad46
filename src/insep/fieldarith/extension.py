"""Purely inseparable extensions K(b^(1/p)) of height one, stackable into towers.

The modulus b must come from the bottom rational function field and must not be
a p-th power there modulo the roots already adjoined; this is exactly what makes
the quotient base[x]/(x^p - b) a field.  Elements are length-p coefficient
vectors over the base field in the basis 1, x, ..., x^(p-1).
"""

from .matrix import Matrix
from .primefield import power


class NotAPthPowerCheckError(ValueError):
    """The proposed modulus is already a p-th power, so the quotient is not a field."""


class ExtElem:
    """An element of a SimpleExtensionField, as a vector over the base field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != field.p:
            raise ValueError("need %d coefficients" % field.p)

    def __add__(self, other):
        return ExtElem(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return ExtElem(self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return ExtElem(self.field, [-a for a in self.coeffs])

    def __mul__(self, other):
        p = self.field.p
        base = self.field.base
        beta = self.field._beta_in_base
        raw = [base.zero() for _ in range(2 * p - 1)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    raw[i + j] = raw[i + j] + a * b
        # reduce with x^p = beta
        res = raw[:p]
        for k in range(p, 2 * p - 1):
            if raw[k]:
                res[k - p] = res[k - p] + raw[k] * beta
        return ExtElem(self.field, res)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverting zero extension element")
        f = self.field
        base = f.base
        # multiplication by self is base-linear; solve M u = e_0 exactly
        cols = []
        for j in range(f.p):
            unit = ExtElem(f, [base.one() if i == j else base.zero() for i in range(f.p)])
            cols.append((self * unit).coeffs)
        m = Matrix(base, cols).transpose()
        rhs = [base.one()] + [base.zero()] * (f.p - 1)
        sol = m.solve(rhs)
        if sol is None:
            raise ZeroDivisionError("nonzero element was not invertible; modulus check must have failed")
        return ExtElem(f, sol)

    def __pow__(self, n):
        return power(self, n, self.field.one())

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

    def __repr__(self):
        gen = self.field.gen_name
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append("(%r)" % c)
            elif i == 1:
                parts.append("(%r)*%s" % (c, gen))
            else:
                parts.append("(%r)*%s^%d" % (c, gen, i))
        return " + ".join(parts) if parts else "0"


class SimpleExtensionField:
    """L = base(b^(1/p)) for a modulus b in the bottom function field, b not in base^p."""

    def __init__(self, base, beta, gen_name=None):
        from ..frobenius import in_pspan

        self.base = base
        self.p = base.characteristic
        self.characteristic = self.p
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

    def dim_over_bottom(self):
        return self.p * self.base.dim_over_bottom()

    def from_bottom(self, elem):
        c = self.base.from_bottom(elem)
        return ExtElem(self, [c] + [self.base.zero()] * (self.p - 1))

    def to_bottom(self, elem):
        """The bottom-field value of elem, or None if it does not lie there."""
        if not elem.in_base():
            return None
        return self.base.to_bottom(elem.coeffs[0])

    # -- field protocol -------------------------------------------------------

    def zero(self):
        return ExtElem(self, [self.base.zero()] * self.p)

    def one(self):
        return ExtElem(self, [self.base.one()] + [self.base.zero()] * (self.p - 1))

    def from_int(self, n):
        return ExtElem(self, [self.base.from_int(n)] + [self.base.zero()] * (self.p - 1))

    def gen(self):
        z, o = self.base.zero(), self.base.one()
        return ExtElem(self, [z, o] + [z] * (self.p - 2))

    def from_coeffs(self, coeffs):
        """Element with the given base-field coefficients in the basis 1, x, ..., x^(p-1)."""
        return ExtElem(self, coeffs)

    def lift(self, elem_of_base):
        return ExtElem(self, [elem_of_base] + [self.base.zero()] * (self.p - 1))

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
        inner = self.base.level_gen(level)
        return ExtElem(self, [inner] + [self.base.zero()] * (self.p - 1))

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


def extension_tower(bottom_field, moduli):
    """Adjoin p-th roots of the given bottom-field elements in order."""
    field = bottom_field
    for b in moduli:
        field = SimpleExtensionField(field, b)
    return field

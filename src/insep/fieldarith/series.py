"""Truncated power series L[u]/(u^N): exact arithmetic modulo u^N."""

from .primefield import power


class TruncSeries:
    """An element of coeff_field[u]/(u^order)."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        coeffs = list(coeffs)
        if len(coeffs) != ring.order:
            raise ValueError("need exactly %d coefficients" % ring.order)
        self.coeffs = tuple(coeffs)

    def __add__(self, other):
        return TruncSeries(self.ring, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return TruncSeries(self.ring, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return TruncSeries(self.ring, [-a for a in self.coeffs])

    def __mul__(self, other):
        N = self.ring.order
        zero = self.ring.coeff_field.zero()
        res = [zero] * N
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= N:
                    break
                if b:
                    res[i + j] = res[i + j] + a * b
        return TruncSeries(self.ring, res)

    def __pow__(self, n):
        return power(self, n, self.ring.one())

    def inverse(self):
        """Inverse when the constant term is a unit, by back-substitution."""
        c0 = self.coeffs[0]
        if not c0:
            raise ZeroDivisionError("constant term is zero; series is not a unit")
        inv0 = self.ring.coeff_field.one() / c0
        out = [inv0]
        for k in range(1, self.ring.order):
            acc = None
            for i in range(1, k + 1):
                t = self.coeffs[i] * out[k - i]
                acc = t if acc is None else acc + t
            out.append(-(inv0 * acc) if acc is not None else self.ring.coeff_field.zero())
        return TruncSeries(self.ring, out)

    def __truediv__(self, other):
        return self * other.inverse()

    def __eq__(self, other):
        return isinstance(other, TruncSeries) and self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def order_of_vanishing(self):
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.ring.order

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append("(%r)" % (c,))
            elif i == 1:
                parts.append("(%r)*u" % (c,))
            else:
                parts.append("(%r)*u^%d" % (c, i))
        return " + ".join(parts) if parts else "0"


class TruncSeriesRing:
    """The ring coeff_field[u]/(u^order)."""

    def __init__(self, coeff_field, order):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.coeff_field = coeff_field
        self.order = order

    def zero(self):
        return TruncSeries(self, [self.coeff_field.zero()] * self.order)

    def one(self):
        z = self.coeff_field.zero()
        return TruncSeries(self, [self.coeff_field.one()] + [z] * (self.order - 1))

    def gen(self):
        """The class of u (zero when order == 1)."""
        z = self.coeff_field.zero()
        coeffs = [z] * self.order
        if self.order > 1:
            coeffs[1] = self.coeff_field.one()
        return TruncSeries(self, coeffs)

    def constant(self, c):
        z = self.coeff_field.zero()
        return TruncSeries(self, [c] + [z] * (self.order - 1))

    def from_coeffs(self, coeffs):
        coeffs = list(coeffs)
        z = self.coeff_field.zero()
        coeffs = coeffs[: self.order] + [z] * max(0, self.order - len(coeffs))
        return TruncSeries(self, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeriesRing)
            and self.coeff_field == other.coeff_field
            and self.order == other.order
        )

    def __hash__(self):
        return hash(("TruncSeriesRing", self.coeff_field, self.order))

    def __repr__(self):
        return "%r[u]/(u^%d)" % (self.coeff_field, self.order)

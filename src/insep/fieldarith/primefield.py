"""Prime fields F_p for small p, with element objects usable in generic linear algebra,
and the square-and-multiply power that every ring of the kernel uses."""

import operator

SUPPORTED_PRIMES = (2, 3, 5, 7)


def power(x, n, one, mul=operator.mul):
    """x^n for n >= 0 by square-and-multiply; ``one`` is the value for n = 0.

    The result starts at the lowest set bit and x is not squared past the
    highest one, so x^n takes (bit length - 1) + (set bits - 1) products.
    """
    if n == 0:
        return one
    result = None
    while True:
        if n & 1:
            result = x if result is None else mul(result, x)
        n >>= 1
        if not n:
            return result
        x = mul(x, x)


class FpElem:
    """A residue modulo p.  Immutable; arithmetic stays in the same field."""

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def __add__(self, other):
        return FpElem(self.val + other.val, self.p)

    def __sub__(self, other):
        return FpElem(self.val - other.val, self.p)

    def __neg__(self):
        return FpElem(-self.val, self.p)

    def __mul__(self, other):
        return FpElem(self.val * other.val, self.p)

    def __truediv__(self, other):
        if other.val == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return FpElem(self.val * pow(other.val, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, FpElem) and self.p == other.p and self.val == other.val

    def __hash__(self):
        return hash((self.p, self.val))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return "%d" % self.val


class PrimeField:
    """The field F_p.  Perfect: every element is its own p-th root."""

    def __init__(self, p):
        if p not in SUPPORTED_PRIMES:
            raise ValueError("unsupported characteristic %r (need one of %r)" % (p, SUPPORTED_PRIMES))
        self.p = p
        self.characteristic = p

    def zero(self):
        return FpElem(0, self.p)

    def one(self):
        return FpElem(1, self.p)

    def from_int(self, n):
        return FpElem(n, self.p)

    def pth_root(self, elem):
        # x^p = x in F_p, so every element is its own root.
        return elem

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return "F_%d" % self.p

"""Prime fields F_p for small p, whose elements are the ints 0..p-1, the
square-and-multiply power that every ring of the kernel uses, and the power by
base-p digits for rings whose Frobenius x -> x^p is a substitution."""

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


def frobenius_power(x, n, p, one):
    """x^n for n >= 0 in a ring of characteristic p, from the base-p digits of n.

    x -> x^p is a ring map there, and ``x.frobenius()`` gives it by
    substitution.  With n = sum d_k p^k the power is prod_k (x^(p^k))^(d_k):
    each x^(p^k) is one Frobenius step from the one before, and only the
    digits d_k < p go through square-and-multiply.  ``one`` is the value for
    n = 0.
    """
    if n < 0:
        raise ValueError("negative power %d" % n)
    result = None
    while True:
        n, d = divmod(n, p)
        if d:
            term = power(x, d, None)
            result = term if result is None else result * term
        if not n:
            return one if result is None else result
        x = x.frobenius()


class PrimeField:
    """The field F_p, its elements the ints 0..p-1; a routine that computes with
    them reduces mod p itself.  Perfect: every element is its own p-th root."""

    def __init__(self, p):
        if p not in SUPPORTED_PRIMES:
            raise ValueError("unsupported characteristic %r (need one of %r)" % (p, SUPPORTED_PRIMES))
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return "F_%d" % self.p

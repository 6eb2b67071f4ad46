"""Sparse multivariate polynomials over F_p.

Coefficients are plain ints in 1..p-1 (zero coefficients are never stored);
exponent vectors are tuples of length n.  The global monomial order used for
canonical forms is lexicographic on the fixed variable list, which is plain
tuple comparison on exponent vectors.

The public constructor reduces and checks what it is given.  Arithmetic builds
its results with ``MultiPoly._new``, which wraps a dict that is canonical by
construction, so no clean result is cleaned again.  Nothing mutates a
MultiPoly after construction, so results may share objects, such as the one
constant 1 of each ring.
"""

from functools import lru_cache
from operator import add, sub

from .primefield import frobenius_power

MAX_VARIABLES = 4
# entries kept by each memoized exact computation (gcd, Frobenius coordinates,
# p-degree, parsed expressions) and by the tables of ring constants and fields;
# least recently used entries go first
CACHE_SIZE = 20_000


class MultiPoly:
    """An element of F_p[t_1, ..., t_n]."""

    __slots__ = ("p", "vars", "terms", "_hash")

    def __init__(self, p, variables, terms):
        self.p = p
        self.vars = tuple(variables)
        clean = {}
        n = len(self.vars)
        for expo, coef in terms.items():
            c = coef % p
            if c:
                if len(expo) != n:
                    raise ValueError("exponent vector %r has wrong length" % (expo,))
                clean[tuple(expo)] = c
        self.terms = clean
        self._hash = None

    @classmethod
    def _new(cls, p, variables, terms):
        """Wrap terms as they are: coefficients in 1..p-1, keys tuples of length n,
        and variables a tuple."""
        self = object.__new__(cls)
        self.p = p
        self.vars = variables
        self.terms = terms
        self._hash = None
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p, variables):
        return cls._new(p, tuple(variables), {})

    @classmethod
    def const(cls, p, variables, c):
        variables = tuple(variables)
        c %= p
        if c == 1:
            return _one(p, variables)
        return cls._new(p, variables, {(0,) * len(variables): c} if c else {})

    @classmethod
    def variable(cls, p, variables, name):
        i = tuple(variables).index(name)
        expo = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(p, variables, {expo: 1})

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        terms = self.terms
        return len(terms) == 1 and terms.get((0,) * len(self.vars)) == 1

    def is_constant(self):
        terms = self.terms
        return not terms or (len(terms) == 1 and (0,) * len(self.vars) in terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.p == other.p
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.p, self.vars, tuple(sorted(self.terms.items()))))
        return self._hash

    # -- basic arithmetic ----------------------------------------------

    def _check(self, other):
        if self.p != other.p or self.vars != other.vars:
            raise ValueError("polynomials from different rings")

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def _add(self, other, sign):
        """self + sign * other."""
        self._check(other)
        res = dict(self.terms)
        p = self.p
        for expo, c in other.terms.items():
            s = (res.get(expo, 0) + sign * c) % p
            if s:
                res[expo] = s
            else:
                res.pop(expo, None)
        return MultiPoly._new(p, self.vars, res)

    def __neg__(self):
        p = self.p
        return MultiPoly._new(p, self.vars, {e: p - c for e, c in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        acc = {}
        get = acc.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2
        # one reduction mod p per monomial, after every product has been added
        p = self.p
        res = {}
        for e, c in acc.items():
            c %= p
            if c:
                res[e] = c
        return MultiPoly._new(p, self.vars, res)

    def scale(self, c):
        p = self.p
        c %= p
        if c == 0:
            return MultiPoly.zero(p, self.vars)
        return MultiPoly._new(p, self.vars, {e: (k * c) % p for e, k in self.terms.items()})

    def frobenius(self):
        """f^p = f(t^p): the coefficients lie in F_p, which Frobenius fixes."""
        return self.stretch_exponents(self.p)

    def __pow__(self, n):
        return frobenius_power(self, n, self.p, _one(self.p, self.vars))

    # -- lex order helpers ----------------------------------------------

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms)

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def monic(self):
        """Scale so the lex-leading coefficient is 1."""
        if not self.terms:
            return self
        lc = self.leading_coeff()
        if lc == 1:
            return self
        return self.scale(pow(lc, self.p - 2, self.p))

    def degree_in(self, var_idx):
        if not self.terms:
            return -1
        return max(e[var_idx] for e in self.terms)

    # -- division ---------------------------------------------------------

    def try_divide(self, divisor):
        """Return self / divisor if the division is exact, else None.

        Lex-order division on one remainder dict: each step removes the leading
        term and subtracts the quotient term times the rest of the divisor.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        dlm = divisor.leading_monomial()
        dlc_inv = pow(divisor.terms[dlm], p - 2, p)
        tail = [(e, c) for e, c in divisor.terms.items() if e != dlm]
        rem = dict(self.terms)
        quo = {}
        while rem:
            rlm = max(rem)
            qe = tuple(map(sub, rlm, dlm))
            if any(e < 0 for e in qe):
                return None
            qc = (rem.pop(rlm) * dlc_inv) % p
            quo[qe] = qc
            for e, c in tail:
                m = tuple(map(add, qe, e))
                s = (rem.get(m, 0) - qc * c) % p
                if s:
                    rem[m] = s
                else:
                    del rem[m]  # qc * c is nonzero mod p, so m was present
        return MultiPoly._new(p, self.vars, quo)

    # -- calculus and Frobenius helpers -------------------------------------

    def derivative(self, var_idx):
        # lowering one exponent is injective on the terms it keeps
        res = {}
        p = self.p
        for e, c in self.terms.items():
            k = (c * e[var_idx]) % p
            if k:
                res[e[:var_idx] + (e[var_idx] - 1,) + e[var_idx + 1:]] = k
        return MultiPoly._new(p, self.vars, res)

    def stretch_exponents(self, k):
        """Substitute t_i -> t_i^k for k >= 1; coefficients are fixed by Frobenius on F_p."""
        if k < 1:
            raise ValueError("stretch factor must be at least 1")
        return MultiPoly._new(self.p, self.vars,
                              {tuple(x * k for x in e): c for e, c in self.terms.items()})

    # -- formatting --------------------------------------------------------

    def format(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            for name, k in zip(self.vars, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append("%s^%d" % (name, k))
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(str(c) + "*" + "*".join(factors))
        return "+".join(parts)

    def __repr__(self):
        return self.format()


@lru_cache(maxsize=CACHE_SIZE)
def _one(p, variables):
    """The constant 1 of each ring, built once."""
    return MultiPoly._new(p, variables, {(0,) * len(variables): 1})


# -- gcd machinery ------------------------------------------------------------


def _vars_used(a, b):
    used = set()
    for poly in (a, b):
        for e in poly.terms:
            for i, k in enumerate(e):
                if k:
                    used.add(i)
    return sorted(used)


def _as_univariate(f, var_idx):
    """Split into {degree in var_idx: coefficient poly with exponent 0 there}."""
    coeffs = {}
    for e, c in f.terms.items():
        d = e[var_idx]
        coef = coeffs.setdefault(d, {})
        coef[e[:var_idx] + (0,) + e[var_idx + 1:]] = c
    return {d: MultiPoly._new(f.p, f.vars, cs) for d, cs in coeffs.items()}


def _coeff_in(f, var_idx, d):
    """The coefficient of the d-th power of the main variable, with exponent 0 there."""
    return MultiPoly._new(f.p, f.vars, {e[:var_idx] + (0,) + e[var_idx + 1:]: c
                                        for e, c in f.terms.items() if e[var_idx] == d})


def _mul_by_power(f, var_idx, k):
    return MultiPoly._new(f.p, f.vars,
                          {e[:var_idx] + (e[var_idx] + k,) + e[var_idx + 1:]: c
                           for e, c in f.terms.items()})


def _pseudo_rem(a, b, var_idx):
    """Pseudo-remainder of a by b in the main variable: lc(b)^(da-db+1) * a mod b."""
    da = a.degree_in(var_idx)
    db = b.degree_in(var_idx)
    lcb = _coeff_in(b, var_idx, db)
    rem = a
    # one scaling step per virtual degree keeps the classical prem normalization
    for d in range(da, db - 1, -1):
        lead = _coeff_in(rem, var_idx, d)
        rem = rem * lcb
        if lead.terms:
            rem = rem - _mul_by_power(lead * b, var_idx, d - db)
        if not rem.is_zero() and rem.degree_in(var_idx) >= d:
            raise AssertionError("pseudo-division failed to lower the degree")
    return rem, da, db


def _content(f, var_idx):
    """Gcd of the coefficients of f viewed in the main variable."""
    g = None
    for _, coef in sorted(_as_univariate(f, var_idx).items()):
        g = coef if g is None else poly_gcd(g, coef)
        if g.is_constant() and not g.is_zero():
            break
    return g.monic()


def _monomial_content(f):
    """The largest monomial dividing f, as an exponent vector."""
    it = iter(f.terms)
    acc = list(next(it))
    for e in it:
        for i, x in enumerate(e):
            if x < acc[i]:
                acc[i] = x
    return tuple(acc)


def _shift_down(f, expo):
    if not any(expo):
        return f
    return MultiPoly._new(f.p, f.vars, {tuple(map(sub, e, expo)): c for e, c in f.terms.items()})


def poly_gcd(a, b):
    """Greatest common divisor, normalized to lex-leading coefficient 1.

    Recursive content/primitive-part reduction with a subresultant-style
    polynomial remainder sequence in the chosen main variable; gcd(0,0) = 0.
    """
    if a.p != b.p or a.vars != b.vars:
        raise ValueError("polynomials from different rings")
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.is_constant() or b.is_constant():
        return MultiPoly.const(a.p, a.vars, 1)
    if a == b:
        return a.monic()
    # no variable divides a monomial-content-free polynomial, so the monomial
    # part of the gcd splits off exactly
    mono_a = _monomial_content(a)
    mono_b = _monomial_content(b)
    common = tuple(min(x, y) for x, y in zip(mono_a, mono_b))
    if any(mono_a) or any(mono_b):
        stripped = _gcd_prs(_shift_down(a, mono_a), _shift_down(b, mono_b))
        return MultiPoly._new(a.p, a.vars, {tuple(map(add, e, common)): c
                                            for e, c in stripped.terms.items()})
    return _gcd_prs(a, b)


@lru_cache(maxsize=CACHE_SIZE)
def _gcd_prs(a, b):
    if a.is_constant() or b.is_constant():
        return MultiPoly.const(a.p, a.vars, 1)
    if a == b:
        return a.monic()
    used = _vars_used(a, b)
    main = used[-1]
    if a.degree_in(main) == 0 or b.degree_in(main) == 0:
        # one operand is free of the main variable: gcd divides its content
        free, other = (a, b) if a.degree_in(main) == 0 else (b, a)
        return poly_gcd(free, _content(other, main))

    cont_a = _content(a, main)
    cont_b = _content(b, main)
    cont = poly_gcd(cont_a, cont_b)
    A = a.try_divide(cont_a)
    B = b.try_divide(cont_b)
    if A.degree_in(main) < B.degree_in(main):
        A, B = B, A

    # subresultant PRS (Knuth 4.6.1 C); divisions below are exact by theory
    g = MultiPoly.const(a.p, a.vars, 1)
    h = MultiPoly.const(a.p, a.vars, 1)
    while True:
        rem, da, db = _pseudo_rem(A, B, main)
        delta = da - db
        if rem.is_zero():
            gcd_pp = B.try_divide(_content(B, main))
            return (cont * gcd_pp).monic()
        if rem.degree_in(main) == 0:
            return cont.monic()
        divisor = g * (h ** delta)
        A, B = B, rem.try_divide(divisor)
        if B is None:
            raise AssertionError("subresultant division was not exact")
        g = _coeff_in(A, main, A.degree_in(main))
        if delta == 0:
            pass  # h unchanged
        elif delta == 1:
            h = g
        else:
            h = (g ** delta).try_divide(h ** (delta - 1))
            if h is None:
                raise AssertionError("subresultant h-update was not exact")

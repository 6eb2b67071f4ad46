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
from operator import add, mul, sub

from .primefield import frobenius_power

MAX_VARIABLES = 4
# entries kept by each memoized exact computation (gcd, Frobenius coordinates,
# p-degree, parsed expressions) and by the tables of ring constants and fields;
# least recently used entries go first
CACHE_SIZE = 20_000
# the exponent vector of the constant term, one per variable count
_ZERO_EXPONENTS = tuple((0,) * n for n in range(MAX_VARIABLES + 1))


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
        return len(terms) == 1 and terms.get(_ZERO_EXPONENTS[len(self.vars)]) == 1

    def is_minus_one(self):
        terms = self.terms
        return len(terms) == 1 and terms.get(_ZERO_EXPONENTS[len(self.vars)]) == self.p - 1

    def is_constant(self):
        terms = self.terms
        return not terms or (len(terms) == 1 and _ZERO_EXPONENTS[len(self.vars)] in terms)

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


def _content(var_idx, *polys):
    """Gcd of the coefficients of the polys viewed in the main variable."""
    g = None
    for f in polys:
        for _, coef in sorted(_as_univariate(f, var_idx).items()):
            g = coef if g is None else poly_gcd(g, coef)
            if g.is_constant():
                return g.monic()
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
    """Greatest common divisor, normalized to lex-leading coefficient 1; gcd(0,0) = 0.

    The monomial part splits off here; _gcd finds the rest.
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
    # part of the gcd splits off exactly, and is all of it for a monomial a or b
    mono_a = _monomial_content(a)
    mono_b = _monomial_content(b)
    common = tuple(map(min, mono_a, mono_b))
    if len(a.terms) == 1 or len(b.terms) == 1:
        return MultiPoly._new(a.p, a.vars, {common: 1})
    if any(mono_a) or any(mono_b):
        stripped = _gcd(_shift_down(a, mono_a), _shift_down(b, mono_b))
        return MultiPoly._new(a.p, a.vars, {tuple(map(add, e, common)): c
                                            for e, c in stripped.terms.items()})
    return _gcd(a, b)


@lru_cache(maxsize=CACHE_SIZE)
def _gcd(a, b):
    """gcd of two polynomials free of monomial content, by the first exact stage that
    applies:

    - both in one variable: Euclid over F_p;
    - for each variable v in use, main variable first: if one operand is free of
      v, or the images of a and b at a point of F_q are coprime in t_v
      (_image_gcd_degree is 0), the gcd is free of v, so it is the gcd of all the
      v-coefficients of a and b;
    - after the main variable: the operand B of lower degree in it (of fewer
      terms at equal degree) divides the other, tried only where the images' gcd
      has the degree of B;
    - otherwise contents in the main variable and a subresultant PRS.
    """
    if a.is_constant() or b.is_constant():
        return MultiPoly.const(a.p, a.vars, 1)
    if a == b:
        return a.monic()
    used = _vars_used(a, b)
    if len(used) == 1:
        v = used[0]
        gcd = _euclid(_image(a, v, ()), _image(b, v, ()), _fq_tables(a.p))
        return MultiPoly._new(a.p, a.vars, {(0,) * v + (d,) + (0,) * (len(a.vars) - v - 1): c
                                            for d, c in enumerate(gcd) if c})
    main = used[-1]
    B, A = sorted((a, b), key=lambda f: (f.degree_in(main), len(f.terms)))
    for v in reversed(used):
        d = 0 if a.degree_in(v) == 0 or b.degree_in(v) == 0 else _image_gcd_degree(a, b, v)
        if d == 0:
            return _content(v, a, b)
        # if B divides A, the gcd of the images is the whole image of B
        if v == main and d in (None, B.degree_in(main)) and A.try_divide(B) is not None:
            return B.monic()

    cont_a = _content(main, a)
    cont_b = _content(main, b)
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
            gcd_pp = B.try_divide(_content(main, B))
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


# -- evaluation at points of F_q ----------------------------------------------------
#
# F_q is F_p[x]/(m) for one primitive m of degree k, q = p^k; its elements are the
# ints 0..q-1 whose base-p digits are the coefficients of 1, x, ..., x^(k-1), so F_p
# is the ints 0..p-1.  With x = alpha, exp[i] = alpha^i, log inverts it on F_q^*, and
# the Zech log gives 1 + alpha^n = alpha^zech[n] (-1 where the sum is 0), so
# alpha^i + alpha^j = alpha^(i + zech[j - i]).

# m = x^k + m_(k-1) x^(k-1) + ... + m_0 as (m_0, ..., m_(k-1)): the Conway polynomials
# of F_16, F_27, F_25 and F_49
_PRIMITIVE = {2: (1, 1, 0, 0), 3: (1, 2, 0), 5: (2, 4), 7: (3, 6)}


@lru_cache(maxsize=None)
def _fq_tables(p):
    """(exp, log, zech) of F_q; exp runs over two periods, so a sum of two logs needs
    no reduction."""
    low = _PRIMITIVE[p]
    q = p ** len(low)
    exp = [0] * (2 * (q - 1))
    log = [0] * q
    digits = [1] + [0] * (len(low) - 1)
    for i in range(q - 1):
        x = sum(d * p ** j for j, d in enumerate(digits))
        exp[i] = exp[i + q - 1] = x
        log[x] = i
        # times alpha: shift the digits up and replace x^k by -(m_0 + ... + m_(k-1) x^(k-1))
        top = digits[-1]
        digits = [(d - top * m) % p for d, m in zip([0] + digits[:-1], low)]
    zech = [-1] * (q - 1)
    for n in range(q - 1):
        x = exp[n]
        one_more = x - x % p + (x + 1) % p  # 1 + x: the constant digit goes up by one
        if one_more:
            zech[n] = log[one_more]
    return exp, log, zech


def _image(f, v, point):
    """The coefficients, lowest first, of f in F_q[t_v] after t_j = alpha^point[j] for
    j != v; point = () puts nothing in, for f in t_v alone."""
    exp, log, zech = _fq_tables(f.p)
    order = len(zech)
    coeffs = [0] * (f.degree_in(v) + 1)
    for e, c in f.terms.items():
        i = (log[c] + sum(map(mul, e, point))) % order
        d = e[v]
        x = coeffs[d]
        if not x:
            coeffs[d] = exp[i]
        else:
            z = zech[(i - log[x]) % order]
            coeffs[d] = exp[log[x] + z] if z >= 0 else 0
    return coeffs


def _euclid(f, g, tables):
    """Monic gcd of two nonzero dense polynomials over F_q (coefficients lowest
    first, top one nonzero)."""
    exp, log, zech = tables
    order = len(zech)
    minus = order // 2 if order % 2 == 0 else 0  # log of -1
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        f = list(f)
        dg = len(g) - 1
        logs = [log[c] if c else -1 for c in g[:-1]]
        shift = order - log[g[-1]] + minus  # log of -1/lc(g)
        for top in range(len(f) - 1, dg - 1, -1):
            c = f.pop()
            if not c:
                continue
            s = log[c] + shift
            for k, lg in enumerate(logs, top - dg):
                if lg < 0:
                    continue
                i = (s + lg) % order
                x = f[k]
                if not x:
                    f[k] = exp[i]
                else:
                    z = zech[(i - log[x]) % order]
                    f[k] = exp[log[x] + z] if z >= 0 else 0
        while f and not f[-1]:
            f.pop()
        if not f:
            break
        f, g = g, f
    if len(g) == 1:
        return [1]
    inv = order - log[g[-1]]
    return [exp[log[c] + inv] if c else 0 for c in g]


@lru_cache(maxsize=None)
def _points(p, n, v):
    """The evaluation points for t_v in n variables, as logs: runs of n - 1 distinct
    elements of F_q outside F_p, in the order of their logs, with 0 at v."""
    order = p ** len(_PRIMITIVE[p]) - 1
    outside = [i for i in range(1, order) if i % (order // (p - 1))]
    points = []
    for start in range(0, len(outside) - n + 2, n - 1):
        run = iter(outside[start:start + n - 1])
        points.append([0 if j == v else next(run) for j in range(n)])
    return points


def _image_gcd_degree(a, b, v):
    """The degree of the gcd of the images of a and b in F_q[t_v] at the first fixed
    point, outside F_p in every coordinate but v, that keeps both leading
    v-coefficients nonzero; None if every point kills one.

    Degree 0 certifies that gcd(a, b) is free of t_v: a gcd G of positive v-degree
    has lc_v(G) dividing lc_v(a), so its image keeps that degree and divides both
    images.
    """
    for point in _points(a.p, len(a.vars), v):
        fa = _image(a, v, point)
        fb = _image(b, v, point)
        if fa[-1] and fb[-1]:
            return len(_euclid(fa, fb, _fq_tables(a.p))) - 1
    return None

"""Frobenius coordinates and p-degrees over K = F_p(t_1,...,t_n), by exact
linear algebra over K.

Every f in K can be written uniquely as f = sum_e g_e^p t^e over the monomial
exponents e in {0,...,p-1}^n.  These coordinates give p-th roots, the witness
coefficients of membership in K^p(mu_1,...,mu_k), and K^p-linear relations, as
ordinary K-linear systems on the g_e.

The p-degree needs no coordinates.  Since t_1,...,t_n is a p-basis of K,
mu_1,...,mu_k are p-independent iff their differentials, the Jacobian rows
(d mu_i / d t_j)_j, are K-linearly independent (Matsumura, Commutative Ring
Theory, Thm 26.5).  So d is the rank of the transposed Jacobian, n rows by
k columns, and a greedy p-basis is its pivot columns.
"""

from collections import namedtuple
from functools import lru_cache
from itertools import product

from .fieldarith import CACHE_SIZE, MultiPoly, RatFunc, Span

PSPAN_BASIS_CAP = 4


class PBasisResult(namedtuple("PBasisResult", "examined selected d")):
    """A greedy p-basis for K^p(generators) inside K; d is its size."""

    __slots__ = ()


@lru_cache(maxsize=CACHE_SIZE)
def frobenius_decompose(f):
    """The coordinates {e: g_e} of f = sum_e g_e^p t^e, zero coordinates omitted.

    f = a/b is written as (a*b^(p-1))/b^p and the numerator split by exponents mod p.
    """
    p = f.p
    b = f.den
    numerator = f.num * (b ** (p - 1))
    roots = {}
    for expo, c in numerator.terms.items():
        e = tuple(x % p for x in expo)
        q = tuple((x - r) // p for x, r in zip(expo, e))
        bucket = roots.setdefault(e, {})
        bucket[q] = c  # distinct expo give distinct (e, q), no accumulation needed
    coords = {}
    for e in sorted(roots):
        # coefficient p-th roots in F_p are the identity map
        root_poly = MultiPoly(p, f.vars, roots[e])
        g = RatFunc(root_poly, b)
        if g:
            coords[e] = g
    return coords


def pth_root(f):
    """The unique g with g^p = f, or None when f is not a p-th power.

    f is a p-th power iff its only nonzero Frobenius coordinate is the e = 0 one.
    """
    coords = frobenius_decompose(f)
    zero_e = (0,) * len(f.vars)
    if not coords:
        return f.field().zero()
    if set(coords) != {zero_e}:
        return None
    return coords[zero_e]


def _coordinate_span(elems, field):
    """The span of one row per exponent e, (j, g_e(elems[j])) over j: column j
    holds the Frobenius coordinates of elems[j], so sum_j x_j^p elems[j] = 0
    iff x is in the null space of the rows."""
    rows = {}
    for j, f in enumerate(elems):
        for e, g in frobenius_decompose(f).items():
            rows.setdefault(e, []).append((j, g))
    return Span(field, len(elems), (rows[e] for e in sorted(rows)))


def p_linear_relation(elems):
    """A vector (d_i) with sum d_i^p f_i = 0, or None if the family is independent."""
    elems = list(elems)
    if not elems:
        return None
    span = _coordinate_span(elems, elems[0].field())
    free = next((j for j in range(len(elems)) if j not in span.tails), None)
    return None if free is None else span.relation(free)


def membership_in_pspan(mu, basis):
    """Solve mu = sum_a d_a^p * prod_j basis_j^(a_j) over a in {0..p-1}^len(basis).

    Returns {exponent tuple: d_a} with zero coefficients omitted, or None when
    mu does not lie in K^p(basis).  The system has p^len(basis) unknowns; when
    only the yes/no answer is needed, in_pspan is a rank with at most n rows.
    """
    if len(basis) > PSPAN_BASIS_CAP:
        raise ValueError("p-span membership supports at most %d generators" % PSPAN_BASIS_CAP)
    field = mu.field()
    p = field.p
    exponents = sorted(product(range(p), repeat=len(basis)))
    monomials = []
    for a in exponents:
        m = field.one()
        for g, e in zip(basis, a):
            m = m * (g ** e)
        monomials.append(m)
    k = len(monomials)
    span = _coordinate_span(monomials + [mu], field)
    if k in span.tails:
        return None
    # sum_a x_a^p monomial_a + mu = 0, so d_a = -x_a
    return {a: -c for a, c in zip(exponents, span.relation(k)) if c}


def pdegree_generated(gens):
    """Greedy p-basis of K^p(gens): keep each generator not spanned by the kept ones.

    A generator is spanned iff its Jacobian row (dg/dt_k)_k lies in the K-span of
    the rows before it, i.e. iff adding that row to their span adds no pivot.
    """
    return _pdegree_generated(tuple(gens))


@lru_cache(maxsize=CACHE_SIZE)
def _pdegree_generated(examined):
    selected = ()
    if examined:
        n = len(examined[0].vars)
        span = Span(examined[0].field(), n)
        # once the span is all of K^n, no later row adds a pivot
        selected = tuple(g for g in examined
                         if len(span) < n
                         and span.add((k, g.derivative(k)) for k in range(n)) is not None)
    return PBasisResult(examined=examined, selected=selected, d=len(selected))


def in_pspan(mu, basis):
    """True iff mu lies in K^p(basis): adding it does not raise the p-degree."""
    basis = tuple(basis)
    return pdegree_generated(basis + (mu,)).d == pdegree_generated(basis).d

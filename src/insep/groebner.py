"""Buchberger's algorithm over K[U_0,...,U_n] with K a rational function field,
in grevlex, plus Krull-dimension computation from the leading-term ideal.  The
dimension can be read off the leading-term ideal of any monomial order, so one
order serves.

This is the independent verification oracle for singular-locus codimensions:
it must either answer correctly or fail loudly on a resource cap, never guess.
A reduction works in place on one term dict; pairs wait in a heap by lcm.
"""

from collections import namedtuple
from heapq import heappop, heappush
from itertools import combinations

from .upoly import UPoly, grevlex_key, mono_div, mono_divides, mono_lcm, mono_mul

MAX_PAIRS = 10_000
MAX_MONOMIALS = 1_000_000


class ResourceLimitError(RuntimeError):
    """A pair or monomial cap was exceeded; the message gives the count and the cap."""


class GroebnerBasis(namedtuple("GroebnerBasis", "generators")):
    __slots__ = ()

    def leading_monomials(self):
        return [g.leading_monomial() for g in self.generators]


class DimensionReport(namedtuple("DimensionReport", "affine_dim projective_dim")):
    """projective_dim is an int, or None for an empty projective locus."""

    __slots__ = ()


def normal_form(f, basis, counter=None):
    """Full remainder of f under division by basis, in grevlex.

    Each leading term is reduced by the first divisor in list order whose
    leading monomial divides it.  Against a Groebner basis any other choice
    gives the same remainder.  Each step pops the leading term c*U^e and
    subtracts (c/lc)*U^(e-lm)*(g less its leading term) in place.
    """
    lead = [(g.leading_monomial(), g.leading_coeff(), g) for g in basis if g]
    work = dict(f.terms)
    remainder = {}
    while work:
        e = max(work, key=grevlex_key)
        if counter is not None:
            counter[0] += len(work)
            if counter[0] > MAX_MONOMIALS:
                raise ResourceLimitError("budget exceeded: %d monomials counted, over "
                                         "MAX_MONOMIALS = %d" % (counter[0], MAX_MONOMIALS))
        c = work.pop(e)
        hit = next((h for h in lead if mono_divides(h[0], e)), None)
        if hit is None:
            remainder[e] = c
            continue
        lm, lc, g = hit
        q = c if lc.is_one() else c / lc
        shift = mono_div(e, lm)
        for ge, gc in g.terms.items():
            if ge != lm:
                m = mono_mul(ge, shift)
                s = work.pop(m, None)
                s = -(gc * q) if s is None else s - gc * q
                if s:
                    work[m] = s
    return UPoly(f.field, f.nvars, remainder)


def s_polynomial(f, g):
    lf = f.leading_monomial()
    lg = g.leading_monomial()
    lcm = mono_lcm(lf, lg)
    return (f.mul_term(f.leading_coeff().inverse(), mono_div(lcm, lf))
            - g.mul_term(g.leading_coeff().inverse(), mono_div(lcm, lg)))


def buchberger(gens):
    """A reduced Groebner basis of the ideal generated by the nonzero inputs.

    The result is checked before it is returned: every S-polynomial and every
    input reduces to zero, else AssertionError.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    basis = [g.monic() for g in gens]

    pairs = []  # normal strategy: minimal lcm in grevlex, ties broken on indices
    def add_pairs(j):
        for i in range(j):
            lcm = mono_lcm(basis[i].leading_monomial(), basis[j].leading_monomial())
            heappush(pairs, (grevlex_key(lcm), i, j, lcm))

    for j in range(1, len(basis)):
        add_pairs(j)
    counter = [0]
    processed = 0
    while pairs:
        _, i, j, lcm = heappop(pairs)
        processed += 1
        if processed > MAX_PAIRS:
            raise ResourceLimitError("budget exceeded: %d pairs processed, over MAX_PAIRS = %d"
                                     % (processed, MAX_PAIRS))
        if lcm == mono_mul(basis[i].leading_monomial(), basis[j].leading_monomial()):
            continue  # coprime leading terms reduce to zero
        s = s_polynomial(basis[i], basis[j])
        rem = normal_form(s, basis, counter=counter)
        if rem:
            basis.append(rem.monic())
            add_pairs(len(basis) - 1)

    gb = GroebnerBasis(generators=tuple(_interreduce(_minimalize(basis))))
    if not is_groebner_basis(gb):
        raise AssertionError("produced basis failed the S-polynomial check")
    for g in gens:
        if normal_form(g, list(gb.generators)):
            raise AssertionError("input generator does not reduce to zero")
    return gb


def _minimalize(basis):
    out = []
    for g in sorted(basis, key=lambda h: grevlex_key(h.leading_monomial())):
        lm = g.leading_monomial()
        if not any(mono_divides(h.leading_monomial(), lm) for h in out):
            out.append(g)
    return out


def _interreduce(basis):
    out = []
    for i, g in enumerate(basis):
        others = basis[:i] + basis[i + 1:]
        r = normal_form(g, others)
        if r:
            out.append(r.monic())
    return out


def is_groebner_basis(gb):
    """Exhaustive check: every S-polynomial reduces to zero."""
    basis = list(gb.generators)
    for f, g in combinations(basis, 2):
        s = s_polynomial(f, g)
        if normal_form(s, basis):
            return False
    return True


def ideal_dimension(gb):
    """Affine and projective dimension from the leading-term ideal.

    A set S of the variables is independent modulo the leading-term ideal iff
    no leading monomial involves only variables from S, i.e. iff the other
    variables meet every leading-monomial support; the affine Krull dimension
    is the largest size of an independent set, so nvars less the fewest
    variables that meet every support.  A basis from buchberger has at least
    one generator.
    """
    leads = gb.leading_monomials()
    nvars = gb.generators[0].nvars
    supports = [frozenset(i for i, x in enumerate(e) if x) for e in leads]
    if any(not s for s in supports):
        # a unit leading term: the whole ring, empty locus
        return DimensionReport(affine_dim=-1, projective_dim=None)
    affine = nvars - _fewest_meeting(supports, nvars)
    projective = affine - 1 if affine >= 1 else None
    return DimensionReport(affine_dim=affine, projective_dim=projective)


def _fewest_meeting(supports, budget):
    """min(budget, the fewest variables that meet every support).

    Each such set holds a variable of the smallest support, so branch on those;
    a branch ends once pairwise disjoint supports, each needing a variable of
    its own, use up its budget."""
    if not supports:
        return 0
    disjoint, seen = 0, set()
    for s in sorted(supports, key=len):
        if seen.isdisjoint(s):
            disjoint += 1
            seen |= s
    if disjoint >= budget:
        return budget
    best = budget
    for v in sorted(min(supports, key=len)):
        best = min(best, 1 + _fewest_meeting([s for s in supports if v not in s], best - 1))
    return best

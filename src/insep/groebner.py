"""Buchberger's algorithm over K[U_0,...,U_n] with K a rational function field,
in grevlex, plus Krull-dimension computation from the leading-term ideal.  The
dimension can be read off the leading-term ideal of any monomial order, so one
order serves.

This is the independent verification oracle for singular-locus codimensions:
it must either answer correctly or fail loudly on a resource cap, never guess.
"""

from collections import namedtuple
from itertools import combinations

from .upoly import UPoly, grevlex_key, mono_div, mono_divides, mono_lcm, mono_mul

MAX_PAIRS = 10_000
MAX_MONOMIALS = 1_000_000


class ResourceLimitError(RuntimeError):
    """A configured pair or monomial cap was exceeded."""


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
    gives the same remainder.
    """
    lead = [(g.leading_monomial(), g.leading_coeff(), g) for g in basis if g]
    remainder = UPoly.zero(f.field, f.nvars)
    work = f
    while work:
        e = work.leading_monomial()
        c = work.terms[e]
        if counter is not None:
            counter[0] += len(work.terms)
            if counter[0] > MAX_MONOMIALS:
                raise ResourceLimitError("monomial budget exceeded during reduction")
        hit = next((h for h in lead if mono_divides(h[0], e)), None)
        if hit is None:
            remainder = remainder + UPoly(f.field, f.nvars, {e: c})
            work = work - UPoly(f.field, f.nvars, {e: c})
        else:
            lm, lc, g = hit
            work = work - g.mul_term(c / lc, mono_div(e, lm))
    return remainder


def s_polynomial(f, g):
    lf = f.leading_monomial()
    lg = g.leading_monomial()
    lcm = mono_lcm(lf, lg)
    return (f.mul_term(f.field.one() / f.leading_coeff(), mono_div(lcm, lf))
            - g.mul_term(g.field.one() / g.leading_coeff(), mono_div(lcm, lg)))


def buchberger(gens):
    """A reduced Groebner basis of the ideal generated by the nonzero inputs.

    The result is checked before it is returned: every S-polynomial and every
    input reduces to zero, else AssertionError.
    """
    gens = [g for g in gens if g]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    basis = [g.monic() for g in gens]

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    counter = [0]
    processed = 0
    while pairs:
        # normal strategy: minimal lcm in grevlex, ties broken on indices
        def pair_key(p):
            lcm = mono_lcm(basis[p[0]].leading_monomial(), basis[p[1]].leading_monomial())
            return (grevlex_key(lcm), p)

        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        processed += 1
        if processed > MAX_PAIRS:
            raise ResourceLimitError("pair budget exceeded")
        li = basis[i].leading_monomial()
        lj = basis[j].leading_monomial()
        if mono_lcm(li, lj) == mono_mul(li, lj):
            continue  # coprime leading terms reduce to zero
        s = s_polynomial(basis[i], basis[j])
        rem = normal_form(s, basis, counter=counter)
        if rem:
            rem = rem.monic()
            basis.append(rem)
            new = len(basis) - 1
            pairs.update((k, new) for k in range(new))

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
    """Affine and projective dimension from independent variable subsets.

    A subset S of the variables is independent modulo the leading-term ideal
    iff no leading monomial involves only variables from S; the affine Krull
    dimension is the maximal size of an independent subset.  A basis from
    buchberger has at least one generator.
    """
    leads = gb.leading_monomials()
    nvars = gb.generators[0].nvars
    supports = [frozenset(i for i, x in enumerate(e) if x) for e in leads]
    if any(not s for s in supports):
        # a unit leading term: the whole ring, empty locus
        return DimensionReport(affine_dim=-1, projective_dim=None)
    best = 0
    for size in range(nvars, 0, -1):
        for subset in combinations(range(nvars), size):
            sset = set(subset)
            if all(not supp <= sset for supp in supports):
                best = size
                break
        if best:
            break
    affine = best
    projective = affine - 1 if affine >= 1 else None
    return DimensionReport(affine_dim=affine, projective_dim=projective)

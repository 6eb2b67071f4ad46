import os
import random
from collections import namedtuple

import pytest

from insep.fieldarith import FunctionField, MultiPoly, RatFunc, Span
from insep.frobenius import in_pspan, pth_root
from insep.upoly import UPoly


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, running or not."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process was left unreaped%s" % (" (pid %d)" % pid if pid else ""))


@pytest.fixture
def K2st():
    return FunctionField(2, ["s", "t"])


@pytest.fixture
def K3st():
    return FunctionField(3, ["s", "t"])


@pytest.fixture
def K3t():
    return FunctionField(3, ["t"])


def random_poly(rng, field, max_terms=3, max_exp=2, allow_zero=True):
    terms = {}
    count = rng.randrange(0 if allow_zero else 1, max_terms + 1)
    for _ in range(count):
        e = tuple(rng.randrange(0, max_exp + 1) for _ in field.vars)
        terms[e] = rng.randrange(1, field.p)
    return MultiPoly(field.p, field.vars, terms)


def random_nonzero_poly(rng, field, max_terms=3, max_exp=2):
    while True:
        poly = random_poly(rng, field, max_terms, max_exp, allow_zero=False)
        if not poly.is_zero():
            return poly


def random_ratfunc(rng, field, max_terms=3, max_exp=2):
    num = random_poly(rng, field, max_terms, max_exp)
    den = random_nonzero_poly(rng, field, max_terms, max_exp)
    return RatFunc(num, den)


def random_nonzero_ratfunc(rng, field, max_terms=3, max_exp=2):
    while True:
        f = random_ratfunc(rng, field, max_terms, max_exp)
        if f:
            return f


def seeded(seed):
    return random.Random(seed)


def reassemble(field, coords):
    """sum_e g_e^p t^e over Frobenius coordinates: gives back the decomposed element."""
    total = field.zero()
    for e, g in coords.items():
        mono = RatFunc(MultiPoly(field.p, field.vars, {e: 1}), reduce=False)
        total = total + (g ** field.p) * mono
    return total


def imperfection_degree(field):
    """The p-degree of K over K^p; for F_p(t_1,...,t_n) this is n."""
    return len(field.vars)


class TrivialExtensionError(ValueError):
    """The proposed p-th root already exists in K."""


def remains_integral(nf, b):
    """True iff the curve of the normal form nf stays integral after adjoining
    b^(1/p) to K.

    Equivalent to b not becoming a p-th power in the curve's function field,
    which for the normalized curve means b outside K^p(lambda).
    """
    if pth_root(b) is not None:
        raise TrivialExtensionError("%r is already a p-th power in K" % (b,))
    return not in_pspan(b, [nf.lam])


class MultipleCurveProfile(namedtuple(
        "MultipleCurveProfile", "multiplicity deg_nilpotent_grading chi")):
    __slots__ = ()


def multiple_curve_profile(p):
    """Solve chi = sum_(j<p) (j*deg + 1) for the grading degree; always -1.

    chi = 1 - (p-1)(p-2)/2 is the Euler characteristic of the base-changed
    curve, and the graded pieces of its nilpotent filtration are line bundles
    of degrees 0, deg, 2*deg, ....
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    chi = 1 - (p - 1) * (p - 2) // 2
    denominator = p * (p - 1) // 2
    numerator = chi - p
    if numerator % denominator:
        raise AssertionError("grading degree is not an integer")
    deg = numerator // denominator
    if deg != -1:
        raise AssertionError("expected degree -1, found %d" % deg)
    return MultipleCurveProfile(multiplicity=p, deg_nilpotent_grading=deg, chi=chi)


def pth_power_witness_over_root_field(X):
    """Root coefficients rho_i with (sum rho_i U_i)^p = f after t_i -> t_i^p.

    The substitution identifies K^(1/p) with the same rational function field, and
    the p-th power of the linear form is compared exactly with the substituted
    equation.
    """
    p = X.p
    substituted = [RatFunc(c.num.stretch_exponents(p), c.den.stretch_exponents(p))
                   for c in X.coeffs]
    roots = tuple(pth_root(c) for c in substituted)
    assert all(root is not None for root in roots), "not a p-th power after t_i -> t_i^p"
    linear = UPoly.from_power_form(X.field, list(roots), 1)
    assert linear ** p == UPoly.from_power_form(X.field, substituted, p)
    return roots


def reference_normal_form(f, basis, counter=None):
    """Test-only reference for groebner.normal_form, in whole-UPoly arithmetic: each
    step subtracts (c/lc) U^(e-lm) g, leading term included, and the first divisor in
    list order wins.  The counter adds the terms of the working polynomial at each
    step, as the oracle's monomial budget does; the cap itself is not checked here."""
    from insep.upoly import mono_div, mono_divides

    lead = [(g.leading_monomial(), g.leading_coeff(), g) for g in basis if g]
    remainder = UPoly.zero(f.field, f.nvars)
    work = f
    while work:
        e = work.leading_monomial()
        c = work.terms[e]
        if counter is not None:
            counter[0] += len(work.terms)
        hit = next((h for h in lead if mono_divides(h[0], e)), None)
        if hit is None:
            remainder = remainder + UPoly(f.field, f.nvars, {e: c})
            work = work - UPoly(f.field, f.nvars, {e: c})
        else:
            lm, lc, g = hit
            work = work - g.mul_term(c / lc, mono_div(e, lm))
    return remainder


def pairwise_closure(ring, images):
    """Test-only oracle for the conductor subalgebra: the span of 1 and images inside
    the ConductorRing, with every pairwise product of its rref basis adjoined until
    the span stops growing; returns that rref basis."""
    basis = Span(ring.K, ring.dim_K,
                 map(enumerate, [ring.one_vec()] + [ring.flatten(im) for im in images])).basis()
    while True:
        products = [ring.mul(a, b) for i, a in enumerate(basis) for b in basis[i:]]
        closed = Span(ring.K, ring.dim_K, map(enumerate, basis + products)).basis()
        if len(closed) == len(basis):
            return basis
        basis = closed


def sympy_p_independent(elems):
    """Test-only oracle, apart from insep's arithmetic: no nontrivial relation
    sum_i c_i^p * elems_i = 0 with c_i in K = F_p(vars).

    Every element is multiplied by the p-th power D^p of the product D of all
    denominators, which keeps the relations; its numerator then splits by exponents
    mod p into sum_e g_e^p t^e, and the family is independent iff the rows of the
    g_e have full rank over GF(p)(vars), in sympy.
    """
    from sympy import GF
    from sympy.polys.fields import field as frac_field
    from sympy.polys.matrices import DomainMatrix

    if not elems:
        return True
    p, names = elems[0].p, elems[0].vars
    K = frac_field(",".join(names), GF(p))[0]
    ring = K.ring
    nums = [ring(dict(f.num.terms)) for f in elems]
    dens = [ring(dict(f.den.terms)) for f in elems]
    rows, columns = [], {}
    for i, (num, den) in enumerate(zip(nums, dens)):
        poly = num * den ** (p - 1)
        for j, other in enumerate(dens):
            if j != i:
                poly = poly * other ** p
        row = {}
        for expo, c in poly.items():
            row.setdefault(tuple(a % p for a in expo), {})[tuple(a // p for a in expo)] = c
        rows.append(row)
        for key in row:
            columns.setdefault(key, len(columns))
    if not columns:
        return False  # every element is zero
    matrix = [[K(ring(row[key])) if key in row else K.zero for key in columns]
              for row in rows]
    return DomainMatrix(matrix, (len(rows), len(columns)), K.to_domain()).rank() == len(elems)

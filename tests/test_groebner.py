from itertools import combinations

import pytest

from insep.fermat import PFermatHypersurface, verify_codim
from insep.fieldarith import FunctionField, parse_expr
from insep.groebner import (
    GroebnerBasis,
    ResourceLimitError,
    buchberger,
    ideal_dimension,
    is_groebner_basis,
    normal_form,
)
from insep.upoly import UPoly

from conftest import random_nonzero_ratfunc, reference_normal_form, seeded


def upoly(field, nvars, terms):
    return UPoly(field, nvars, terms)


@pytest.fixture
def K(K2st):
    return K2st


def test_already_reduced_basis(K):
    one = K.one()
    g1 = upoly(K, 3, {(1, 0, 0): one})
    g2 = upoly(K, 3, {(0, 1, 0): one})
    gb = buchberger([g1, g2])
    assert set(gb.generators) == {g1, g2}


def test_principal_ideal(K):
    s, t = K.gens()
    f = upoly(K, 3, {(2, 0, 0): s, (0, 2, 0): t})
    gb = buchberger([f])
    assert len(gb.generators) == 1
    assert gb.generators[0] == f.monic()


def test_derived_three_variable_instance(K):
    one = K.one()
    g1 = upoly(K, 3, {(2, 0, 0): one, (0, 1, 1): one})  # U0^2 - U1 U2 (char 2)
    g2 = upoly(K, 3, {(0, 2, 0): one})                   # U1^2
    gb = buchberger([g1, g2])
    report = ideal_dimension(gb)
    assert report.projective_dim == 0


def test_spolys_reduce_to_zero_exhaustively(K3st):
    s, t = K3st.gens()
    one = K3st.one()
    gens = [
        upoly(K3st, 3, {(3, 0, 0): t, (0, 3, 0): t * t, (0, 0, 3): one}),
        upoly(K3st, 3, {(3, 0, 0): one, (0, 3, 0): s}),
        upoly(K3st, 3, {(1, 1, 0): s + t, (0, 0, 2): one}),
    ]
    gb = buchberger(gens)
    assert is_groebner_basis(gb)
    for g in gens:
        assert normal_form(g, list(gb.generators)).is_zero()


def test_reduction_confluence(K3st):
    rng = seeded(55)
    s, t = K3st.gens()
    one = K3st.one()
    gens = [
        upoly(K3st, 3, {(2, 0, 0): one, (0, 1, 1): s}),
        upoly(K3st, 3, {(0, 2, 0): one, (0, 0, 2): t}),
    ]
    gb = buchberger(gens)
    basis = list(gb.generators)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            e = tuple(rng.randrange(0, 3) for _ in range(3))
            terms[e] = K3st.from_int(rng.randrange(1, 3))
        f = upoly(K3st, 3, terms)
        forms = {normal_form(f, basis[off:] + basis[:off]) for off in range(len(basis))}
        assert len(forms) == 1


def test_dimension_sanity(K):
    one = K.one()
    # irrelevant maximal ideal: empty projective locus
    irr = buchberger([upoly(K, 3, {(1, 0, 0): one}),
                      upoly(K, 3, {(0, 1, 0): one}),
                      upoly(K, 3, {(0, 0, 1): one})])
    report = ideal_dimension(irr)
    assert report.affine_dim == 0
    assert report.projective_dim is None
    # whole ring
    unit = buchberger([upoly(K, 3, {(0, 0, 0): one})])
    assert ideal_dimension(unit).projective_dim is None


def test_dimension_single_binomial(K):
    one = K.one()
    gb = buchberger([upoly(K, 3, {(1, 1, 0): one})])  # U0*U1
    assert ideal_dimension(gb).affine_dim == 2


def _dimension_by_subsets(supports, nvars):
    """Reference: the largest variable subset that contains no support, found by
    trying every subset from size nvars downward."""
    for size in range(nvars, 0, -1):
        for subset in combinations(range(nvars), size):
            if all(not supp <= set(subset) for supp in supports):
                return size
    return 0


def _monomial_basis(field, nvars, exponents):
    return GroebnerBasis(generators=tuple(upoly(field, nvars, {e: field.one()})
                                          for e in exponents))


def test_dimension_matches_subset_enumeration(K):
    rng = seeded(31)
    dims = set()
    for _ in range(200):
        nvars = rng.randrange(1, 8)
        draws = [tuple(rng.choice([0, 0, 0, 1, 2]) for _ in range(nvars))
                 for _ in range(rng.randrange(1, 7))]
        exponents = sorted({e for e in draws if any(e)})
        if not exponents:
            continue
        gb = _monomial_basis(K, nvars, exponents)
        supports = [frozenset(i for i, x in enumerate(e) if x) for e in gb.leading_monomials()]
        report = ideal_dimension(gb)
        assert report.affine_dim == _dimension_by_subsets(supports, nvars), exponents
        assert report.projective_dim == (report.affine_dim - 1 if report.affine_dim else None)
        dims.add(report.affine_dim)
    assert dims == set(range(7))


def test_dimension_in_two_hundred_variables(K):
    # U_0^2, ..., U_3^2 in 200 variables: the subsets from size 200 down to 196
    # number about C(200, 4) = 6.5e7, but four variables meet every support
    nvars = 200
    squares = [tuple(2 if i == j else 0 for i in range(nvars)) for j in range(4)]
    report = ideal_dimension(_monomial_basis(K, nvars, squares))
    assert report == (196, 195)


def test_verify_codim_on_examples():
    cases = [
        ((2, ["s", "t"]), ["s", "t", "1"], 2, True),
        ((2, ["s", "t"]), ["s", "t", "1", "1"], 2, True),
        ((3, ["t"]), ["t", "t^2", "1"], 1, True),
        ((3, ["s", "t"]), ["t", "s^3*t", "1"], 1, True),
        ((2, ["s", "t"]), ["s^2", "t^2", "1"], 0, True),
    ]
    for (p, variables), exprs, expected_d, expected_match in cases:
        field = FunctionField(p, variables)
        lams = tuple(parse_expr(e, field) for e in exprs)
        X = PFermatHypersurface(field=field, n=len(lams) - 1, coeffs=lams)
        chk = verify_codim(X)
        assert chk.predicted_d == expected_d
        assert chk.match is expected_match


def test_twisted_cubic_dimension(K3st):
    # U0 U2 - U1^2, U1 U3 - U2^2, U0 U3 - U1 U2 cut out a curve in P^3
    one = K3st.one()
    two = K3st.from_int(2)
    gens = [
        upoly(K3st, 4, {(1, 0, 1, 0): one, (0, 2, 0, 0): two}),
        upoly(K3st, 4, {(0, 1, 0, 1): one, (0, 0, 2, 0): two}),
        upoly(K3st, 4, {(1, 0, 0, 1): one, (0, 1, 1, 0): two}),
    ]
    gb = buchberger(gens)
    assert is_groebner_basis(gb)
    report = ideal_dimension(gb)
    assert report.affine_dim == 2
    assert report.projective_dim == 1


def test_oracle_agrees_with_classification_on_random_instances():
    rng = seeded(4242)
    for p, variables in ((2, ["s", "t"]), (3, ["t"])):
        field = FunctionField(p, variables)
        for _ in range(15):
            n = rng.choice([2, 2, 3])
            lams = tuple(random_nonzero_ratfunc(rng, field, max_terms=2, max_exp=1)
                         for _ in range(n + 1))
            X = PFermatHypersurface(field=field, n=n, coeffs=lams)
            chk = verify_codim(X)
            assert chk.match, [lam.format() for lam in lams]


def _two_quadrics(K):
    one = K.one()
    return [upoly(K, 3, {(2, 0, 0): one, (0, 1, 1): one}),
            upoly(K, 3, {(0, 2, 0): one, (0, 0, 2): one})]


def test_resource_limit_is_loud(K, monkeypatch):
    import insep.groebner as gb_mod

    monkeypatch.setattr(gb_mod, "MAX_PAIRS", 0)
    with pytest.raises(ResourceLimitError) as info:
        buchberger(_two_quadrics(K))
    assert str(info.value) == "budget exceeded: 1 pairs processed, over MAX_PAIRS = 0"


def test_monomial_budget_is_loud(K, monkeypatch):
    import insep.groebner as gb_mod

    one = K.one()
    g1 = upoly(K, 3, {(2, 0, 0): one, (0, 1, 1): one})  # U0^2 + U1 U2
    g2 = upoly(K, 3, {(1, 1, 0): one, (0, 0, 2): one})  # U0 U1 + U2^2
    # S(g1, g2) = U1^2 U2 + U0 U2^2 is reduced, counting 2 and then 1 terms, and
    # joins the basis; the S-polynomial U0^2 U2^2 + U1 U2^3 of its one pair whose
    # leading terms are not coprime then counts 2 terms more, so the total is 5
    monkeypatch.setattr(gb_mod, "MAX_MONOMIALS", 4)
    with pytest.raises(ResourceLimitError) as info:
        buchberger([g1, g2])
    assert str(info.value) == "budget exceeded: 5 monomials counted, over MAX_MONOMIALS = 4"
    monkeypatch.setattr(gb_mod, "MAX_MONOMIALS", 5)
    assert len(buchberger([g1, g2]).generators) == 3


def _random_upoly(rng, field, nvars, max_terms, max_deg):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        e = tuple(rng.randrange(0, max_deg + 1) for _ in range(nvars))
        terms[e] = random_nonzero_ratfunc(rng, field, max_terms=2, max_exp=1)
    return upoly(field, nvars, terms)


def test_normal_form_matches_reference():
    """The in-place reduction gives the remainder and the monomial count of the
    whole-UPoly reference: on non-monic divisors, on divisor lists in both orders,
    and on multiples of one divisor, whose remainder is zero."""
    rng = seeded(25)
    order_mattered = 0
    for p, variables in ((2, ["s", "t"]), (3, ["t"]), (5, ["s", "t"]), (7, ["t"])):
        K = FunctionField(p, variables)
        for _ in range(10):
            nvars = rng.choice([2, 3])
            divisors = [_random_upoly(rng, K, nvars, max_terms=3, max_deg=2)
                        for _ in range(rng.randrange(1, 4))]
            f = _random_upoly(rng, K, nvars, max_terms=5, max_deg=4)
            multiple = _random_upoly(rng, K, nvars, max_terms=2, max_deg=2) * divisors[0]
            cases = [(f, divisors), (f, divisors[::-1]), (multiple, divisors[:1])]
            remainders = []
            for g, basis in cases:
                mine, ref = [7], [7]
                remainder = normal_form(g, basis, counter=mine)
                assert remainder == reference_normal_form(g, basis, counter=ref)
                assert mine == ref
                remainders.append(remainder)
            order_mattered += remainders[0] != remainders[1]
            assert remainders[2].is_zero()
    assert order_mattered >= 10

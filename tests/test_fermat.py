import pytest

from insep.catalog import hypersurface, load_default_catalog
from insep.fermat import (
    NotIntegralError,
    PFermatHypersurface,
    VERDICT_NONREDUCED,
    VERDICT_REGULAR,
    VERDICT_SINGULAR,
    classify,
    geometric_generic_edim,
    invariant_d,
    jacobian,
    rational_point,
    singular_ideal,
)
from insep.fieldarith import FunctionField, parse_expr
from insep.frobenius import pdegree_generated
from insep.groebner import buchberger, ideal_dimension, normal_form
from insep.upoly import UPoly

from conftest import (imperfection_degree, pth_power_witness_over_root_field,
                      random_nonzero_ratfunc, seeded, sympy_p_independent)


def hyp(p, variables, exprs):
    K = FunctionField(p, variables)
    lams = tuple(parse_expr(e, K) for e in exprs)
    return PFermatHypersurface(field=K, n=len(lams) - 1, coeffs=lams)


def test_invariant_d_examples():
    assert invariant_d(hyp(2, ["x", "y"], ["x", "y", "1"])) == 2
    assert invariant_d(hyp(2, ["s", "t"], ["s^2", "t^2", "1"])) == 0
    assert invariant_d(hyp(2, ["s", "t"], ["t", "s^2*t", "1"])) == 1


def test_classify_verdicts():
    assert classify(hyp(2, ["s", "t"], ["s", "t", "1"])).verdict == VERDICT_REGULAR
    c = classify(hyp(3, ["t"], ["t", "t^2", "1"]))
    assert c.verdict == VERDICT_SINGULAR and c.codim == 1
    c = classify(hyp(2, ["s", "t"], ["s", "t", "1", "1"]))
    assert c.verdict == VERDICT_SINGULAR and c.codim == 2
    c = classify(hyp(2, ["s", "t"], ["s^2", "t^2", "1"]))
    assert c.verdict == VERDICT_NONREDUCED
    unit, roots = c.pth_power_certificate
    X = hyp(2, ["s", "t"], ["s^2", "t^2", "1"])
    g = UPoly.from_power_form(X.field, list(roots), 1)
    assert (g ** 2).scale(unit) == X.defining_upoly()


def test_rational_point_examples():
    X = hyp(2, ["s", "t"], ["t", "t", "1"])
    point = rational_point(X)
    assert point is not None
    assert rational_point(hyp(2, ["s", "t"], ["s", "t", "1"])) is None
    X = hyp(2, ["s", "t"], ["t", "s^2*t", "1"])
    point = rational_point(X)
    value = X.field.zero()
    for lam, x in zip(X.coeffs, point):
        value = value + lam * x * x
    assert value.is_zero()


def test_rational_point_iff_dependent_random():
    rng = seeded(31)
    for p, variables in ((2, ["s", "t"]), (3, ["s", "t"])):
        K = FunctionField(p, variables)
        for _ in range(20):
            lams = tuple(random_nonzero_ratfunc(rng, K, max_terms=2, max_exp=1)
                         for _ in range(3))
            X = PFermatHypersurface(field=K, n=2, coeffs=lams)
            assert (rational_point(X) is None) == sympy_p_independent(list(lams))


def test_invariant_d_invariances():
    rng = seeded(32)
    K = FunctionField(2, ["s", "t"])
    X = hyp(2, ["s", "t"], ["t", "s^2*t", "1"])
    d = invariant_d(X)
    # permutation of the coefficients
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        Y = PFermatHypersurface(field=K, n=2, coeffs=tuple(X.coeffs[i] for i in perm))
        assert invariant_d(Y) == d
    # common scaling
    c = random_nonzero_ratfunc(rng, K)
    Y = PFermatHypersurface(field=K, n=2, coeffs=tuple(c * lam for lam in X.coeffs))
    assert invariant_d(Y) == d
    # coordinate rescaling U_i -> c_i U_i multiplies lambda_i by c_i^p
    scalars = [random_nonzero_ratfunc(rng, K) for _ in range(3)]
    Y = PFermatHypersurface(
        field=K, n=2,
        coeffs=tuple((ci ** 2) * lam for ci, lam in zip(scalars, X.coeffs)))
    assert invariant_d(Y) == d


def test_invariant_d_independent_of_reference_choice():
    # both nonzero coefficients generate the same subfield of ratios
    X = hyp(3, ["t"], ["t", "t^2", "1"])
    Xrev = hyp(3, ["t"], ["1", "t^2", "t"])
    assert invariant_d(X) == invariant_d(Xrev) == 1


def test_d_bounded_by_imperfection():
    rng = seeded(33)
    for p, variables in ((2, ["s", "t"]), (3, ["t"])):
        K = FunctionField(p, variables)
        for n in (1, 2, 3):
            lams = tuple(random_nonzero_ratfunc(rng, K, max_terms=2, max_exp=1)
                         for _ in range(n + 1))
            X = PFermatHypersurface(field=K, n=n, coeffs=lams)
            assert invariant_d(X) <= min(n, imperfection_degree(K))


def test_singular_ideal_regular_case_cuts_nothing():
    X = hyp(2, ["s", "t"], ["s", "t", "1"])
    gens = singular_ideal(X)
    assert len(gens) == 3
    # f, df/ds = U_0^2 and df/dt = U_1^2 leave only the origin: the locus is empty
    assert ideal_dimension(buchberger(gens)).projective_dim is None


def test_singular_ideal_partials_example():
    X = hyp(3, ["t"], ["t", "t^2", "1"])
    gens = singular_ideal(X)
    f, df = gens
    two_t = X.field.from_int(2) * X.field.gen("t")
    assert df == UPoly.from_power_form(X.field, [X.field.one(), two_t, X.field.zero()], 3)


def test_geometric_generic_edim():
    X = hyp(2, ["x", "y"], ["x", "y", "1"])
    assert geometric_generic_edim(X) == 1
    roots = pth_power_witness_over_root_field(X)
    K = X.field
    assert roots == (K.gen("x"), K.gen("y"), K.one())
    assert geometric_generic_edim(hyp(3, ["t"], ["t", "t^2", "1"])) == 1
    with pytest.raises(NotIntegralError):
        geometric_generic_edim(hyp(2, ["s", "t"], ["s^2", "t^2", "1"]))


def test_t_jacobian_vanishes_modulo_f_iff_d_is_zero():
    # d = 0 makes every ratio a p-th power, so f = lambda_r h^p and each df/dt_k is
    # (d lambda_r/dt_k / lambda_r) f; for d >= 1 some df/dt_k survives modulo f
    rng = seeded(71)
    seen = set()
    for p, variables in ((2, ["s", "t"]), (3, ["t"]), (2, ["s", "t", "u"])):
        K = FunctionField(p, variables)
        for n in (1, 2, 3):
            for _ in range(4):
                lams = [random_nonzero_ratfunc(rng, K, max_terms=2, max_exp=2)
                        for _ in range(n + 1)]
                if rng.randrange(3) == 0:
                    # p-th power ratios: d = 0
                    lams = [lams[0]] + [lams[0] * c ** p for c in lams[1:]]
                X = PFermatHypersurface(field=K, n=n, coeffs=tuple(lams))
                if invariant_d(X):
                    assert geometric_generic_edim(X) == 1
                else:
                    f, *partials = singular_ideal(X)
                    assert not any(normal_form(g, [f]) for g in partials)
                seen.add(invariant_d(X) > 0)
    assert seen == {False, True}


def test_theorem_instance_inequality():
    X = hyp(2, ["s", "t"], ["s", "t", "1"])
    assert geometric_generic_edim(X) == 1 < imperfection_degree(X.field)


def _brute_force_d(X):
    """Independent route: the coefficient ratios generate a subfield of K whose
    K^p-dimension is p^d, spanned by the ratio monomials with exponents < p."""
    from itertools import product as iproduct

    from insep.fieldarith import Matrix
    from insep.frobenius import frobenius_decompose

    field = X.field
    ratios = X.ratios()
    monomials = []
    for a in iproduct(range(X.p), repeat=len(ratios)):
        m = field.one()
        for r, e in zip(ratios, a):
            m = m * (r ** e)
        monomials.append(m)
    decomps = [frobenius_decompose(m) for m in monomials]
    keys = sorted(set().union(*decomps))
    zero = field.zero()
    rows = [[d.get(e, zero) for e in keys] for d in decomps]
    span_size = Matrix(field, rows).rank()
    d = 0
    while X.p ** d < span_size:
        d += 1
    assert X.p ** d == span_size, "span is not a power of p"
    return d


def test_invariant_d_against_brute_force_span():
    cases = [
        (2, ["s", "t"], ["s", "t", "1"]),
        (2, ["s", "t"], ["s^2", "t^2", "1"]),
        (2, ["s", "t"], ["t", "s^2*t", "1"]),
        (2, ["s", "t"], ["t", "t", "1"]),
        (2, ["s", "t"], ["0", "t", "1"]),
        (3, ["t"], ["t", "t^2", "1"]),
        (3, ["t"], ["t", "t+t^2", "1"]),
        (3, ["s", "t"], ["t", "s^3*t", "1"]),
        (3, ["s", "t"], ["s", "s*t", "t"]),
        (2, ["s", "t", "u"], ["s", "t", "u", "1"]),
    ]
    for p, variables, exprs in cases:
        X = hyp(p, variables, exprs)
        assert invariant_d(X) == _brute_force_d(X), exprs


def test_invariant_d_against_brute_force_random():
    rng = seeded(34)
    K = FunctionField(2, ["s", "t"])
    for _ in range(25):
        lams = tuple(random_nonzero_ratfunc(rng, K, max_terms=2, max_exp=1)
                     for _ in range(3))
        X = PFermatHypersurface(field=K, n=2, coeffs=lams)
        assert invariant_d(X) == _brute_force_d(X)


def test_invariant_d_is_the_p_degree_of_the_ratios():
    """rank [d lambda/dt; lambda] - 1 against the p-degree of the ratios through their
    own Jacobian, on the shipped catalog and on seeded hypersurfaces with p = 2, 3, 5,
    7, one to three variables and n = 1, 2, 3, some with a zero lambda_i; jacobian(X)
    holds the derivatives of the lambda_i."""
    Xs = [hypersurface(FunctionField.from_descriptor(e["field"]), e["lambda"])
          for e in load_default_catalog()]
    rng = seeded(25)
    for p in (2, 3, 5, 7):
        for variables in (["t"], ["s", "t"], ["s", "t", "u"]):
            K = FunctionField(p, variables)
            for n in (1, 2, 3):
                for _ in range(2):
                    lams = [random_nonzero_ratfunc(rng, K, max_terms=2, max_exp=2)
                            for _ in range(n + 1)]
                    if rng.randrange(3) == 0:
                        lams[rng.randrange(n + 1)] = K.zero()
                    if rng.randrange(4) == 0:
                        # ratios that are p-th powers: d = 0
                        lams = [lams[0]] + [lams[0] * c ** p for c in lams[1:]]
                    if not any(lams):
                        lams[0] = K.one()
                    Xs.append(PFermatHypersurface(field=K, n=n, coeffs=tuple(lams)))
    seen = set()
    for X in Xs:
        assert jacobian(X) == tuple(tuple(c.derivative(k) for c in X.coeffs)
                                    for k in range(len(X.field.vars)))
        d = invariant_d(X)
        assert d == pdegree_generated(X.ratios()).d, [c.format() for c in X.coeffs]
        seen.add(d)
    assert len(Xs) == 22 + 72
    assert seen == {0, 1, 2, 3}

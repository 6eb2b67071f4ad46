"""Edge cases: zero coefficients, tiny ambient dimension, perfect ground
fields, the p = 7 surface, and constructor validation."""

import pytest

from insep.curves import normal_form, normalization, singular_point
from insep.fermat import (
    PFermatHypersurface,
    VERDICT_NONREDUCED,
    VERDICT_REGULAR,
    classify,
    invariant_d,
    rational_point,
    verify_codim,
)
from insep.fieldarith import FunctionField, parse_expr
from insep.upoly import UPoly


def hyp(p, variables, exprs, n=None):
    K = FunctionField(p, variables)
    lams = tuple(parse_expr(e, K) for e in exprs)
    return PFermatHypersurface(field=K, n=len(lams) - 1 if n is None else n, coeffs=lams)


def test_zero_coefficient_classify_and_oracle():
    X = hyp(2, ["s", "t"], ["0", "t", "1"])
    cls = classify(X)
    assert cls.d == 1 and cls.codim == 1
    assert verify_codim(X).match
    point = rational_point(X)
    assert point is not None  # (1 : 0 : 0) lies on t*U1^2 + U2^2 = 0
    value = X.field.zero()
    for lam, c in zip(X.coeffs, point):
        value = value + lam * c * c
    assert value.is_zero()


def test_zero_coefficient_nonreduced_certificate():
    X = hyp(2, ["s", "t"], ["0", "t^2", "1"])
    cls = classify(X)
    assert cls.verdict == VERDICT_NONREDUCED
    unit, roots = cls.pth_power_certificate
    g = UPoly.from_power_form(X.field, list(roots), 1)
    assert (g ** 2).scale(unit) == X.defining_upoly()


def test_zero_last_coefficient_curve_pipeline():
    # t*U0^2 + U1^2 = 0 is a cone in P^2; the normal form permutes coordinates
    K = FunctionField(2, ["s", "t"])
    nf = normal_form(K, K.gen("t"), K.one(), K.zero())
    assert nf.slot_to_index == (0, 2, 1)
    assert nf.q_of_lambda().is_zero()
    normalization(nf)
    sp = singular_point(nf)
    assert sp.residue_degree == 1


def test_dimension_one_hypersurface():
    X = hyp(2, ["t"], ["t", "1"])
    assert invariant_d(X) == 1 == X.n
    assert classify(X).verdict == VERDICT_REGULAR
    assert verify_codim(X).match


def test_perfect_ground_field_everything_is_a_pth_power():
    X = hyp(3, [], ["2", "1", "1"])
    cls = classify(X)
    assert cls.verdict == VERDICT_NONREDUCED
    assert cls.rational_point is not None


def test_four_variable_regular_fourfold():
    X = hyp(2, ["s", "t", "u", "v"], ["s", "t", "u", "v", "1"])
    assert invariant_d(X) == 4 == X.n
    chk = verify_codim(X)
    assert chk.match and chk.oracle_codim is None


def test_p7_classification_smoke():
    X = hyp(7, ["t"], ["t", "t^2", "1"])
    cls = classify(X)
    assert cls.d == 1 and cls.codim == 1
    assert verify_codim(X).match


def test_concurrent_classification_is_consistent():
    from concurrent.futures import ThreadPoolExecutor

    X = hyp(3, ["s", "t"], ["t", "s^3*t", "1"])
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: classify(X), range(16)))
    assert all(r == results[0] for r in results)


def test_edim_zero_iff_trivial_ideal():
    from insep.artin import edim, truncated_polynomial_algebra
    from insep.fieldarith import PrimeField

    trivial = edim(truncated_polynomial_algebra(PrimeField(3), []))
    assert trivial.edim == 0 and trivial.dim_m == 0
    nontrivial = edim(truncated_polynomial_algebra(PrimeField(3), [2]))
    assert nontrivial.edim > 0 and nontrivial.dim_m > 0


def test_constructor_validation():
    K = FunctionField(2, ["t"])
    with pytest.raises(ValueError):
        PFermatHypersurface(field=K, n=2, coeffs=(K.zero(), K.zero(), K.zero()))
    with pytest.raises(ValueError):
        PFermatHypersurface(field=K, n=0, coeffs=(K.one(),))
    with pytest.raises(ValueError):
        PFermatHypersurface(field=K, n=2, coeffs=(K.one(), K.one()))
    with pytest.raises(ValueError):
        FunctionField(4, ["t"])
    with pytest.raises(ValueError):
        FunctionField(2, ["a", "b", "c", "d", "e"])
    with pytest.raises(ValueError):
        FunctionField(2, ["t", "t"])


def test_result_records_are_read_only():
    X = hyp(3, ["s", "t"], ["t", "s^3*t", "1"])
    nf = normal_form(X.field, *X.coeffs)
    sp = singular_point(nf)
    for record, field in ((X, "n"), (classify(X), "d"), (verify_codim(X), "match"),
                          (nf, "lam"), (sp, "residue_degree"), (sp.nu, "q_root")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None
    assert X.n == 2 and sp.residue_degree == 1

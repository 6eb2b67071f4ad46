from collections import Counter

import pytest

from insep import curves
from insep.catalog import check_catalog_entry, load_default_catalog
from insep.curves import (
    CASE_P2,
    CASE_RESIDUE_K,
    CASE_RESIDUE_L,
    UnsupportedPError,
    WrongInvariantError,
    conductor_profile,
    glueing_cohomology,
    normal_form,
    normalization,
    singular_point,
)
from insep.fieldarith import FunctionField, Matrix, parse_expr

from conftest import (TrivialExtensionError, multiple_curve_profile, pairwise_closure,
                      random_nonzero_ratfunc, remains_integral, seeded, sympy_p_independent)


def nf_of(p, variables, exprs):
    K = FunctionField(p, variables)
    return normal_form(K, *[parse_expr(e, K) for e in exprs])


def test_normal_form_monomial_q():
    nf = nf_of(3, ["t"], ["t", "t^2", "1"])
    K = nf.field
    assert nf.lam == K.gen("t")
    assert nf.q_of_lambda() == parse_expr("t^2", K)
    assert nf.root_coeffs == (K.zero(), K.zero(), K.one())  # Q = lambda^2


def test_normal_form_membership_coefficient():
    nf = nf_of(2, ["s", "t"], ["t", "s^2*t", "1"])
    K = nf.field
    assert nf.lam == K.gen("t")
    assert nf.root_coeffs == (K.zero(), K.gen("s"))  # Q = s^2 * lambda


def test_normal_form_wrong_invariant():
    with pytest.raises(WrongInvariantError):
        nf_of(2, ["s", "t"], ["s^2", "t^2", "1"])
    with pytest.raises(WrongInvariantError):
        nf_of(2, ["s", "t"], ["s", "t", "1"])  # d = 2


def test_normal_form_reproduces_scaled_permuted_input():
    # no coefficient equal to 1; scaling and slot assignment must reconstruct
    K = FunctionField(3, ["t"])
    t = K.gen("t")
    nf = normal_form(K, t, t * t, t)
    assert nf.reproduces((t, t * t, t))
    nf2 = nf_of(2, ["s", "t"], ["t", "t+s^2*t", "1"])
    assert nf2.q_of_lambda() == parse_expr("t+s^2*t", nf2.field)


def test_normalization_pullback_vanishes():
    for args in ((3, ["t"], ["t", "t^2", "1"]),
                 (2, ["s", "t"], ["t", "s^2*t", "1"]),
                 (5, ["t"], ["t", "t^2", "1"])):
        normalization(nf_of(*args))  # raises if the pullback fails to vanish


def test_normalization_degenerate_q_zero():
    K = FunctionField(2, ["s", "t"])
    nf = normal_form(K, K.gen("t"), K.zero(), K.one())
    nu = normalization(nf)
    assert nu.q_root == nu.line_field.zero()


def test_singular_point_residue_l():
    nf = nf_of(3, ["t"], ["t", "t^2", "1"])
    sp = singular_point(nf)
    L = sp.point_on_line[0].field
    x = L.gen()
    # a = (lambda^(1/3) : 1), image (lambda^(1/3) : 1 : lambda^(2/3))
    assert sp.point_on_line == (x, L.one())
    assert sp.image_point == (x, L.one(), x * x)
    assert sp.residue_degree == 3


def test_singular_point_residue_k():
    nf = nf_of(3, ["s", "t"], ["t", "s^3*t", "1"])
    sp = singular_point(nf)
    L = sp.point_on_line[0].field
    s = L.lift(nf.field.gen("s"))
    assert sp.point_on_line == (-s, L.one())
    assert sp.image_point == (-s, L.one(), L.zero())
    assert sp.residue_degree == 1


def test_singular_point_zero_derivative():
    K = FunctionField(2, ["s", "t"])
    nf = normal_form(K, K.gen("t"), K.zero(), K.one())
    sp = singular_point(nf)
    L = sp.point_on_line[0].field
    assert sp.point_on_line == (L.zero(), L.one())
    assert sp.residue_degree == 1


def test_conductor_profile_p2():
    nf = nf_of(2, ["s", "t"], ["t", "s^2*t", "1"])
    cp = conductor_profile(nf)
    assert cp.case == CASE_P2
    assert cp.dim_subalgebra == 1
    assert cp.ring.dim_K == 2


@pytest.mark.parametrize("args,case,expected_dim", [
    ((3, ["t"], ["t", "t^2", "1"]), CASE_RESIDUE_L, 3),
    ((3, ["s", "t"], ["t", "s^3*t", "1"]), CASE_RESIDUE_K, 3),
    ((5, ["t"], ["t", "t^2", "1"]), CASE_RESIDUE_L, 10),
    ((5, ["s", "t"], ["t", "s^5*t", "1"]), CASE_RESIDUE_K, 10),
])
def test_conductor_profile_cases(args, case, expected_dim):
    nf = nf_of(*args)
    cp = conductor_profile(nf)
    assert cp.case == case
    assert cp.dim_subalgebra == expected_dim == nf.p * (nf.p - 1) // 2
    assert cp.ring.dim_K == nf.p * (nf.p - 1)
    sp = singular_point(nf)
    assert (cp.case == CASE_RESIDUE_L) == (sp.residue_degree == nf.p)
    if case == CASE_RESIDUE_L:
        assert not cp.witnesses["mu"].in_base()
        assert cp.ring.vanishing_order(cp.witnesses["f"]) == 1
        if nf.p >= 5:
            assert cp.ring.vanishing_order(cp.witnesses["g"]) == 2
    if case == CASE_RESIDUE_K:
        assert cp.ring.vanishing_order(cp.witnesses["v"]) == 1
        assert cp.ring.vanishing_order(cp.witnesses["w"]) >= 1


def test_conductor_unsupported_p():
    nf = nf_of(7, ["t"], ["t", "t^2", "1"])
    with pytest.raises(UnsupportedPError):
        conductor_profile(nf)


def test_glueing_cohomology_values():
    for args, h1 in (((2, ["s", "t"], ["t", "s^2*t", "1"]), 0),
                     ((3, ["t"], ["t", "t^2", "1"]), 1),
                     ((3, ["s", "t"], ["t", "s^3*t", "1"]), 1),
                     ((5, ["t"], ["t", "t^2", "1"]), 6)):
        nf = nf_of(*args)
        cp = conductor_profile(nf)
        gc = glueing_cohomology(cp)
        assert gc.h0 == 1
        assert gc.h1 == h1 == (nf.p - 1) * (nf.p - 2) // 2
        assert gc.admissible


def test_remains_integral():
    K = FunctionField(2, ["s", "t"])
    s, t = K.gens()
    nf = normal_form(K, t, K.zero(), K.one())
    assert remains_integral(nf, s) is True
    assert remains_integral(nf, t) is False       # lambda gains a root upstairs
    assert remains_integral(nf, s * s * t) is False  # s^2 t = (s^2)*lambda
    with pytest.raises(TrivialExtensionError):
        remains_integral(nf, s * s)


def test_remains_integral_cross_check():
    rng = seeded(99)
    K = FunctionField(3, ["s", "t"])
    s, t = K.gens()
    nf = normal_form(K, t, t * t, K.one())
    L_powers = [K.one(), t, t * t]
    for b in (s, s + t, s * t, t + K.one(), (s ** 3) * t, (s ** 3) * (t ** 2)):
        result = remains_integral(nf, b)
        # independent route: b becomes a p-th power in L iff {1, lam, lam^2, b}
        # acquires a K^p-linear relation
        dependent = not sympy_p_independent(L_powers + [b])
        assert result == (not dependent)


def test_multiple_curve_profile():
    for p in (2, 3, 5, 7):
        prof = multiple_curve_profile(p)
        assert prof.deg_nilpotent_grading == -1
        assert prof.multiplicity == p
        assert prof.chi == 1 - (p - 1) * (p - 2) // 2


def test_two_term_q_normal_form():
    nf = nf_of(3, ["t"], ["t", "t+t^2", "1"])
    K = nf.field
    assert nf.root_coeffs == (K.zero(), K.one(), K.one())  # Q = lambda + lambda^2
    cp = conductor_profile(nf)
    assert cp.case == CASE_RESIDUE_L
    gc = glueing_cohomology(cp)
    assert (gc.h0, gc.h1) == (1, 1)


def test_oracle_confirms_singular_point_support():
    from insep.fermat import singular_ideal
    from insep.groebner import buchberger, ideal_dimension

    for args in ((3, ["t"], ["t", "t^2", "1"]),
                 (3, ["s", "t"], ["t", "s^3*t", "1"]),
                 (2, ["s", "t"], ["t", "s^2*t", "1"])):
        nf = nf_of(*args)
        sp = singular_point(nf)
        X = nf.curve()
        gb = buchberger(singular_ideal(X))
        assert ideal_dimension(gb).projective_dim == 0  # isolated singular locus
        L = sp.point_on_line[0].field
        for gen in gb.generators:
            value = gen.evaluate(list(sp.image_point), L.one(), embed_coeff=L.lift)
            assert not value  # the singular point lies in the oracle's locus


def test_catalog_entry_runs_each_curve_stage_once(monkeypatch):
    calls = {"normalization": 0, "singular_point": 0}
    for name in calls:
        def counted(nf, _stage=getattr(curves, name), _name=name):
            calls[_name] += 1
            return _stage(nf)
        monkeypatch.setattr(curves, name, counted)
    entry = next(e for e in load_default_catalog() if e["name"] == "f3st-residueK-curve")
    record = check_catalog_entry(entry)
    assert record["ok"] and "conductor_profile" in record["operations"]
    assert calls == {"normalization": 1, "singular_point": 1}


def _catalog_curves(max_p):
    """(name, normal form) of every shipped d = 1 plane curve with p <= max_p."""
    for entry in load_default_catalog():
        if (len(entry["lambda"]) == 3 and entry["expect"]["d"] == 1
                and entry["field"]["p"] <= max_p):
            K = FunctionField.from_descriptor(entry["field"])
            yield entry["name"], normal_form(K, *[parse_expr(e, K) for e in entry["lambda"]])


def test_closure_equals_the_pairwise_closure_of_the_chart_images_on_the_catalog():
    names = []
    for name, nf in _catalog_curves(5):
        cp = conductor_profile(nf)
        oracle = pairwise_closure(cp.ring, cp.images)
        assert tuple(map(tuple, oracle)) == cp.subalgebra_basis, name
        names.append(name)
    assert "f5t-two-term-Q" in names and "f3t-constant-Q" in names


def test_closure_equals_the_pairwise_closure_on_seeded_curves_in_both_charts():
    # (lambda*w, Q(lambda)*w, w) rotated, Q(lambda) = a0 + a1*lambda + a2*lambda^2 with
    # constant a_i; a1 = a2 = 0 puts the singular point in chart 1
    rng = seeded(23)
    K = FunctionField(3, ["s", "t"])
    charts = []
    while len(charts) < 12:
        lam = random_nonzero_ratfunc(rng, K)
        w = random_nonzero_ratfunc(rng, K)
        a0, a1, a2 = (K.from_int(rng.randrange(lo, 3)) for lo in (1, 0, 0))
        triple = [lam * w, (a0 + a1 * lam + a2 * lam * lam) * w, w]
        k = rng.randrange(3)
        try:
            nf = normal_form(K, *(triple[k:] + triple[:k]))
        except WrongInvariantError:  # lambda is a cube
            continue
        cp = conductor_profile(nf)
        assert tuple(map(tuple, pairwise_closure(cp.ring, cp.images))) == cp.subalgebra_basis
        charts.append(cp.chart_index)
    assert set(charts) == {0, 1}


def test_conductor_products_stay_within_the_semi_naive_count(monkeypatch):
    shipped = dict(_catalog_curves(5))
    count = Counter()
    for owner, name in ((curves.ConductorRing, "mul"), (Matrix, "_echelon"),
                        (curves, "row_space_basis"), (curves, "reduce_by_rows"),
                        (curves, "_subspace_intersection_dim")):
        def counted(*args, _inner=getattr(owner, name), _name=name):
            count[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(owner, name, counted)
    for name, nf in shipped.items():
        count.clear()
        cp = conductor_profile(nf)
        # each row past 1 times each of the two generators
        assert count["mul"] <= 2 * (cp.dim_subalgebra - 1) <= 18, name
        # the L meet and the conductor guard
        assert count["_subspace_intersection_dim"] == 2, name
        count.clear()
        gc = glueing_cohomology(cp)
        # the cohomology reads the profile: no product, elimination or reduction
        assert not count and gc.h1 == (nf.p - 1) * (nf.p - 2) // 2, name
    assert "f5t-two-term-Q" in shipped

"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The arithmetic is exact, so every comparison is equality.
"""

import json
import time
from itertools import permutations

import pytest

from insep import artin, curves, fermat
from insep.catalog import hypersurface, load_default_catalog
from insep.cli import run_catalog, run_job, strip_timing
from insep.fermat import verify_codim
from insep.fieldarith import FunctionField, PrimeField, parse_expr
from insep.frobenius import (
    frobenius_decompose,
    imperfection_degree,
    pdegree_generated,
    pth_root,
)
from insep.groebner import buchberger, is_groebner_basis

from conftest import (pth_power_witness_over_root_field, random_nonzero_ratfunc, random_ratfunc,
                      reassemble, seeded, sympy_p_independent)

CATALOG = load_default_catalog()
CURVE_FIELDS = ({"p": 2, "vars": ["s", "t"]}, {"p": 3, "vars": ["s", "t"]},
                {"p": 3, "vars": ["t"]}, {"p": 2, "vars": ["s", "t", "u"]})


def _announce(number, label, ok, elapsed):
    print("ACCEPTANCE %d (%s): %s in %.2fs" % (number, label, "PASS" if ok else "FAIL", elapsed))
    assert ok


def entry_hypersurface(entry):
    return hypersurface(FunctionField.from_descriptor(entry["field"]), entry["lambda"])


def _d1_curve_entries():
    for entry in CATALOG:
        X = entry_hypersurface(entry)
        if entry["expect"]["d"] == 1 and X.n == 2 and X.p <= 5:
            yield entry, X


def test_criterion_1_codimension_theorem_matches_oracle():
    start = time.monotonic()
    core = [e for e in CATALOG if e["field"] in CURVE_FIELDS]
    assert len(core) >= 12
    coverage = set()
    for entry in CATALOG:
        X = entry_hypersurface(entry)
        cls = fermat.classify(X)
        assert cls.d == entry["expect"]["d"], entry["name"]
        assert cls.verdict == entry["expect"]["verdict"], entry["name"]
        chk = verify_codim(X)
        assert chk.predicted_d == cls.d
        assert chk.match, entry["name"]
        if entry["field"] in CURVE_FIELDS:
            coverage.add((X.n, cls.d))
    for need in ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)):
        assert need in coverage, "missing (n, d) = %r" % (need,)
    elapsed = time.monotonic() - start
    _announce(1, "codimension theorem vs Groebner oracle", elapsed < 60.0, elapsed)


def test_criterion_2_rational_points():
    start = time.monotonic()
    for entry in CATALOG:
        X = entry_hypersurface(entry)
        point = fermat.rational_point(X)
        assert (point is None) == sympy_p_independent(list(X.coeffs)), entry["name"]
        if point is not None:
            value = X.field.zero()
            for lam, c in zip(X.coeffs, point):
                value = value + lam * (c ** X.p)
            assert value.is_zero(), entry["name"]
        assert (point is not None) == entry["expect"]["rational_point"], entry["name"]
    _announce(2, "rational points iff p-dependence", True, time.monotonic() - start)


def test_criterion_3_normalization():
    start = time.monotonic()
    count = 0
    for _, X in _d1_curve_entries():
        nf = curves.normal_form(X.field, *X.coeffs)
        curves.normalization(nf)  # asserts nu*(f) = 0 exactly
        count += 1
    assert count >= 6
    _announce(3, "normalization on %d curves" % count, True, time.monotonic() - start)


def test_criterion_4_conductor_numerics():
    start = time.monotonic()
    for entry, X in _d1_curve_entries():
        p = X.p
        nf = curves.normal_form(X.field, *X.coeffs)
        cp = curves.conductor_profile(nf)   # asserts dims and O_A0 /\ L = K
        assert cp.dim_subalgebra == p * (p - 1) // 2, entry["name"]
        assert cp.ring.dim_K == p * (p - 1), entry["name"]
        sp = curves.singular_point(nf)
        if p == 2:
            assert cp.case == curves.CASE_P2, entry["name"]
        elif sp.residue_degree == p:
            assert cp.case == curves.CASE_RESIDUE_L, entry["name"]
        else:
            assert cp.case == curves.CASE_RESIDUE_K, entry["name"]
        if "conductor_case" in entry["expect"]:
            assert cp.case == entry["expect"]["conductor_case"], entry["name"]
    elapsed = time.monotonic() - start
    _announce(4, "conductor dimensions and case tags", elapsed < 30.0, elapsed)


def test_criterion_5_glueing_cohomology():
    start = time.monotonic()
    seen_genus_one = False
    for entry, X in _d1_curve_entries():
        nf = curves.normal_form(X.field, *X.coeffs)
        cp = curves.conductor_profile(nf)
        gc = curves.glueing_cohomology(cp)
        assert gc.h0 == 1, entry["name"]
        assert gc.h1 == (X.p - 1) * (X.p - 2) // 2, entry["name"]
        if X.p == 3:
            assert gc.h1 == 1
            seen_genus_one = True
    assert seen_genus_one
    _announce(5, "glueing cohomology h0/h1", True, time.monotonic() - start)


def test_criterion_6_local_algebra_lemmas():
    start = time.monotonic()
    presentations = [
        (FunctionField(2, ["s", "t"]), ["s", "t"], 2),
        (FunctionField(2, ["s", "t"]), ["s"], 1),
        (FunctionField(2, ["s", "t"]), ["s*t"], 1),
        (FunctionField(3, ["s", "t"]), ["s", "t"], 2),
        (FunctionField(3, ["s", "t"]), ["t"], 1),
        (FunctionField(2, ["s", "t", "u"]), ["s", "t", "u"], 3),
        (FunctionField(2, ["s", "t", "u"]), ["s+t", "u"], 2),
    ]
    for field, exprs, expected in presentations:
        algebra = artin.tensor_self(field, [parse_expr(e, field) for e in exprs])
        assert artin.edim(algebra).edim == expected

    rng = seeded(612)
    instances = 0
    for prime in (2, 3, 5):
        k = PrimeField(prime)
        for _ in range(8):
            shape = rng.choice([[2], [3], [4], [2, 2], [3, 2]])
            R = artin.truncated_polynomial_algebra(k, shape)
            f = [k.from_int(rng.randrange(prime)) for _ in range(R.dim)]
            r = rng.choice([1, 2]) if prime == 2 else 1
            if prime ** r * R.dim > 512:
                continue
            A = artin.adjoin_root(R, f, r)
            assert artin.edim(A).edim == artin.edim(R).edim + 1
            instances += 1
    assert instances >= 20
    elapsed = time.monotonic() - start
    _announce(6, "edim lemmas (%d tensor + %d adjunctions)" % (len(presentations), instances),
              elapsed < 10.0, elapsed)


def test_criterion_7_main_theorem_instances():
    start = time.monotonic()
    regular_seen = nonreduced_seen = 0
    for entry in CATALOG:
        X = entry_hypersurface(entry)
        d = fermat.invariant_d(X)
        if d == 0:
            with pytest.raises(fermat.NotIntegralError):
                fermat.geometric_generic_edim(X)
            nonreduced_seen += 1
            continue
        edim = fermat.geometric_generic_edim(X)
        assert edim == 1, entry["name"]
        pth_power_witness_over_root_field(X)  # asserts that the witness is exact
        if d == X.n:
            assert edim == 1 < imperfection_degree(X.field), entry["name"]
            regular_seen += 1
    assert regular_seen >= 3
    assert nonreduced_seen == 3
    # over F_p(t) the degree of imperfection is 1, so no catalog curve is regular
    one_var = [e for e in CATALOG if len(e["field"]["vars"]) == 1]
    assert one_var
    for entry in one_var:
        X = entry_hypersurface(entry)
        assert fermat.classify(X).verdict != fermat.VERDICT_REGULAR, entry["name"]
    _announce(7, "geometric generic edim bound", True, time.monotonic() - start)


def test_edim_reaches_imperfection_degree_on_curves_that_are_not_regular():
    # over F_p(t) no d = 1 curve is regular, and there the edim equals n_K = 1:
    # the bound edim < n_K needs its regularity hypothesis
    curves_over_t = [entry for entry in CATALOG
                     if len(entry["field"]["vars"]) == 1 and entry["expect"]["d"] == 1]
    assert sorted(entry["name"] for entry in curves_over_t) == [
        "f3t-constant-Q", "f3t-residueL-curve", "f3t-two-term-Q",
        "f5t-residueL-curve", "f5t-two-term-Q"]
    for entry in curves_over_t:
        X = entry_hypersurface(entry)
        assert fermat.classify(X).verdict != fermat.VERDICT_REGULAR, entry["name"]
        assert fermat.geometric_generic_edim(X) == 1 == imperfection_degree(X.field), entry["name"]


def test_criterion_8_multiple_curve_degree():
    start = time.monotonic()
    for p in (2, 3, 5, 7):
        prof = curves.multiple_curve_profile(p)
        assert prof.deg_nilpotent_grading == -1
    _announce(8, "nilpotent grading degree -1", True, time.monotonic() - start)


def test_criterion_9_foundation_properties():
    start = time.monotonic()
    K2 = FunctionField(2, ["s", "t"])
    K3 = FunctionField(3, ["s", "t"])

    rng = seeded(901)
    for field in (K2, K3):
        for _ in range(250):
            f = random_ratfunc(rng, field)
            assert reassemble(field, frobenius_decompose(f)) == f

    rng = seeded(902)
    for field in (K2, K3):
        for _ in range(250):
            f = random_ratfunc(rng, field)
            g = f ** field.p
            assert pth_root(g) == f

    rng = seeded(903)
    cases = 0
    while cases < 500:
        field = K2 if cases % 2 else K3
        gens = [random_nonzero_ratfunc(rng, field, max_terms=2, max_exp=1)
                for _ in range(3)]
        values = {pdegree_generated(list(perm)).d for perm in permutations(gens)}
        assert len(values) == 1
        cases += 6

    for entry in CATALOG:
        X = entry_hypersurface(entry)
        gb = buchberger(fermat.singular_ideal(X))
        assert is_groebner_basis(gb)

    job = {"field": {"p": 3, "vars": ["s", "t"]},
           "tasks": [{"kind": "classify", "lambda": ["t", "s^3*t", "1"]},
                     {"kind": "verify-codim", "lambda": ["t", "t^2", "1"]},
                     {"kind": "pdegree", "exprs": ["s", "t", "s*t"]}]}
    reports = {json.dumps(strip_timing(run_job(job, jobs=jobs)), sort_keys=True)
               for jobs in (1, 1, 4)}
    assert len(reports) == 1
    catalog_reports = {json.dumps(strip_timing(run_catalog(CATALOG, jobs=jobs)), sort_keys=True)
                       for jobs in (1, 4)}
    assert len(catalog_reports) == 1

    _announce(9, "foundation property suites", True, time.monotonic() - start)

"""The shipped verification catalog and the per-entry check pipeline.

Each entry names a hypersurface by its coefficient expressions and records the
expected invariant, verdict, rational-point existence, and (for d = 1 plane
curves) the conductor case; checking an entry runs classification, the Groebner
oracle, and the curve pipeline, and reports every assertion made.
"""

import json
from importlib import resources

from . import curves, fermat
from .fieldarith import FunctionField, parse_expr
from .frobenius import imperfection_degree, p_linear_independent
from .groebner import verify_codim
from .upoly import UPoly


def load_default_catalog():
    text = resources.files("insep").joinpath("data/catalog.json").read_text()
    return json.loads(text)


def load_catalog(path=None):
    if path is None:
        return load_default_catalog()
    with open(path) as fh:
        return json.load(fh)


def entry_hypersurface(entry):
    field = FunctionField.from_descriptor(entry["field"])
    lams = tuple(parse_expr(e, field) for e in entry["lambda"])
    return fermat.PFermatHypersurface(field=field, n=len(lams) - 1, coeffs=lams)


def check_catalog_entry(entry):
    """Run every applicable check; returns a JSON-able record with pass/fail detail."""
    checks = {}
    operations = ["classify", "rational_point", "verify_codim"]
    X = entry_hypersurface(entry)
    expect = entry.get("expect", {})
    cls = fermat.classify(X)

    checks["d"] = cls.d == expect.get("d")
    checks["verdict"] = cls.verdict == expect.get("verdict")
    if expect.get("verdict") == fermat.VERDICT_SINGULAR:
        checks["codim"] = cls.codim == expect.get("codim")

    point = cls.rational_point
    independent = p_linear_independent(list(X.coeffs))
    checks["point_iff_dependent"] = (point is None) == independent
    if "rational_point" in expect:
        checks["rational_point"] = (point is not None) == expect["rational_point"]

    oracle = verify_codim(X)
    checks["oracle_codim"] = oracle.match

    if cls.d == 0:
        unit, roots = cls.pth_power_certificate
        g = UPoly.from_power_form(X.field, list(roots), 1)
        reproduced = (g ** X.p).scale(unit)
        checks["pth_power_certificate"] = reproduced == X.defining_upoly()
        operations.append("pth_power_certificate")
    else:
        gge = fermat.geometric_generic_edim(X)
        checks["geometric_generic_edim"] = gge == 1
        operations.append("geometric_generic_edim")
        if cls.d == X.n:
            checks["edim_below_imperfection"] = gge < imperfection_degree(X.field)

    if cls.d == 1 and X.n == 2 and X.p <= 5:
        operations += ["normal_form", "normalization", "singular_point",
                       "conductor_profile", "glueing_cohomology"]
        cp = curves.conductor_profile(curves.normal_form(X.field, *X.coeffs))
        sp = cp.sp
        checks["preimage_length"] = curves.preimage_length_of_u0_section(sp.nu) == X.p
        if "residue_degree" in expect:
            checks["residue_degree"] = sp.residue_degree == expect["residue_degree"]
        checks["conductor_dim"] = cp.dim_subalgebra == X.p * (X.p - 1) // 2
        if "conductor_case" in expect:
            checks["conductor_case"] = cp.case == expect["conductor_case"]
        coherent = (cp.case == curves.CASE_RESIDUE_L) == (sp.residue_degree == X.p)
        checks["case_coherent_with_residue"] = coherent
        gc = curves.glueing_cohomology(cp.ring, cp.subalgebra_basis)
        checks["h0"] = gc.h0 == 1
        checks["h1"] = gc.h1 == (X.p - 1) * (X.p - 2) // 2
        checks["admissible"] = gc.admissible

    return {
        "name": entry.get("name", "<unnamed>"),
        "ok": all(checks.values()),
        "checks": checks,
        "operations": operations,
        "d": cls.d,
        "verdict": cls.verdict,
    }

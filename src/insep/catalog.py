"""The shipped verification catalog and the per-entry check pipeline.

Each entry names a hypersurface by its coefficient expressions and records the
expected invariant, verdict, rational-point existence, and (for d = 1 plane
curves) the conductor case; checking an entry runs classification, the Groebner
oracle, and the curve pipeline, and reports every assertion made.

The input checks that job files and catalog files share live here too: a
malformed file raises JobValidationError, and the command line exits with 2.
"""

import json
import sys

from . import curves, fermat
from .fermat import verify_codim
from .fieldarith import FunctionField, ParseError, parse_expr
from .upoly import UPoly


class JobValidationError(ValueError):
    """A job file or catalog file that is malformed."""


ENTRY_KEYS = {"name", "field", "lambda", "expect"}
EXPECT_KEYS = {"d", "verdict", "codim", "rational_point", "residue_degree", "conductor_case"}


def check_keys(where, obj, known):
    """A key of obj outside known is a misspelling, not a key to ignore."""
    unknown = [key for key in obj if key not in known]
    if unknown:
        raise JobValidationError("%s: unknown key %s; expected %s" % (
            where, ", ".join(map(repr, unknown)), ", ".join(map(repr, sorted(known)))))


def check_field(where, desc):
    """The field of a descriptor; where names the descriptor in the message."""
    try:
        return FunctionField.from_descriptor(desc)
    except ValueError as exc:
        raise JobValidationError("%s: bad field descriptor: %s" % (where, exc)) from exc


def check_expressions(where, exprs, field):
    """exprs must be a list of strings that parse in field; returns their values."""
    if not isinstance(exprs, list) or not all(isinstance(e, str) for e in exprs):
        raise JobValidationError("%s must be a list of strings" % where)
    values = []
    for expr in exprs:
        try:
            values.append(parse_expr(expr, field))
        except ParseError as exc:
            raise JobValidationError("%s: bad expression %r: %s" % (where, expr, exc)) from exc
    return values


def check_lambda(where, exprs, field):
    """exprs must be the coefficients of a hypersurface in field: strings that
    parse, not all to zero."""
    if not any(check_expressions(where, exprs, field)):
        raise JobValidationError("%s: the coefficients must not all vanish" % where)


def load_default_catalog():
    from importlib import resources

    text = resources.files("insep").joinpath("data/catalog.json").read_text()
    return json.loads(text)


def read_json(path):
    """The JSON value in the file at path, or on standard input for '-'; text that
    is not UTF-8 JSON, or nests too deeply for the decoder, raises JobValidationError
    naming the file or <stdin>."""
    where = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise JobValidationError("%s: %s" % (where, exc)) from exc
    return decode_json(text, where)


def decode_json(text, where):
    """The JSON value of text; text that is not JSON, or nests too deeply for the
    decoder, raises JobValidationError naming where it came from."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise JobValidationError("%s: %s" % (where, exc)) from exc


def load_catalog(path=None):
    """The entries of a catalog file (the shipped one for None), checked before use."""
    entries = load_default_catalog() if path is None else read_json(path)
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise JobValidationError("a catalog must be a JSON array of objects")
    for i, entry in enumerate(entries):
        where = "catalog entry %d (%s)" % (i, entry.get("name", "<unnamed>"))
        check_keys(where, entry, ENTRY_KEYS)
        expect = entry.get("expect", {})
        if not isinstance(expect, dict):
            raise JobValidationError("%s: expect must be a JSON object" % where)
        # an expectation under a misspelt key would be skipped, and the entry pass
        check_keys(where + ": expect", expect, EXPECT_KEYS)
        field = check_field(where + ": field", entry.get("field"))
        lams = entry.get("lambda")
        if not isinstance(lams, list) or len(lams) < 2:
            raise JobValidationError("%s: lambda must be a list of at least two strings" % where)
        check_lambda(where + ": lambda", lams, field)
    return entries


def hypersurface(field, exprs):
    """The hypersurface sum_i lambda_i U_i^p whose coefficients the expressions give."""
    lams = tuple(parse_expr(e, field) for e in exprs)
    return fermat.PFermatHypersurface(field=field, n=len(lams) - 1, coeffs=lams)


def check_catalog_entry(entry):
    """Run every applicable check; returns a JSON-able record with pass/fail detail."""
    checks = {}
    operations = ["classify", "rational_point", "verify_codim"]
    X = hypersurface(FunctionField.from_descriptor(entry["field"]), entry["lambda"])
    expect = entry.get("expect", {})
    cls = fermat.classify(X)

    checks["d"] = cls.d == expect.get("d")
    checks["verdict"] = cls.verdict == expect.get("verdict")
    if expect.get("verdict") == fermat.VERDICT_SINGULAR:
        checks["codim"] = cls.codim == expect.get("codim")

    if "rational_point" in expect:
        checks["rational_point"] = (cls.rational_point is not None) == expect["rational_point"]

    oracle = verify_codim(X)
    checks["oracle_codim"] = oracle.match

    if cls.d == 0:
        unit, roots = cls.pth_power_certificate
        g = UPoly.from_power_form(X.field, list(roots), 1)
        reproduced = (g ** X.p).scale(unit)
        checks["pth_power_certificate"] = reproduced == X.defining_upoly()
        operations.append("pth_power_certificate")
    else:
        checks["geometric_generic_edim"] = fermat.geometric_generic_edim(X) == 1
        operations.append("geometric_generic_edim")

    if cls.d == 1 and X.n == 2 and X.p <= 5:
        operations += ["normal_form", "normalization", "singular_point", "conductor_profile"]
        cp = curves.conductor_profile(curves.normal_form(X.field, *X.coeffs))
        if "residue_degree" in expect:
            checks["residue_degree"] = cp.sp.residue_degree == expect["residue_degree"]
        if "conductor_case" in expect:
            checks["conductor_case"] = cp.case == expect["conductor_case"]

    return {
        "name": entry.get("name", "<unnamed>"),
        "ok": all(checks.values()),
        "checks": checks,
        "operations": operations,
        "d": cls.d,
        "verdict": cls.verdict,
    }

"""Answer checks made apart from insep, with sympy's arithmetic over GF(p)(vars).

Nothing here imports insep or compares against stored output.  Each check
returns a list of problems; an empty list means the answer holds.

* d: the p-degree of K^p(mu_1..mu_k) is the rank of the Jacobian
  (d mu_j / d t_k) over GF(p)(vars), because mu's are p-independent exactly
  when their differentials are linearly independent.
* K^p-linear independence: clear denominators with a p-th power, split every
  numerator by exponents mod p, and take the rank of the coordinate matrix.
* a rational point makes sum lambda_i x_i^p vanish, and is not all zero.
* the verdict follows d and n; catalog entries match their ``expect``.
* adjoin-root gives dim = p^r * dim R and edim = edim(R) + 1, where edim(R)
  counts the base exponents that are at least 2; tensor-self of m p-th powers
  gives dim = p^m and edim = m; both have a one-dimensional residue field.
* a d = 1 plane curve has its singular point rational (residue degree 1)
  exactly when it has a rational point, and otherwise residue degree p.
"""

from functools import lru_cache

import sympy
from sympy import GF, Symbol
from sympy.polys.fields import field as frac_field
from sympy.polys.matrices import DomainMatrix

REGULAR, SINGULAR, NONREDUCED = "Regular", "SingularCodim", "NonreducedEverywhere"


@lru_cache(maxsize=None)
def function_field(p, names):
    K = frac_field(",".join(names), GF(p))[0]
    return K, {n: Symbol(n) for n in names}


class Field:
    """GF(p)(names) with conversion from the insep expression grammar."""

    def __init__(self, p, names):
        self.p = p
        self.names = tuple(names)
        self.K, self._symbols = function_field(p, self.names)

    def element(self, text):
        expr = sympy.sympify(text.replace("^", "**"), locals=self._symbols)
        return self.K.from_expr(expr)

    def elements(self, texts):
        return [self.element(t) for t in texts]

    def rank(self, rows, ncols):
        if not rows:
            return 0
        return DomainMatrix(rows, (len(rows), ncols), self.K.to_domain()).rank()

    def jacobian_rank(self, elems):
        gens = self.K.gens
        return self.rank([[e.diff(g) for g in gens] for e in elems], len(gens))

    def p_independent(self, elems):
        """No nontrivial sum c_i^p * elem_i = 0 with c_i in K."""
        p = self.p
        dens = [e.denom for e in elems]
        columns = {}
        rows = []
        for i, e in enumerate(elems):
            poly = e.numer * e.denom ** (p - 1)
            for j, d in enumerate(dens):
                if j != i:
                    poly = poly * d ** p
            row = {}
            for expo, c in poly.items():
                key = tuple(a % p for a in expo)
                root = tuple(a // p for a in expo)
                row.setdefault(key, {})[root] = c
            rows.append(row)
            for key in row:
                columns.setdefault(key, len(columns))
        ring = self.K.ring
        matrix = [[self.K(ring(dict(row[key]))) if key in row else self.K.zero
                   for key in columns] for row in rows]
        return self.rank(matrix, len(columns)) == len(elems)


def ratios(elems):
    ref = next(e for e in elems if e)
    return [e / ref for e in elems]


# -- per-task checks ---------------------------------------------------------------


def check_verdict(d, n, verdict, codim):
    if d == n:
        want, want_codim = REGULAR, None
    elif d == 0:
        want, want_codim = NONREDUCED, None
    else:
        want, want_codim = SINGULAR, d
    problems = []
    if verdict != want:
        problems.append("verdict %s but d = %d, n = %d needs %s" % (verdict, d, n, want))
    if codim != want_codim:
        problems.append("codim %r but d = %d, n = %d needs %r" % (codim, d, n, want_codim))
    return problems


def check_point(F, lams, point, independent):
    problems = []
    if (point is None) != independent:
        problems.append("point %s but the coefficients are %sp-independent"
                        % ("absent" if point is None else "given",
                           "" if independent else "not "))
    if point is not None:
        xs = F.elements(point)
        if len(xs) != len(lams) or not any(xs):
            problems.append("point %r is empty or of the wrong length" % (point,))
        else:
            value = sum((lam * x ** F.p for lam, x in zip(lams, xs)), F.K.zero)
            if value:
                problems.append("sum lambda_i x_i^p = %s, not 0, at %r" % (value, point))
    return problems


def check_pdegree(F, task, result):
    d = F.jacobian_rank(F.elements(task["exprs"]))
    problems = []
    if result["d"] != d:
        problems.append("pdegree d = %r, Jacobian rank %d" % (result["d"], d))
    selected = F.elements(result["selected"])
    if len(selected) != result["d"] or F.jacobian_rank(selected) != len(selected):
        problems.append("selected generators are not a p-basis of size d")
    return problems


def check_classify(F, task, result):
    lams = F.elements(task["lambda"])
    n = len(lams) - 1
    d = F.jacobian_rank(ratios(lams))
    problems = []
    if result["d"] != d:
        problems.append("classify d = %r, Jacobian rank %d" % (result["d"], d))
    problems += check_verdict(result["d"], n, result["verdict"], result["codim"])
    problems += check_point(F, lams, result["rational_point"], F.p_independent(lams))
    return problems


def check_rational_point(F, task, result):
    lams = F.elements(task["lambda"])
    independent = F.p_independent(lams)
    problems = check_point(F, lams, result["point"], independent)
    if result["p_linear_independent"] != independent:
        problems.append("p_linear_independent = %r" % result["p_linear_independent"])
    return problems


def check_verify_codim(F, task, result):
    lams = F.elements(task["lambda"])
    n = len(lams) - 1
    d = F.jacobian_rank(ratios(lams))
    problems = []
    if result["predicted_d"] != d:
        problems.append("predicted_d = %r, Jacobian rank %d" % (result["predicted_d"], d))
    want = None if d == n else d
    if result["oracle_codim"] != want or result["match"] is not True:
        problems.append("oracle codim %r (match %r), expected %r"
                        % (result["oracle_codim"], result["match"], want))
    return problems


def _curve(F, task):
    lams = F.elements(task["lambda"])
    problems = []
    if len(lams) != 3 or F.jacobian_rank(ratios(lams)) != 1:
        problems.append("curve task input does not have d = 1")
    return lams, problems


def _residue_degree(F, lams):
    return 1 if not F.p_independent(lams) else F.p


def check_curve_normalize(F, task, result):
    lams, problems = _curve(F, task)
    slots = result["slot_to_index"]
    if sorted(slots) != [0, 1, 2]:
        return problems + ["slot_to_index %r is not a permutation" % (slots,)]
    unit = F.element(result["scale_unit"])
    lam, q = F.element(result["lambda"]), F.element(result["Q"])
    roots = F.elements(result["root_coeffs"])
    if unit != lams[slots[2]] or lam * unit != lams[slots[0]] or q * unit != lams[slots[1]]:
        problems.append("normal form does not reproduce the input triple")
    if q != sum((c ** F.p * lam ** i for i, c in enumerate(roots)), F.K.zero):
        problems.append("Q is not sum c_i^p lambda^i")
    if F.jacobian_rank([lam]) != 1:
        problems.append("lambda is a p-th power")
    return problems


def check_curve_singular(F, task, result):
    lams, problems = _curve(F, task)
    want = _residue_degree(F, lams)
    if result["residue_degree"] != want:
        problems.append("residue degree %r, expected %d" % (result["residue_degree"], want))
    return problems


def check_curve_conductor(F, task, result):
    lams, problems = _curve(F, task)
    p = F.p
    degree = _residue_degree(F, lams)
    if p == 2:
        case = "P2"
    else:
        case = "ResidueL" if degree == p else "ResidueK"
    want = {"case": case, "dim_subalgebra": p * (p - 1) // 2,
            "dim_conductor_ring": p * (p - 1), "residue_degree": degree}
    for key, value in want.items():
        if result[key] != value:
            problems.append("conductor %s = %r, expected %r" % (key, result[key], value))
    return problems


def check_curve_cohomology(F, task, result):
    _, problems = _curve(F, task)
    p = F.p
    want = {"h0": 1, "h1": (p - 1) * (p - 2) // 2, "admissible": True}
    for key, value in want.items():
        if result[key] != value:
            problems.append("cohomology %s = %r, expected %r" % (key, result[key], value))
    return problems


def check_artin(task, result):
    alg = task["algebra"]
    if alg["construction"] == "adjoin-root":
        dim_r = 1
        for a in alg["base_exponents"]:
            dim_r *= a
        want = {"dim": alg["p"] ** alg["r"] * dim_r,
                "edim": sum(1 for a in alg["base_exponents"] if a >= 2) + 1,
                "residue_dim": 1}
    else:
        m = len(alg["pth_powers"])
        want = {"dim": alg["field"]["p"] ** m, "edim": m, "residue_dim": 1}
    return ["artin %s %s = %r, expected %r" % (alg["construction"], key, result[key], value)
            for key, value in want.items() if result[key] != value]


def check_catalog_report(entries, report, skip_failed=False):
    """A run_catalog report, or the result of a verify-all task.

    With skip_failed, entries the program reported as failed are left to the
    caller's failure count; otherwise a failed entry is a problem.
    """
    problems = []
    records = report["entries"]
    if [r["name"] for r in records] != [e["name"] for e in entries]:
        return ["catalog report does not list the entries in order"]
    for entry, record in zip(entries, records):
        name = entry["name"]
        if skip_failed and not record["ok"]:
            continue
        F = Field(entry["field"]["p"], entry["field"]["vars"])
        lams = F.elements(entry["lambda"])
        d = F.jacobian_rank(ratios(lams))
        expect = entry["expect"]
        if not record["ok"]:
            problems.append("%s: entry failed its own checks" % name)
        if record["d"] != d or expect["d"] != d:
            problems.append("%s: d = %r, expect %r, Jacobian rank %d"
                            % (name, record["d"], expect["d"], d))
        if record["verdict"] != expect["verdict"]:
            problems.append("%s: verdict %s, expect %s" % (name, record["verdict"],
                                                          expect["verdict"]))
        problems += ["%s: %s" % (name, p) for p in
                     check_verdict(d, len(lams) - 1, record["verdict"], expect.get("codim"))]
    return problems


TASK_CHECKS = {
    "pdegree": check_pdegree,
    "classify": check_classify,
    "rational-point": check_rational_point,
    "verify-codim": check_verify_codim,
    "curve-normalize": check_curve_normalize,
    "curve-singular": check_curve_singular,
    "curve-conductor": check_curve_conductor,
    "curve-cohomology": check_curve_cohomology,
}


def check_task(field_desc, task, record, catalogs):
    """Problems with one task record of a run_job report."""
    if not record["ok"]:
        return []  # a failed task is counted as failed, not as a wrong answer
    result = record["result"]
    kind = task["kind"]
    if kind == "artin-edim":
        return check_artin(task, result)
    if kind == "verify-all":
        return check_catalog_report(catalogs[task["catalog"]], result)
    F = Field(field_desc["p"], field_desc["vars"])
    return TASK_CHECKS[kind](F, task, result)


def check_workload(workload, inputs, reports):
    """(operations per round, failed per round, problems) for one round's reports."""
    if workload == "catalog":
        report = reports[0]
        failed = sum(1 for r in report["entries"] if not r["ok"])
        return len(inputs), failed, check_catalog_report(inputs, report, skip_failed=True)
    jobs, catalogs = inputs
    attempted = failed = 0
    problems = []
    for job, report in zip(jobs, reports):
        if len(report["tasks"]) != len(job["tasks"]):
            problems.append("report has %d tasks, job has %d"
                            % (len(report["tasks"]), len(job["tasks"])))
        for i, (task, record) in enumerate(zip(job["tasks"], report["tasks"])):
            attempted += 1
            failed += not record["ok"]
            problems += ["task %d (%s): %s" % (i, task["kind"], p)
                         for p in check_task(job["field"], task, record, catalogs)]
    return attempted, failed, problems

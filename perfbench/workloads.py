"""Seeded inputs for the four benchmark workloads.

Every input is made from the ``--seed`` argument with ``random.Random(seed)``;
the same seed gives byte-identical job files.  The program under test only ever
sees the files written here.

The shapes of the inputs are fixed (which monomials appear, how many tasks of
each kind, which algebra dimensions); the seed picks the coefficients, the
base-ring elements and the order.  Fixing the shapes is what keeps the work of
a round nearly the same from seed to seed: with free random supports the cost
of one ``pdegree`` task over F_7 ranges over three orders of magnitude.
"""

import json
import random
import re

WORKLOADS = ("catalog", "pspan", "artin", "mixed")

# -- expression templates -------------------------------------------------------
#
# In a template, each free-standing ``c`` becomes a fresh nonzero element of F_p
# and ``P`` becomes p, so ``(s+c)^P`` is a p-th power.  Templates are written so
# that a task never divides by zero whatever the coefficients are.

_COEFF = re.compile(r"\b[cP]\b")


def fill(template, p, rng):
    """Instantiate one template over F_p."""
    return _COEFF.sub(lambda m: str(p) if m.group() == "P" else str(rng.randrange(1, p)),
                      template)


# (kind, variables, coefficient templates, {p: instances per round}).  The
# instance counts balance the round: cheap tasks over F_2 are repeated, the
# 49-unknown membership systems over F_7(s,t,u) appear once.
PSPAN_TEMPLATES = [
    ("pdegree", "st", ["(c*s*t+c*t)/s", "(c*t+c)/(s*t)"], {2: 3, 3: 3, 5: 2, 7: 2}),
    ("pdegree", "st", ["c*s^2+c*t", "(c*s+c)/(t+c)", "s*t+c"], {2: 3, 3: 2}),
    ("pdegree", "st", ["c*s+c*t", "(c*s+c*t)^2+c*(s+c)^P", "c*t^P*s"], {2: 2, 3: 2}),
    ("classify", "st", ["c*s+c*t", "(c*t+c)/s", "1"], {2: 3, 3: 3, 5: 2, 7: 1}),
    ("classify", "st", ["c*s+c*t", "(c*s+c*t)*(t+c)^P", "c"], {2: 2, 3: 2, 5: 1, 7: 1}),
    ("classify", "st", ["s^2+c", "(s^2+c)*c", "(t+c)^P"], {2: 2, 3: 2, 5: 1, 7: 1}),
    ("rational-point", "st", ["c*s+c", "c*t", "(c*s+c)*(s+c)^P+c*t*(t+c)^P"], {2: 2, 3: 2, 5: 1, 7: 1}),
    ("rational-point", "st", ["c*s+c", "t^2+c*s", "c*t"], {2: 2, 3: 2, 5: 1, 7: 1}),
    ("verify-codim", "st", ["c*s+c", "c*t", "1"], {2: 2, 3: 2, 5: 1, 7: 1}),
    ("verify-codim", "st", ["c*s*t+c", "c*s+c*t", "(c*s+c)^P", "1"], {2: 2, 3: 1}),
    ("pdegree", "stu", ["c*s*u+c*t", "(c*u+c)/s", "t*u+c"], {2: 3, 3: 2, 5: 1, 7: 1}),
    ("classify", "stu", ["c*s+c*u", "c*t*u+c", "1"], {2: 3, 3: 2, 5: 1, 7: 1}),
    ("classify", "stu", ["c*s+c", "c*t+c*u", "(c*s+c*t)*(u+c)^P", "1"], {2: 2, 3: 2}),
    ("rational-point", "stu", ["c*u+c", "c*s*t", "(c*u+c)*(t+c)^P"], {2: 2, 3: 2, 5: 1, 7: 1}),
    ("verify-codim", "stu", ["c*s+c", "c*t", "c*u", "1"], {2: 2, 3: 1, 5: 1}),
]

# adjoin-root shapes (p, base_exponents, r, unit) with
# dim = p^r * prod(base_exponents).  The seed picks f, except its constant term,
# which is nonzero exactly when ``unit``: whether f is a unit changes the cost of
# the algebra by half (1.1 s against 1.7 s at dim 64), so it is part of the shape.
ARTIN_ADJOIN = [
    (2, [2, 2], 1, True), (2, [2, 2, 2], 1, False), (2, [4], 2, True),
    (2, [2, 2, 2, 2], 2, False),
    (3, [3], 1, True), (3, [2, 3], 1, False), (3, [3], 2, True),
    (5, [3], 1, False), (5, [4], 1, True),
    (7, [2], 1, True),
]
# tensor-self shapes (p, variables, pth-power templates)
ARTIN_TENSOR = [
    (2, "st", ["c*s+c", "t^2*s+c*t"]),
    (2, "st", ["s*t+c", "(c*t+c)/s"]),
]


def _hypersurface_task(kind, exprs):
    if kind == "pdegree":
        return {"kind": kind, "exprs": exprs}
    return {"kind": kind, "lambda": exprs}


def pspan_jobs(seed):
    """One job per field F_p(s,t) / F_p(s,t,u); tasks in seeded order."""
    rng = random.Random(seed)
    jobs = {}
    for kind, names, templates, counts in PSPAN_TEMPLATES:
        for p, count in sorted(counts.items()):
            job = jobs.setdefault((p, names), {"field": {"p": p, "vars": list(names)},
                                               "tasks": []})
            for _ in range(count):
                exprs = [fill(t, p, rng) for t in templates]
                job["tasks"].append(_hypersurface_task(kind, exprs))
    for job in jobs.values():
        rng.shuffle(job["tasks"])
    return [jobs[key] for key in sorted(jobs)]


def adjoin_root_algebra(rng, p, base_exponents, r, unit):
    dim_r = 1
    for a in base_exponents:
        dim_r *= a
    f = [rng.randrange(1, p) if unit else 0] + [rng.randrange(p) for _ in range(dim_r - 1)]
    return {"construction": "adjoin-root", "p": p, "base_exponents": list(base_exponents),
            "f": f, "r": r}


def tensor_self_algebra(rng, p, names, templates):
    return {"construction": "tensor-self", "field": {"p": p, "vars": list(names)},
            "pth_powers": [fill(t, p, rng) for t in templates]}


def artin_jobs(seed):
    rng = random.Random(seed)
    algebras = [adjoin_root_algebra(rng, *shape) for shape in ARTIN_ADJOIN]
    algebras += [tensor_self_algebra(rng, *shape) for shape in ARTIN_TENSOR]
    rng.shuffle(algebras)
    tasks = [{"kind": "artin-edim", "algebra": a} for a in algebras]
    return [{"field": {"p": 2, "vars": ["s"]}, "tasks": tasks}]


def catalog_entries(shipped, seed):
    """The shipped catalog in a seeded order."""
    entries = list(shipped)
    random.Random(seed).shuffle(entries)
    return entries


# mixed: one job over F_3(s,t) with every task kind.  Curve triples are built
# with d = 1: (lambda*w, Q(lambda)*w, w) in a slot order fixed by the shape,
# where Q(lambda) = a0 + a1*lambda (+ a2*lambda^2) has constant coefficients.
# Each curve kind gets the same MIXED_CURVES shapes in every round.
MIXED_FIELD = {"p": 3, "vars": ["s", "t"]}
MIXED_CURVE_KINDS = ("curve-normalize", "curve-singular", "curve-conductor", "curve-cohomology")
MIXED_LAMBDAS = ["c*s+c*t", "(c*t+c)/s", "s^2*t+c", "c*s*t+c*t^2"]
MIXED_UNITS = ["1", "c*t+c", "s+c"]
MIXED_CATALOG_SIZE = 4
MIXED_REPEATS = 3
MIXED_CURVES = 3


def curve_triple(rng, p, shape):
    """A d = 1 triple; shape picks the lambda and unit templates, the slot order
    and whether Q(lambda) has a lambda^2 term (then there is no rational point)."""
    lam = "(%s)" % fill(MIXED_LAMBDAS[shape % len(MIXED_LAMBDAS)], p, rng)
    w = "(%s)" % fill(MIXED_UNITS[shape % len(MIXED_UNITS)], p, rng)
    q = "%d+%d*%s" % (rng.randrange(1, p), rng.randrange(1, p), lam)
    if shape % 2:
        q += "+%d*%s^2" % (rng.randrange(1, p), lam)
    triple = ["%s*%s" % (lam, w), "(%s)*%s" % (q, w), w]
    k = shape % 3
    return triple[k:] + triple[:k]


def mixed_job(seed, shipped, catalog_path):
    """Returns (job, catalog entries); the job names catalog_path in its verify-all task."""
    rng = random.Random(seed)
    p = MIXED_FIELD["p"]
    tasks = []
    for kind, names, templates, counts in PSPAN_TEMPLATES:
        if names == "st" and p in counts:
            for _ in range(MIXED_REPEATS):
                tasks.append(_hypersurface_task(kind, [fill(t, p, rng) for t in templates]))
    for kind in MIXED_CURVE_KINDS:
        for shape in range(MIXED_CURVES):
            tasks.append({"kind": kind, "lambda": curve_triple(rng, p, shape)})
    # every adjoin-root shape but the two slowest (dim 64 and dim 27)
    for shape in ARTIN_ADJOIN[:3] + ARTIN_ADJOIN[4:6] + ARTIN_ADJOIN[7:]:
        tasks.append({"kind": "artin-edim", "algebra": adjoin_root_algebra(rng, *shape)})
    tasks.append({"kind": "artin-edim", "algebra": tensor_self_algebra(rng, *ARTIN_TENSOR[0])})
    entries = [e for e in shipped if e["field"]["p"] < 5][:MIXED_CATALOG_SIZE]
    rng.shuffle(entries)
    tasks.append({"kind": "verify-all", "catalog": catalog_path})
    rng.shuffle(tasks)
    return {"field": dict(MIXED_FIELD), "tasks": tasks}, entries


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)

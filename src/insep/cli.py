"""Command-line front end: job files in, deterministic JSON reports out.

Commands:
    insep run <job.json | ->      execute the tasks of a job file
    insep verify-all              run the full verification catalog
    insep pdegree --field F e...  p-degree of K^p(e_1,...,e_k)
    insep classify --field F --lambda e...   classify one hypersurface

Exit codes: 0 success, 1 task failure, 2 validation error.  Reports are
byte-stable for identical inputs apart from the timing fields.
"""

import json
import os
import sys
import time
from itertools import chain, repeat
from math import prod

from . import artin, catalog, curves, fermat
from .catalog import (JobValidationError, check_expressions, check_field, check_keys,
                      check_lambda, hypersurface)
from .fermat import verify_codim
from .fieldarith import SUPPORTED_PRIMES, FunctionField, PrimeField, parse_expr
from .frobenius import pdegree_generated

TIMING_KEYS = ("seconds", "total_seconds")


# -- serialization helpers -----------------------------------------------------


def _fmt(x):
    return x.format()


def _fmt_ext(elem):
    return {"coeffs": [c.format() for c in elem.coeffs]}


def _fmt_point(point):
    return None if point is None else [c.format() for c in point]


# -- task handlers: (field, task) -> JSON-able result, raising on task failure ----


def _normal_form(field, task):
    return curves.normal_form(field, *[parse_expr(e, field) for e in task["lambda"]])


def _algebra_from_description(desc):
    if desc["construction"] == "tensor-self":
        field = FunctionField.from_descriptor(desc["field"])
        return artin.tensor_self(field, [parse_expr(e, field) for e in desc["pth_powers"]])
    base_field = PrimeField(desc["p"])
    base = artin.truncated_polynomial_algebra(base_field, desc.get("base_exponents", []))
    return artin.adjoin_root(base, [base_field.from_int(c) for c in desc["f"]], desc["r"])


def _pdegree(field, task):
    res = pdegree_generated([parse_expr(e, field) for e in task["exprs"]])
    return {"d": res.d, "selected": [_fmt(x) for x in res.selected],
            "operations": ["pdegree_generated"]}


def _classify(field, task):
    X = hypersurface(field, task["lambda"])
    cls = fermat.classify(X)
    return {"d": cls.d, "verdict": cls.verdict, "codim": cls.codim,
            "rational_point": _fmt_point(cls.rational_point),
            "equation": X.defining_upoly().format(),
            "operations": ["invariant_d", "classify", "rational_point"]}


def _rational_point(field, task):
    X = hypersurface(field, task["lambda"])
    point = fermat.rational_point(X)
    # the coefficients are not all zero, so there is a point iff they are p-dependent
    return {"point": _fmt_point(point),
            "p_linear_independent": point is None,
            "operations": ["rational_point", "p_linear_independent"],
            "asserted": ["point_satisfies_equation"] if point else []}


def _curve_normalize(field, task):
    nf = _normal_form(field, task)
    curves.normalization(nf)
    return {"lambda": _fmt(nf.lam), "Q": _fmt(nf.q_of_lambda()),
            "root_coeffs": [_fmt(c) for c in nf.root_coeffs],
            "scale_unit": _fmt(nf.scale_unit),
            "slot_to_index": list(nf.slot_to_index),
            "operations": ["normal_form", "normalization"],
            "asserted": ["pullback_vanishes", "preimage_length_p"]}


def _curve_singular(field, task):
    sp = curves.singular_point(_normal_form(field, task))
    return {"point_on_line": [_fmt_ext(c) for c in sp.point_on_line],
            "image_point": [_fmt_ext(c) for c in sp.image_point],
            "residue_degree": sp.residue_degree,
            "operations": ["singular_point"],
            "asserted": ["image_satisfies_singular_ideal"]}


def _curve_conductor(field, task):
    cp = curves.conductor_profile(_normal_form(field, task))
    return {"case": cp.case, "dim_subalgebra": cp.dim_subalgebra,
            "dim_conductor_ring": cp.ring.dim_K,
            "residue_degree": cp.sp.residue_degree, "chart": cp.chart_index,
            "operations": ["conductor_profile"],
            "asserted": ["gorenstein_halving", "L_meets_subalgebra_in_K",
                         "conductor_exactness_guard"]}


def _curve_cohomology(field, task):
    cp = curves.conductor_profile(_normal_form(field, task))
    gc = curves.glueing_cohomology(cp)
    return {"h0": gc.h0, "h1": gc.h1, "admissible": gc.admissible,
            "operations": ["conductor_profile", "glueing_cohomology"]}


def _artin_edim(field, task):
    report = artin.edim(_algebra_from_description(task["algebra"]))
    return {"dim": report.dim_total, "residue_dim": report.residue_dim,
            "edim": report.edim, "operations": ["edim"]}


def _verify_codim(field, task):
    chk = verify_codim(hypersurface(field, task["lambda"]))
    return {"predicted_d": chk.predicted_d, "oracle_codim": chk.oracle_codim,
            "match": chk.match,
            "operations": ["buchberger", "ideal_dimension", "verify_codim"]}


def _verify_all(field, task):
    entries = catalog.load_catalog(task.get("catalog"))
    results = _run_records(_entry_worker, _failed_entry, entries, 1, False)
    return {"entries": results, "ok": all(r["ok"] for r in results),
            "operations": ["verify_all"]}


TASK_HANDLERS = {
    "pdegree": _pdegree,
    "classify": _classify,
    "rational-point": _rational_point,
    "curve-normalize": _curve_normalize,
    "curve-singular": _curve_singular,
    "curve-conductor": _curve_conductor,
    "curve-cohomology": _curve_cohomology,
    "artin-edim": _artin_edim,
    "verify-codim": _verify_codim,
    "verify-all": _verify_all,
}

TASK_KINDS = tuple(TASK_HANDLERS)


# -- job validation and task execution ----------------------------------------

# the one key a task of each kind reads besides "kind", "lambda" for the kinds not
# listed; it is required but for verify-all
TASK_KEY = {"pdegree": "exprs", "artin-edim": "algebra", "verify-all": "catalog"}
ALGEBRA_KEYS = {
    "tensor-self": {"construction", "field", "pth_powers"},
    "adjoin-root": {"construction", "p", "base_exponents", "f", "r"},
}


def _is_int(x):
    # JSON true/false arrive as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _check_dimension(i, factors, product_name):
    try:
        artin.check_dimension(factors)
    except artin.DimensionOverflowError:
        raise JobValidationError("task %d: %s exceeds the dimension cap %d"
                                 % (i, product_name, artin.DIMENSION_CAP)) from None


def _check_algebra(i, desc):
    construction = desc.get("construction")
    # a comparison, not a lookup: the value may be any JSON value, a list among them
    if construction not in ("tensor-self", "adjoin-root"):
        raise JobValidationError("task %d: algebra.construction must be "
                                 "'tensor-self' or 'adjoin-root'" % i)
    check_keys("task %d: algebra" % i, desc, ALGEBRA_KEYS[construction])
    if construction == "tensor-self":
        field = check_field("task %d: algebra.field" % i, desc.get("field"))
        check_expressions("task %d: algebra.pth_powers" % i, desc.get("pth_powers"), field)
        _check_dimension(i, repeat(field.p, len(desc["pth_powers"])),
                         "algebra.field.p^len(algebra.pth_powers)")
    else:
        for key in ("p", "r"):
            if not _is_int(desc.get(key)):
                raise JobValidationError("task %d: algebra.%s must be an integer" % (i, key))
        exponents = desc.get("base_exponents", [])
        for key, values in (("base_exponents", exponents), ("f", desc.get("f"))):
            if not isinstance(values, list) or not all(_is_int(v) for v in values):
                raise JobValidationError(
                    "task %d: algebra.%s must be a list of integers" % (i, key))
        if desc["p"] not in SUPPORTED_PRIMES:
            raise JobValidationError("task %d: algebra.p must be one of %s"
                                     % (i, ", ".join(map(str, SUPPORTED_PRIMES))))
        if not all(a >= 1 for a in exponents):
            raise JobValidationError("task %d: algebra.base_exponents must be at least 1" % i)
        if desc["r"] < 1:
            raise JobValidationError("task %d: algebra.r must be at least 1" % i)
        _check_dimension(i, chain(exponents, repeat(desc["p"], desc["r"])),
                         "algebra.p^algebra.r * prod(algebra.base_exponents)")
        if len(desc["f"]) != prod(exponents):
            raise JobValidationError("task %d: algebra.f needs %d coefficients, one per "
                                     "basis monomial" % (i, prod(exponents)))


def validate_job(job):
    if not isinstance(job, dict):
        raise JobValidationError("job must be a JSON object")
    check_keys("job", job, {"field", "tasks"})
    if "field" not in job or "tasks" not in job:
        raise JobValidationError("job needs 'field' and 'tasks'")
    field = check_field("field", job["field"])
    if not isinstance(job["tasks"], list):
        raise JobValidationError("'tasks' must be a list")
    for i, task in enumerate(job["tasks"]):
        if not isinstance(task, dict):
            raise JobValidationError("task %d: must be a JSON object" % i)
        kind = task.get("kind")
        if kind not in TASK_KINDS:
            raise JobValidationError("task %d: unknown kind %r" % (i, kind))
        key = TASK_KEY.get(kind, "lambda")
        check_keys("task %d" % i, task, {"kind", key})
        if key not in task and kind != "verify-all":
            raise JobValidationError("task %d: %s task needs key %r" % (i, kind, key))
        if key == "exprs":
            check_expressions("task %d: exprs" % i, task[key], field)
        if key == "lambda":
            check_lambda("task %d: lambda" % i, task[key], field)
            if kind.startswith("curve-") and len(task["lambda"]) != 3:
                raise JobValidationError("task %d: lambda of a %s task needs exactly three "
                                         "coefficients" % (i, kind))
            if len(task["lambda"]) < 2:
                raise JobValidationError("task %d: lambda needs at least two coefficients" % i)
        if kind == "artin-edim":
            if not isinstance(task["algebra"], dict):
                raise JobValidationError("task %d: algebra must be a JSON object" % i)
            _check_algebra(i, task["algebra"])
        if not isinstance(task.get("catalog", ""), str):
            raise JobValidationError("task %d: catalog must be a string" % i)
    return field


def execute_task(field_desc, task):
    """Run one task; returns a JSON-able result dict (raises on task failure)."""
    return TASK_HANDLERS[task["kind"]](FunctionField.from_descriptor(field_desc), task)


def _error(exc):
    return {"type": type(exc).__name__, "message": str(exc)}


def _failed_task(payload, exc):
    return {"kind": payload[1]["kind"], "ok": False, "error": _error(exc)}


def _task_worker(payload):
    field_desc, task = payload
    start = time.perf_counter()
    try:
        result = execute_task(field_desc, task)
        # a verify-all result carries the verdict of its entries
        record = {"kind": task["kind"], "ok": result.get("ok", True), "result": result}
    except Exception as exc:  # reported per task, never aborts the job
        record = _failed_task(payload, exc)
    record["seconds"] = round(time.perf_counter() - start, 6)
    return record


def _worker_count(jobs, n_items):
    """(workers, cpus): the processes worth starting, at most one per item and one per
    CPU this process may run on, at least one, and always one where there is no
    os.fork; and the CPUs of this process's affinity mask in order, None without one
    (os has sched_getaffinity and sched_setaffinity, or neither)."""
    if not hasattr(os, "fork"):
        return 1, None
    if hasattr(os, "sched_getaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        count = len(cpus)
    else:
        cpus, count = None, os.cpu_count() or 1
    return max(1, min(jobs, n_items, count)), cpus


def _run_records(worker, failed, items, jobs, fail_fast):
    """worker(item) for every item, in order; with fail_fast, stop after the first not ok.

    failed(item, exc) is the record of an item whose worker process died.  One
    worker runs the items here and stops early; more fork helpers (_fork_records).
    """
    workers, cpus = _worker_count(jobs, len(items))
    if workers > 1:
        records = _fork_records(worker, failed, items, workers, cpus, fail_fast)
    else:
        records = map(worker, items)
    out = []
    for record in records:
        out.append(record)
        if fail_fast and not record["ok"]:
            break
    return out


class WorkerExited(Exception):
    """The helper process that took an item ended before it reported the item's record."""


# A token is the first index of a run of consecutive items, in 4 bytes.  All tokens
# go into the queue in one write of at most 4096 bytes, which an empty pipe takes
# without a reader (a Linux pipe holds at least one 4096-byte page), so more than
# MAX_TOKENS items share tokens.
TOKEN_BYTES = 4
MAX_TOKENS = 4096 // TOKEN_BYTES
SIGKILL = 9  # the same number on every POSIX system; os has no name for it


def _fork_records(worker, failed, items, workers, cpus, fail_fast):
    """The records of the items, computed by this process and workers - 1 forked helpers.

    Every process takes the next token from one queue pipe, filled before the fork,
    whenever it is free.  A helper writes its records as JSON lines to a pipe of its
    own once the queue is empty, and leaves with os._exit.  An item that a helper
    took and never reported is a failed record of type WorkerExited.  If this
    process's own share raises, the helpers are killed; they are always reaped.

    With an affinity mask cpus, worker k runs on cpus[k] alone, this process being
    worker 0: a kernel that does not balance load leaves a forked helper on the CPU
    of its parent.  This process gets the whole mask back at the end.
    """
    step = -(-len(items) // MAX_TOKENS)
    queue, tokens = os.pipe()
    _write_all(tokens, b"".join(i.to_bytes(TOKEN_BYTES, "big")
                                for i in range(0, len(items), step)))
    os.close(tokens)
    helpers = []  # (pid, read end of the helper's record pipe)
    try:
        if cpus:
            _pin({cpus[0]})
        for k in range(1, workers):
            out, into = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _helper(worker, items, queue, step, fail_fast, into,
                            cpus[k] if cpus else None)
            except BaseException:
                os.close(out)
                raise
            finally:
                os.close(into)
            helpers.append((pid, out))
        records = dict(_take(worker, items, queue, step, fail_fast))
        for _, out in helpers:
            records.update(_read_records(out))
    except BaseException:
        for pid, _ in helpers:
            os.kill(pid, SIGKILL)
        raise
    finally:
        if cpus:
            _pin(cpus)
        os.close(queue)
        for pid, out in helpers:
            os.close(out)
            os.waitpid(pid, 0)
    lost = WorkerExited("the worker process that took this item ended before reporting it")
    return [records[i] if i in records else failed(items[i], lost) for i in range(len(items))]


def _take(worker, items, queue, step, fail_fast):
    """(index, record) of every item this process takes from the queue until it is empty.

    With fail_fast a record that is not ok empties the queue: the report ends there.
    """
    while token := os.read(queue, TOKEN_BYTES):
        start = int.from_bytes(token, "big")
        for i in range(start, min(start + step, len(items))):
            record = worker(items[i])
            yield i, record
            if fail_fast and not record["ok"]:
                while os.read(queue, 4096):
                    pass
                return


def _helper(worker, items, queue, step, fail_fast, into, cpu):
    """A forked helper on CPU cpu (None: where it was forked): its records go to into
    as JSON lines; it never returns."""
    status = 1
    try:
        if cpu is not None:
            _pin({cpu})
        _write_all(into, "".join(json.dumps(pair) + "\n" for pair in
                                 _take(worker, items, queue, step, fail_fast)).encode())
        status = 0
    finally:
        # no exit handlers, no flush of buffers inherited from the caller, no traceback
        os._exit(status)


def _pin(cpus):
    """Let this process run on the CPUs cpus alone.  An OSError, from a CPU gone
    offline since the mask was read, leaves the process where it runs."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _write_all(fd, data):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read_records(fd):
    """The [index, record] pairs of the whole lines a helper wrote to fd."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    # a helper that died while writing leaves its last line cut short
    *lines, _ = b"".join(chunks).split(b"\n")
    return map(json.loads, lines)


def run_job(job, jobs=1, fail_fast=False):
    """Execute a validated job dict; returns the report dict."""
    field = validate_job(job)
    payloads = [(job["field"], task) for task in job["tasks"]]
    start = time.perf_counter()
    records = _run_records(_task_worker, _failed_task, payloads, jobs, fail_fast)
    return {
        "field": {"p": field.p, "vars": list(field.vars)},
        "tasks": records,
        "ok": all(r["ok"] for r in records),
        "total_seconds": round(time.perf_counter() - start, 6),
    }


def run_catalog(entries, jobs=1, fail_fast=False):
    """Check every catalog entry (optionally in parallel); order-normalized report."""
    start = time.perf_counter()
    results = _run_records(_entry_worker, _failed_entry, entries, jobs, fail_fast)
    return {
        "entries": results,
        "ok": all(r["ok"] for r in results),
        "count": len(results),
        "total_seconds": round(time.perf_counter() - start, 6),
    }


def _failed_entry(entry, exc):
    return {"name": entry.get("name", "<unnamed>"), "ok": False, "checks": {},
            "error": _error(exc)}


def _entry_worker(entry):
    try:
        return catalog.check_catalog_entry(entry)
    except Exception as exc:
        return _failed_entry(entry, exc)


def strip_timing(obj):
    """Copy a report without its timing fields (the only nondeterministic part)."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def emit(report):
    json.dump(report, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


# -- argument parsing -----------------------------------------------------------


def build_parser():
    import argparse

    def positive_int(text):
        n = int(text)
        if n < 1:
            raise argparse.ArgumentTypeError("must be at least 1, not %d" % n)
        return n

    parser = argparse.ArgumentParser(
        prog="insep",
        description="Exact inseparability invariants of p-Fermat hypersurfaces "
                    "over rational function fields of characteristic p.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON job file ('-' for stdin)")
    p_run.add_argument("job")
    p_run.add_argument("--jobs", type=positive_int, default=1)
    p_run.add_argument("--fail-fast", action="store_true")

    p_all = sub.add_parser("verify-all", help="run the verification catalog")
    p_all.add_argument("--catalog", default=None)
    p_all.add_argument("--jobs", type=positive_int, default=1)
    p_all.add_argument("--fail-fast", action="store_true")

    p_pdeg = sub.add_parser("pdegree", help="p-degree of K^p(expressions)")
    p_pdeg.add_argument("--field", required=True, help='JSON, e.g. {"p":2,"vars":["s","t"]}')
    p_pdeg.add_argument("exprs", nargs="+")

    p_cls = sub.add_parser("classify", help="classify one hypersurface")
    p_cls.add_argument("--field", required=True)
    p_cls.add_argument("--lambda", dest="lambdas", action="append", nargs="+",
                       required=True, help="coefficient expressions")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            job = catalog.read_json(args.job)
            report = run_job(job, jobs=args.jobs, fail_fast=args.fail_fast)
        elif args.command == "verify-all":
            entries = catalog.load_catalog(args.catalog)
            report = run_catalog(entries, jobs=args.jobs, fail_fast=args.fail_fast)
        elif args.command == "pdegree":
            report = run_job({"field": catalog.decode_json(args.field, "--field"),
                              "tasks": [{"kind": "pdegree", "exprs": args.exprs}]})
        else:
            lams = [e for group in args.lambdas for e in group]
            report = run_job({"field": catalog.decode_json(args.field, "--field"),
                              "tasks": [{"kind": "classify", "lambda": lams}]})
    except (JobValidationError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        emit(report)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe; stdout goes to devnull so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed before the report was written", file=sys.stderr)
        return 1
    for entry in report.get("entries", []):
        if not entry["ok"]:
            print("FAILED: %s" % entry["name"], file=sys.stderr)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())

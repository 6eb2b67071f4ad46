"""Layer tracing from outside the program: wrappers installed around the public
functions of each ``insep`` module.

A span wrapper records the call's start and end; its self time is its duration
minus the time of the spans it encloses.  A count wrapper only counts calls: it
is used on the hot methods (``MultiPoly.__mul__``, ``RatFunc.__init__``,
``FiniteLocalAlgebra.mul_vec`` and two Buchberger helpers), where a span would
cost more than the work it measures.

A wrapper is installed wherever callers look the name up: on the class for a
method, and for a function on every loaded ``insep`` module that holds the same
object (``poly_gcd`` is looked up in both ``multipoly`` and ``ratfunc``).  A
target that no longer exists raises ``MissingTarget`` with its name, so a
renamed layer fails the traced run instead of reading as zero.
"""

import functools
import importlib
import json
import sys
import time

# (span name, module, attribute); "matrix.echelon" is split by field below.
SPANS = [
    ("multipoly.gcd", "insep.fieldarith.multipoly", "poly_gcd"),
    ("matrix.echelon", "insep.fieldarith.matrix", "Matrix._echelon"),
    ("extension.mul", "insep.fieldarith.extension", "ExtElem.__mul__"),
    ("parser.parse", "insep.fieldarith.parser", "parse_expr"),
    ("frobenius.decompose", "insep.frobenius", "frobenius_decompose"),
    ("frobenius.pspan", "insep.frobenius", "membership_in_pspan"),
    ("frobenius.pdegree", "insep.frobenius", "pdegree_generated"),
    ("fermat.classify", "insep.fermat", "classify"),
    ("fermat.rational_point", "insep.fermat", "rational_point"),
    ("groebner.buchberger", "insep.groebner", "buchberger"),
    ("curves.normalization", "insep.curves", "normalization"),
    ("curves.singular_point", "insep.curves", "singular_point"),
    ("curves.conductor", "insep.curves", "conductor_profile"),
    ("curves.cohomology", "insep.curves", "glueing_cohomology"),
    ("artin.construct", "insep.artin", "truncated_polynomial_algebra"),
    ("artin.construct", "insep.artin", "adjoin_root"),
    ("artin.construct", "insep.artin", "tensor_self"),
    ("artin.edim", "insep.artin", "edim"),
    ("cli.validate", "insep.cli", "validate_job"),
    ("cli.validate", "insep.catalog", "load_catalog"),
    ("cli.task", "insep.cli", "execute_task"),
    ("cli.task", "insep.catalog", "check_catalog_entry"),
]

COUNTS = [
    ("multipoly.mul", "insep.fieldarith.multipoly", "MultiPoly.__mul__"),
    ("ratfunc.new", "insep.fieldarith.ratfunc", "RatFunc.__init__"),
    ("artin.mul_vec", "insep.artin", "FiniteLocalAlgebra.mul_vec"),
    ("groebner.spoly", "insep.groebner", "s_polynomial"),
    ("groebner.normal_form", "insep.groebner", "normal_form"),
]


class MissingTarget(RuntimeError):
    """A traced function or method is gone from the program."""


def _matrix_span_name(args):
    from insep.fieldarith import PrimeField

    return "matrix.Fp.echelon" if isinstance(args[0].field, PrimeField) else "matrix.K.echelon"


_matrix_span_name.names = ("matrix.K.echelon", "matrix.Fp.echelon")


def _matrix_cells(args):
    return args[0].nrows * args[0].ncols


class Tracer:
    """Spans kept in memory, keyed by task; written out by ``write``.

    A task is one top-level ``cli.task`` span (one job task or catalog entry);
    spans before the first task (reading and validating) belong to task -1.
    """

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []          # open spans: [name, start, child_time, index]
        self.spans = []          # (task, name, start, end, self time, parent index)
        self.counts = {}
        self.cells = {}
        self.names = set()       # every span name, so an uncalled layer reads 0
        self.task = -1

    def span(self, fn, name, name_of=None, cells_of=None):
        stack, spans, clock = self.stack, self.spans, self.clock
        self.names.update(name_of.names if name_of else [name])
        if cells_of:
            self.cells.update((n, 0) for n in name_of.names)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name_of(args) if name_of else name
            if span_name == "cli.task" and not stack:
                self.task += 1
            if cells_of:
                self.cells[span_name] += cells_of(args)
            parent = stack[-1][3] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [span_name, clock(), 0.0, index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                spans[index] = (self.task, span_name, frame[1], end, duration - frame[2], parent)

        return wrapper

    def count(self, fn, name):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self):
        """{name: {"calls": n, "self_s": s}} for spans, {"calls": n} for counts."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for _, name, _, _, self_s, _ in self.spans:
            out[name]["calls"] += 1
            out[name]["self_s"] += self_s
        for name, cells in self.cells.items():
            out[name]["cells"] = cells
        for name, n in self.counts.items():
            out[name] = {"calls": n}
        return out

    def write(self, path):
        """Every span as [task, name, start, end, self time, parent index]."""
        with open(path, "w") as fh:
            json.dump({"fields": ["task", "name", "start", "end", "self_s", "parent"],
                       "spans": self.spans}, fh)


def _resolve(module_name, attr):
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise MissingTarget("%s.%s: %s" % (module_name, attr, exc)) from exc
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    if owner is None or parts[-1] not in vars(owner):
        raise MissingTarget("trace target %s.%s no longer exists" % (module_name, attr))
    return owner, parts[-1]


def _patch(owner, attr, wrapped):
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
        return
    original = getattr(owner, attr)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "insep" and getattr(module, attr, None) is original:
            setattr(module, attr, wrapped)


def install():
    """Wrap every target; returns the Tracer that collects the spans."""
    tracer = Tracer()
    targets = [(name, _resolve(module, attr)) for name, module, attr in SPANS]
    counted = [(name, _resolve(module, attr)) for name, module, attr in COUNTS]
    for name, (owner, attr) in targets:
        fn = getattr(owner, attr)
        if name == "matrix.echelon":
            wrapped = tracer.span(fn, name, _matrix_span_name, _matrix_cells)
        else:
            wrapped = tracer.span(fn, name)
        _patch(owner, attr, wrapped)
    for name, (owner, attr) in counted:
        _patch(owner, attr, tracer.count(getattr(owner, attr), name))
    return tracer

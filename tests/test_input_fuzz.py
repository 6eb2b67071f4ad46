"""Fuzzing the input boundary: any expression string in a job, any local-algebra
shape of an artin-edim task, any catalog file and any job file ends in exit 0, 1
or 2, never in an exception escaping the command line."""

import json
import re
from math import prod

from hypothesis import HealthCheck, example, given, settings, strategies as st

from insep.cli import TASK_KEY, TASK_KINDS, main

NUMBERS = st.integers(0, 99).map(str)
# two-digit numbers, the field's variables, the operators, parentheses, spaces, and
# digits that str.isdigit accepts but int() does not
TOKENS = st.one_of(NUMBERS, st.sampled_from(["s", "t", "+", "-", "*", "/", "^", "(", ")", " ",
                                             "²", "³", "①"]))
# strings that mostly parse, so the arithmetic and the tasks are reached too
WELL_FORMED = st.recursive(
    st.one_of(NUMBERS, st.sampled_from(["s", "t"])),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", "-", "*", "/", " - "]), inner).map("".join),
        st.tuples(inner, NUMBERS).map("(%s)^%s".__mod__),
        inner.map("-(%s)".__mod__)),
    max_leaves=5)
# adjacent number tokens can run together; an exponent keeps at most two digits
EXPRESSIONS = st.one_of(WELL_FORMED, st.lists(TOKENS, max_size=12).map("".join)).filter(
    lambda text: len(text) <= 40 and not re.search(r"\^\s*\d{3}", text))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(p=st.sampled_from([2, 3, 5, 7]), kind=st.sampled_from(["pdegree", "classify"]),
       text=EXPRESSIONS)
@example(p=2, kind="classify", text="1/0")
@example(p=2, kind="classify", text="s/(s-s)")
@example(p=2, kind="pdegree", text="(s+t+1)^99")
@example(p=2, kind="pdegree", text="2²")
# deeper than the stack that hypothesis allows a test, which is more than the default
@example(p=2, kind="classify", text="(" * 1000 + "s" + ")" * 1000)
def test_any_expression_exits_0_1_or_2(tmp_path, capsys, p, kind, text):
    task = ({"kind": "pdegree", "exprs": [text]} if kind == "pdegree"
            else {"kind": "classify", "lambda": [text, "s", "1"]})
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"field": {"p": p, "vars": ["s", "t"]}, "tasks": [task]}))
    code = main(["run", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


# JSON values of the wrong type or range for some key, and a marker that deletes the key
MISTYPED = st.sampled_from([None, True, 2.0, "2", [], {}, [2], [[1]], -1, 0, 10 ** 30, "s",
                            ["s"], {"p": 2}])
DELETE = object()
POWERS = ["s", "t", "u", "s*t", "s+t", "s^2", "t^2*u", "s+1", "1", "0", "s/t", "u/(s+t)",
          "s+", "v", ")"]
MAX_DIM = 64


@st.composite
def algebra_shapes(draw):
    """A tensor-self or adjoin-root description of dimension at most MAX_DIM, with up
    to two keys mistyped, deleted or added."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    if draw(st.booleans()):
        count = draw(st.integers(0, max(m for m in range(4) if p ** m <= MAX_DIM)))
        algebra = {"construction": "tensor-self",
                   "field": {"p": p, "vars": draw(st.lists(st.sampled_from("stu"), min_size=1,
                                                           max_size=3, unique=True))},
                   "pth_powers": draw(st.lists(st.sampled_from(POWERS), max_size=count))}
    else:
        r = draw(st.integers(1, max(r for r in range(1, 7) if p ** r <= MAX_DIM)))
        exponents = draw(st.lists(st.integers(1, 4), max_size=3))
        while p ** r * prod(exponents) > MAX_DIM:
            exponents.pop()
        # f has one coefficient per basis monomial, give or take one
        size = max(0, prod(exponents) + draw(st.integers(-1, 1)))
        algebra = {"construction": "adjoin-root", "p": p, "base_exponents": exponents,
                   "f": draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size)),
                   "r": r}
    for key in draw(st.lists(st.sampled_from(sorted(algebra) + ["extra"]), max_size=2,
                             unique=True)):
        value = draw(st.one_of(MISTYPED, st.just(DELETE)))
        if value is DELETE:
            algebra.pop(key, None)
        else:
            algebra[key] = value
    return algebra


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(algebra=st.one_of(algebra_shapes(), MISTYPED))
@example(algebra={"construction": "adjoin-root", "p": 2, "base_exponents": [], "f": [1],
                  "r": 6})
@example(algebra={"construction": "tensor-self", "field": {"p": 2, "vars": ["s"]},
                  "pth_powers": ["s", "s"]})
def test_any_algebra_shape_exits_0_1_or_2(tmp_path, capsys, algebra):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"field": {"p": 2, "vars": ["s"]},
                                "tasks": [{"kind": "artin-edim", "algebra": algebra}]}))
    code = main(["run", str(path), "--jobs", "1"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


# a fixed pool of cheap coefficients, the first five without s: the fuzzing is of the
# file's structure, not of the arithmetic
CHEAP = ["t", "1", "0", "t^2", "t+t^2", "s", "s+t", "s*t", "s^2*t", "s/t"]
UNPARSABLE = ["x", "s+", ")"]
EXPECT_VALUES = {
    "d": st.integers(0, 3), "verdict": st.sampled_from(["Regular", "SingularCodim",
                                                        "NonreducedEverywhere"]),
    "codim": st.integers(0, 3), "rational_point": st.booleans(),
    "residue_degree": st.sampled_from([1, 2, 3, 5]),
    "conductor_case": st.sampled_from(["P2", "ResidueK", "ResidueL"]),
}


@st.composite
def _rarely_mutated(draw, value):
    """value, and one time in eight instead a mistyped value, value nested in a list,
    or value with an unknown key."""
    if draw(st.sampled_from(range(8))):
        return value
    extra = dict(value, extra=1) if isinstance(value, dict) else value
    return draw(st.one_of(MISTYPED, st.just([value]), st.just(extra)))


@st.composite
def catalog_texts(draw):
    """The text of a catalog file of up to three entries; its top level, each entry, and
    each entry's field, expect and keys are now and then mistyped, misspelt, missing
    or nested."""
    entries = []
    for i in range(draw(st.integers(0, 3))):
        field = {"p": draw(st.sampled_from([2, 3, 5])),
                 "vars": draw(st.sampled_from([["s", "t"], ["s", "t", "u"], ["t"]]))}
        pool = CHEAP if "s" in field["vars"] else CHEAP[:5]
        lams = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=3))
        if not draw(st.sampled_from(range(8))):
            lams[-1] = draw(st.sampled_from(UNPARSABLE))
        expect = {key: draw(values) for key, values in EXPECT_VALUES.items()
                  if draw(st.booleans())}
        entry = {"name": "e%d" % i, "field": draw(_rarely_mutated(field)),
                 "lambda": draw(_rarely_mutated(lams)),
                 "expect": draw(_rarely_mutated(expect))}
        if not draw(st.sampled_from(range(8))):
            key = draw(st.sampled_from(sorted(entry) + ["extra"]))
            value = draw(st.one_of(MISTYPED, st.just(DELETE)))
            if value is DELETE:
                entry.pop(key, None)
            else:
                entry[key] = value
        entries.append(entry)
    return json.dumps(draw(_rarely_mutated(entries)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=catalog_texts())
@example(text="[" * 100_000)
def test_any_catalog_file_exits_0_1_or_2(tmp_path, capsys, text):
    path = tmp_path / "catalog.json"
    path.write_text(text)
    # a job file goes through the same reader as a catalog file
    for argv in (["verify-all", "--catalog", str(path)], ["run", str(path)]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1


@st.composite
def _mutated(draw, obj, keep=()):
    """obj, and one time in eight instead a mistyped value, obj nested in a list, obj
    with an unknown key, or obj with one key misspelt, mistyped or deleted (a key in
    keep is never deleted).  The first choice is the common one, since hypothesis
    draws it more often than the others."""
    if draw(st.sampled_from(range(8))) < 7:
        return obj
    key = draw(st.sampled_from(sorted(obj)))
    rest = {k: v for k, v in obj.items() if k != key}
    return draw(st.one_of(MISTYPED, st.just([obj]), st.just(dict(obj, extra=1)),
                          st.just(dict(rest, **{key[:-1]: obj[key]})),
                          MISTYPED.map(lambda value: dict(rest, **{key: value})),
                          st.just(obj if key in keep else rest)))


ALGEBRAS = [{"construction": "tensor-self", "field": {"p": 2, "vars": ["s", "t"]},
             "pth_powers": ["s", "t"]},
            {"construction": "adjoin-root", "p": 2, "base_exponents": [2], "f": [0, 1],
             "r": 1}]


@st.composite
def job_texts(draw, empty_catalog):
    """The text of a job file of up to three tasks of any kind; the job, its field,
    its task list, each task and each algebra are now and then mistyped, nested, or
    given an unknown, misspelt or missing key, and an expression is now and then
    unparsable."""
    field = {"p": draw(st.sampled_from([2, 3, 5])),
             "vars": draw(st.sampled_from([["s", "t"], ["t"]]))}
    pool = CHEAP if "s" in field["vars"] else CHEAP[:5]
    tasks = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(TASK_KINDS))
        size = 3 if kind.startswith("curve-") else draw(st.integers(2, 4))
        exprs = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        if draw(st.sampled_from(range(8))) == 7:
            exprs[-1] = draw(st.sampled_from(UNPARSABLE))
        if kind == "artin-edim":
            task = {"kind": kind, "algebra": draw(_mutated(draw(st.sampled_from(ALGEBRAS))))}
        elif kind == "verify-all":
            # without a catalog key the task would run the whole shipped catalog
            task = {"kind": kind, "catalog": empty_catalog}
        else:
            task = {"kind": kind, TASK_KEY.get(kind, "lambda"): exprs}
        tasks.append(draw(_mutated(task, keep={"catalog"})))
    job = {"field": draw(_mutated(field)), "tasks": draw(_rarely_mutated(tasks))}
    return json.dumps(draw(_mutated(job)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_job_file_exits_0_1_or_2(tmp_path, capsys, data):
    empty = tmp_path / "empty_catalog.json"
    empty.write_text("[]")
    path = tmp_path / "job.json"
    path.write_text(data.draw(job_texts(str(empty))))
    code = main(["run", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1

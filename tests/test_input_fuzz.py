"""Fuzzing the input boundary: any expression string in a job ends in exit 0, 1 or 2,
never in an exception escaping the command line."""

import json
import re

from hypothesis import HealthCheck, example, given, settings, strategies as st

from insep.cli import main

NUMBERS = st.integers(0, 99).map(str)
# two-digit numbers, the field's variables, the operators, parentheses and spaces
TOKENS = st.one_of(NUMBERS, st.sampled_from(["s", "t", "+", "-", "*", "/", "^", "(", ")", " "]))
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

import pytest

from insep.cli import run_job
from insep.fieldarith import FunctionField, ParseError, UnknownVariableError, parse_expr, parser
from insep.fieldarith.parser import (MAX_DIGITS, MAX_NESTING, MAX_POWER_DEGREE,
                                     DivisionByZeroError)


def test_basic_fraction(K2st):
    f = parse_expr("t^2/(s+1)", K2st)
    t = K2st.gen("t")
    s = K2st.gen("s")
    assert f == t * t / (s + K2st.one())


def test_one_over_zero_raises(K2st):
    with pytest.raises(ZeroDivisionError):
        parse_expr("1/0", K2st)
    # a parse error at the '/', also when the divisor only cancels to zero
    for text, position in (("1/0", 1), ("s/(s-s)", 1), ("s + t / (2*s)", 6)):
        with pytest.raises(ParseError) as err:
            parse_expr(text, K2st)
        assert err.value.position == position


def test_power_of_a_sum_is_capped_before_expanding(K2st):
    with pytest.raises(ParseError) as err:
        parse_expr("(s+t+1)^3000", K2st)
    assert err.value.position == 7
    # the cap is on exponent times total degree, numerator and denominator alike
    assert parse_expr("(s+t)^%d" % MAX_POWER_DEGREE, K2st) == parse_expr(
        "s^%d+t^%d" % (MAX_POWER_DEGREE, MAX_POWER_DEGREE), K2st)
    for text in ("(s+t)^%d" % (MAX_POWER_DEGREE + 1), "(s*t+1)^%d" % (MAX_POWER_DEGREE // 2 + 1),
                 "(s/(t+1))^%d" % (MAX_POWER_DEGREE + 1)):
        with pytest.raises(ParseError):
            parse_expr(text, K2st)
    # a single term is capped too, at the '^'
    assert parse_expr("s^%d" % MAX_POWER_DEGREE, K2st).num.terms == {(MAX_POWER_DEGREE, 0): 1}
    for text in ("s^%d" % (MAX_POWER_DEGREE + 1), "(s/t)^%d" % (MAX_POWER_DEGREE + 1)):
        with pytest.raises(ParseError) as err:
            parse_expr(text, K2st)
        assert err.value.position == text.index("^")


def test_overlong_number_is_a_parse_error(K2st):
    for text in ("1" * (MAX_DIGITS + 1), "s+s^" + "9" * 5000):
        with pytest.raises(ParseError):
            parse_expr(text, K2st)
    assert parse_expr("1" * MAX_DIGITS, K2st) == K2st.one()


def test_nesting_past_the_bound_is_a_parse_error_at_its_parenthesis(K2st):
    deep = "(" * MAX_NESTING + "s" + ")" * MAX_NESTING
    assert parse_expr(deep, K2st) == K2st.gen("s")
    # the bound counts open parentheses, not all of them: a sequence of groups is fine
    assert parse_expr("+".join([deep] * 3), K2st) == K2st.gen("s") * K2st.from_int(3)
    with pytest.raises(ParseError) as err:
        parse_expr("t+(" + deep + ")", K2st)
    assert err.value.position == 2 + MAX_NESTING


def test_expansion_by_repeated_multiplication(K3st):
    f = parse_expr("s*(s+t)^3", K3st)
    # (s+t)^3 = s^3 + t^3 in characteristic 3
    assert f == parse_expr("s^4+s*t^3", K3st)
    assert len(f.num.terms) == 2


def test_unary_minus_and_whitespace(K3st):
    assert parse_expr("- t + t", K3st).is_zero()
    assert parse_expr("  2 * t ", K3st) == parse_expr("2*t", K3st)
    assert parse_expr("1 - (-t)", K3st) == parse_expr("1+t", K3st)


def test_nat_reduced_mod_p(K3st):
    assert parse_expr("4", K3st) == K3st.one()
    assert parse_expr("3*t", K3st).is_zero()


def test_syntax_error_carries_position(K2st):
    # superscripts and circled numbers pass str.isdigit, but int() rejects them
    for text, position in (("s+*t", 2), ("2²", 1), ("³", 0), ("s^①", 2), ("s+①", 2)):
        with pytest.raises(ParseError) as err:
            parse_expr(text, K2st)
        assert err.value.position == position, text
    with pytest.raises(ParseError):
        parse_expr("(s+t", K2st)
    with pytest.raises(ParseError):
        parse_expr("s t", K2st)


def test_unknown_variable(K2st):
    with pytest.raises(UnknownVariableError) as err:
        parse_expr("s+w", K2st)
    assert err.value.name == "w"


def test_precedence(K3st):
    assert parse_expr("1+2*t", K3st) == K3st.one() + K3st.from_int(2) * K3st.gen("t")
    assert parse_expr("t^2*s", K3st) == parse_expr("(t^2)*s", K3st)
    assert parse_expr("2/t/s", K3st) == K3st.from_int(2) / (K3st.gen("t") * K3st.gen("s"))


def test_a_repeated_parse_returns_the_same_object(K2st):
    text = "(s+t)^3/(s*t+1)"
    first = parse_expr(text, K2st)
    assert parse_expr(text, K2st) is first
    assert parse_expr(text, FunctionField(2, ["s", "t"])) is first
    # the field is part of the key: the same text over other variables is another value
    other = parse_expr(text, FunctionField(2, ["t", "s"]))
    assert other.vars == ("t", "s")
    assert parse_expr(text, FunctionField(2, ["t", "s"])) is other


def test_errors_are_raised_on_every_call(K2st):
    equal = FunctionField(2, ["s", "t"])
    cases = [("s+*t", ParseError, "unexpected"), ("1/0", DivisionByZeroError, "division by zero"),
             ("s+w", UnknownVariableError, "unknown variable"),
             ("(s+t+1)^3000", ParseError, "power too large")]
    for text, error, message in cases:
        for field in (K2st, equal, K2st, equal):
            with pytest.raises(error, match=message):
                parse_expr(text, field)


def test_a_job_parses_each_expression_once(monkeypatch):
    tokenized = []

    class CountingTokens(parser._Tokens):
        def __init__(self, text):
            tokenized.append(text)
            super().__init__(text)

    monkeypatch.setattr(parser, "_Tokens", CountingTokens)
    parser.parse_expr.cache_clear()
    lam = ["t", "s^3*t", "1"]
    job = {"field": {"p": 3, "vars": ["s", "t"]},
           "tasks": [{"kind": "classify", "lambda": lam}, {"kind": "verify-codim", "lambda": lam},
                     {"kind": "curve-conductor", "lambda": lam},
                     {"kind": "pdegree", "exprs": ["s", "t", "s*t"]}]}
    # validation, run_job's own validation and the task handlers all parse these
    assert run_job(job)["ok"]
    assert sorted(tokenized) == sorted(set(lam) | {"s", "t", "s*t"})

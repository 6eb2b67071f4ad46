"""Recursive-descent parser for field expressions.

Grammar:
    expr   := ['-'] term  (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' NAT)?
    base   := NAT | IDENT | '(' expr ')'

NAT is a decimal literal reduced mod p, IDENT a declared variable.  Whitespace
is insignificant.  format(parse(x)) reparses to an equal value.

The parser bounds its own work: a power is refused when the exponent times the
total degree of the base exceeds MAX_POWER_DEGREE, before it is expanded, a '('
nested more than MAX_NESTING deep is refused before the descent recurses into
it, and a division by zero is a parse error at the '/'.
"""

from functools import lru_cache

from .multipoly import CACHE_SIZE

# the largest exponent * total degree of a power: the shipped catalog and
# benchmark inputs stay at or below 7, and at the cap a dense quadratic in four
# variables expands in about 0.01 s (under 0.1 s for any capped power tried, one
# core of a 2-vCPU Xeon)
MAX_POWER_DEGREE = 32
# the longest decimal literal, far below the 4300 digits Python converts to int
MAX_DIGITS = 1000
# the deepest parenthesis nesting: each level costs the descent four stack frames,
# so the bound keeps a parse far below Python's default recursion limit of 1000
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax error with a 0-based character position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class DivisionByZeroError(ParseError, ZeroDivisionError):
    """A '/' whose right operand is zero, positioned at the '/'."""

    def __init__(self, position):
        super().__init__("division by zero", position)


class UnknownVariableError(ParseError):
    def __init__(self, name, position):
        super().__init__("unknown variable %r" % name, position)
        self.name = name


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0  # parentheses open at pos

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None, self.pos
        return self.text[self.pos], self.pos

    def take_symbol(self, symbols):
        ch, _ = self.peek()
        if ch is not None and ch in symbols:
            self.pos += 1
            return ch
        return None

    def take_nat(self):
        ch, start = self.peek()
        if ch is None or not ch.isdigit():
            return None, start
        end = self.pos
        while end < len(self.text) and self.text[end].isdigit():
            end += 1
        if end - self.pos > MAX_DIGITS:
            raise ParseError("number longer than %d digits" % MAX_DIGITS, start)
        value = int(self.text[self.pos:end])
        self.pos = end
        return value, start

    def take_ident(self):
        ch, start = self.peek()
        if ch is None or not (ch.isalpha() or ch == "_"):
            return None, start
        end = self.pos
        while end < len(self.text) and (self.text[end].isalnum() or self.text[end] == "_"):
            end += 1
        name = self.text[self.pos:end]
        self.pos = end
        return name, start


# a job validates its expressions and then runs them, so each is parsed once per
# process; the results are immutable and a ParseError is never cached
@lru_cache(maxsize=CACHE_SIZE)
def parse_expr(text, field):
    """Parse an expression string into a RatFunc over the FunctionField field."""
    toks = _Tokens(text)
    value = _parse_sum(toks, field)
    ch, pos = toks.peek()
    if ch is not None:
        raise ParseError("unexpected %r" % ch, pos)
    return value


def _parse_sum(toks, field):
    negate = toks.take_symbol("-") is not None
    value = _parse_term(toks, field)
    if negate:
        value = -value
    while True:
        op = toks.take_symbol("+-")
        if op is None:
            return value
        rhs = _parse_term(toks, field)
        value = value + rhs if op == "+" else value - rhs


def _parse_term(toks, field):
    value = _parse_factor(toks, field)
    while True:
        _, pos = toks.peek()
        op = toks.take_symbol("*/")
        if op is None:
            return value
        rhs = _parse_factor(toks, field)
        if op == "*":
            value = value * rhs
        elif rhs.is_zero():
            raise DivisionByZeroError(pos)
        else:
            value = value / rhs


def _parse_factor(toks, field):
    value = _parse_base(toks, field)
    _, pos = toks.peek()
    if toks.take_symbol("^"):
        n, npos = toks.take_nat()
        if n is None:
            raise ParseError("expected exponent after '^'", npos)
        if n * _total_degree(value) > MAX_POWER_DEGREE:
            raise ParseError("power too large: exponent times total degree of the base "
                             "exceeds the cap %d" % MAX_POWER_DEGREE, pos)
        value = value ** n
    return value


def _total_degree(value):
    return max(sum(e) for poly in (value.num, value.den) for e in poly.terms)


def _parse_base(toks, field):
    n, _ = toks.take_nat()
    if n is not None:
        return field.from_int(n)
    name, pos = toks.take_ident()
    if name is not None:
        if name not in field.vars:
            raise UnknownVariableError(name, pos)
        return field.gen(name)
    ch, pos = toks.peek()
    if ch == "(":
        if toks.depth == MAX_NESTING:
            raise ParseError("parentheses nested deeper than %d" % MAX_NESTING, pos)
        toks.pos += 1
        toks.depth += 1
        value = _parse_sum(toks, field)
        ch, pos = toks.peek()
        if ch != ")":
            raise ParseError("expected ')'", pos)
        toks.pos += 1
        toks.depth -= 1
        return value
    raise ParseError("expected a number, variable or '('" if ch is None
                     else "unexpected %r" % ch, pos)

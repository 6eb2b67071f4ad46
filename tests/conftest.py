import os
import random

import pytest

from insep.fieldarith import FunctionField, MultiPoly, RatFunc


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, running or not."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process was left unreaped%s" % (" (pid %d)" % pid if pid else ""))


@pytest.fixture
def K2st():
    return FunctionField(2, ["s", "t"])


@pytest.fixture
def K3st():
    return FunctionField(3, ["s", "t"])


@pytest.fixture
def K3t():
    return FunctionField(3, ["t"])


def random_poly(rng, field, max_terms=3, max_exp=2, allow_zero=True):
    terms = {}
    count = rng.randrange(0 if allow_zero else 1, max_terms + 1)
    for _ in range(count):
        e = tuple(rng.randrange(0, max_exp + 1) for _ in field.vars)
        terms[e] = rng.randrange(1, field.p)
    return MultiPoly(field.p, field.vars, terms)


def random_nonzero_poly(rng, field, max_terms=3, max_exp=2):
    while True:
        poly = random_poly(rng, field, max_terms, max_exp, allow_zero=False)
        if not poly.is_zero():
            return poly


def random_ratfunc(rng, field, max_terms=3, max_exp=2):
    num = random_poly(rng, field, max_terms, max_exp)
    den = random_nonzero_poly(rng, field, max_terms, max_exp)
    return RatFunc(num, den)


def random_nonzero_ratfunc(rng, field, max_terms=3, max_exp=2):
    while True:
        f = random_ratfunc(rng, field, max_terms, max_exp)
        if f:
            return f


def seeded(seed):
    return random.Random(seed)


def reassemble(field, coords):
    """sum_e g_e^p t^e over Frobenius coordinates: gives back the decomposed element."""
    total = field.zero()
    for e, g in coords.items():
        mono = RatFunc(MultiPoly(field.p, field.vars, {e: 1}), reduce=False)
        total = total + (g ** field.p) * mono
    return total

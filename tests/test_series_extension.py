"""Root extensions and their Frobenius-norm inverse, and the conductor ring
O_A = L[u]/(u^(p-1)), a truncated series ring over L given by structure
constants over K."""

import pytest

from insep.curves import ConductorRing
from insep.fieldarith import (
    FunctionField,
    NotAPthPowerCheckError,
    SimpleExtensionField,
    Span,
    extension_tower,
    parse_expr,
)

from conftest import random_nonzero_ratfunc, random_ratfunc, seeded


def test_extension_constructor_rejects_pth_powers(K2st):
    s = K2st.gen("s")
    with pytest.raises(NotAPthPowerCheckError):
        SimpleExtensionField(K2st, s * s)


def test_extension_arithmetic(K3t):
    t = K3t.gen("t")
    L = SimpleExtensionField(K3t, t, gen_name="x")
    x = L.gen()
    assert x ** 3 == L.lift(t)
    a = x + L.one()
    inv = a.inverse()
    assert a * inv == L.one()
    # (x+1)^3 = x^3 + 1 = t + 1 in characteristic 3
    assert a ** 3 == L.lift(t + K3t.one())


def test_extension_pth_root(K3t):
    t = K3t.gen("t")
    L = SimpleExtensionField(K3t, t)
    x = L.gen()
    w = x * x + L.lift(t)
    root = L.pth_root(w ** 3)
    assert root is not None and root ** 3 == w ** 3
    assert L.pth_root(x + L.one()) is None  # not in K at all


def test_tower_of_two_roots(K2st):
    s, t = K2st.gens()
    T = extension_tower(K2st, [s, t])
    assert T.base.base is K2st and T.degree == T.base.degree == 2  # [T:K] = 4
    xs = T.level_gen(0)
    xt = T.level_gen(1)
    assert xs ** 2 == T.from_bottom(s)
    assert xt ** 2 == T.from_bottom(t)
    prod = xs * xt
    assert prod ** 2 == T.from_bottom(s * t)
    assert (prod.inverse() * prod) == T.one()
    with pytest.raises(NotAPthPowerCheckError):
        extension_tower(K2st, [t, s * s * t])  # s^2 t lies in K^2(t)


def test_tower_inverse_over_two_variables():
    """The tower of catalog entry f5t-two-term-Q, F_5(t,z)(w) with w^5 =
    -(t z^5 + 1)/(t + t^2): the norm of an element with five dense coefficients
    takes gcds of bivariate polynomials of total degree up to 78."""
    K = FunctionField(5, ["t", "z"])
    L = SimpleExtensionField(K, parse_expr("-(t*z^5+1)/(t+t^2)", K))
    rng = seeded(1)
    a = L.from_coeffs([random_nonzero_ratfunc(rng, K, max_terms=3, max_exp=2)
                       for _ in range(5)])
    assert a * a.inverse() == L.one()


def conductor_ring(p):
    """O_A over K = F_p(t), with L = K(t^(1/p))."""
    K = FunctionField(p, ["t"])
    return ConductorRing(SimpleExtensionField(K, K.gen("t"), gen_name="x"))


def test_trunc_series_arithmetic():
    # u^j x^i * u^l x^k is x^i x^k in L placed at u^(j+l), and 0 from u^(p-1) on
    for p in (2, 3, 5):
        ring = conductor_ring(p)
        x, one = ring.L.gen(), ring.K.one()
        for a in range(ring.dim_K):
            for b in range(ring.dim_K):
                (j, i), (l, k) = divmod(a, p), divmod(b, p)
                if j + l >= p - 1:
                    expected = {}
                else:
                    expected = {(j + l) * p + c: v
                                for c, v in enumerate((x ** i * x ** k).coeffs) if v}
                assert ring.mul({a: one}, {b: one}) == expected, (p, a, b)


def _random_unit(rng, ring):
    a = {}
    while 0 not in a:  # a nonzero u^0 part makes a unit; a constant term suffices
        a = {c: x for c in range(ring.dim_K)
             if (x := random_ratfunc(rng, ring.K, max_terms=2, max_exp=1))}
    return a


def test_trunc_series_random_inverse():
    rng = seeded(909)
    for p, count in ((2, 10), (3, 10), (5, 2)):
        ring = conductor_ring(p)
        for _ in range(count):
            a = _random_unit(rng, ring)
            inv = ring.inverse(a)
            assert ring.mul(a, inv) == ring.one
            assert inv == _table_inverse(ring, a)


def test_series_non_unit():
    for p in (3, 5):
        ring = conductor_ring(p)
        one = ring.K.one()
        for a in ({}, {p: one}, {p: one, p + 1: ring.K.gen("t")}):  # 0, u, u + t u x
            with pytest.raises(ZeroDivisionError):
                ring.inverse(a)
            with pytest.raises(ZeroDivisionError):
                _table_inverse(ring, a)


def _solve_for_e0(base, cols):
    """The v with sum_j v_j cols[j] = e_0, cols the dense columns of a square
    matrix: the relation of a last column -e_0 against them."""
    n = len(cols)
    rows = [[(j, col[i]) for j, col in enumerate(cols)] for i in range(n)]
    rows[0].append((n, -base.one()))
    span = Span(base, n + 1, rows)
    if n in span.tails:
        raise ZeroDivisionError("not a unit")
    return span.relation(n)[:n]


def _table_inverse(ring, a):
    """Reference inverse in O_A: multiplication by a is K-linear, with columns
    a e_j; solve a v = e_0."""
    zero, one = ring.K.zero(), ring.K.one()
    cols = [[col.get(i, zero) for i in range(ring.dim_K)]
            for col in (ring.mul(a, {j: one}) for j in range(ring.dim_K))]
    return {c: x for c, x in enumerate(_solve_for_e0(ring.K, cols)) if x}


def _matrix_inverse(a):
    """Reference inverse: multiplication by a is base-linear, so solve M v = e_0."""
    ring, base = a.field, a.field.base
    n = ring.degree
    cols = [(a * ring.from_coeffs([base.one() if i == j else base.zero() for i in range(n)])).coeffs
            for j in range(n)]
    return ring.from_coeffs(_solve_for_e0(base, cols))


def _random_elem(rng, ring, bottom):
    if isinstance(ring, FunctionField):
        return bottom(rng, ring)
    return ring.from_coeffs([_random_elem(rng, ring.base, bottom) for _ in range(ring.degree)])


def _small_ratfunc(rng, K):
    return random_ratfunc(rng, K, max_terms=2, max_exp=1)


def _prime_field_const(rng, K):
    return K.from_int(rng.randrange(K.p))


def _norm_inverse_cases():
    """(field, bottom-field coefficients, number of units) for the cross-check."""
    for p in (2, 3, 5, 7):
        K = FunctionField(p, ["t"])
        yield SimpleExtensionField(K, K.gen("t")), _small_ratfunc, 3
    K2 = FunctionField(2, ["s", "t"])
    yield extension_tower(K2, K2.gens()), _small_ratfunc, 3
    # over F_3(s,t) the matrix reference meets the bivariate gcd cliff on
    # rational coefficients (tens of seconds for one element), so these are in F_3
    K3 = FunctionField(3, ["s", "t"])
    yield extension_tower(K3, K3.gens()), _prime_field_const, 2


def test_norm_inverse_matches_the_matrix_inverse():
    rng = seeded(1212)
    for ring, bottom, count in _norm_inverse_cases():
        units = []
        while len(units) < count:
            a = _random_elem(rng, ring, bottom)
            if a:
                units.append(a)
        for a in units:
            inv = a.inverse()
            assert a * inv == ring.one(), (ring, a)
            assert inv == _matrix_inverse(a), (ring, a)
        with pytest.raises(ZeroDivisionError):
            ring.zero().inverse()
        y = ring.gen()
        assert y * y.inverse() == ring.one()

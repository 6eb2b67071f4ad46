import pytest

from insep.fieldarith import (
    FunctionField,
    NotAPthPowerCheckError,
    SimpleExtensionField,
    Span,
    TruncSeriesRing,
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


def test_trunc_series_arithmetic(K3t):
    R = TruncSeriesRing(K3t, 3)
    u = R.gen()
    one = R.one()
    f = one + u
    g = f.inverse()
    assert f * g == one
    assert (u ** 3).order_of_vanishing() == 3  # truncated away
    assert (u * u).order_of_vanishing() == 2
    with pytest.raises(ValueError):
        TruncSeriesRing(K3t, 4)  # above p, a^p would leave the base


def test_trunc_series_random_inverse(K3t):
    rng = seeded(909)
    R = TruncSeriesRing(K3t, 3)
    for _ in range(40):
        coeffs = [random_ratfunc(rng, K3t, max_terms=2, max_exp=2) for _ in range(3)]
        while not coeffs[0]:
            coeffs[0] = random_ratfunc(rng, K3t, max_terms=2, max_exp=2)
        f = R.from_coeffs(coeffs)
        assert f * f.inverse() == R.one()


def test_series_non_unit(K3t):
    R = TruncSeriesRing(K3t, 3)
    with pytest.raises(ZeroDivisionError):
        R.gen().inverse()


def _matrix_inverse(a):
    """Reference inverse: multiplication by a is base-linear, so solve M v = e_0,
    as the relation of a last column -e_0 against the columns of M."""
    ring, base = a.field, a.field.base
    n = ring.degree
    cols = [(a * ring.from_coeffs([base.one() if i == j else base.zero() for i in range(n)])).coeffs
            for j in range(n)]
    rows = [[(j, col[i]) for j, col in enumerate(cols)] for i in range(n)]
    rows[0].append((n, -base.one()))
    span = Span(base, n + 1, rows)
    if n in span.tails:
        raise ZeroDivisionError("not a unit")
    return ring.from_coeffs(span.relation(n)[:n])


def _random_elem(rng, ring, bottom):
    if isinstance(ring, FunctionField):
        return bottom(rng, ring)
    return ring.from_coeffs([_random_elem(rng, ring.base, bottom) for _ in range(ring.degree)])


def _small_ratfunc(rng, K):
    return random_ratfunc(rng, K, max_terms=2, max_exp=1)


def _prime_field_const(rng, K):
    return K.from_int(rng.randrange(K.p))


def _norm_inverse_cases():
    """(ring, bottom-field coefficients, number of units) for the cross-check."""
    for p in (2, 3, 5, 7):
        K = FunctionField(p, ["t"])
        yield SimpleExtensionField(K, K.gen("t")), _small_ratfunc, 3
    K2 = FunctionField(2, ["s", "t"])
    yield extension_tower(K2, K2.gens()), _small_ratfunc, 3
    # over F_3(s,t) the matrix reference meets the bivariate gcd cliff on
    # rational coefficients (tens of seconds for one element), so these are in F_3
    K3 = FunctionField(3, ["s", "t"])
    yield extension_tower(K3, K3.gens()), _prime_field_const, 2
    for p in (3, 5):
        K = FunctionField(p, ["t"])
        yield TruncSeriesRing(SimpleExtensionField(K, K.gen("t")), p - 1), _small_ratfunc, 3


def test_norm_inverse_matches_the_matrix_inverse():
    rng = seeded(1212)
    for ring, bottom, count in _norm_inverse_cases():
        units = []
        while len(units) < count:
            a = _random_elem(rng, ring, bottom)
            if a.coeffs[0]:  # a unit in every ring here
                units.append(a)
        for a in units:
            inv = a.inverse()
            assert a * inv == ring.one(), (ring, a)
            assert inv == _matrix_inverse(a), (ring, a)
        with pytest.raises(ZeroDivisionError):
            ring.zero().inverse()
        # the generator has zero constant term: a non-unit of the series ring only
        y = ring.gen()
        if isinstance(ring, TruncSeriesRing):
            with pytest.raises(ZeroDivisionError):
                y.inverse()
        else:
            assert y * y.inverse() == ring.one()

from insep.fieldarith import FunctionField, MultiPoly, parse_expr, poly_gcd

from conftest import random_poly, random_nonzero_poly, seeded


def P(expr, field):
    f = parse_expr(expr, field)
    assert f.den.is_one()
    return f.num


def test_ring_axioms_on_random_polynomials(K3st):
    rng = seeded(101)
    for _ in range(200):
        a = random_poly(rng, K3st, max_terms=4, max_exp=3)
        b = random_poly(rng, K3st, max_terms=4, max_exp=3)
        c = random_poly(rng, K3st, max_terms=4, max_exp=3)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_gcd_char2_freshman_dream(K2st):
    a = P("s^2+t^2", K2st)
    b = P("s+t", K2st)
    assert poly_gcd(a, b) == b  # s^2+t^2 = (s+t)^2 in char 2


def test_gcd_identity_case(K2st):
    f = P("s*t+t^2", K2st)
    zero = MultiPoly.zero(2, K2st.vars)
    assert poly_gcd(f, zero) == f.monic()
    assert poly_gcd(zero, zero).is_zero()


def test_gcd_derived_example(K2st):
    # st + s = s(t+1) and t^2 + 1 = (t+1)^2 over F_2, so the gcd is t+1
    a = P("s*t+s", K2st)
    b = P("t^2+1", K2st)
    assert poly_gcd(a, b) == P("t+1", K2st)


def test_gcd_divides_and_cofactors_coprime(K2st, K3st):
    rng = seeded(202)
    for field in (K2st, K3st):
        for _ in range(120):
            g = random_nonzero_poly(rng, field)
            a = random_nonzero_poly(rng, field) * g
            b = random_nonzero_poly(rng, field) * g
            d = poly_gcd(a, b)
            qa = a.try_divide(d)
            qb = b.try_divide(d)
            assert qa is not None and qb is not None
            assert poly_gcd(qa, qb).is_one()


def test_gcd_leading_coefficient_is_one(K3st):
    rng = seeded(303)
    for _ in range(60):
        a = random_nonzero_poly(rng, K3st)
        b = random_nonzero_poly(rng, K3st)
        d = poly_gcd(a, b)
        assert d.leading_coeff() == 1


def test_pth_root_and_stretch(K3st):
    assert P("s*t+2*s", K3st).stretch_exponents(3) == P("s^3*t^3+2*s^3", K3st)


def test_derivative():
    K = FunctionField(3, ["t"])
    f = P("t^4+2*t^3+t", K)
    assert f.derivative(0) == P("t^3+1", K)  # 4t^3 + 6t^2 + 1 = t^3 + 1 mod 3

import time

from insep.fieldarith import FunctionField, MultiPoly, parse_expr, poly_gcd
from insep.fieldarith.parser import MAX_POWER_DEGREE

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


VARIABLE_NAMES = ("s", "t", "u", "v")


def assert_canonical(f, field):
    """Coefficients are ints in 1..p-1, keys are tuples of length n, and the
    checking constructor gives back the same polynomial."""
    p, n = field.p, len(field.vars)
    assert f.p == p and f.vars == field.vars
    for expo, c in f.terms.items():
        assert type(c) is int and 1 <= c <= p - 1
        assert type(expo) is tuple and len(expo) == n
        assert all(type(k) is int and k >= 0 for k in expo)
    assert f == MultiPoly(p, field.vars, dict(f.terms))


def kernel_fields():
    for p in (2, 3, 5, 7):
        for n in range(1, 5):
            yield FunctionField(p, VARIABLE_NAMES[:n])


def test_arithmetic_results_are_canonical():
    """Every result the kernel builds without checking is what the checking
    constructor would build from its terms."""
    rng = seeded(1111)
    for field in kernel_fields():
        p, n = field.p, len(field.vars)
        for _ in range(25):
            a = random_poly(rng, field, max_terms=4, max_exp=3)
            b = random_poly(rng, field, max_terms=4, max_exp=3)
            c = rng.randrange(-p, 2 * p)
            results = [a + b, a - b, a - a, -a, a * b, a.scale(c), a ** rng.randrange(0, 2 * p + 2),
                       a.stretch_exponents(p ** rng.randrange(0, 3)), poly_gcd(a, b), poly_gcd(a * b, b)]
            results += [a.derivative(i) for i in range(n)]
            if b:
                results += [q for q in (a.try_divide(b), (a * b).try_divide(b)) if q is not None]
            for f in results:
                assert_canonical(f, field)
            assert (a + (-a)).is_zero() and a - b == a + (-b)
            if b:
                assert (a * b).try_divide(b) == a


def test_power_equals_repeated_product():
    rng = seeded(1212)
    for field in kernel_fields():
        a = random_poly(rng, field, max_terms=3, max_exp=2)
        product = MultiPoly.const(field.p, field.vars, 1)
        for n in range(2 * field.p + 3):
            assert a ** n == product
            product = product * a


def test_try_divide_matches_sympy_division():
    """try_divide returns the quotient exactly when sympy's remainder over GF(p)
    is zero, on exact and on inexact pairs."""
    import sympy

    rng = seeded(1313)
    exact = inexact = 0
    for field in kernel_fields():
        gens = sympy.symbols(field.vars)

        def to_sympy(f):
            return sympy.Poly.from_dict(dict(f.terms), *gens, modulus=field.p)

        for _ in range(12):
            b = random_nonzero_poly(rng, field, max_terms=3, max_exp=2)
            for a in (random_poly(rng, field, max_terms=4, max_exp=3) * b,
                      random_poly(rng, field, max_terms=4, max_exp=3)):
                q, r = sympy.div(to_sympy(a), to_sympy(b))
                got = a.try_divide(b)
                if r.is_zero:
                    exact += 1
                    assert got is not None and to_sympy(got) == q
                else:
                    inexact += 1
                    assert got is None
    assert exact > 100 and inexact > 100


def test_capped_power_is_fast_and_equals_the_repeated_product():
    """A dense quadratic in four variables to the 16th over F_3 sits at the
    parser's cap; base-3 digits make it one small product per digit."""
    K = FunctionField(3, VARIABLE_NAMES)
    base = "s^2+t^2+u^2+v^2+s*t+s*u+s*v+t*u+t*v+u*v+s+t+u+v+1"
    assert 16 * 2 == MAX_POWER_DEGREE
    start = time.perf_counter()
    f = parse_expr("(%s)^16" % base, K)
    assert time.perf_counter() - start < 1.0
    g = P(base, K)
    product = g
    for _ in range(15):
        product = product * g
    assert f.den.is_one() and f.num == product
    assert len(product.terms) == 8475

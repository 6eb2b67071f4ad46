import pytest

from insep.fieldarith import MultiPoly, RatFunc, parse_expr, poly_gcd

from conftest import random_nonzero_poly, random_nonzero_ratfunc, random_ratfunc, seeded


def test_char2_cancellation(K2st):
    t = K2st.gen("t")
    one_t = K2st.one() / t
    assert (one_t + one_t).is_zero()


def test_multiplicative_inverse(K2st):
    s, t = K2st.gens()
    assert ((s / t) * (t / s)).is_one()


def test_derived_sum_over_f3(K3st):
    lhs = K3st.one() / parse_expr("s+t", K3st) + K3st.one() / parse_expr("s*t", K3st)
    rhs = parse_expr("(s*t+s+t)/(s*t*(s+t))", K3st)
    assert lhs == rhs


def test_division_by_zero(K2st):
    with pytest.raises(ZeroDivisionError):
        K2st.one() / K2st.zero()
    with pytest.raises(ZeroDivisionError):
        RatFunc(K2st.one().num, K2st.zero().num)


def test_elements_of_one_ring_share_one_field(K3st):
    s, t = K3st.gens()
    assert (s + t).field() is (s * t).inverse().field()


def test_field_axioms_random(K3st):
    rng = seeded(404)
    for _ in range(150):
        a = random_ratfunc(rng, K3st)
        b = random_ratfunc(rng, K3st)
        c = random_ratfunc(rng, K3st)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if b:
            assert (a / b) * b == a


def test_canonical_form_idempotent(K2st, K3st):
    rng = seeded(505)
    for field in (K2st, K3st):
        for _ in range(150):
            f = random_ratfunc(rng, field)
            again = RatFunc(f.num, f.den)
            assert again.num == f.num and again.den == f.den
            assert poly_gcd(f.num, f.den).is_one() or f.is_zero()
            assert f.den.leading_coeff() == 1


def _cross_equals(a, b):
    """Equality by cross-multiplication: a/b = c/d iff ad = bc."""
    return (a.num * b.den) == (b.num * a.den)


def test_cross_multiplication_agrees_with_structural_equality(K2st, K3st):
    rng = seeded(606)
    checked = 0
    for field in (K2st, K3st):
        for _ in range(260):
            a = random_ratfunc(rng, field)
            b = random_ratfunc(rng, field)
            assert (a == b) == _cross_equals(a, b)
            checked += 1
            # unreduced presentations of the same value compare equal
            scale = random_nonzero_ratfunc(rng, field)
            c = RatFunc(a.num * scale.num, a.den * scale.num)
            assert c == a and _cross_equals(a, c)
            checked += 1
    assert checked >= 500


def test_power_makes_no_product_with_one(K3st, monkeypatch):
    """(a/b)^n is a^n / b^n: a power per base-3 digit of n on each side, no product with 1.

    5 is 12 in base 3, so each side of f^5 is x^2 * x(t^3): two products."""
    f = parse_expr("(s+t)/(s*t+1)", K3st)
    expected = {2: f * f, 5: f * f * f * f * f}
    side = {f.num ** k: "num" for k in range(1, 5)}
    side.update({f.den ** k: "den" for k in range(1, 5)})
    products = []
    mul = MultiPoly.__mul__

    def counting_mul(a, b):
        products.append(side[a])
        return mul(a, b)

    monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
    for n, count in ((2, 1), (5, 2)):
        products.clear()
        assert f ** n == expected[n]
        assert sorted(products) == ["den"] * count + ["num"] * count
    products.clear()
    assert f ** 0 == K3st.one() and f ** 1 == f and not products
    monkeypatch.undo()
    assert f ** -2 == expected[2].inverse()


def test_product_with_minus_one_is_a_negation(K3st, monkeypatch):
    f = parse_expr("(s+t)/(s*t+1)", K3st)
    minus_one = K3st.from_int(-1)
    expected = parse_expr("(-s-t)/(s*t+1)", K3st)
    products = []
    mul = MultiPoly.__mul__

    def counting_mul(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
    assert f * minus_one == expected == minus_one * f
    assert minus_one * minus_one == K3st.one()
    assert not products


def test_formatting_reparses(K3st):
    rng = seeded(707)
    for _ in range(100):
        f = random_ratfunc(rng, K3st)
        assert parse_expr(f.format(), K3st) == f


VARIABLES = ("s", "t", "u", "w")


def _sympy_gcd(a, b):
    """The monic gcd of a and b computed by sympy over GF(p), as a MultiPoly."""
    import sympy

    symbols = sympy.symbols(a.vars)
    # copies: from_dict converts the values of the dict it is given in place
    g = sympy.gcd(sympy.Poly.from_dict(dict(a.terms), *symbols, modulus=a.p),
                  sympy.Poly.from_dict(dict(b.terms), *symbols, modulus=a.p))
    return MultiPoly(a.p, a.vars, {m: int(c) for m, c in g.terms()}).monic()


def test_gcd_and_canonical_form_against_sympy():
    """poly_gcd agrees with sympy's gcd over GF(p) up to a unit, and RatFunc keeps
    a coprime numerator and denominator with a monic denominator."""
    from insep.fieldarith import FunctionField

    rng = seeded(4242)
    for p in (2, 3, 5, 7):
        K = FunctionField(p, ["s", "t"])
        for _ in range(12):
            common = _nonconstant_poly(rng, K)
            a = common * random_nonzero_poly(rng, K)
            b = common * random_nonzero_poly(rng, K)
            assert poly_gcd(a, b) == _sympy_gcd(a, b)
            f = RatFunc(a, b)
            assert f.num * b == f.den * a
            assert _sympy_gcd(f.num, f.den).is_one()
            assert f.den.leading_coeff() == 1


def _nonconstant_poly(rng, K):
    while True:
        poly = random_nonzero_poly(rng, K)
        if not poly.is_constant():
            return poly


def test_gcd_stages_against_sympy(monkeypatch):
    """Coprime pairs, pairs where one operand divides the other, and pairs with a
    planted common factor, in one to four variables: poly_gcd equals sympy's monic
    gcd, and the coprime and dividing pairs never reach the subresultant PRS."""
    from insep.fieldarith import FunctionField, multipoly

    # the PRS steps taken by the outermost _gcd; the gcds of coefficients that its
    # stages ask for may have proper common factors and reach the PRS themselves
    nesting, outer_prs = [], []
    gcd, pseudo_rem = multipoly._gcd, multipoly._pseudo_rem

    def nested_gcd(a, b):
        nesting.append(None)
        try:
            return gcd(a, b)
        finally:
            nesting.pop()

    def outer_pseudo_rem(*args):
        if len(nesting) == 1:
            outer_prs.append(args)
        return pseudo_rem(*args)

    monkeypatch.setattr(multipoly, "_gcd", nested_gcd)
    monkeypatch.setattr(multipoly, "_pseudo_rem", outer_pseudo_rem)
    rng = seeded(2020)
    for p in (2, 3, 5, 7):
        for n in range(1, 5):
            K = FunctionField(p, VARIABLES[:n])
            for kind in ("coprime", "divides", "common factor") * 2:
                a = _nonconstant_poly(rng, K)
                b = _nonconstant_poly(rng, K)
                if kind == "divides":
                    a, b = a, a * b
                elif kind == "common factor":
                    common = _nonconstant_poly(rng, K)
                    a, b = a * common, b * common
                elif not _sympy_gcd(a, b).is_one():
                    continue
                outer_prs.clear()
                assert poly_gcd(a, b) == _sympy_gcd(a, b), (kind, a, b)
                assert poly_gcd(b, a) == _sympy_gcd(a, b), (kind, a, b)
                if kind != "common factor":
                    assert not outer_prs, (kind, a, b)


def _minimal_polynomial_of_alpha(K):
    """The primitive polynomial of the evaluation field F_q, in the first variable
    of K: it vanishes at alpha, the first coordinate of the first point."""
    from insep.fieldarith import multipoly

    low = multipoly._PRIMITIVE[K.p]
    s = K.gen(K.vars[0]).num
    powers = [s ** i for i in range(len(low) + 1)]
    total = powers[-1]
    for c, power in zip(low, powers):
        total = total + power.scale(c)
    return total


def test_gcd_skips_an_evaluation_point_that_kills_a_leading_coefficient():
    """A common factor G whose image at the first point is the constant 1: taken
    there, the images would be coprime and certify a wrong gcd."""
    from insep.fieldarith import FunctionField, multipoly

    for p in (2, 3, 5, 7):
        K = FunctionField(p, ["s", "t"])
        s, t = (K.gen(x).num for x in K.vars)
        one = MultiPoly.const(p, K.vars, 1)
        common = _minimal_polynomial_of_alpha(K) * t + one
        a = common * (t + s)
        b = common * (t + one)
        # at the first point, s = alpha, the leading t-coefficients vanish
        assert multipoly._image(common, 1, [1, 0]) == [1, 0]
        assert multipoly._image_gcd_degree(a, b, 1) == 1
        assert poly_gcd(a, b) == _sympy_gcd(a, b) == common.monic()


def test_gcd_of_a_coprime_pair_with_a_common_factor_at_the_first_point():
    from insep.fieldarith import FunctionField, multipoly

    for p in (2, 3, 5, 7):
        K = FunctionField(p, ["s", "t"])
        s, t = (K.gen(x).num for x in K.vars)
        a = t + s
        b = t + s + _minimal_polynomial_of_alpha(K)
        # both images at s = alpha are t + alpha, so there is no certificate in t
        assert multipoly._image_gcd_degree(a, b, 1) == 1
        assert poly_gcd(a, b) == _sympy_gcd(a, b)
        assert poly_gcd(a, b).is_one()


def test_evaluation_field_tables_come_from_a_primitive_polynomial():
    from insep.fieldarith import multipoly

    for p in (2, 3, 5, 7):
        exp, log, zech = multipoly._fq_tables(p)
        q = len(log)
        assert sorted(exp[:q - 1]) == list(range(1, q))  # alpha generates F_q^*
        assert all(log[exp[i]] == i for i in range(q - 1))
        assert zech.count(-1) == 1  # 1 + alpha^n = 0 only for alpha^n = -1


def test_henrici_arithmetic_matches_the_schoolbook_fraction_reduced_once():
    """Every operation equals the schoolbook num/den reduced by one gcd at the end,
    and sympy over GF(p) finds the result coprime with a monic denominator."""
    import sympy

    from insep.fieldarith import FunctionField

    s, t = sympy.symbols("s t")

    def to_sympy(f):
        return sympy.Poly.from_dict(dict(f.terms), s, t, modulus=f.p)

    rng = seeded(1010)
    for p in (2, 3, 5, 7):
        K = FunctionField(p, ["s", "t"])
        for _ in range(200):
            x = random_ratfunc(rng, K)
            y = random_ratfunc(rng, K)
            a, b, c, d = x.num, x.den, y.num, y.den
            cases = [(x + y, a * d + c * b, b * d),
                     (x - y, a * d - c * b, b * d),
                     (x * y, a * c, b * d)]
            if y:
                cases += [(x / y, a * d, b * c), (y.inverse(), d, c)]
            cases += [(x ** n, a ** n, b ** n) for n in range(3)]
            cubes_and_up = [(x ** n, a ** n, b ** n) for n in range(3, 6)]
            for got, num, den in cases + cubes_and_up:
                assert got == RatFunc(num, den)
                assert got.den.leading_coeff() == 1
            # sympy is slow on the degree-10 operands of the higher powers, and
            # a^n, b^n are coprime when a, b are (the n = 1 case)
            for got, _, _ in cases:
                if got:
                    assert sympy.gcd(to_sympy(got.num), to_sympy(got.den)).is_ground


def test_shared_constants_stay_constant(K2st, K3st):
    """A field hands out one zero and one one; arithmetic with them as operands
    leaves them equal to the constants built from scratch."""
    rng = seeded(1414)
    for K in (K2st, K3st):
        assert K.zero() is K.zero() and K.one() is K.one()
        zero = RatFunc(MultiPoly(K.p, K.vars, {}))
        one = RatFunc(MultiPoly(K.p, K.vars, {(0,) * len(K.vars): 1}))
        for _ in range(100):
            x = random_ratfunc(rng, K)
            c = rng.choice([K.zero(), K.one()])
            results = [x + c, c + x, x - c, c - x, -c, x * c, c * x, c ** rng.randrange(0, 4),
                       K.one() / K.one(), K.zero() / K.one(), c + c, c * c]
            if x:
                results += [c / x, x ** -1, K.one() / x]
            if c:
                results.append(x / c)
            assert all(isinstance(r, RatFunc) for r in results)
            assert x * K.one() == x and x + K.zero() == x and (x * K.zero()).is_zero()
        assert K.zero() == zero and K.one() == one
        assert K.zero().den.is_one() and K.zero().num.is_zero() and K.one().num.is_one()

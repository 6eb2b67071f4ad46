"""Powers by base-p digits and the Frobenius substitution against plain
square-and-multiply, powers in the conductor ring O_A, and the exact checks that
compare p-th powers."""

import pytest

from insep.curves import (ConductorRing, CurveNormalForm, NormalizationMap, normal_form,
                          normalization, singular_point)
from insep.fieldarith import (
    FunctionField,
    MultiPoly,
    RatFunc,
    SimpleExtensionField,
    extension_tower,
    parse_expr,
    power,
)
from insep.upoly import UPoly

from conftest import random_poly, random_ratfunc, seeded


def assert_matches_square_and_multiply(a, p, one):
    for n in range(p * p + p + 2):
        assert a ** n == power(a, n, one), n


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_extension_power_matches_square_and_multiply(p):
    rng = seeded(p)
    K = FunctionField(p, ["t"])
    L = SimpleExtensionField(K, K.gen("t"))
    if p <= 3:
        coeffs = [random_ratfunc(rng, K, max_terms=2, max_exp=1) for _ in range(p)]
    else:
        # constant coefficients keep the square-and-multiply reference small
        coeffs = [K.from_int(rng.randrange(p)) for _ in range(p - 1)] + [K.one()]
    a = L.from_coeffs(coeffs)
    assert a.frobenius() == a * a ** (p - 1)
    assert a.frobenius().in_base()
    assert_matches_square_and_multiply(a, p, L.one())


def test_two_level_tower_power_matches_square_and_multiply():
    rng = seeded(31)
    K = FunctionField(3, ["s", "t"])
    s, t = K.gens()
    T = extension_tower(K, [s, t])
    M = T.base
    # coefficients in F_3 or polynomials only: rational ones stall the tower's gcds
    bottom = [K.from_int(2), RatFunc(random_poly(rng, K, 2, 1)), s + t, K.one(),
              K.zero(), RatFunc(random_poly(rng, K, 2, 1)), t, K.from_int(1), s]
    a = T.from_coeffs([M.from_coeffs(bottom[3 * i:3 * i + 3]) for i in range(3)])
    assert a.frobenius().in_base()
    assert_matches_square_and_multiply(a, 3, T.one())


def assert_conductor_powers(ring, a):
    """Square-and-multiply in O_A against repeated products, and a^p = a_0^p, the
    K-scalar that the inverse divides by: x^p = lambda and u^(p-1) = 0."""
    p, L = ring.p, ring.L
    repeated = ring.one
    for n in range(2 * p + 2):
        assert power(a, n, ring.one, ring.mul) == repeated, n
        repeated = ring.mul(repeated, a)
    a_0 = L.from_coeffs([a.get(i, ring.K.zero()) for i in range(p)])
    assert power(a, p, ring.one, ring.mul) == ring.lift(a_0.frobenius())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_series_power_matches_square_and_multiply(p):
    rng = seeded(40 + p)
    K = FunctionField(p, ["t"])
    ring = ConductorRing(SimpleExtensionField(K, K.gen("t"), gen_name="x"))
    if p <= 3:
        a = {c: random_ratfunc(rng, K, max_terms=2, max_exp=1) + K.one()
             for c in range(ring.dim_K)}
    else:
        # constant coefficients keep the repeated products small
        a = {c: K.from_int(rng.randrange(1, p)) for c in range(ring.dim_K)}
    assert_conductor_powers(ring, {c: x for c, x in a.items() if x})


def test_series_over_extension_power_matches_square_and_multiply():
    K = FunctionField(3, ["t"])
    ring = ConductorRing(SimpleExtensionField(K, K.gen("t"), gen_name="x"))
    x = ring.L.gen()
    # (x + 1) + x^2 u, with (x + 1)^3 = t + 1
    a = {**ring.lift(x + ring.L.one()), 1 * 3 + 2: K.one()}  # u x^2 at index 1 p + 2
    assert_conductor_powers(ring, a)
    assert power(a, 3, ring.one, ring.mul) == {0: K.gen("t") + K.one()}


@pytest.mark.parametrize("p", [2, 3])
def test_upoly_power_matches_square_and_multiply_over_k_and_l(p):
    rng = seeded(50 + p)
    K = FunctionField(p, ["s", "t"])
    L = SimpleExtensionField(K, K.gen("t"))
    x = L.gen()
    over_k = UPoly(K, 3, {(1, 0, 0): random_ratfunc(rng, K, 2, 1) + K.one(),
                          (0, 1, 0): K.gen("s"), (0, 0, 1): K.one()})
    over_l = UPoly(L, 3, {(1, 0, 0): x, (0, 1, 0): L.lift(K.gen("s")) + x,
                          (1, 0, 1): L.one()})
    for g in (over_k, over_l):
        one = UPoly(g.field, 3, {(0, 0, 0): g.field.one()})
        assert_matches_square_and_multiply(g, p, one)


def test_upoly_evaluate_matches_term_by_term_products():
    K = FunctionField(3, ["t"])
    L = SimpleExtensionField(K, K.gen("t"), gen_name="x")
    x = L.gen()
    g = UPoly(K, 2, {(3, 0): K.gen("t"), (2, 1): K.one(), (0, 3): K.from_int(2)})
    values = (x + L.one(), x * x)
    expected = L.zero()
    for (i, j), c in g.terms.items():
        term = L.lift(c)
        for _ in range(i):
            term = term * values[0]
        for _ in range(j):
            term = term * values[1]
        expected = expected + term
    assert g.evaluate(values, L.one(), embed_coeff=L.lift) == expected
    assert UPoly.zero(K, 2).evaluate(values, L.one(), embed_coeff=L.lift) == L.zero()


def test_negative_powers_raise():
    K = FunctionField(3, ["t"])
    L = SimpleExtensionField(K, K.gen("t"))
    with pytest.raises(ValueError):
        L.gen() ** -1
    with pytest.raises(ValueError):
        UPoly.from_power_form(K, [K.one(), K.gen("t")], 1) ** -1
    with pytest.raises(ValueError):
        MultiPoly.variable(3, ("t",), "t") ** -1


def curve_nf():
    K = FunctionField(3, ["s", "t"])
    return normal_form(K, *[parse_expr(e, K) for e in ("t", "1+s^3*t^2", "1")])


def test_normalization_rejects_a_wrong_q_root(monkeypatch):
    nf = curve_nf()
    true_q = CurveNormalForm.q_of_lambda
    normalization(nf)
    # a Q(lambda) off by one: the q_root built from the root coefficients misses it,
    # so the pulled-back equation does not vanish
    monkeypatch.setattr(CurveNormalForm, "q_of_lambda",
                        lambda self: true_q(self) + self.field.one())
    with pytest.raises(AssertionError, match="pullback"):
        normalization(nf)


def test_singular_point_rejects_a_shifted_image_point(monkeypatch):
    nf = curve_nf()
    true_images = NormalizationMap.images
    singular_point(nf)

    def images(self):
        # T_1 added to the pullback of U_2 moves the image point off X
        u0, u1, (a, b) = true_images(self)
        return u0, u1, (a, b + self.line_field.one())

    monkeypatch.setattr(NormalizationMap, "images", images)
    with pytest.raises(AssertionError, match="misses a singular-ideal generator"):
        singular_point(nf)


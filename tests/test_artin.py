from itertools import product

import pytest

from insep import artin
from insep.artin import (
    ArtinError,
    DimensionOverflowError,
    FiniteLocalAlgebra,
    InvalidPresentationError,
    NotLocalError,
    adjoin_root,
    edim,
    tensor_self,
    truncated_polynomial_algebra,
)
from insep.fieldarith import FunctionField, PrimeField, extension_tower, parse_expr

from conftest import seeded

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def test_edim_of_field_is_zero():
    assert edim(truncated_polynomial_algebra(F3, [])).edim == 0


def test_edim_principal_ideal():
    A = truncated_polynomial_algebra(F2, [3])
    report = edim(A)
    assert report.edim == 1
    assert report.dim_total == 3
    assert report.residue_dim == 1


def test_edim_two_generators():
    A = truncated_polynomial_algebra(F3, [2, 2])
    assert edim(A).edim == 2


def test_not_local_rejected():
    # k x k presented with the idempotent (0,1): e*e = e is not nilpotent
    one, zero = F2.one(), F2.zero()
    table = [[{0: one}, {1: one}], [{1: one}, {1: one}]]
    with pytest.raises(NotLocalError):
        FiniteLocalAlgebra(F2, 2, table, [[zero, one]])


def test_one_non_nilpotent_generator_rejected():
    # k[x]/(x^2) x k with basis 1, (x, 0), (0, 1): the ideal (x, (0, 1)) has
    # quotient k, but its generator (0, 1) is idempotent, not nilpotent
    one, zero = F3.one(), F3.zero()
    split = [[{0: one}, {1: one}, {2: one}], [{1: one}, {}, {}], [{2: one}, {}, {2: one}]]
    x, e = [zero, one, zero], [zero, zero, one]
    # and in F_3[u]/(u^3) the unit 1 + u, which unlike e is not idempotent
    A = truncated_polynomial_algebra(F3, [3])
    u, unit = A.basis_vec(1), [1, 1, 0]
    for table, gens in [(split, [x, e]), (split, [e, x]), (A.table, [unit]), (A.table, [u, unit])]:
        with pytest.raises(NotLocalError, match="designated ideal is not nilpotent"):
            FiniteLocalAlgebra(F3, 3, table, gens)


@pytest.mark.parametrize("field, n", [(F3, 3), (F5, 5), (F2, 6), (F3, 7)])
def test_nilpotency_index_equal_to_the_dimension_accepted(field, n):
    # u in k[u]/(u^n) has nilpotency index n = dim: u^(n-1) != 0 = u^n; repeated
    # squaring skips u^n when n is not a power of two and stops at a higher power
    A = truncated_polynomial_algebra(field, [n])
    report = edim(FiniteLocalAlgebra(field, n, A.table, [A.basis_vec(1)]))
    assert (report.dim_total, report.dim_m, report.dim_m_sq, report.edim) == (n, n - 1, n - 2, 1)


def test_adjoin_root_at_the_dimension_cap():
    R = truncated_polynomial_algebra(F2, [8])
    u = R.basis_vec(1)
    report = edim(adjoin_root(R, [a + b for a, b in zip(R.one_vec(), u)], 6))
    assert (report.dim_total, report.dim_m, report.dim_m_sq, report.edim) == (512, 511, 509, 2)


def test_tensor_square_edim_equals_pdegree():
    presentations = [
        (FunctionField(2, ["s", "t"]), ["s", "t"], 2),     # K^(1/2) over F2(s,t)
        (FunctionField(2, ["s", "t"]), ["s"], 1),
        (FunctionField(2, ["s", "t"]), ["s*t"], 1),
        (FunctionField(3, ["s", "t"]), ["s", "t"], 2),
        (FunctionField(3, ["s", "t"]), ["t"], 1),
        (FunctionField(2, ["s", "t", "u"]), ["s", "t", "u"], 3),
        (FunctionField(2, ["s", "t", "u"]), ["s+t", "u"], 2),
        (FunctionField(2, ["s", "t"]), [], 0),
    ]
    for field, exprs, expected in presentations:
        powers = [parse_expr(e, field) for e in exprs]
        algebra = tensor_self(field, powers)
        report = edim(algebra)
        assert report.edim == expected
        assert report.dim_total == field.p ** expected
        assert report.residue_dim == 1


def test_tensor_square_presentation_independence():
    # K^2(s, t) = K^2(s*t, t): two presentations of the same height-one field
    K = FunctionField(2, ["s", "t"])
    s, t = K.gens()
    for moduli in ([s, t], [s * t, t], [s, s * t]):
        assert edim(tensor_self(K, moduli)).edim == 2


def _direct_tensor_square(K):
    # L (x)_K L for L = K(t^(1/2)) built directly over K with basis 1, x, y, xy
    # (x^2 = y^2 = t)
    t = K.gen("t")
    one, zero = K.one(), K.zero()
    table = [
        [{0: one}, {1: one}, {2: one}, {3: one}],
        [{1: one}, {0: t}, {3: one}, {2: t}],
        [{2: one}, {3: one}, {0: t}, {1: t}],
        [{3: one}, {2: t}, {1: t}, {0: t * t}],
    ]
    nilpotent = [zero, one, one, zero]  # x - y, squaring to zero in char 2
    return FiniteLocalAlgebra(K, 4, table, [nilpotent])


def test_tensor_square_agrees_with_direct_k_algebra():
    # the residue field is L, and edim must still be 1
    K = FunctionField(2, ["t"])
    t = K.gen("t")
    A = _direct_tensor_square(K)
    report = edim(A)
    assert report.residue_dim == 2
    assert report.edim == 1
    # and the L-algebra route gives the same embedding dimension
    assert edim(tensor_self(K, [t])).edim == 1


def test_residue_minimal_polynomials_vanish():
    # A/m = K(t^(1/2)), of dimension 2 over K: the minimal polynomial of each
    # basis element is monic and vanishes on it; one element lies in K, and the
    # other is a multiple of the square root of t, with minimal polynomial T^2 - c
    K = FunctionField(2, ["t"])
    residue = _direct_tensor_square(K)._residue
    polys = []
    for i in range(residue.q):
        theta = tuple(K.one() if j == i else K.zero() for j in range(residue.q))
        poly = residue.minpoly(theta)
        value = [K.zero()] * residue.q
        for j, c in enumerate(poly):
            value = [v + c * x for v, x in zip(value, residue.pow(theta, j))]
        assert poly[-1] == K.one() and not any(value)
        polys.append(poly)
    linear, quadratic = sorted(polys, key=len)
    assert len(linear) == 2 and len(quadratic) == 3 and quadratic[1] == K.zero()


def test_tensor_square_rejects_pth_powers():
    K = FunctionField(2, ["s", "t"])
    s, t = K.gens()
    with pytest.raises(InvalidPresentationError):
        tensor_self(K, [s * s])
    with pytest.raises(InvalidPresentationError):
        tensor_self(K, [t, s * s * t])  # dependent: s^2 t lies in K^2(t)


def test_adjoin_root_examples():
    # F3[T]/(T^3 - 1) = F3[T]/((T-1)^3)
    R = truncated_polynomial_algebra(F3, [])
    assert edim(adjoin_root(R, R.one_vec(), 1)).edim == 1
    # F2[u]/(u^2) with T^2 = u^2: edim 1 + 1
    R = truncated_polynomial_algebra(F2, [2])
    assert edim(adjoin_root(R, R.basis_vec(1), 1)).edim == 2
    # F2[T]/(T^4)
    R = truncated_polynomial_algebra(F2, [])
    assert edim(adjoin_root(R, R.zero_vec(), 2)).edim == 1


def test_adjoin_root_over_function_field_grows_residue():
    K = FunctionField(2, ["t"])
    R = truncated_polynomial_algebra(K, [])
    A = adjoin_root(R, [K.gen("t")], 2)
    report = edim(A)
    assert report.edim == 1
    assert report.residue_dim == 2  # K(t^(1/2)) appears as the new residue field


def test_adjoin_root_dimension_cap():
    R = truncated_polynomial_algebra(F2, [4, 4, 4])  # dim 64
    for r in (4, 10 ** 5):  # 2^(10^5) has too many digits to format
        with pytest.raises(DimensionOverflowError):
            adjoin_root(R, R.zero_vec(), r)


def test_dimension_cap_is_checked_before_any_table(monkeypatch):
    def build(*args):
        raise AssertionError("a table was built past the dimension cap")

    monkeypatch.setattr(artin, "_adjunction_table", build)
    monkeypatch.setattr(artin, "extension_tower", build)
    for exponents in ([1000, 1000], [10 ** 4000] * 2):  # dim 10^6, and one of 8001 digits
        with pytest.raises(DimensionOverflowError):
            truncated_polynomial_algebra(F2, exponents)
    K = FunctionField(7, ["s", "t", "u", "v"])
    with pytest.raises(DimensionOverflowError):
        tensor_self(K, K.gens())  # dim 7^4 = 2401


def test_an_exponent_below_one_is_an_artin_error(monkeypatch):
    def build(*args):
        raise AssertionError("a table was built for an exponent below 1")

    monkeypatch.setattr(artin, "_adjunction_table", build)
    for exponents, message in (([2, 0], "exponent a_2 = 0 of u_2"), ([0], "a_1 = 0"),
                               ([3, 2, -1], "a_3 = -1")):
        with pytest.raises(ArtinError, match=message):
            truncated_polynomial_algebra(F2, exponents)


def _entry(algebra, x, y):
    """e_x e_y as a dict of its nonzero coefficients, reduced in the algebra's field."""
    entry = algebra.table[x][y]
    return {m: c for m, c in zip(entry, algebra.reduce(entry.values())) if c}


def _triple_difference(algebra, x, y, z):
    """(e_x e_y) e_z - e_x (e_y e_z), summed term by term in the algebra's field, as a
    dict of its nonzero coefficients."""
    table, zero, diff = algebra.table, algebra.field.zero(), {}
    for m, c in table[x][y].items():
        for k, d in table[m][z].items():
            diff[k] = diff.get(k, zero) + c * d
    for m, c in table[y][z].items():
        for k, d in table[x][m].items():
            diff[k] = diff.get(k, zero) - c * d
    return {k: v for k, v in zip(diff, algebra.reduce(diff.values())) if v}


def _assert_ring_axioms(algebra):
    """Brute force over the basis: e_0 is the identity, the table is commutative, and
    (e_x e_y) e_z = e_x (e_y e_z) for every triple."""
    n, one = algebra.dim, algebra.field.one()
    for x in range(n):
        assert _entry(algebra, 0, x) == {x: one}, (algebra, x)
        for y in range(x + 1, n):
            assert _entry(algebra, x, y) == _entry(algebra, y, x), (algebra, x, y)
    for x, y, z in product(range(n), repeat=3):
        assert not _triple_difference(algebra, x, y, z), (algebra, x, y, z)


def test_builders_make_commutative_associative_rings_with_identity():
    K = FunctionField(2, ["s", "t"])
    s, t = K.gens()
    tower = extension_tower(K, [s])  # F_2(s,t)(s^(1/2))
    algebras = [truncated_polynomial_algebra(field, exponents)
                for field, exponents in [(F2, [2, 1, 3]), (F2, [4, 2]), (F3, [3, 2]),
                                         (F3, [1, 2, 2]), (F5, [5]), (F5, [2, 3]),
                                         (tower, [2, 1, 3]), (tower, [4])]]
    algebras.append(tensor_self(K, [s, t]))
    rng = seeded(8191)
    for field, shape, r in [(F2, [2], 2), (F2, [2, 2], 1), (F3, [3], 1), (F3, [2, 2], 1),
                            (F5, [2], 1), (F5, [3], 1)]:
        R = truncated_polynomial_algebra(field, shape)
        algebras.append(adjoin_root(R, _random_element(rng, R), r))
    # the benchmark's largest shape: F_2[u_1..u_4]/(u_i^2) with T^4 = f^2, dim 64
    R = truncated_polynomial_algebra(F2, [2, 2, 2, 2])
    algebras.append(adjoin_root(R, [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1], 2))
    # F_9 = F_3[x]/(x^2 + 1) from a table made by hand, and T^9 = f^3 over it
    F9 = _monogenic(F3, [1, 0, 1])
    algebras += [F9, adjoin_root(F9, [F3.from_int(1), F3.from_int(2)], 2)]
    for algebra in algebras:
        _assert_ring_axioms(algebra)


def _random_base(rng, field):
    shape = rng.choice([[2], [3], [4], [2, 2], [3, 2], [2, 2, 2]])
    return truncated_polynomial_algebra(field, shape)


def _random_element(rng, algebra):
    return [algebra.field.from_int(rng.randrange(algebra.field.p))
            for _ in range(algebra.dim)]


def test_plus_one_on_randomized_instances():
    rng = seeded(2024)
    count = 0
    for field in (F2, F3, F5):
        for _ in range(8):
            R = _random_base(rng, field)
            base_edim = edim(R).edim
            f = _random_element(rng, R)
            r = rng.choice([1, 2]) if field.p == 2 else 1
            if field.p ** r * R.dim > 512:
                continue
            A = adjoin_root(R, f, r)
            assert edim(A).edim == base_edim + 1
            count += 1
    assert count >= 20


def test_prime_field_and_function_field_paths_agree():
    # the same presentation over F_p (ints mod p) and over F_p(t) (field elements,
    # where no int arithmetic runs): the constants lie in F_p, so every rank agrees
    rng = seeded(3141)
    count = 0
    for p in (2, 3, 5):
        Fp, K = PrimeField(p), FunctionField(p, ["t"])
        for _ in range(6):
            shape = rng.choice([[2], [3], [4], [2, 2], [3, 2], [2, 2, 2]])
            r = rng.choice([1, 2]) if p == 2 else 1
            R = truncated_polynomial_algebra(Fp, shape)
            if p ** r * R.dim > 512:
                continue
            f = _random_element(rng, R)
            reports = [edim(adjoin_root(truncated_polynomial_algebra(field, shape),
                                        [field.from_int(c) for c in f], r))
                       for field in (Fp, K)]
            assert reports[0].residue_dim == 1
            assert reports[0] == reports[1], (p, shape, f, r)
            count += 1
    assert count >= 15


def test_edim_invariant_under_basis_permutation():
    rng = seeded(77)
    A = truncated_polynomial_algebra(F3, [3, 2])
    baseline = edim(A).edim
    for _ in range(5):
        perm = list(range(A.dim))
        tail = perm[1:]
        rng.shuffle(tail)  # keep the identity at index 0
        perm = [0] + tail
        inv = [perm.index(i) for i in range(A.dim)]
        table = [[{inv[m]: c for m, c in A.table[perm[i]][perm[j]].items()}
                  for j in range(A.dim)] for i in range(A.dim)]
        gens = [[g[perm[i]] for i in range(A.dim)] for g in A.maxideal_gens]
        B = FiniteLocalAlgebra(F3, A.dim, table, gens)
        assert edim(B).edim == baseline


def test_residue_dim_divides_total():
    K, K3 = FunctionField(2, ["t"]), FunctionField(3, ["s", "t"])
    algebras = [
        truncated_polynomial_algebra(F2, [2, 3]),
        truncated_polynomial_algebra(F5, []),
        adjoin_root(truncated_polynomial_algebra(K, []), [K.gen("t")], 2),
        tensor_self(K3, [parse_expr("s", K3)]),
    ]
    for A in algebras:
        assert A.dim % A.residue_dim == 0



def _monogenic(field, g):
    """k[x]/(g) for a monic g (coefficient list, constant term first) in the basis
    1, x, ..., x^(n-1), with the zero ideal designated: it is local iff g is irreducible."""
    n = len(g) - 1
    powers = [[field.one() if i == k else field.zero() for i in range(n)] for k in range(n)]
    for _ in range(n - 1):
        # x * x^k shifts up one place, and x^n = -(g_0 + ... + g_(n-1) x^(n-1))
        top = powers[-1][-1]
        powers.append([field.zero()] + powers[-1][:-1])
        powers[-1] = [(c - top * gi) % field.p for c, gi in zip(powers[-1], g)]
    table = [[{m: c for m, c in enumerate(powers[i + j]) if c} for j in range(n)]
             for i in range(n)]
    return FiniteLocalAlgebra(field, n, table, [])


def test_residue_field_of_degree_two_over_f3():
    F9 = _monogenic(F3, [1, 0, 1])  # F_3[x]/(x^2 + 1)
    report = edim(F9)
    assert (report.residue_dim, report.edim) == (2, 0)
    # r = 2 takes a p-th root inside F_9 before it picks the new generator
    f = [F3.from_int(1), F3.from_int(2)]
    report = edim(adjoin_root(F9, f, 2))
    assert (report.dim_total, report.residue_dim, report.edim) == (18, 2, 1)


def test_residue_ring_that_is_not_a_field_rejected():
    with pytest.raises(NotLocalError, match="not reduced"):
        _monogenic(F2, [1, 0, 1])  # x^2 + 1 = (x + 1)^2
    with pytest.raises(NotLocalError, match="product of fields"):
        _monogenic(F2, [0, 1, 1])  # F_2[x]/(x^2 + x) = F_2 x F_2


def test_ideal_containing_one_rejected():
    A = truncated_polynomial_algebra(F3, [3])
    with pytest.raises(NotLocalError):
        FiniteLocalAlgebra(F3, A.dim, A.table, [A.one_vec()])
    with pytest.raises(NotLocalError):
        FiniteLocalAlgebra(F3, A.dim, A.table, [A.basis_vec(1), A.one_vec()])


def test_prime_field_residue_test_agrees_with_sympy_irreducibility():
    from sympy import Poly, symbols

    x = symbols("x")
    rng = seeded(1967)
    verdicts = []
    for p in (2, 3, 5):
        field = PrimeField(p)
        for degree in (2, 3, 4):
            for _ in range(15):
                g = [rng.randrange(p) for _ in range(degree)] + [1]
                try:
                    _monogenic(field, g)
                    accepted = True
                except NotLocalError:
                    accepted = False
                expected = Poly(list(reversed(g)), x, modulus=p).is_irreducible
                assert accepted == expected, (p, g)
                verdicts.append(accepted)
    assert True in verdicts and False in verdicts


def test_adjoin_root_rejects_f_of_the_wrong_length():
    R = truncated_polynomial_algebra(F2, [4])
    for f in ([1, 1], [1, 0, 0, 0, 0, 0]):
        with pytest.raises(ArtinError, match="f has %d coordinates, the algebra has "
                                             "dimension 4" % len(f)):
            adjoin_root(R, f, 1)


def _monomial_table(field, exponents):
    """k[u]/(u_i^(a_i)) by an index of sorted exponent vectors: e_a e_b = e_(a+b)
    when every a_i + b_i < a_i's bound, else 0; and the generators u_i, a_i >= 2."""
    monos = sorted(product(*[range(a) for a in exponents]))
    index = {e: i for i, e in enumerate(monos)}
    one, zero = field.one(), field.zero()
    table = []
    for a in monos:
        row = []
        for b in monos:
            total = tuple(x + y for x, y in zip(a, b))
            inside = all(x < bound for x, bound in zip(total, exponents))
            row.append({index[total]: one} if inside else {})
        table.append(row)
    gens = [[one if sum(e) == 1 and e[i] else zero for e in monos]
            for i, bound in enumerate(exponents) if bound >= 2]
    return table, gens


def _adjoin_root_table(algebra, f, r):
    """The table of R[T]/(T^(p^r) - f^p) product by product: e_i T^j at index
    j dim R + i, and (e_i e_k) T^(j+l) reduced by T^(p^r) = f^p."""
    n_r, q = algebra.dim, algebra.field.characteristic ** r
    fp = algebra.pow_vec(f, algebra.field.characteristic)
    table = [[None] * (n_r * q) for _ in range(n_r * q)]
    for i, j, k, l in product(range(n_r), range(q), range(n_r), range(q)):
        pair = algebra.zero_vec()
        for m, c in algebra.table[i][k].items():
            pair[m] = c
        e = j + l
        if e >= q:
            pair, e = algebra.mul_vec(pair, fp), e - q
        table[j * n_r + i][l * n_r + k] = {e * n_r + m: c for m, c in enumerate(pair) if c}
    return table


def test_tables_match_an_independent_builder():
    K = FunctionField(2, ["s", "t"])
    tower = extension_tower(K, [K.gens()[0]])  # F_2(s,t)(s^(1/2))
    cases = [(F2, [1]), (F2, [2, 1, 3]), (F2, [1, 4, 1]), (F2, [3, 2, 2]),
             (F3, [1, 1]), (F3, [3, 1, 2]), (F3, [2, 4]), (F3, [1, 2, 1, 2]),
             (F5, [5]), (F5, [2, 1, 3]), (F5, [1, 5, 2]),
             (tower, [2, 1, 3]), (tower, [1, 4]), (tower, [2, 2, 1])]
    for field, exponents in cases:
        A = truncated_polynomial_algebra(field, exponents)
        table, gens = _monomial_table(field, exponents)
        assert A.table == table, (field, exponents)
        assert A.maxideal_gens == gens, (field, exponents)
        assert edim(A) == edim(FiniteLocalAlgebra(field, len(table), table, gens))
    rng = seeded(1515)
    for p, base_exponents, r in [(2, [2, 1], 2), (2, [4], 1), (3, [1, 3], 1), (3, [2], 1),
                                 (5, [2], 1), (5, [1], 1)]:
        R = truncated_polynomial_algebra(PrimeField(p), base_exponents)
        f = [rng.randrange(p) for _ in range(R.dim)]
        assert adjoin_root(R, f, r).table == _adjoin_root_table(R, f, r), (p, base_exponents)

import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from insep.fieldarith import (FunctionField, Matrix, PrimeField, extension_tower, reduce_by_rows,
                              row_space_basis)
from insep.fieldarith.extension import ExtElem

from conftest import random_ratfunc, seeded

ZERO_SHARE = 0.75  # the elimination skips zeros, so the matrices are mostly zeros


def test_identity_solve(K2st):
    s, t = K2st.gens()
    one, zero = K2st.one(), K2st.zero()
    m = Matrix(K2st, [[one, zero], [zero, one]])
    b = [s, t]
    assert m.solve(b) == b


def test_zero_matrix(K2st):
    z = K2st.zero()
    m = Matrix(K2st, [[z, z], [z, z]])
    assert m.rank() == 0
    assert len(m.kernel_basis()) == 2


def test_symbolic_rank_two(K2st):
    s, t = K2st.gens()
    m = Matrix(K2st, [[s, t], [t, s]])
    # det = s^2 + t^2 = (s+t)^2, nonzero as a rational function
    assert m.rank() == 2
    assert m.kernel_basis() == []


def test_inconsistent_system_returns_none(K2st):
    s, t = K2st.gens()
    m = Matrix(K2st, [[s, t], [s, t]])
    assert m.solve([K2st.one(), K2st.zero()]) is None


def test_solve_and_kernel_random(K3st):
    rng = seeded(808)
    for _ in range(40):
        rows = [[random_ratfunc(rng, K3st, max_terms=2, max_exp=1) for _ in range(3)]
                for _ in range(2)]
        m = Matrix(K3st, rows)
        x = [random_ratfunc(rng, K3st, max_terms=2, max_exp=1) for _ in range(3)]
        b = [sum((rows[i][j] * x[j] for j in range(3)), K3st.zero()) for i in range(2)]
        sol = m.solve(b)
        assert sol is not None
        for i in range(2):
            lhs = sum((rows[i][j] * sol[j] for j in range(3)), K3st.zero())
            assert lhs == b[i]
        for vec in m.kernel_basis():
            for i in range(2):
                assert sum((rows[i][j] * vec[j] for j in range(3)), K3st.zero()).is_zero()
        assert m.rank() + len(m.kernel_basis()) == 3

    # rank-deficient systems, consistent and not, over K and over F_5
    F5 = PrimeField(5)

    def k_entry():
        return random_ratfunc(rng, K3st, max_terms=2, max_exp=1)

    def f5_entry():
        return F5.from_int(rng.randrange(5))

    # elements of F_5 are ints, reduced mod 5 after each computation
    for field, entry, canon in ((K3st, k_entry, lambda v: v), (F5, f5_entry, lambda v: v % 5)):
        zero = field.zero()
        inconsistent = 0
        for _ in range(30):
            top = [[entry() for _ in range(3)] for _ in range(2)]
            c = entry()
            rows = top + [[canon(c * x + y) for x, y in zip(top[0], top[1])]]  # rank <= 2
            m = Matrix(field, rows)
            if rng.randrange(2):
                x = [entry() for _ in range(3)]
                b = [canon(sum((r[j] * x[j] for j in range(3)), zero)) for r in rows]
            else:
                b = [entry() for _ in range(3)]
            augmented = Matrix(field, [r + [v] for r, v in zip(rows, b)])
            sol = m.solve(b)
            assert (sol is None) == (m.rank() < augmented.rank())
            if sol is None:
                inconsistent += 1
                continue
            for r, v in zip(rows, b):
                assert canon(sum((r[j] * sol[j] for j in range(3)), zero)) == v
        assert inconsistent > 0


def test_over_prime_field():
    F5 = PrimeField(5)
    rows = [[F5.from_int(a) for a in r] for r in ([1, 2, 3], [2, 4, 2], [0, 0, 5])]
    m = Matrix(F5, rows)
    assert m.rank() == 2
    assert len(m.kernel_basis()) == 1


def _check_reduce_by_rows(field, rng, entry, ncols):
    """Remainders against an rref basis with monic remainders appended: zero exactly
    on the span, zero in each row's leading column, and differing from the vector by
    a member of the span."""
    zero, one = field.zero(), field.one()
    inside = 0
    rows = row_space_basis(field, _sparse_rows(rng, rng.randrange(1, ncols), ncols, entry, zero))
    for _ in range(ncols):
        in_span = rng.random() < 0.5
        vec = [zero] * ncols
        if in_span:
            for row in rows:
                c = entry()
                vec = [a + c * b for a, b in zip(vec, row)]
        else:
            vec = [entry() for _ in range(ncols)]
        if isinstance(field, PrimeField):
            vec = [a % field.p for a in vec]
        rest = reduce_by_rows(field, rows, vec)
        rank = Matrix(field, rows + [vec]).rank()
        assert (not any(rest)) == (rank == len(rows))
        assert Matrix(field, rows + [[a - b for a, b in zip(vec, rest)]]).rank() == len(rows)
        for row in rows:
            assert not rest[next(c for c, x in enumerate(row) if x)]
        if any(rest):
            lead = next(x for x in rest if x)
            inv = pow(lead, field.p - 2, field.p) if isinstance(field, PrimeField) else one / lead
            rows.append([x * inv for x in rest])
            if isinstance(field, PrimeField):
                rows[-1] = [x % field.p for x in rows[-1]]
        else:
            inside += 1
    return inside


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_reduce_by_rows_is_zero_exactly_on_the_span(p, K3st):
    rng = seeded(930 + p)
    F = PrimeField(p)
    inside = sum(_check_reduce_by_rows(F, rng, lambda: rng.randrange(1, p), 8)
                 for _ in range(20))
    if p == 3:
        inside += _check_reduce_by_rows(K3st, rng, lambda: random_ratfunc(rng, K3st), 6)
    assert 0 < inside < 20 * 8


def _sparse_rows(rng, nrows, ncols, entry, zero):
    return [[zero if rng.random() < ZERO_SHARE else entry() for _ in range(ncols)]
            for _ in range(nrows)]


def _zero_share(matrices):
    cells = [x for rows in matrices for r in rows for x in r]
    return sum(1 for x in cells if not x) / len(cells)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_echelon_matches_sympy_rref_over_prime_field(p):
    F = PrimeField(p)
    GFp = GF(p, symmetric=False)
    rng = seeded(900 + p)
    matrices = [_sparse_rows(rng, rng.randrange(1, 9), rng.randrange(1, 9),
                             lambda: F.from_int(rng.randrange(1, p)), F.zero())
                for _ in range(60)]
    assert _zero_share(matrices) >= 0.7
    for rows in matrices:
        ours, pivots = Matrix(F, rows)._echelon()
        ref, ref_pivots = DomainMatrix([[GFp(x) for x in r] for r in rows],
                                       (len(rows), len(rows[0])), GFp).rref()
        assert tuple(pivots) == tuple(ref_pivots)
        assert ours == [[int(x) for x in r] for r in ref.to_list()]


def _check_sparse_system(field, rows, entry):
    m = Matrix(field, rows)
    zero, one = field.zero(), field.one()
    ncols = m.ncols
    reduced, pivots = m._echelon()
    for i, pc in enumerate(pivots):
        assert [r[pc] for r in reduced] == [one if k == i else zero for k in range(m.nrows)]
    kernel = m.kernel_basis()
    assert m.rank() == len(pivots) and m.rank() + len(kernel) == ncols
    for vec in kernel:
        for r in rows:
            assert not sum((r[j] * vec[j] for j in range(ncols)), zero)
    x = [entry() for _ in range(ncols)]
    b = [sum((r[j] * x[j] for j in range(ncols)), zero) for r in rows]
    sol = m.solve(b)
    assert sol is not None
    for r, v in zip(rows, b):
        assert sum((r[j] * sol[j] for j in range(ncols)), zero) == v


def test_sparse_elimination_over_function_field(K3st):
    rng = seeded(910)

    def entry():
        return random_ratfunc(rng, K3st, max_terms=2, max_exp=1)

    matrices = [_sparse_rows(rng, rng.randrange(2, 6), rng.randrange(2, 6), entry, K3st.zero())
                for _ in range(20)]
    assert _zero_share(matrices) >= 0.7
    for rows in matrices:
        _check_sparse_system(K3st, rows, entry)


def test_sparse_elimination_over_extension_inverts_each_pivot_once(monkeypatch):
    K = FunctionField(3, ["s", "t"])
    L = extension_tower(K, [K.gen("s")])  # K(s^(1/3)), one step
    rng = seeded(920)

    def entry():  # c * x^k with c = 1 + one term; dense entries make the fractions grow fast
        coeffs = [K.zero()] * L.p
        coeffs[rng.randrange(L.p)] = K.one() + random_ratfunc(rng, K, max_terms=1, max_exp=1)
        return L.from_coeffs(coeffs)

    matrices = [_sparse_rows(rng, rng.randrange(2, 5), rng.randrange(2, 5), entry, L.zero())
                for _ in range(12)]
    assert _zero_share(matrices) >= 0.7
    inverse = ExtElem.inverse
    calls = []

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(ExtElem, "inverse", counted)
    for rows in matrices:
        calls.clear()
        pivots = Matrix(L, rows)._echelon()[1]
        assert len(calls) <= len(pivots)
        _check_sparse_system(L, rows, entry)

from insep.fieldarith import Matrix, PrimeField

from conftest import random_ratfunc, seeded


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

    for field, entry in ((K3st, k_entry), (F5, f5_entry)):
        zero = field.zero()
        inconsistent = 0
        for _ in range(30):
            top = [[entry() for _ in range(3)] for _ in range(2)]
            c = entry()
            rows = top + [[c * x + y for x, y in zip(top[0], top[1])]]  # rank <= 2
            m = Matrix(field, rows)
            if rng.randrange(2):
                x = [entry() for _ in range(3)]
                b = [sum((r[j] * x[j] for j in range(3)), zero) for r in rows]
            else:
                b = [entry() for _ in range(3)]
            augmented = Matrix(field, [r + [v] for r, v in zip(rows, b)])
            sol = m.solve(b)
            assert (sol is None) == (m.rank() < augmented.rank())
            if sol is None:
                inconsistent += 1
                continue
            for r, v in zip(rows, b):
                assert sum((r[j] * sol[j] for j in range(3)), zero) == v
        assert inconsistent > 0


def test_over_prime_field():
    F5 = PrimeField(5)
    rows = [[F5.from_int(a) for a in r] for r in ([1, 2, 3], [2, 4, 2], [0, 0, 5])]
    m = Matrix(F5, rows)
    assert m.rank() == 2
    assert len(m.kernel_basis()) == 1

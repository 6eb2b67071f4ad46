import pytest
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from insep.fieldarith import FunctionField, Matrix, PrimeField, Span, extension_tower
from insep.fieldarith.extension import ExtElem

from conftest import random_ratfunc, seeded

ZERO_SHARE = 0.75  # the elimination skips zeros, so the matrices are mostly zeros


def _solve(field, rows, b):
    """A solution of A x = b, or None if inconsistent: a last column -b is not a
    pivot exactly when b is in the column span, and its relation gives x."""
    n = len(rows[0])
    minus = (lambda v: -v % field.p) if isinstance(field, PrimeField) else (lambda v: -v)
    span = Span(field, n + 1, (list(enumerate(r)) + [(n, minus(v))] for r, v in zip(rows, b)))
    if n in span.tails:
        return None
    x = span.relation(n)
    assert x[n] == field.one()
    return x[:n]


def _kernel(field, rows):
    """The relation at each non-pivot column of the span of the rows."""
    span = Span(field, len(rows[0]), map(enumerate, rows))
    return [span.relation(c) for c in range(span.ncols) if c not in span.tails]


def test_identity_solve(K2st):
    s, t = K2st.gens()
    one, zero = K2st.one(), K2st.zero()
    b = [s, t]
    assert _solve(K2st, [[one, zero], [zero, one]], b) == b


def test_zero_matrix(K2st):
    z, one = K2st.zero(), K2st.one()
    rows = [[z, z], [z, z]]
    assert Matrix(K2st, rows).rank() == 0
    # every column is free: the relations are the unit vectors
    assert _kernel(K2st, rows) == [[one, z], [z, one]]


def test_symbolic_rank_two(K2st):
    s, t = K2st.gens()
    rows = [[s, t], [t, s]]
    # det = s^2 + t^2 = (s+t)^2, nonzero as a rational function
    assert Matrix(K2st, rows).rank() == 2
    assert _kernel(K2st, rows) == []
    with pytest.raises(ValueError):
        Span(K2st, 2, map(enumerate, rows)).relation(1)


def test_inconsistent_system_returns_none(K2st):
    s, t = K2st.gens()
    rows = [[s, t], [s, t]]
    # the target column becomes the pivot of the second row
    span = Span(K2st, 3, [[(0, s), (1, t), (2, -K2st.one())], [(0, s), (1, t)]])
    assert sorted(span.tails) == [0, 2]
    assert _solve(K2st, rows, [K2st.one(), K2st.zero()]) is None


def _to_sympy(S, f):
    return S(S.ring(dict(f.num.terms))) / S(S.ring(dict(f.den.terms)))


def test_solve_and_kernel_random(K3st):
    from sympy.polys.fields import field as frac_field

    rng = seeded(808)
    S = frac_field(",".join(K3st.vars), GF(3))[0]
    for _ in range(40):
        rows = [[random_ratfunc(rng, K3st, max_terms=2, max_exp=1) for _ in range(3)]
                for _ in range(2)]
        x = [random_ratfunc(rng, K3st, max_terms=2, max_exp=1) for _ in range(3)]
        b = [sum((rows[i][j] * x[j] for j in range(3)), K3st.zero()) for i in range(2)]
        sol = _solve(K3st, rows, b)
        assert sol is not None
        for i in range(2):
            lhs = sum((rows[i][j] * sol[j] for j in range(3)), K3st.zero())
            assert lhs == b[i]
        kernel = _kernel(K3st, rows)
        for vec in kernel:
            for i in range(2):
                assert sum((rows[i][j] * vec[j] for j in range(3)), K3st.zero()).is_zero()
        ref = DomainMatrix([[_to_sympy(S, f) for f in r] for r in rows], (2, 3), S.to_domain())
        assert Matrix(K3st, rows).rank() == ref.rank()
        assert Matrix(K3st, rows).rank() + len(kernel) == 3
        ref_kernel = ref.nullspace(divide_last=True).to_list()
        assert len(kernel) == len(ref_kernel)
        assert all(not (_to_sympy(S, a) - c) for vec, ref_vec in zip(kernel, ref_kernel)
                   for a, c in zip(vec, ref_vec))

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
            if rng.randrange(2):
                x = [entry() for _ in range(3)]
                b = [canon(sum((r[j] * x[j] for j in range(3)), zero)) for r in rows]
            else:
                b = [entry() for _ in range(3)]
            augmented = Matrix(field, [r + [v] for r, v in zip(rows, b)])
            sol = _solve(field, rows, b)
            assert (sol is None) == (Matrix(field, rows).rank() < augmented.rank())
            for vec in _kernel(field, rows):
                for r in rows:
                    assert not canon(sum((r[j] * vec[j] for j in range(3)), zero))
            if sol is None:
                inconsistent += 1
                continue
            for r, v in zip(rows, b):
                assert canon(sum((r[j] * sol[j] for j in range(3)), zero)) == v
        assert inconsistent > 0


def test_over_prime_field():
    F5 = PrimeField(5)
    rows = [[F5.from_int(a) for a in r] for r in ([1, 2, 3], [2, 4, 2], [0, 0, 5])]
    assert Matrix(F5, rows).rank() == 2
    # the entries of a relation over F_p are reduced into 0..p-1
    assert _kernel(F5, rows) == [[3, 1, 0]]


def _check_span_reduce(field, rng, entry, ncols):
    """Span.reduce against a span grown by the vectors that reduce to nonzero: zero
    exactly on the span, zero in each basis row's leading column, and differing
    from the vector by a member of the span; adding the vector gives a new pivot,
    at the leading column of its remainder, exactly when that remainder is nonzero."""
    zero = field.zero()
    inside = 0
    span = Span(field, ncols, map(enumerate, _sparse_rows(rng, rng.randrange(1, ncols),
                                                          ncols, entry, zero)))
    for _ in range(ncols):
        rows = span.basis()
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
        rest = span.reduce(enumerate(vec))
        dense = [rest.get(c, zero) for c in range(ncols)]
        rank = Matrix(field, rows + [vec]).rank()
        assert (not any(dense)) == (not rest) == (rank == len(rows))
        assert Matrix(field, rows + [[a - b for a, b in zip(vec, dense)]]).rank() == len(rows)
        for row in rows:
            assert not dense[next(c for c, x in enumerate(row) if x)]
        assert span.add(enumerate(vec)) == (min(rest) if rest else None)
        if not rest:
            inside += 1
    return inside


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_reduce_by_rows_is_zero_exactly_on_the_span(p, K3st):
    rng = seeded(930 + p)
    F = PrimeField(p)
    inside = sum(_check_span_reduce(F, rng, lambda: rng.randrange(1, p), 8)
                 for _ in range(20))
    if p == 3:
        inside += _check_span_reduce(K3st, rng, lambda: random_ratfunc(rng, K3st), 6)
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
    assert Span(F, 4).basis() == [] and Span(F, 4, [[(1, p)]]).basis() == []
    for rows in matrices:
        span = Matrix(F, rows)._echelon()
        ref_matrix = DomainMatrix([[GFp(x) for x in r] for r in rows],
                                  (len(rows), len(rows[0])), GFp)
        ref, ref_pivots = ref_matrix.rref()
        assert tuple(sorted(span.tails)) == tuple(ref_pivots)
        assert Matrix(F, rows).rank() == len(ref_pivots)
        expected = [[int(x) for x in r] for r in ref.to_list()]
        assert span.basis() == expected[:len(ref_pivots)]
        assert not any(any(r) for r in expected[len(ref_pivots):])
        # sympy's null space scaled to 1 at its last nonzero entry, the free column
        ref_kernel = ref_matrix.nullspace(divide_last=True).to_list()
        assert _kernel(F, rows) == [[int(x) for x in r] for r in ref_kernel]
        # entries off by multiples of p, which Span reduces
        pairs = [[(c, x + p * rng.randrange(3)) for c, x in row]
                 for row in _span_input(rng, rows, F.zero())]
        assert Span(F, len(rows[0]), pairs).basis() == expected[:len(ref_pivots)]


def _span_input(rng, rows, zero):
    """The rows as (column, entry) pairs for a Span, zeros kept, with one row
    repeated, a zero row and an empty row added, pairs and rows in seeded orders."""
    out = [list(enumerate(r)) for r in rows + [rng.choice(rows), [zero] * len(rows[0])]] + [[]]
    for row in out:
        rng.shuffle(row)
    rng.shuffle(out)
    return out


def test_row_space_basis_matches_sympy_rref_over_function_field(K3st):
    from sympy.polys.fields import field as frac_field

    rng = seeded(940)
    S = frac_field(",".join(K3st.vars), GF(3))[0]

    def to_sympy(f):
        return _to_sympy(S, f)

    def entry():
        return random_ratfunc(rng, K3st, max_terms=2, max_exp=1)

    matrices = [_sparse_rows(rng, rng.randrange(1, 6), rng.randrange(1, 6), entry, K3st.zero())
                for _ in range(30)]
    # and rank-deficient ones: a last row that combines the first and the last
    for rows in matrices[:10]:
        c = entry()
        rows.append([c * x + y for x, y in zip(rows[0], rows[-1])])
    assert _zero_share(matrices) >= 0.5
    ranks = set()
    for rows in matrices:
        ncols = len(rows[0])
        ref_matrix = DomainMatrix([[to_sympy(x) for x in r] for r in rows],
                                  (len(rows), ncols), S.to_domain())
        ref, ref_pivots = ref_matrix.rref()
        ours = Span(K3st, ncols, _span_input(rng, rows, K3st.zero())).basis()
        ref_rows = ref.to_list()
        # sympy may leave an entry such as 2/2 unreduced, so compare by differences
        assert len(ours) == len(ref_pivots)
        assert all(not (to_sympy(x) - y) for r, ref_r in zip(ours, ref_rows)
                   for x, y in zip(r, ref_r))
        # the dense rows: their rank and their span, pivots and basis
        span = Matrix(K3st, rows)._echelon()
        assert Matrix(K3st, rows).rank() == len(ref_pivots)
        assert tuple(sorted(span.tails)) == tuple(ref_pivots)
        assert all(not (to_sympy(x) - y) for r, ref_r in zip(span.basis(), ref_rows)
                   for x, y in zip(r, ref_r))
        # the relations are sympy's null space, one per non-pivot column
        kernel = _kernel(K3st, rows)
        ref_kernel = ref_matrix.nullspace(divide_last=True).to_list()
        assert len(kernel) == len(ref_kernel) == ncols - len(ref_pivots)
        assert all(not (to_sympy(x) - y) for r, ref_r in zip(kernel, ref_kernel)
                   for x, y in zip(r, ref_r))
        ranks.add((len(ref_pivots), len(rows)))
    assert any(rank < nrows for rank, nrows in ranks)


def _check_sparse_system(field, rows, entry):
    zero, one = field.zero(), field.one()
    ncols = len(rows[0])
    span = Span(field, ncols, map(enumerate, rows))
    pivots = sorted(span.tails)
    reduced = span.basis()
    for i, pc in enumerate(pivots):
        assert [r[pc] for r in reduced] == [one if k == i else zero for k in range(len(pivots))]
    kernel = _kernel(field, rows)
    assert Matrix(field, rows).rank() == len(pivots) and len(pivots) + len(kernel) == ncols
    for vec in kernel:
        for r in rows:
            assert not sum((r[j] * vec[j] for j in range(ncols)), zero)
    x = [entry() for _ in range(ncols)]
    b = [sum((r[j] * x[j] for j in range(ncols)), zero) for r in rows]
    sol = _solve(field, rows, b)
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
        rank = Matrix(L, rows).rank()
        assert len(calls) <= rank
        _check_sparse_system(L, rows, entry)

from itertools import permutations

from insep.fieldarith import FunctionField, Span, parse_expr
from insep.frobenius import (
    frobenius_decompose,
    in_pspan,
    membership_in_pspan,
    p_linear_relation,
    pdegree_generated,
    pth_root,
)

from conftest import (imperfection_degree, random_nonzero_ratfunc, random_ratfunc, reassemble,
                      seeded, sympy_p_independent)


def test_decompose_monomial(K2st):
    s, t = K2st.gens()
    coords = frobenius_decompose(s * s * t)
    assert coords == {(0, 1): s}


def test_decompose_sum(K2st):
    s, t = K2st.gens()
    coords = frobenius_decompose(s + t)
    assert coords == {(1, 0): K2st.one(), (0, 1): K2st.one()}


def test_decompose_fraction_satisfies_reassembly(K2st):
    s, t = K2st.gens()
    f = K2st.one() / (s + t)
    coords = frobenius_decompose(f)
    assert set(coords) == {(1, 0), (0, 1)}
    # both coordinates are 1/(s+t): squaring and reassembling recovers f
    assert coords[(1, 0)] == K2st.one() / (s + t)
    assert reassemble(K2st, coords) == f


def test_reassembly_on_500_random_elements(K2st, K3st):
    rng = seeded(111)
    count = 0
    for field in (K2st, K3st):
        for _ in range(250):
            f = random_ratfunc(rng, field)
            assert reassemble(field, frobenius_decompose(f)) == f
            count += 1
    assert count == 500


def test_pth_power_detection(K2st, K3t):
    assert pth_root(parse_expr("s^2+t^2", K2st)) == parse_expr("s+t", K2st)
    assert pth_root(K3t.gen("t")) is None


def test_pth_root_of_fraction(K2st):
    f = parse_expr("(s^2*t^4)/(1+s^2)", K2st)
    root = pth_root(f)
    assert root == parse_expr("(s*t^2)/(1+s)", K2st)
    assert root * root == f


def test_root_round_trip_random(K2st, K3st):
    rng = seeded(222)
    for field in (K2st, K3st):
        for _ in range(250):
            f = random_ratfunc(rng, field)
            g = f ** field.p
            assert pth_root(g) == f


def test_p_linear_independence_examples(K2st):
    s, t = K2st.gens()
    assert p_linear_relation([s, t, K2st.one()]) is None
    assert sympy_p_independent([s, t, K2st.one()])
    assert p_linear_relation([t, t]) is not None
    assert not sympy_p_independent([t, t])
    assert p_linear_relation([]) is None
    relation = p_linear_relation([t, s * s * t, K2st.one()])
    value = K2st.zero()
    for d, lam in zip(relation, [t, s * s * t, K2st.one()]):
        value = value + (d ** 2) * lam
    assert value.is_zero()


def test_membership_examples(K2st, K3t):
    s, t = K2st.gens()
    t3 = K3t.gen("t")
    assert membership_in_pspan(t3 * t3, [t3]) == {(2,): K3t.one()}
    assert membership_in_pspan(s, [t]) is None
    assert membership_in_pspan(s * s * t, [t]) == {(1,): s}
    assert in_pspan(t3 * t3, [t3]) and in_pspan(s * s * t, [t]) and in_pspan(s * s, [])
    assert not in_pspan(s, [t]) and not in_pspan(s, [t, t * t * s * s])


def _pspan_combination_value(combo, basis, field):
    """Evaluate sum_a d_a^p * prod basis^a for a membership witness."""
    total = field.zero()
    for a, d in combo.items():
        term = d ** field.p
        for g, e in zip(basis, a):
            term = term * (g ** e)
        total = total + term
    return total


def test_membership_witness_reassembles(K2st, K3st):
    rng = seeded(333)
    for field in (K2st, K3st):
        gens = field.gens()
        for _ in range(40):
            # build a guaranteed member from random p-th coefficients
            combo_val = field.zero()
            for i in range(field.p):
                d = random_ratfunc(rng, field, max_terms=2, max_exp=1)
                combo_val = combo_val + (d ** field.p) * (gens[0] ** i)
            witness = membership_in_pspan(combo_val, [gens[0]])
            assert witness is not None
            assert _pspan_combination_value(witness, [gens[0]], field) == combo_val


def test_pdegree_examples(K2st):
    s, t = K2st.gens()
    assert pdegree_generated([s, t]).d == 2
    assert pdegree_generated([t, s * s * t]).d == 1
    assert pdegree_generated([]).d == 0


def _greedy_by_membership(gens):
    """The greedy p-basis pass over Frobenius-coordinate membership systems."""
    selected = []
    for mu in gens:
        if membership_in_pspan(mu, selected) is None:
            selected.append(mu)
    return tuple(selected)


# (p, variables, largest generator count): the membership systems of the pass
# above have p^k unknowns for k kept generators, so the counts stay small
JACOBIAN_FAMILIES = [(2, "st", 4), (3, "st", 4), (5, "st", 2), (7, "st", 2),
                     (2, "stu", 4), (3, "stu", 3)]


def test_jacobian_selection_matches_membership_greedy():
    rng = seeded(777)
    for p, variables, most in JACOBIAN_FAMILIES:
        field = FunctionField(p, list(variables))
        for _ in range(12):
            gens = [random_nonzero_ratfunc(rng, field, max_terms=2, max_exp=1)
                    for _ in range(rng.randrange(1, most + 1))]
            if rng.randrange(3) == 0:
                # a generator inside K^p(gens[0]), so the pass must skip it
                a, b = (random_ratfunc(rng, field, max_terms=2, max_exp=1) for _ in range(2))
                gens.append(a ** p * gens[0] + b ** p)
            assert pdegree_generated(gens).selected == _greedy_by_membership(gens)



def test_jacobian_selection_past_the_number_of_variables():
    # more generators than variables: the kept ones reach d = n, and every later
    # generator must be examined and skipped; the membership systems of the
    # oracle have p^n unknowns once d = n, so p^n stays at most 25
    rng = seeded(1515)
    saturated = 0
    for p, variables in [(2, "st"), (3, "st"), (5, "st"), (2, "stu")]:
        field = FunctionField(p, list(variables))
        for _ in range(4):
            gens = [random_nonzero_ratfunc(rng, field, max_terms=2, max_exp=1)
                    for _ in range(len(variables) + rng.randrange(1, 3))]
            selected = _greedy_by_membership(gens)
            assert pdegree_generated(gens).selected == selected
            saturated += len(selected) == len(variables)
    assert saturated >= 12

def test_pdegree_f7_cliff_case():
    K = FunctionField(7, ["s", "t"])
    gens = [parse_expr(e, K) for e in ("(6*s*t+5*t)/s", "(4*t+2)/(s*t)", "s/(s+3*t)")]
    result = pdegree_generated(gens)
    assert result.d == 2
    assert result.selected == tuple(gens[:2])


def test_pbasis_spans_every_examined_generator(K2st, K3st):
    rng = seeded(445)
    for field in (K2st, K3st):
        for _ in range(10):
            gens = [random_nonzero_ratfunc(rng, field, max_terms=2, max_exp=1)
                    for _ in range(rng.randrange(1, 5))]
            result = pdegree_generated(gens)
            selected = list(result.selected)
            for i, mu in enumerate(selected):
                assert membership_in_pspan(mu, selected[:i]) is None
            for mu in result.examined:
                assert membership_in_pspan(mu, selected) is not None


def test_pdegree_order_invariance(K2st, K3st):
    rng = seeded(444)
    for field in (K2st, K3st):
        for _ in range(8):
            gens = [random_nonzero_ratfunc(rng, field, max_terms=2, max_exp=1)
                    for _ in range(rng.randrange(1, 5))]
            values = {pdegree_generated(list(p)).d for p in permutations(gens)}
            assert len(values) == 1


def test_pdegree_monotonicity_and_bound(K2st, K3st):
    rng = seeded(555)
    for field in (K2st, K3st):
        for _ in range(25):
            gens = [random_nonzero_ratfunc(rng, field, max_terms=2, max_exp=1)
                    for _ in range(rng.randrange(0, 4))]
            extra = random_nonzero_ratfunc(rng, field, max_terms=2, max_exp=1)
            d0 = pdegree_generated(gens).d
            d1 = pdegree_generated(gens + [extra]).d
            assert d0 <= d1 <= d0 + 1
            assert d0 <= min(len(gens), imperfection_degree(field))


def _in_p_linear_span(field, mu, others):
    """Solve mu = sum d_i^p * others_i directly in Frobenius coordinates: mu's
    column is not a pivot, and its relation is then a solution."""
    decomps = [frobenius_decompose(f) for f in others + [mu]]
    keys = sorted(set().union(*decomps))
    k, zero = len(others), field.zero()
    rows = [[d.get(e, zero) for d in decomps] for e in keys]
    span = Span(field, k + 1, map(enumerate, rows))
    if k in span.tails:
        return False
    x = span.relation(k)
    assert x[k] == field.one()
    assert all(not sum((r[j] * x[j] for j in range(k + 1)), zero) for r in rows)
    return True


def test_independence_consistent_with_linear_membership(K2st, K3st):
    rng = seeded(666)
    for field in (K2st, K3st):
        for _ in range(30):
            elems = [random_nonzero_ratfunc(rng, field, max_terms=2, max_exp=1)
                     for _ in range(rng.randrange(1, 4))]
            indep = p_linear_relation(elems) is None
            assert indep == sympy_p_independent(elems)
            spanned = any(
                _in_p_linear_span(field, elems[i], elems[:i] + elems[i + 1:])
                for i in range(len(elems))
            )
            assert indep == (not spanned)
            if not indep:
                # membership_in_pspan must confirm the witnessed dependence
                relation = p_linear_relation(elems)
                j = max(i for i, c in enumerate(relation) if c)
                rest = elems[:j] + elems[j + 1:]
                assert membership_in_pspan(elems[j], rest) is not None

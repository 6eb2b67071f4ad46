"""Finite-dimensional local algebra calculus: embedding dimension, tensor
squares L (x)_K L of height-one extensions, and root adjunctions
R[T]/(T^(p^r) - f^p).

Algebras are presented by structure constants over a base field together with
designated generators of the maximal ideal; computing the radical from scratch
in characteristic p is deliberately avoided.
"""

from collections import namedtuple
from itertools import chain, repeat
from math import prod

from .fieldarith import (
    FunctionField,
    Matrix,
    NotAPthPowerCheckError,
    PrimeField,
    extension_tower,
    power,
    reduce_by_rows,
    row_space_basis,
)

DIMENSION_CAP = 512


class ArtinError(ValueError):
    pass


class NotLocalError(ArtinError):
    """The designated ideal is not a nilpotent maximal ideal with field quotient."""


class InvalidPresentationError(ArtinError):
    """The p-th powers presenting the extension are p-dependent."""


class DimensionOverflowError(ArtinError):
    """A constructed algebra would exceed the configured dimension cap."""


class ResidueFieldError(ArtinError):
    """The residue field is outside the class this module can certify or factor in."""


class EdimReport(namedtuple("EdimReport", "dim_total residue_dim edim dim_m dim_m_sq")):
    __slots__ = ()


class FiniteLocalAlgebra:
    """A commutative algebra over a field, given by structure constants.

    Basis element 0 is the multiplicative identity.  ``table[i][j]`` maps basis
    indices to coefficients of e_i * e_j.  ``maxideal_gens`` are vectors (lists
    of field elements) generating the designated maximal ideal.

    The table is used as given.  The builders below make rings by construction:
    each table is R[T]/(T^n - g) for an R built the same way, a commutative ring
    with identity for any g.  What a caller chooses is checked: the designated
    ideal must be nilpotent and the quotient by it a field.  Over a PrimeField
    the elements are ints: the generators are reduced mod p here, and every
    vector operation reduces its result once per cell.
    """

    def __init__(self, field, dim, table, maxideal_gens):
        self.field = field
        self.dim = dim
        # p over a PrimeField, None over a function field or a tower
        self.modulus = field.p if isinstance(field, PrimeField) else None
        self.table = table
        self.maxideal_gens = [self.reduce(g) for g in maxideal_gens]
        # A is commutative, so m is nilpotent iff each generator is; a nilpotent g
        # has g^e = 0 for every e >= dim, since A, gA, g^2 A, ... shrink strictly
        # until they vanish, and a g that is not nilpotent has no zero power
        for g in self.maxideal_gens:
            g_e, e = g, 1
            while e < dim and any(g_e):
                g_e, e = self.mul_vec(g_e, g_e), 2 * e
            if any(g_e):
                raise NotLocalError("designated ideal is not nilpotent")
        # m = span{g e_j}, m^2 = span{g v : g a generator of m, v in m}, and
        # g v = sum_j v_j (g e_j) from the same sparse columns of g
        columns = [self.columns(g) for g in self.maxideal_gens]
        self.m_basis = row_space_basis(field, dim, (col.items() for cols in columns
                                                    for col in cols))
        supports = [[(j, x) for j, x in enumerate(v) if x] for v in self.m_basis]
        self.m_sq_basis = row_space_basis(field, dim, (self.combine(cols, support).items()
                                                       for cols in columns
                                                       for support in supports))
        self._residue = ResidueData(self)
        self.residue_dim = self._residue.q
        self._residue.certify_field()

    # -- element helpers ----------------------------------------------------

    def zero_vec(self):
        return [self.field.zero()] * self.dim

    def basis_vec(self, i):
        v = self.zero_vec()
        v[i] = self.field.one()
        return v

    def one_vec(self):
        return self.basis_vec(0)

    def reduce(self, vec):
        """A canonical copy of vec: each int reduced mod p over a PrimeField."""
        p = self.modulus
        return list(vec) if p is None else [x % p for x in vec]

    def combine(self, rows, pairs):
        """The sum of x * rows[j] over the pairs (j, x), for sparse rows
        {index: coefficient}; the result is one too, canonical with zeros dropped."""
        out = {}
        for j, x in pairs:
            for m, c in rows[j].items():
                y = x * c
                out[m] = out[m] + y if m in out else y
        p = self.modulus
        if p is None:
            return {m: c for m, c in out.items() if c}
        return {m: c % p for m, c in out.items() if c % p}

    def columns(self, g):
        """The products g e_j for j = 0..dim-1, as sparse rows: e_j g, read off
        row j of the table, since A is commutative."""
        support = [(i, gi) for i, gi in enumerate(g) if gi]
        return [self.combine(row, support) for row in self.table]

    def mul_vec(self, a, b):
        out = self.zero_vec()
        b_support = [(j, bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if not ai:
                continue
            row = self.table[i]
            for j, bj in b_support:
                scale = ai * bj
                for m, c in row[j].items():
                    out[m] += scale * c
        return self.reduce(out)

    def pow_vec(self, a, n):
        return power(a, n, self.one_vec(), self.mul_vec)

    def __repr__(self):
        return "FiniteLocalAlgebra(dim=%d over %r)" % (self.dim, self.field)


class ResidueData:
    """The quotient A/m with a linear section, multiplication, and p-th roots."""

    def __init__(self, algebra):
        self.algebra = algebra
        # m_basis is in reduced echelon form: each row leads with 1 at its pivot
        self.m_rref = algebra.m_basis
        pivot_set = {next(c for c, x in enumerate(row) if x) for row in self.m_rref}
        self.free_cols = [c for c in range(algebra.dim) if c not in pivot_set]
        self.q = len(self.free_cols)
        self.one = self.project(algebra.one_vec())

    def project(self, vec):
        v = reduce_by_rows(self.algebra.field, self.m_rref, vec)
        return tuple(v[c] for c in self.free_cols)

    def section(self, coords):
        v = self.algebra.zero_vec()
        for c, x in zip(self.free_cols, coords):
            v[c] = x
        return v

    def mul(self, qa, qb):
        return self.project(self.algebra.mul_vec(self.section(qa), self.section(qb)))

    def pow(self, qa, n):
        return power(qa, n, self.one, self.mul)

    def pth_root(self, qv):
        """A p-th root inside A/m, or None if there is none."""
        field = self.algebra.field
        p = field.characteristic
        if isinstance(field, PrimeField):
            # finite field F_(p^q): Frobenius is bijective with inverse x -> x^(p^(q-1))
            cand = self.pow(qv, p ** (self.q - 1))
            if self.pow(cand, p) == tuple(qv):
                return cand
            return None
        if self.q == 1:
            # A/m = k, with qv = (qv[0] / one[0]) * one
            root = field.pth_root(qv[0] / self.one[0])
            if root is None:
                return None
            return tuple(x * root for x in self.one)
        raise ResidueFieldError(
            "p-th roots in a %d-dimensional residue field over %r are not supported"
            % (self.q, field))

    def minpoly(self, qv):
        """Monic minimal polynomial of qv over the base field, as a coefficient list."""
        field = self.algebra.field
        powers = [self.one]
        current = self.one
        while True:
            m = Matrix(field, powers).transpose()
            current = self.mul(current, qv)
            sol = m.solve(list(current))
            if sol is not None:
                # current = sum sol_j * qv^j, so minpoly = T^k - sum sol_j T^j
                return [-c for c in sol] + [field.one()]
            powers.append(current)

    def certify_field(self):
        """Raise NotLocalError unless A/m can be certified to be a field.

        m is nilpotent, so 1 is not in m and A/m is not zero.
        """
        q = self.q
        if q == 1:
            return
        field = self.algebra.field
        basis = [tuple(field.one() if i == c else field.zero() for i in range(q))
                 for c in range(q)]
        if isinstance(field, PrimeField):
            # Berlekamp: a finite F_p-algebra is reduced iff Frobenius is injective,
            # and then it is a product of fields, as many as the dimension of the
            # subspace Frobenius fixes
            frob = [self.pow(e, field.p) for e in basis]
            if Matrix(field, frob).rank() != q:
                raise NotLocalError("residue ring is not a field (not reduced)")
            fixed = [[(a - b) % field.p for a, b in zip(row, e)] for row, e in zip(frob, basis)]
            if Matrix(field, fixed).rank() != q - 1:
                raise NotLocalError("residue ring is not a field (a product of fields)")
            return
        for theta in basis:
            poly = self.minpoly(theta)
            if len(poly) - 1 == q:
                if _is_irreducible(field, poly):
                    return
                raise NotLocalError("residue ring is not a field (reducible minimal polynomial)")
        raise NotLocalError("cannot certify the residue ring is a field "
                            "(no single basis generator found)")


def _is_irreducible(field, coeffs):
    """Irreducibility of a monic T^(p^e) - c over a function field: c is not a p-th power."""
    if isinstance(field, FunctionField):
        p = field.p
        deg = len(coeffs) - 1
        e = 0
        while p ** (e + 1) <= deg:
            e += 1
        if deg == p ** e and e >= 1 and all(not c for c in coeffs[1:-1]):
            return field.pth_root(-coeffs[0]) is None
        raise ResidueFieldError("cannot decide irreducibility of %r over %r" % (coeffs, field))
    raise ResidueFieldError("cannot decide irreducibility over %r" % (field,))


# -- the three operations ------------------------------------------------------


def check_dimension(factors):
    """The product of the positive ints factors, checked against DIMENSION_CAP
    before any table is built.

    The product stops at the first factor that takes it past the cap, so a huge
    exponent never becomes a huge int.
    """
    dim = 1
    for factor in factors:
        dim *= factor
        if dim > DIMENSION_CAP:
            raise DimensionOverflowError("dim exceeds cap %d" % DIMENSION_CAP)
    return dim


def edim(algebra):
    """Embedding dimension: dim of m/m^2 over the residue field A/m."""
    dim_m = len(algebra.m_basis)
    dim_m_sq = len(algebra.m_sq_basis)
    q = algebra.residue_dim
    diff = dim_m - dim_m_sq
    if diff % q:
        raise ArtinError("dim m/m^2 = %d is not a multiple of the residue degree %d" % (diff, q))
    return EdimReport(
        dim_total=algebra.dim,
        residue_dim=q,
        edim=diff // q,
        dim_m=dim_m,
        dim_m_sq=dim_m_sq,
    )


def tensor_self(field, pth_powers):
    """L (x)_K L for L = K(b_1^(1/p), ..., b_m^(1/p)), as an L-algebra.

    It is L[u_1, ..., u_m]/(u_i^p) in the nilpotents u_i = U_i - a_i: each has
    vanishing p-th power.
    """
    pth_powers = list(pth_powers)
    exponents = [field.p] * len(pth_powers)
    check_dimension(exponents)
    try:
        tower = extension_tower(field, pth_powers)
    except NotAPthPowerCheckError as exc:
        raise InvalidPresentationError(str(exc)) from exc
    return truncated_polynomial_algebra(tower, exponents)


def adjoin_root(algebra, f, r):
    """A = R[T]/(T^(p^r) - f^p), with maximal ideal lifted from R plus one new generator.

    The new generator is h = T^(p^(r-s)) - c where c^(p^s) = (residue of f)^p
    with s maximal; the quotient A/(m_R, h) is then a field.
    """
    if r < 1:
        raise ArtinError("r must be >= 1")
    field = algebra.field
    p = field.characteristic
    n_r = algebra.dim
    dim = check_dimension(chain([n_r], repeat(p, r)))
    if len(f) != n_r:
        raise ArtinError("f has %d coordinates, the algebra has dimension %d" % (len(f), n_r))
    q = p ** r

    # T^q = f^p, so a product past T^(q-1) is (e_i e_k) f^p T^(j+l-q), and
    # (e_i e_k) f^p = sum_m c_m (e_m f^p) from the columns of f^p
    fp_columns = algebra.columns(algebra.pow_vec(f, p))
    table = _adjunction_table(algebra.table, q,
                              lambda entry: algebra.combine(fp_columns, entry.items()))

    residue = algebra._residue
    s, y = 1, residue.project(f)
    while s < r:
        root = residue.pth_root(y)
        if root is None:
            break
        y = root
        s += 1
    lift_y = residue.section(y)

    # R sits in the first n_r coordinates, and T^j at index j * n_r
    pad = [field.zero()] * (dim - n_r)
    h = [-c for c in lift_y] + pad
    h[p ** (r - s) * n_r] = field.one()
    gens = [g + pad for g in algebra.maxideal_gens] + [h]

    return FiniteLocalAlgebra(field, dim, table, gens)


# -- the table builder ------------------------------------------------------------


def _adjunction_table(table, n, times_g=None):
    """The table of R[T]/(T^n - g) from R's, e_i T^j at index j dim R + i.

    times_g maps an entry of R's table to its product with g, zeros dropped;
    None means g = 0.  e_i T^j * e_k T^l = (e_i e_k) T^(j+l), and T^n = g; the
    entries for one dict of R's table and one j + l are one shared dict, never
    changed, and times_g runs once per dict of R's table.
    """
    n_r = len(table)
    out = [[None] * (n_r * n) for _ in range(n_r * n)]
    shared = {}  # id of a dict of R's table -> its entries by degree j + l
    for i in range(n_r):
        for k in range(n_r):
            pair = table[i][k]
            by_degree = shared.get(id(pair))
            if by_degree is None:
                over = {} if times_g is None else times_g(pair)
                by_degree = shared[id(pair)] = (
                    [{e * n_r + m: c for m, c in pair.items()} for e in range(n)]
                    + [{e * n_r + m: c for m, c in over.items()} for e in range(n - 1)])
            for j in range(n):
                out[j * n_r + i][k::n_r] = by_degree[j:j + n]  # l = 0..n-1 at index l n_r + k
    return out


def truncated_polynomial_algebra(field, exponents):
    """k[u_1,...,u_r]/(u_1^(a_1),...,u_r^(a_r)), monomials in lex order; r = 0 gives k."""
    exponents = list(exponents)
    for i, a in enumerate(exponents, 1):
        if a < 1:
            raise ArtinError("exponent a_%d = %d of u_%d must be at least 1" % (i, a, i))
    dim = check_dimension(exponents)
    one, zero = field.one(), field.zero()
    table = [[{0: one}]]
    for a in reversed(exponents):  # u_1, adjoined last, leads the monomial order
        table = _adjunction_table(table, a)
    # u_i, for each a_i >= 2, is the basis element at index a_(i+1) * ... * a_r
    at = [prod(exponents[i + 1:]) for i, a in enumerate(exponents) if a >= 2]
    gens = [[one if j == k else zero for j in range(dim)] for k in at]
    return FiniteLocalAlgebra(field, dim, table, gens)

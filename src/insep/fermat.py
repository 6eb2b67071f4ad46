"""Hypersurfaces V_+(lambda_0 U_0^p + ... + lambda_n U_n^p) in P^n over K.

The p-degree d of K^p(lambda_i/lambda_r) inside K controls everything: the
scheme is regular iff d = n, is a p-th power (nowhere reduced) iff d = 0, and
otherwise has singular locus of codimension exactly d.
"""

from dataclasses import dataclass

from .fieldarith import Matrix
from .frobenius import p_linear_relation, pdegree_generated, pth_root
from .upoly import UPoly

VERDICT_REGULAR = "Regular"
VERDICT_SINGULAR = "SingularCodim"
VERDICT_NONREDUCED = "NonreducedEverywhere"


class DegenerateCaseError(ValueError):
    """No derivation separates the coefficients (d = 0)."""


class NotIntegralError(ValueError):
    """The hypersurface is nowhere reduced (d = 0), so there is no generic field."""


@dataclass(frozen=True)
class PFermatHypersurface:
    field: object          # FunctionField
    n: int                 # ambient projective dimension
    coeffs: tuple          # lambda_0, ..., lambda_n as RatFunc

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("ambient dimension must be >= 1")
        if len(self.coeffs) != self.n + 1:
            raise ValueError("need n+1 coefficients")
        if not any(self.coeffs):
            raise ValueError("coefficients must not all vanish")

    @property
    def p(self):
        return self.field.p

    def reference_index(self):
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise AssertionError("unreachable: some coefficient is nonzero")

    def ratios(self):
        r = self.reference_index()
        lr = self.coeffs[r]
        return [c / lr for c in self.coeffs]

    def defining_upoly(self, normalized=False):
        coeffs = self.ratios() if normalized else list(self.coeffs)
        return UPoly.from_power_form(self.field, coeffs, self.p)


@dataclass(frozen=True)
class Classification:
    d: int
    verdict: str
    codim: object                 # int for singular verdicts, else None
    rational_point: object        # tuple of RatFunc or None
    pth_power_certificate: object  # (unit, root coefficients) when d = 0


def invariant_d(X):
    """p-degree over K^p of the field generated by the coefficient ratios."""
    return pdegree_generated(X.ratios()).d


def rational_point(X):
    """A point with sum lambda_i x_i^p = 0, or None iff the lambda_i are p-independent."""
    relation = p_linear_relation(list(X.coeffs))
    if relation is None:
        return None
    # normalize so the first nonzero coordinate is 1
    unit = next(c for c in relation if c)
    point = tuple(c / unit for c in relation)
    value = X.field.zero()
    for lam, x in zip(X.coeffs, point):
        value = value + lam * (x ** X.p)
    if value:
        raise AssertionError("kernel vector does not satisfy the equation")
    return point


def classify(X):
    """Regular iff d = n; nowhere reduced iff d = 0; else singular of codimension d."""
    d = invariant_d(X)
    point = rational_point(X)
    if d == X.n:
        return Classification(d=d, verdict=VERDICT_REGULAR, codim=None,
                              rational_point=point, pth_power_certificate=None)
    if d == 0:
        r = X.reference_index()
        roots = tuple(pth_root(ratio) for ratio in X.ratios())
        if any(root is None for root in roots):
            raise AssertionError("d = 0 but a coefficient ratio is not a p-th power")
        cert = (X.coeffs[r], roots)
        # f = lambda_r * (sum roots_i U_i)^p exactly
        return Classification(d=d, verdict=VERDICT_NONREDUCED, codim=None,
                              rational_point=point, pth_power_certificate=cert)
    return Classification(d=d, verdict=VERDICT_SINGULAR, codim=d,
                          rational_point=point, pth_power_certificate=None)


def coefficient_derivations(X):
    """Vectors c^(i) with D_i = sum_k c_k d/dt_k satisfying D_i(mu_{j_m}) = delta_im.

    The chosen p-independent ratios have K-linearly independent differentials,
    so the Jacobian system is solvable exactly.
    """
    field = X.field
    nvars = len(field.vars)
    ratios = X.ratios()
    # a selected ratio is not spanned by the ratios before it, so it is not equal
    # to any of them: its first position is the index the greedy pass kept
    indices = [ratios.index(mu) for mu in pdegree_generated(ratios).selected]
    d = len(indices)
    if d == 0:
        raise DegenerateCaseError("all coefficient ratios are p-th powers (d = 0)")
    jac = [[ratios[j].derivative(k) for k in range(nvars)] for j in indices]
    m = Matrix(field, jac)
    out = []
    for i in range(d):
        rhs = [field.one() if r == i else field.zero() for r in range(d)]
        sol = m.solve(rhs)
        if sol is None:
            raise AssertionError("derivation system unsolvable for p-independent ratios")
        out.append(sol)
    return out, indices


def _apply_derivation(X, cvec):
    """Coefficient vector of D(f) for the normalized equation f = sum mu_j U_j^p."""
    field = X.field
    nvars = len(field.vars)
    out = []
    for mu in X.ratios():
        val = field.zero()
        for k in range(nvars):
            val = val + cvec[k] * mu.derivative(k)
        out.append(val)
    return out


def singular_ideal(X):
    """Generators {f, D_1 f, ..., D_d f} of the singular-locus ideal, as U-polynomials."""
    derivations, _ = coefficient_derivations(X)
    field = X.field
    gens = [X.defining_upoly(normalized=True)]
    for cvec in derivations:
        gens.append(UPoly.from_power_form(field, _apply_derivation(X, cvec), X.p))
    return gens


def singular_ideal_partials(X):
    """The equivalent generating set {f, df/dt_1, ..., df/dt_nvars} (zeros dropped)."""
    field = X.field
    nvars = len(field.vars)
    gens = [X.defining_upoly()]
    for k in range(nvars):
        vec = [c.derivative(k) for c in X.coeffs]
        poly = UPoly.from_power_form(field, vec, X.p)
        if poly:
            gens.append(poly)
    return gens


def geometric_generic_edim(X):
    """Generic embedding dimension after base change to K^(1/p); always 1 when d >= 1.

    Substituting t_i -> t_i^p realizes the base change, and the substituted
    equation becomes the p-th power of a linear form, computed and verified by
    exact expansion.  The function field then has p-degree n over K(F^p) and
    transcendence degree n-1, and the embedding dimension is the difference, 1.
    """
    if invariant_d(X) == 0:
        raise NotIntegralError("nowhere reduced hypersurface has no generic field")
    pth_power_witness_over_root_field(X)
    return 1


def pth_power_witness_over_root_field(X):
    """Root coefficients rho_i with (sum rho_i U_i)^p = f after t_i -> t_i^p.

    The substitution identifies K^(1/p) with the same rational function field;
    the identity is verified by exact expansion before returning.
    """
    field = X.field
    p = X.p
    substituted = [c.stretch_exponents(p) for c in X.coeffs]
    roots = [pth_root(c) for c in substituted]
    if any(root is None for root in roots):
        raise AssertionError("a coefficient is not a p-th power after t_i -> t_i^p")
    g = UPoly.from_power_form(field, roots, 1)
    expanded = g ** p
    target = UPoly.from_power_form(field, substituted, p)
    if expanded != target:
        raise AssertionError("p-th power witness failed exact expansion")
    return tuple(roots)

"""Hypersurfaces V_+(lambda_0 U_0^p + ... + lambda_n U_n^p) in P^n over K.

The p-degree d of K^p(lambda_i/lambda_r) inside K controls everything: the
scheme is regular iff d = n, is a p-th power (nowhere reduced) iff d = 0, and
otherwise has singular locus of codimension exactly d.  That locus is cut out
by f and its partials df/dt_k (singular_ideal), which the Groebner oracle reads;
the same partials modulo f give the edim of the geometric generic fiber.  All
three read the t-Jacobian (d lambda_i/dt_k), computed once per hypersurface.
"""

from collections import namedtuple
from functools import lru_cache

from .fieldarith import CACHE_SIZE, Matrix
from .frobenius import p_linear_relation, pth_root
from .groebner import buchberger, ideal_dimension
from .upoly import UPoly

VERDICT_REGULAR = "Regular"
VERDICT_SINGULAR = "SingularCodim"
VERDICT_NONREDUCED = "NonreducedEverywhere"


class NotIntegralError(ValueError):
    """The hypersurface is nowhere reduced (d = 0), so there is no generic field."""


class PFermatHypersurface(namedtuple("PFermatHypersurface", "field n coeffs")):
    """field: the FunctionField K; n: the ambient projective dimension;
    coeffs: lambda_0, ..., lambda_n as RatFunc."""

    __slots__ = ()

    def __new__(cls, field, n, coeffs):
        if n < 1:
            raise ValueError("ambient dimension must be >= 1")
        if len(coeffs) != n + 1:
            raise ValueError("need n+1 coefficients")
        if not any(coeffs):
            raise ValueError("coefficients must not all vanish")
        return super().__new__(cls, field, n, tuple(coeffs))

    @property
    def p(self):
        return self.field.p

    def reference_index(self):
        return next(i for i, c in enumerate(self.coeffs) if c)

    def ratios(self):
        r = self.reference_index()
        lr = self.coeffs[r]
        return [c / lr for c in self.coeffs]

    def defining_upoly(self):
        return UPoly.from_power_form(self.field, list(self.coeffs), self.p)


class Classification(namedtuple(
        "Classification", "d verdict codim rational_point pth_power_certificate")):
    """codim: an int for singular verdicts, else None; rational_point: a tuple of
    RatFunc or None; pth_power_certificate: (unit, root coefficients) when d = 0."""

    __slots__ = ()


@lru_cache(maxsize=CACHE_SIZE)
def jacobian(X):
    """The t-Jacobian of lambda: for each variable t_k of K the row (d lambda_i/dt_k)_i."""
    return tuple(tuple(c.derivative(k) for c in X.coeffs) for k in range(len(X.field.vars)))


@lru_cache(maxsize=CACHE_SIZE)
def invariant_d(X):
    """p-degree over K^p of the field generated by the coefficient ratios, as
    rank [d lambda/dt; lambda] - 1: with lambda_r != 0, the column operations
    C_k <- lambda_r C_k - (d lambda_r/dt_k) C_lambda of the transpose leave C_k =
    lambda_r^2 d(lambda_i/lambda_r)/dt_k, the Jacobian of the ratios (README)."""
    # lambda goes last: the derivatives are the cheaper pivots, often constants
    return Matrix(X.field, jacobian(X) + (X.coeffs,)).rank() - 1


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


def singular_ideal(X):
    """Generators {f, df/dt_1, ..., df/dt_n} of the singular-locus ideal, zeros dropped.

    Every derivation of K = F_p(t_1,...,t_n) is a K-combination of the d/dt_k,
    so these generate the ideal of f and all its derivatives along K.
    """
    partials = (UPoly.from_power_form(X.field, list(row), X.p) for row in jacobian(X))
    return [X.defining_upoly()] + [g for g in partials if g]


def geometric_generic_edim(X):
    """Embedding dimension of the geometric generic fiber: the generic rank of the
    t-Jacobian (df/dt_1, ..., df/dt_n) on X.

    The edim is the dimension of Cartier's imperfection module, the kernel of
    F (x) Omega_K -> Omega_F for F the function field of X (Matsumura, Commutative
    Ring Theory, Sec. 26).  As df has no dU part, that kernel is spanned by the row
    (df/dt_k)_k at the generic point, so the edim is 1 iff some df/dt_k lies
    outside (f).  Two forms of degree p lie in one ideal (f) only when proportional,
    so that holds iff some (d lambda_i/dt_k)_i is no K-multiple of (lambda_i)_i.
    """
    if invariant_d(X) == 0:
        raise NotIntegralError("nowhere reduced hypersurface has no generic field")
    lam, r = X.coeffs, X.reference_index()
    return int(any(lam[r] * gi != g[r] * li for g in jacobian(X) for gi, li in zip(g, lam)))


class CodimCheck(namedtuple("CodimCheck", "predicted_d oracle_codim match")):
    """oracle_codim is an int, or None when the locus is empty."""

    __slots__ = ()


def verify_codim(X):
    """Confirm the predicted singular codimension against the Groebner oracle.

    The singular locus of X is cut out by singular_ideal.  The predicted
    codimension is the invariant d (d = n means a regular scheme, i.e. an empty
    singular locus); the oracle's is taken inside X, of dimension n-1 in P^n.
    """
    d = invariant_d(X)
    report = ideal_dimension(buchberger(singular_ideal(X)))
    codim = None if report.projective_dim is None else (X.n - 1) - report.projective_dim
    return CodimCheck(predicted_d=d, oracle_codim=codim,
                      match=codim is None if d == X.n else codim == d)

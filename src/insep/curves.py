"""Plane curves lambda*U_0^p + Q(lambda)*U_1^p + U_2^p = 0 with invariant d = 1.

Such a curve is the image of a projective line over L = K(lambda^(1/p)) under a
degree-one map; the interesting geometry is concentrated at one singular point,
where the curve and the line differ by the conductor Artin rings
O_A = L[u]/(u^(p-1)) and its K-subalgebra O_A0 of half dimension.
"""

from collections import namedtuple

from .fieldarith import (
    Matrix,
    SimpleExtensionField,
    Span,
    TruncSeriesRing,
)
from .fermat import PFermatHypersurface, invariant_d, singular_ideal
from .frobenius import membership_in_pspan, pth_root
from .upoly import UPoly

CASE_P2 = "P2"
CASE_RESIDUE_L = "ResidueL"
CASE_RESIDUE_K = "ResidueK"


class WrongInvariantError(ValueError):
    """The coefficient triple does not have invariant d = 1."""


class UnsupportedPError(ValueError):
    """Conductor computations are limited to p <= 5."""


# -- normal form ---------------------------------------------------------------


class CurveNormalForm(namedtuple(
        "CurveNormalForm", "field lam root_coeffs scale_unit slot_to_index")):
    """field: the FunctionField K; lam: lambda, not a p-th power; root_coeffs:
    c_0..c_(p-1) with Q(lambda) = sum c_i^p lambda^i; scale_unit: the coefficient
    that was scaled to 1; slot_to_index: canonical slot (lam, Q, 1) -> index in
    the input triple."""

    __slots__ = ()

    @property
    def p(self):
        return self.field.p

    def q_of_lambda(self):
        total = self.field.zero()
        for c in reversed(self.root_coeffs):
            total = total * self.lam + c ** self.p
        return total

    def curve(self):
        coeffs = (self.lam, self.q_of_lambda(), self.field.one())
        return PFermatHypersurface(field=self.field, n=2, coeffs=coeffs)

    def reproduces(self, original_coeffs):
        """Original triple = unit * (canonical triple permuted); exactness check."""
        canonical = (self.lam, self.q_of_lambda(), self.field.one())
        return all(original_coeffs[index] == self.scale_unit * canonical[slot]
                   for slot, index in enumerate(self.slot_to_index))


def normal_form(field, lam0, lam1, lam2):
    """Scale and permute a d = 1 triple into lambda*U_0^p + Q(lambda)*U_1^p + U_2^p.

    The last nonzero coefficient is scaled to 1; among the other two ratios the
    first that is not a p-th power becomes lambda, and the remaining one is
    expressed over K^p(lambda).
    """
    coeffs = (lam0, lam1, lam2)
    X = PFermatHypersurface(field=field, n=2, coeffs=coeffs)
    d = invariant_d(X)
    if d != 1:
        raise WrongInvariantError("invariant d = %d, need 1" % d)
    r = max(i for i, c in enumerate(coeffs) if c)
    unit = coeffs[r]
    rest = [i for i in range(3) if i != r]
    ratios = {i: coeffs[i] / unit for i in rest}
    lam_index = next((i for i in rest if pth_root(ratios[i]) is None), None)
    if lam_index is None:
        raise AssertionError("d = 1 but every ratio is a p-th power")
    other_index = next(i for i in rest if i != lam_index)
    lam = ratios[lam_index]
    combo = membership_in_pspan(ratios[other_index], [lam])
    if combo is None:
        raise AssertionError("d = 1 but the second ratio is outside K^p(lambda)")
    root_coeffs = tuple(combo.get((i,), field.zero()) for i in range(field.p))
    nf = CurveNormalForm(field=field, lam=lam, root_coeffs=root_coeffs,
                         scale_unit=unit, slot_to_index=(lam_index, other_index, r))
    if not nf.reproduces(coeffs):
        raise AssertionError("normal form failed to reproduce the input equation")
    return nf


# -- normalization ---------------------------------------------------------------


class NormalizationMap(namedtuple("NormalizationMap", "nf line_field q_root")):
    """nf: a CurveNormalForm; line_field: L = K(lambda^(1/p)); q_root: the
    element of L with q_root^p = Q(lambda)."""

    __slots__ = ()

    def images(self):
        """Pullbacks of U_0, U_1, U_2 as linear forms a*T_0 + b*T_1 over L."""
        L = self.line_field
        x = L.gen()
        return (
            (L.one(), L.zero()),
            (L.zero(), L.one()),
            (-x, -self.q_root),
        )


def normalization(nf):
    """The map P^1_L -> X, with an exact check that it lands on X.

    The pulled-back equation lam*T0^p + Q*T1^p + (-x*T0 - q_root*T1)^p is
    compared with 0.  Its p-th power is a Frobenius substitution, not a product:
    (a*T0 + b*T1)^p = a^p*T0^p + b^p*T1^p.  The map has degree one: L exists
    only if lambda is not a p-th power, and then [L:K] = p, the K-length of the
    preimage V_+(T_0) of the U_0 = 0 section.
    """
    p = nf.p
    L = SimpleExtensionField(nf.field, nf.lam, gen_name="x")
    x = L.gen()
    q_root = L.from_coeffs(nf.root_coeffs)  # sum c_i x^i

    # nu*(f) = lam*T0^p + Q*T1^p + (-x*T0 - q_root*T1)^p must vanish identically
    u2 = UPoly(L, 2, {(1, 0): -x, (0, 1): -q_root})
    if u2 ** p + UPoly.from_power_form(L, [L.lift(nf.lam), L.lift(nf.q_of_lambda())], p):
        raise AssertionError("pullback of the defining equation did not vanish")
    return NormalizationMap(nf=nf, line_field=L, q_root=q_root)


# -- the singular point -------------------------------------------------------------


class SingularPointData(namedtuple(
        "SingularPointData", "point_on_line image_point residue_degree nu")):
    """point_on_line: (-rho : 1) in P^1_L; image_point: the coordinates of a_0 in
    P^2, as elements of L; residue_degree: 1 or p; nu: the NormalizationMap the
    point was found on."""

    __slots__ = ()


def singular_point(nf):
    """The unique singular point: (-Q'(lambda)^(1/p) : 1) upstairs and its image."""
    nu = normalization(nf)
    L = nu.line_field
    # rho = (d/dx) sum c_i x^i satisfies rho^p = Q'(lambda)
    K = nf.field
    derivative = [K.from_int(i) * c for i, c in enumerate(nf.root_coeffs)][1:]
    rho = L.from_coeffs(derivative + [K.zero()])
    a = (-rho, L.one())
    image_point = tuple(c0 * a[0] + c1 * a[1] for c0, c1 in nu.images())

    # the image must satisfy the equation and every singular-ideal generator
    for gen in singular_ideal(nf.curve()):
        if gen.evaluate(image_point, L.one(), embed_coeff=L.lift):
            raise AssertionError("image point misses a singular-ideal generator")

    # U_1 pulls back to T_1 = 1 at a, so the affine coordinates are the others
    degree = 1 if image_point[0].in_base() and image_point[2].in_base() else nf.p
    return SingularPointData(point_on_line=a, image_point=image_point, residue_degree=degree,
                             nu=nu)


# -- conductor rings ---------------------------------------------------------------


class ConductorRing:
    """O_A = L[u]/(u^(p-1)) seen as a K-vector space of dimension p(p-1)."""

    def __init__(self, line_field):
        self.L = line_field
        self.K = line_field.base
        self.p = line_field.p
        self.order = self.p - 1
        self.series = TruncSeriesRing(line_field, self.order)
        self.dim_K = self.p * (self.p - 1)

    def flatten(self, series):
        return [c for j in range(self.order) for c in series.coeffs[j].coeffs]

    def unflatten(self, vec):
        return self.series.from_coeffs([self.L.from_coeffs(vec[j * self.p:(j + 1) * self.p])
                                        for j in range(self.order)])

    def mul(self, v, w):
        return self.flatten(self.unflatten(v) * self.unflatten(w))

    def closure(self, gens):
        """An rref basis of the K-subalgebra generated by gens, closed semi-naively
        in one span: each pivot row added after 1 is multiplied once by each
        generator's pivot row, until a round adds no pivot."""
        span = Span(self.K, self.dim_K, [enumerate(self.one_vec())])

        def added(vecs):  # the pivot rows that vecs add to the span, one by one
            cols = [span.add(enumerate(v)) for v in vecs]
            return [span.row(col) for col in cols if col is not None]

        gens = new = added(gens)
        while new:
            new = added([self.mul(v, g) for v in new for g in gens])
        return span.basis()

    def one_vec(self):
        return self.flatten(self.series.one())

    def u_level_span(self, k):
        """Basis of the subspace u^k * L; k = 0 gives the coefficient field L."""
        zero, one = self.K.zero(), self.K.one()
        return [[one if c == k * self.p + i else zero for c in range(self.dim_K)]
                for i in range(self.p)]

    def vanishing_order(self, vec):
        return self.unflatten(vec).order_of_vanishing()


class ConductorProfile(namedtuple("ConductorProfile", "ring chart_index images subalgebra_basis "
                                  "dim_subalgebra dim_meet_L case witnesses sp")):
    """ring: the ConductorRing; images: the series images of the two affine
    coordinates; subalgebra_basis: a K-basis (flattened vectors) of O_A0;
    dim_meet_L: dim_K(O_A0 /\\ L), asserted to be 1; sp: the SingularPointData."""

    __slots__ = ()


def _subspace_intersection_dim(ring, basis_a, basis_b):
    """dim(A /\\ B) = dim A + dim B - dim(A + B), given a K-basis of A and one of B
    in the ring's flattened coordinates."""
    return len(basis_a) + len(basis_b) - len(Span(ring.K, ring.dim_K,
                                                  map(enumerate, basis_a + basis_b)))


def conductor_profile(nf):
    """O_A, the K-subalgebra O_A0 that the curve's affine coordinates generate, and the case tag.

    The images and witnesses are read in the affine chart U_i = 1 for the first
    coordinate of the singular point that is a unit, with local parameter
    u = T_0/T_1 + rho.  O_A0 is closed from U0/U1 = u - rho and U2/U1 in either
    chart: U1 pulls back to T1 = 1, a unit at the point, and so is U0 in chart 0;
    the inverse of a unit of a finite K-algebra is a polynomial in it, so
    K[U1/U0, U2/U0] = K[U0/U1, U2/U1].  These generators need no series inverse.
    """
    p = nf.p
    if p > 5:
        raise UnsupportedPError("conductor computations support p <= 5 only")
    sp = singular_point(nf)
    L = sp.nu.line_field
    ring = ConductorRing(L)
    series = ring.series

    rho = -sp.point_on_line[0]
    # s = T0/T1 expands as u - rho in the local parameter u
    s_series = series.from_coeffs([-rho, L.one()])
    # U2/U1 pulls back to -x*s - q_root
    u2_over_u1 = -(series.lift(L.gen()) * s_series) - series.lift(sp.nu.q_root)

    if sp.image_point[0]:
        chart = 0
        inv = s_series.inverse()
        images = (inv, u2_over_u1 * inv)            # U1/U0, U2/U0
    else:
        chart = 1
        images = (s_series, u2_over_u1)             # U0/U1, U2/U1

    basis = ring.closure([ring.flatten(s_series), ring.flatten(u2_over_u1)])

    dim_sub = len(basis)
    if dim_sub != p * (p - 1) // 2:
        raise AssertionError("dim_K(O_A0) = %d, expected p(p-1)/2 = %d"
                             % (dim_sub, p * (p - 1) // 2))
    dim_meet_L = _subspace_intersection_dim(ring, basis, ring.u_level_span(0))
    if dim_meet_L != 1:
        raise AssertionError("O_A0 /\\ L is bigger than K")
    # conductor exactness guard: u^(p-2)*L does not land inside O_A0
    if _subspace_intersection_dim(ring, basis, ring.u_level_span(ring.order - 1)) >= p:
        raise AssertionError("conductor would be larger than (u^(p-1))")

    witnesses = {}
    if p == 2:
        case = CASE_P2
    elif sp.residue_degree == 1:
        case = CASE_RESIDUE_K
        v, w = (ring.flatten(im - series.lift(im.coeffs[0])) for im in images)
        # the u-coefficients of v and w, which the constants do not change
        if Matrix(ring.K, [list(im.coeffs[1].coeffs) for im in images]).rank() != 2:
            raise AssertionError("ResidueK witnesses are dependent mod m^2")
        witnesses = {"v": v, "w": w}
    else:
        case = CASE_RESIDUE_L
        h = next(im for im in images if not im.coeffs[0].in_base())
        mu = h.coeffs[0]
        f_part = h - series.lift(mu)
        if f_part.order_of_vanishing() != 1:
            raise AssertionError("ResidueL witness f does not lie in m \\ m^2")
        witnesses = {"mu": mu, "f": ring.flatten(f_part)}
        if p >= 5:
            # basis is in echelon form, so order-2 members of the span show up as rows
            g_vec = next((list(v) for v in basis if ring.vanishing_order(v) == 2), None)
            if g_vec is None:
                raise AssertionError("no ResidueL witness g in m^2 \\ m^3")
            witnesses["g"] = g_vec
        # at p = 3 the condition g in m^2 \ m^3 is vacuous: m^2 = 0 in L[u]/(u^2)

    return ConductorProfile(ring=ring, chart_index=chart, images=images,
                            subalgebra_basis=tuple(tuple(v) for v in basis),
                            dim_subalgebra=dim_sub, dim_meet_L=dim_meet_L, case=case,
                            witnesses=witnesses, sp=sp)


# -- glueing cohomology -------------------------------------------------------------


class GlueingCohomology(namedtuple("GlueingCohomology", "h0 h1 admissible")):
    __slots__ = ()


def glueing_cohomology(cp):
    """h^0 and h^1 of the curve glued from P^1_L along O_A0 inside O_A.

    Exactness of 0 -> H^0 -> O_A0 (+) L -> O_A -> H^1 -> 0 reduces both numbers
    to dimensions over K that the ConductorProfile cp already holds: H^0 is
    O_A0 /\\ L, and dim_K L = p.
    """
    h0, dim_sub, dim_ring = cp.dim_meet_L, cp.dim_subalgebra, cp.ring.dim_K
    h1 = dim_ring - dim_sub - cp.ring.p + h0
    # admissible: O_A0 meets L in K and has half the dimension p(p-1) of O_A
    return GlueingCohomology(h0=h0, h1=h1, admissible=h0 == 1 and 2 * dim_sub == dim_ring)

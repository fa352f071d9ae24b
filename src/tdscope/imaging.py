"""Imaging kernels on spherical surfaces and topological-derivative maps.

The two-point kernel G correlates point-source gradients over the surface,

    G(z, y) = int_Gamma conj(grad Phi_kappa(s - z)) (x) grad Phi_kappa(s - y) ds,

and is evaluated independently by direct quadrature (kernel_G, the oracle),
a far-field closed form, a two-term large-sphere expansion, and the
addition-theorem series.  On a closed sphere G and L are real.  The maps
reach G through one route, the factor builder _kernel_factors behind
KernelG; the oracle study calls the other evaluators directly.

KernelG factors G(z, y) = sum_p conj(b_p(z)) (x) b_p(y) with one factor b of
rank P.  On a closed sphere in an isotropic background the addition theorem
gives the spectral factor b_p = sqrt(c_p) grad u_nm over the regular waves
u_nm of specfun_quad.regular_wave_gradients, P = (n_max + 1)^2 with n_max
set by the point sets, not by the surface radius.  The identity holds in
any unitary basis of the waves, and the factor uses the real basis of
harmonics_table(kind="real"), sign (-1)^m included (see _SpectralFactor):
b is real, and each wave is even or odd under every coordinate mirror
through the centre, so vie solves it in one mirror block of a grid
symmetric about that centre.  Otherwise (cap apertures, anisotropic
backgrounds, series past N_MAX) the node factor b_p = sqrt(w_p)
grad Phi(s_p - x) integrates over the surface nodes.

A topological-derivative map contracts G(z, .) over the true scatterer B
with the trial polarization tensor on one side and the scatterer's solution
operator on the other:

    T(z) = -Re sum_ik (M_z)_ik < G_i(z,.), [M_B G_k(z,.)] >_{L^2(B)},

with the conjugate on the left slot.  Every regime goes through one
contraction giving the 3x3 response matrix S(z)_ij = 1/2 < g_i, M_B g_j >
for the rows g_i of G(z, .) and T(z) = -2 h^3 Re tr(M_z S(z)), where the
maps differ only in the trial's M_z.  S(z) = b(z)^T T_m conj(b(z)) with
the factor's response T_m = 1/2 b^H M_B b of its P fields on the voxel
grid, which vie._half_pairing forms inside the blocks of the dense solve.
The spectral factor takes T_m = D T_w D: the response T_w of the unscaled
regular waves is solved once and cached on the system, and the surface
radius enters only through the diagonal D, so _contract maps samples on
many spheres with one pairing against T_w per centre and n_max; a node
factor solves its K node fields.
Each map reports the moderate-scatterer certificate, the kernel factor it
used, and the imaginary residue of the pre-Re pairing.

The finite-size check compares the misfit increment of an actual delta-ball
against delta^3 T(z) through the same factor: both sides are pairings of
the responses T_m of the scatterer and of the ball, each solved once.

The symmetry-restoring operator E multiplies surface-harmonic coefficients
by -conj(h_n(kappa R)) / h_n(kappa R).  Traces use the real orthonormal
harmonic basis, so conjugating a function conjugates its coefficients; the
-conj identity for point sources holds for coefficients in the radiating
normalization (the h_0 expansion), where they are real multiples of
h_n(kappa R).  E is unimodular and diagonal in that basis, so it preserves
the L^2 pairing of two traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .greens import Background, grad_phi, phi
from .materials import IsoContrast
from .polarization import PolarizationTensor, mz_ball_iso
from .specfun_quad import (
    N_MAX,
    _degree_order,
    _real_wave_gradients,
    harmonics_table,
    legendre_p,
    log_odd_factorial,
    sph_bessel_j,
    sph_hankel1,
    sphere_surface,
    voxelize,
    Ball,
)
from . import vie
from .vie import (
    _half_pairing,
    assemble,
    operator_norm,
    radiation_matrix,
    resolvent_solve,  # unused here; the traced benchmark wraps imaging.resolvent_solve
    solve_density,
)

__all__ = [
    "KernelG",
    "TdMap",
    "HarmonicTrace",
    "kernel_G",
    "kernel_G_farfield",
    "kernel_G_asymptotic",
    "kernel_L",
    "kernel_L_series",
    "kernel_G_from_L",
    "truncation_order",
    "surface_order_hint",
    "harmonic_trace",
    "synthesize_trace",
    "e_multipliers",
    "e_apply",
    "td_map_iso",
    "td_map_aniso_iso",
    "td_map_general",
    "td_finite_delta_check",
    "FiniteDeltaCheck",
]


def _require_inside(surface, p, name):
    p = np.asarray(p, dtype=float)
    # written so that a NaN coordinate fails too
    if not np.linalg.norm(p - surface.center) < surface.radius:
        raise ValueError(f"{name} must lie strictly inside the surface sphere")
    return p


def truncation_order(kappa, radius):
    """Baseline harmonic truncation: ceil(kappa R) + 20.

    Series loops keep adding terms past this point until the last term drops
    below 1e-14 of the running sum.
    """
    return int(np.ceil(kappa * radius)) + 20


def surface_order_hint(kappa, r_left, r_right=0.0):
    """Quadrature order that resolves G(z, y) for |z| <= r_left, |y| <= r_right.

    Each point-source factor carries harmonic content up to about
    kappa r + O((kappa r)^{1/3}); the Gauss-Legendre rule of order m is exact
    through polynomial degree 2m - 1, so half the combined content plus a
    safety margin suffices.
    """
    def content(r):
        x = kappa * r
        return x + 5.0 * (x + 1.0) ** (1.0 / 3.0)

    return max(20, int(np.ceil(0.5 * (content(r_left) + content(r_right)))) + 10)


# ---------------------------------------------------------------------------
# kernel G and its oracles


def kernel_G(surface, bg, z, y):
    """Quadrature evaluation of G(z, y); z, y strictly inside the sphere.

    Cap apertures are supported through the surface's restricted node set.
    """
    z = _require_inside(surface, z, "z")
    y = _require_inside(surface, y, "y")
    nodes = surface.nodes
    pz = grad_phi(bg, nodes - z[None, :])
    py = grad_phi(bg, nodes - y[None, :])
    return np.einsum("k,ki,kj->ij", surface.weights, pz.conj(), py)


def kernel_G_farfield(kappa, z, y):
    """Far-field limit of G (unit isotropic background, R -> infinity)."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    d = float(np.linalg.norm(y - z))
    eye = np.eye(3)
    if kappa * d == 0.0:
        return (kappa**2 / (12.0 * np.pi)) * eye
    b = (y - z) / d
    x = kappa * d
    j0 = sph_bessel_j(0, x)
    j1 = sph_bessel_j(1, x)
    bb = np.outer(b, b)
    return (kappa**2 / (4.0 * np.pi)) * (j0 * bb + (j1 / x) * (eye - 3.0 * bb))


def kernel_G_asymptotic(R, kappa, z, y):
    """Two-term large-sphere expansion of G for |y - z| << R.

    Leading term ((1 + kappa^2 R^2) / (12 pi R^2)) [j0 I + j2 (I - 3 bb)],
    first correction -((kappa R + i) / (4 pi R^2)) [j1 bb
    + (i kappa R + 2) (j2/x) (I - 3 bb)] |y - z| / R.
    """
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    d = float(np.linalg.norm(y - z))
    eye = np.eye(3, dtype=complex)
    lead_coef = (1.0 + (kappa * R) ** 2) / (12.0 * np.pi * R**2)
    if d == 0.0:
        return lead_coef * eye
    b = (y - z) / d
    bb = np.outer(b, b)
    pp = eye - 3.0 * bb
    x = kappa * d
    if x == 0.0:
        return lead_coef * (eye + 0.0 * pp)
    j0 = sph_bessel_j(0, x)
    j1 = sph_bessel_j(1, x)
    j2 = sph_bessel_j(2, x)
    lead = lead_coef * (j0 * eye + j2 * pp)
    corr = ((kappa * R + 1j) / (4.0 * np.pi * R**2)) * (
        j1 * bb + (1j * kappa * R + 2.0) * (j2 / x) * pp
    ) * (d / R)
    return lead - corr


def kernel_L(surface, bg, z, y):
    """Quadrature of the scalar correlation L(z, y) = int conj(Phi_z) Phi_y ds."""
    z = _require_inside(surface, z, "z")
    y = _require_inside(surface, y, "y")
    nodes = surface.nodes
    pz = phi(bg, nodes - z[None, :])
    py = phi(bg, nodes - y[None, :])
    return complex(np.sum(surface.weights * pz.conj() * py))


def kernel_L_series(R, kappa, z, y):
    """Harmonic series for L on the closed sphere of radius R (kappa > 0).

    L = (kappa^2 R^2 / 4 pi) sum_n (2n+1) |h_n(kappa R)|^2
        j_n(kappa |z|) j_n(kappa |y|) P_n(zhat . yhat);
    the R^2 factor makes L(0,0) = 1/(4 pi) exactly.  Truncation: runs to at
    least ceil(kappa max(|z|, |y|)) + 20, past which the terms decay
    geometrically whatever kappa R is, and stops once the last term falls
    below 1e-14 of the running sum.
    """
    if kappa <= 0.0:
        raise ValueError("series form requires kappa > 0")
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    rz = float(np.linalg.norm(z))
    ry = float(np.linalg.norm(y))
    if rz >= R or ry >= R:
        raise ValueError("series requires |z|, |y| < R")
    t = 1.0 if rz == 0.0 or ry == 0.0 else float(np.dot(z, y) / (rz * ry))
    t = min(1.0, max(-1.0, t))
    n_min = truncation_order(kappa, max(rz, ry))
    total = 0.0
    for n in range(N_MAX + 1):
        try:
            term = ((2 * n + 1) * float(np.abs(sph_hankel1(n, kappa * R))) ** 2
                    * float(sph_bessel_j(n, kappa * rz)) * float(sph_bessel_j(n, kappa * ry))
                    * float(legendre_p(n, t)))
        except OverflowError:
            raise ValueError(f"kernel_L_series: |h_{n}(kappa R)|^2 overflows at "
                             f"kappa R = {kappa * R:.3g}") from None
        total += term
        if n >= n_min and abs(term) < 1e-14 * max(abs(total), 1e-300):
            return (kappa**2 * R**2 / (4.0 * np.pi)) * total
    raise ValueError(f"series truncation exceeds supported order {N_MAX}")


def kernel_G_from_L(R, kappa, z, y):
    """G_ij = d2 L / dz_i dy_j on the closed sphere of radius R (unit background).

    The mixed derivative of the L series taken term by term: the addition
    theorem's spectral factor (see _kernel_factors) at a = 1, centred at the
    origin, G = conj(b(z))^T b(y).  kappa = 0 is the static kernel.
    """
    z = np.asarray(z, dtype=float)[None, :]
    y = np.asarray(y, dtype=float)[None, :]
    if not max(np.linalg.norm(z), np.linalg.norm(y)) < R:
        raise ValueError("series requires |z|, |y| < R")
    # order 1: the spectral factor never reads the surface rule
    fac, = _kernel_factors(Background.isotropic(1.0, float(kappa)), [(sphere_surface(R, 1), z)], y)
    if fac.kind != "spectral":
        raise ValueError(f"series truncation exceeds supported order {N_MAX}")
    return fac(z)[:, 0].conj().T @ fac(y)[:, 0]


# the tail of the addition-theorem series is cut once it has fallen by 1e-16
_TAIL_EFOLDS = np.log(1e16)


def _spectral_order(k, radius, reach_z, reach_y):
    """Truncation degree of the addition-theorem series of G, or None past N_MAX.

    Two tails are cut.  The Bessel tail of the inner point set falls off
    past k min(reach) within about 10 (k reach)^{1/3} degrees (12 at the
    least); past kR the terms shrink like (reach_z reach_y / R^2)^n, which
    governs points close to the surface and the static kernel.
    """
    x = k * min(reach_z, reach_y)
    n = x + max(12.0, 10.0 * np.cbrt(x))
    q = (reach_z / radius) * (reach_y / radius)
    if q > 0.0:
        n = max(n, _TAIL_EFOLDS / -np.log(q))
    n = int(np.ceil(n))
    return n if n <= N_MAX else None


# (wave, point) pairs per _real_wave_gradients call of _SpectralFactor._waves:
# about 1 MiB for the complex solid harmonics of a chunk, and the voxel grids
# of the decay and finite-delta studies (196 waves on 280 cells) in one call
_WAVE_CHUNK = 1 << 16


@dataclass(frozen=True)
class _SpectralFactor:
    """b_p(x) = sqrt(c_p) grad v_p(x - center), p = n (n + 1) + m, n <= n_max.

    v_p are the regular waves in the real basis of
    harmonics_table(kind="real"): u_n0 for m = 0, sqrt(2) (-1)^m Re u_nm for
    m > 0 and sqrt(2) (-1)^m Im u_n|m| for m < 0.  As
    u_n^-m = (-1)^m conj(u_n^m), this is a unitary change of basis within
    each +-m pair of the complex waves, and c_nm = w_nm C_n is even in m, so
    the diagonal D = sqrt(c) commutes with it: G = b(z)^T b(y) and every
    map are those of the complex basis, up to roundoff.  Re and Im
    of u_nm carry cos(m phi) and sin(m phi), so each v_p is even or odd under
    each coordinate mirror through the centre.  half_log_c holds
    log sqrt(c_p) per row, for the sphere radius the factor was built for.
    """

    center: np.ndarray
    k: float
    n_max: int
    half_log_c: np.ndarray
    kind = "spectral"

    @property
    def rank(self):
        return self.half_log_c.shape[0]

    def _rho(self, pts):
        return float(np.linalg.norm(pts - self.center, axis=1).max(initial=0.0)) or 1.0

    def _scale(self, rho):
        """The diagonal D of b = D W at the point set's radius rho."""
        return np.exp(self.half_log_c + (_degree_order(self.n_max)[0] - 1.0) * np.log(rho))

    def _waves(self, pts, rho):
        """The real waves grad v_p at pts, of wavenumber k rho at (pts - center) / rho:
        (P, len(pts), 3).

        grad u(x) = rho^(n-1) grad u'(x / rho), u' the wave of wavenumber
        k rho: every factor stays of order one, whatever |x| and R are.
        specfun_quad._real_wave_gradients writes them into one real array, a
        chunk of about _WAVE_CHUNK (wave, point) pairs and one degree at a
        time: Re of the rows m >= 0 and Im of the rows m < 0, no complex
        wave of every degree.  Each point's waves are computed from that
        point alone, so the result is bitwise that of one call on every
        point.
        """
        x = (pts - self.center) / rho
        out = np.empty((self.rank, len(x), 3))
        step = max(1, _WAVE_CHUNK // self.rank)
        for i in range(0, len(x), step):
            _real_wave_gradients(self.n_max, self.k * rho, x[i : i + step], out[:, i : i + step])
        return out

    def __call__(self, pts):
        rho = self._rho(pts)
        return self._scale(rho)[:, None, None] * self._waves(pts, rho)

    def wave_response(self, sys, contrast):
        """T_w = 1/2 W^H M_B W of the unscaled waves W on the voxel grid,
        scaled by the grid's reach from the centre.

        T_w does not depend on the surface radius; it is solved once per
        system, contrast, centre, k and n_max (the grid fixes its reach) and
        kept on sys.  vie._half_pairing pairs the waves inside the blocks of
        the dense solve: about the grid's centre each real wave reaches the
        blocks of one mirror character, and pairs of waves of different
        characters are exact zeros.
        """
        centers = sys.grid.centers
        key = ("regular waves", tuple(self.center), self.k, self.n_max)
        return sys._response(contrast, key, lambda: _half_pairing(
            sys, contrast, self._waves(centers, self._rho(centers))))

    def response(self, sys, contrast):
        """T_m = 1/2 b^H M_B b on the voxel grid, as D T_w D.

        T_w is the cached response of wave_response; the surface radius
        enters only through D.  _contract pairs T_w itself against waves
        that carry both diagonals, c (rho_grid rho_z)^(n-1).
        """
        d = self._scale(self._rho(sys.grid.centers))
        return d[:, None] * self.wave_response(sys, contrast) * d


def _half_log_c(n_max, k, a, radii):
    """log sqrt(c_p) of the addition-theorem factor for each packed row
    p < (n_max + 1)^2 (rows) and sphere radius R (columns), background a I.

    With w_nm = (n + m)! (n - m)!, c_nm = w_nm C_n, where C_n = (2n + 1) /
    (4 pi a^2) k^2 R^2 |h_n(kR)|^2 k^{2n} / ((2n + 1)!!)^2 for k > 0 and
    R^{-2n} / ((2n + 1) 4 pi a^2) at k = 0 (its limit); all in logs, with
    one sph_hankel1 call over (n, R).  Non-finite where |h_n(kR)| leaves the
    floating-point range.
    """
    radii = np.asarray(radii, dtype=float)
    n, m = _degree_order(n_max)
    log_w = gammaln(n + m + 1.0) + gammaln(n - m + 1.0)
    if k > 0.0:
        h = np.abs(sph_hankel1(np.arange(n_max + 1)[:, None], k * radii))[n]
        log_c = (np.log((2.0 * n + 1.0) / (4.0 * np.pi * a * a))[:, None]
                 + 2.0 * (np.log(k * radii) + np.log(h) + (n * np.log(k))[:, None]
                          - log_odd_factorial(n)[:, None]))
    else:
        log_c = ((-2.0 * n)[:, None] * np.log(radii)
                 - np.log((2.0 * n + 1.0) * 4.0 * np.pi * a * a)[:, None])
    return 0.5 * (log_c + log_w[:, None])


# Surface nodes a node factor may read.  A rule of order m has 2 m^2 nodes;
# a node factor holds grad Phi at every node for every cell and solves one
# right-hand side per node, so the cap keeps the node count near the rank of
# the largest spectral factor, (150 + 1)^2 = 22,801 waves at the degree limit
# of specfun_quad: order 128, exact through degree 255.
_NODE_CAP = 2 * 128**2


def _kernel_factors(bg, spheres, ys):
    """The factor b of G(z, y) = sum_p conj(b_p(z)) (x) b_p(y) on each sphere
    of spheres, (surface, zs) pairs, for z in zs and y in the voxel centres ys.

    Every z must be finite, and both point sets lie strictly inside each
    sphere.  On a closed sphere (aperture None) in an isotropic background
    a I, the factor is the spectral factor of the addition theorem,
    b_p = sqrt(c_p) grad v_p over the real regular waves v_p (see
    _SpectralFactor), truncated for the sphere's two point sets, as long as
    the truncation stays within N_MAX and every c_p in floating-point range;
    one _half_log_c call gives the c_p of every such sphere, k = kappa /
    sqrt(a).  Otherwise it is the node factor b_p = sqrt(w_p)
    grad Phi(s_p - x) of the surface rule, and a rule of more than _NODE_CAP
    nodes, counted as 2 order^2, is a MemoryError.  Nothing is solved and no
    rule is built.
    """
    a = bg.iso_a
    k = bg.kappa / np.sqrt(a) if a is not None else None
    orders, voxel_reach = [], {}  # the voxel centres' reach per distinct centre
    for surf, zs in spheres:
        centre = tuple(np.asarray(surf.center, dtype=float))
        if centre not in voxel_reach:
            voxel_reach[centre] = float(np.linalg.norm(ys - centre, axis=1).max(initial=0.0))
        reach = [float(np.linalg.norm(_check_points(zs) - centre, axis=1).max(initial=0.0)),
                 voxel_reach[centre]]
        for r, name in zip(reach, ("sample points", "voxel centers")):
            if not r < surf.radius:  # NaN fails too
                raise ValueError(f"{name} must lie strictly inside the surface sphere")
        closed = surf.aperture is None and a is not None
        orders.append(_spectral_order(k, surf.radius, *reach) if closed else None)
    spec, cols = [i for i, n in enumerate(orders) if n is not None], {}
    if spec:
        half_log_c = _half_log_c(max(orders[i] for i in spec), k, a,
                                 [spheres[i][0].radius for i in spec])
        cols = {i: half_log_c[:(orders[i] + 1) ** 2, j] for j, i in enumerate(spec)}
    factors = []
    for i, (surf, _) in enumerate(spheres):
        if i in cols and np.all(np.isfinite(cols[i])):
            factors.append(_SpectralFactor(center=np.asarray(surf.center, dtype=float),
                                           k=float(k), n_max=orders[i], half_log_c=cols[i]))
        elif 2 * surf.order**2 > _NODE_CAP:
            raise MemoryError(f"a node factor on a surface of order {surf.order} reads "
                              f"{2 * surf.order**2} nodes, above the cap {_NODE_CAP}")
        else:
            factors.append(_NodeFactor(surface=surf, bg=bg))
    return factors


@dataclass(frozen=True)
class _NodeFactor:
    """b_p(x) = sqrt(w_p) grad Phi(s_p - x) over the surface nodes s_p."""

    surface: object
    bg: object
    kind = "nodes"

    @property
    def rank(self):
        return self.surface.weights.size

    def response(self, sys, contrast):
        """T_m = 1/2 b^H M_B b on the voxel grid, solved for these nodes and
        paired inside the blocks of the dense solve (vie._half_pairing)."""
        return _half_pairing(sys, contrast, self(sys.grid.centers))

    def __call__(self, pts):
        nodes = self.surface.nodes
        sw = np.sqrt(self.surface.weights)
        out = np.empty((nodes.shape[0], pts.shape[0], 3), dtype=complex)
        # node chunks of about 2^20 pairs bound grad_phi's temporaries
        step = max(1, (1 << 20) // max(pts.shape[0], 1))
        for k0 in range(0, nodes.shape[0], step):
            k1 = min(k0 + step, nodes.shape[0])
            out[k0:k1] = grad_phi(self.bg, nodes[k0:k1, None, :] - pts[None, :, :])
            out[k0:k1] *= sw[k0:k1, None, None]
        return out


@dataclass(frozen=True)
class KernelG:
    """G(z, y) over a fixed surface and background, through its kernel factor.

    factor gives b with G(z, y) = sum_p conj(b_p(z)) (x) b_p(y), and bundle
    the all-pairs table from it.  The node quadrature kernel_G is the
    oracle; the closed forms kernel_G_farfield and kernel_G_asymptotic are
    evaluated directly.
    """

    surface: object
    bg: object
    mode = "quadrature"  # unused here; the traced benchmark's pair counter reads it

    def factor(self, zs, ys):
        """The factor b of G(z, y) = sum_p conj(b_p(z)) (x) b_p(y) for z in zs, y in ys.

        Returns a callable b(pts) -> (rank, npts, 3) with attributes kind and
        rank, as _kernel_factors picks it.
        """
        return _kernel_factors(self.bg, [(self.surface, zs)], ys)[0]

    def bundle(self, zs, ys):
        """All-pairs table (3Z, 3N): row 3m+i holds G_i.(z_m, y_.) over ys.

        One product conj(b(zs))^T b(ys) of the kernel factor.
        """
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        fac = self.factor(zs, ys)
        bz = fac(zs).reshape(fac.rank, -1)
        return bz.conj().T @ fac(ys).reshape(fac.rank, -1)


# ---------------------------------------------------------------------------
# harmonic traces and the symmetry-restoring operator


@dataclass(frozen=True)
class HarmonicTrace:
    """Coefficients of a surface trace in the real orthonormal harmonic basis.

    coeffs is packed by flat index n (n + 1) + m for n <= n_max, |m| <= n.
    The basis is orthonormal in L^2 of the surface (harmonics divided by the
    radius), so Parseval holds against the quadrature norm of the trace.
    """

    coeffs: np.ndarray
    n_max: int

    def norm(self):
        return float(np.linalg.norm(self.coeffs))


def harmonic_trace(surface, values, n_max=None):
    """Expand sampled surface values; n_max defaults to the rule the surface
    quadrature still integrates exactly (order - 1)."""
    if surface.aperture is not None:
        raise ValueError("harmonic traces need a closed sphere")
    if n_max is None:
        n_max = surface.order - 1
    if n_max > surface.order - 1:
        raise ValueError(f"n_max = {n_max} exceeds order - 1 = {surface.order - 1}, "
                         "the degree the surface rule integrates exactly")
    values = np.asarray(values, dtype=complex)
    if values.shape != (surface.dirs.shape[0],):
        raise ValueError("values must be sampled at the surface nodes")
    tab = harmonics_table(n_max, surface.dirs, kind="real")
    coeffs = (tab * surface.weights[None, :]) @ values / surface.radius
    return HarmonicTrace(coeffs=coeffs, n_max=int(n_max))


def synthesize_trace(trace, surface):
    """Values of the truncated expansion at the surface nodes."""
    tab = harmonics_table(trace.n_max, surface.dirs, kind="real")
    return (trace.coeffs @ tab) / surface.radius


def e_multipliers(kappa, radius, n_max):
    """Diagonal multipliers E_n = -conj(h_n(kappa R)) / h_n(kappa R), n <= n_max."""
    x = kappa * radius
    h = sph_hankel1(np.arange(n_max + 1), x)
    mag = np.abs(h)
    if np.any(~np.isfinite(mag)) or np.any(mag < 1e-300):
        raise OverflowError("Hankel magnitude out of range for the E multipliers")
    return -(h.conj() / h)


def e_apply(trace, surface, kappa):
    """Apply E coefficient-wise; every multiplier is unimodular."""
    en = e_multipliers(kappa, surface.radius, trace.n_max)
    return HarmonicTrace(coeffs=en[_degree_order(trace.n_max)[0]] * trace.coeffs,
                         n_max=trace.n_max)


# ---------------------------------------------------------------------------
# topological-derivative maps


@dataclass(frozen=True)
class TdMap:
    """Sampled topological derivative with its certificates.

    values are the real parts of the pre-Re pairing; imag_residue records
    max |Im| / max |Re| over the samples (exactly zero in static problems,
    a small radiative remainder otherwise).  inside_B flags samples lying in
    the true scatterer (they are evaluated, not excluded).  certificate is
    the moderate-scatterer operator norm named by certificate_kind.
    kernel_factor ('spectral' or 'nodes') and kernel_rank (P or the node
    count K) name the factor of G the contraction used.
    """

    points: np.ndarray
    values: np.ndarray
    inside_B: np.ndarray
    certificate: float
    certificate_kind: str
    imag_residue: float
    kernel_factor: str
    kernel_rank: int


def _check_points(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("sample points must have shape (Z, 3)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("sample points must be finite")
    return pts


def _pair(b_z, t_m, m_z, h3):
    """-2 h^3 tr(M_z S(z)) per sample before Re, S(z) = b(z)^T T_m conj(b(z)),
    for the factor b_z of shape (P, Z, 3) and its (P, P) response T_m.

    The samples are paired a chunk at a time, so a real factor is cast to
    complex for zgemm one chunk at a time, and the product with T_m, about
    _WAVE_CHUNK values, is held for one chunk only.  A chunk holds a
    multiple of 8 samples: gemm kernels compute panels of up to 8 columns
    alike, and a ragged last panel differently, so every chunk but the last
    ends on a panel edge of the one product over every sample, and each
    value keeps the bits of that product (the tests check it bitwise).
    """
    p, nz = b_z.shape[:2]
    out = np.empty(nz, dtype=complex)
    step = 8 * max(1, _WAVE_CHUNK // (24 * p))
    for z0 in range(0, nz, step):
        b = b_z[:, z0 : z0 + step]
        s = np.einsum("pzi,pzj->zij", b, (t_m @ b.conj().reshape(p, -1)).reshape(p, -1, 3))
        out[z0 : z0 + step] = -2.0 * h3 * np.einsum("ij,zji->z", m_z, s)
    return out


def _contract(sys, contrast, m_z, facs, pts):
    """T(z) before Re for the samples pts[i] of each kernel factor facs[i],
    picked by _kernel_factors for the voxel centres of sys, in that order.

    With g_i the rows of G(z, .) sampled on the voxel grid and M_B the
    solution operator applied by solve_density, the 3x3 response matrix is

        S(z)_ij = 1/2 < g_i, M_B g_j >
                = < g_i, A^{1/2} (I - Q R_kappa)^{-1} Q A^{1/2} g_j >

    (conjugate on the left slot), and T(z) = -2 h^3 Re tr(M_z S(z)) with m_z
    the trial's 3x3 polarization tensor.  solve_density applies M_B through
    the sign-split system, which by the push-through identity gives the same
    pairing with A^{1/2} q^T sigma (I - sigma q R q^T sigma)^{-1} sigma q A^{1/2}.

    With g_i(z) = sum_p conj(b_p(z)_i) b_p for the kernel factor b of
    _kernel_factors, of rank P, S(z) = b(z)^T T_m conj(b(z)) through the
    factor's response T_m = 1/2 b^H M_B b (P x P) on the voxel grid, paired
    by _pair; the samples of one factor share its truncation.  The
    spectral spheres are grouped by centre and n_max, which key the
    regular-wave response T_w cached on sys; per group one
    _real_wave_gradients call gives the waves W(z), scaled by their reach
    rho, and _pair contracts D W(z) against T_w, where
    D = c(R) (rho_grid rho)^(n-1) folds the two diagonals of D T_w D and
    D b(z).  Each node factor solves its K node fields once.  Each D is
    checked before its group's solve: one not finite, or zero at degree 1
    (the dipole), is an error.
    """
    owner = np.repeat(np.arange(len(pts)), [len(zs) for zs in pts])
    zs, h3 = np.vstack(pts), sys.grid.cell_volume
    raw, groups = np.empty(len(zs), dtype=complex), {}
    for i, fac in enumerate(facs):
        key = (tuple(fac.center), fac.n_max) if fac.kind == "spectral" else i
        groups.setdefault(key, []).append(i)
    for members in groups.values():
        fac, at = facs[members[0]], np.isin(owner, members)
        if fac.kind == "nodes":
            t_m = fac.response(sys, contrast)
            raw[at] = _pair(fac(zs[at]), t_m, m_z, h3)
            continue
        rho = fac._rho(zs[at])
        log_rho = (_degree_order(fac.n_max)[0] - 1.0) * np.log(fac._rho(sys.grid.centers) * rho)
        d = np.exp(2.0 * np.stack([facs[i].half_log_c for i in members], axis=1)
                   + log_rho[:, None])
        if not (np.all(np.isfinite(d)) and np.all(d[1:4] > 0.0)):
            raise ValueError("spectral coefficients out of floating-point range "
                             "for the sample spheres")
        t_w = fac.wave_response(sys, contrast)
        d = np.repeat(d, [len(pts[i]) for i in members], axis=1)[:, :, None]
        # the sample waves only after the solve, whose fields are then freed
        raw[at] = _pair(fac._waves(zs[at], rho) * d, t_w, m_z, h3)
    return raw


def _td_map(sys, contrast, surface, points, certificate, kind, m_z):
    """The TdMap of one td_map_* regime's samples on one sphere, with the
    certificate of operator_norm's operator kind computed when None."""
    pts = _check_points(points)
    if certificate is None:
        certificate = operator_norm(sys, which=kind, contrast=contrast)
    fac, = _kernel_factors(sys.bg, [(surface, pts)], sys.grid.centers)
    raw = _contract(sys, contrast, m_z, [fac], [pts])
    re = raw.real + 0.0  # a vanishing T(z) (matched media) is +0.0, never -0.0
    scale = float(np.abs(re).max()) if re.size else 0.0
    return TdMap(
        points=pts,
        values=re,
        inside_B=np.asarray(sys.grid.shape.contains(pts), dtype=bool),
        certificate=float(certificate),
        certificate_kind=kind,
        imag_residue=float(np.abs(raw.imag).max() / scale) if scale > 0.0 else 0.0,
        kernel_factor=fac.kind,
        kernel_rank=int(fac.rank),
    )


def _ball_trial_mz(sys, trial, contrast):
    """M_z = mz_ball_iso(a, beta_z).M_z of a scalar unit-ball trial.

    The system's background must be isotropic, a I, and the trial (and the
    scatterer, when it is an IsoContrast) must be posed in it.
    """
    if not isinstance(trial, IsoContrast):
        raise TypeError("trial must be IsoContrast (spherical isotropic)")
    a = sys.bg.iso_a
    if a is None:
        raise ValueError("a scalar ball trial needs an isotropic background")
    for c in (trial, contrast):
        if isinstance(c, IsoContrast) and abs(c.a - a) > 1e-12 * max(a, 1.0):
            raise ValueError("contrast background coefficient must match the system")
    return mz_ball_iso(a, trial.beta).M_z


def td_map_iso(sys, contrast, trial, surface, points, certificate=None):
    """T(z) for a scalar scatterer and a scalar unit-ball trial inclusion.

    T(z) = -(16 pi a^2 q q_z / (3 - q_z)) h^3
           Re sum_i < g_i(z), (I - q R_kappa)^{-1} g_i(z) >,

    with g_i the rows of G(z, .) sampled on the voxel grid and the conjugate
    on the left slot of the pairing; the trial enters through
    M_z = mz_ball_iso(a, beta_z).M_z.
    """
    if not isinstance(contrast, IsoContrast):
        raise TypeError("td_map_iso needs IsoContrast scatterer and trial")
    return _td_map(sys, contrast, surface, points, certificate,
                        "qR_kappa", _ball_trial_mz(sys, trial, contrast))


def td_map_aniso_iso(sys, contrast, trial, surface, points, certificate=None):
    """T(z) for an anisotropic scatterer in an isotropic background, scalar
    unit-ball trial.

    The scatterer side equals the sign-split form: with
    w_i = sigma q_mat A^{1/2} g_i and the barred bundle using conj(sigma),

    T(z) = -(16 pi a q_z / (3 - q_z)) h^3
           Re sum_i < wbar_i, (I - sigma q R q^T sigma)^{-1} w_i >,

    that is M_z = mz_ball_iso(a, beta_z).M_z in the shared contraction.
    """
    return _td_map(sys, contrast, surface, points, certificate,
                        "qRq", _ball_trial_mz(sys, trial, contrast))


def td_map_general(sys, contrast, trial, surface, points, certificate=None):
    """T(z) for tensor scatterer and tensor trial data.

    T(z) = -h^3 Re sum_ik (M_z)_ik < g_i, M_B g_k >

    with M_z = trial.M_z, any symmetric tensor (a mixed-sign contrast
    included), and M_B the scatterer's solution operator.  trial is a
    PolarizationTensor in the system's background.  For reversed surface
    nesting pass the measurement sphere as the integration surface.
    """
    if not isinstance(trial, PolarizationTensor):
        raise TypeError("trial must be a PolarizationTensor")
    if not np.allclose(trial.A.matrix, sys.bg.A.matrix, rtol=0.0, atol=1e-12):
        raise ValueError("trial background tensor must match the system")
    return _td_map(sys, contrast, surface, points, certificate,
                        "qRq", trial.M_z)


# ---------------------------------------------------------------------------
# finite-size oracle for the leading-order identification


def _scatter_matrix(sys, contrast, nodes):
    """Scattered field at every node from a point source at every node (K x K).

    The data-side reference of td_finite_delta_check: the tests pair these
    node data, with and without E on the measurement index, against the
    check's kernel-factor responses.
    """
    rad = radiation_matrix(sys, nodes)
    k = rad.shape[0]
    # row q of the radiation matrix is -h^3 times the incident gradient
    # grad_phi(y - x_q) of a point source at node q
    h = solve_density(sys, contrast, rad.reshape(k, -1, 3) / -sys.grid.cell_volume)
    return rad @ h.values.reshape(k, -1).T


def _trial_balls(z, deltas, cells_across):
    """Trial balls of radius delta at z, cells_across cells over each diameter;
    MemoryError when one has more voxels than vie.VOXEL_CAP."""
    try:
        balls = [voxelize(Ball(d, center=tuple(z)), 2.0 * d / cells_across, cap=vie.VOXEL_CAP)
                 for d in deltas]
    except MemoryError as exc:
        raise MemoryError(f"cells_across = {cells_across}: {exc}; lower cells_across") from None
    n = max(g.n_cells for g in balls)
    if n > vie.VOXEL_CAP:
        raise MemoryError(f"cells_across = {cells_across} gives a trial ball {n} voxels, "
                          f"which exceed the cap {vie.VOXEL_CAP}; lower cells_across")
    return balls


@dataclass(frozen=True)
class FiniteDeltaCheck:
    """Ratios LHS(delta) / (delta^3 T(z)), one (delta, ratio) pair per delta
    in the order given, and the factor of G both sides used (as in TdMap)."""

    pairs: list
    kernel_factor: str
    kernel_rank: int


def td_finite_delta_check(sys, contrast, trial, surface, z, deltas,
                          cells_across=8):
    """Ratio of the finite-size misfit increment to delta^3 T(z) per delta.

    For each delta a trial ball of radius delta at z is voxelized
    (cells_across cells over its diameter, at least 4).  With u_B and
    u_delta the scattered fields of the scatterer and of the ball for point
    sources and measurements on the closed sphere, the misfit increment is

        LHS(delta) = -Re iint conj(E u_delta) E u_B dm ds.

    E is unimodular and diagonal in an orthonormal harmonic basis of the
    measurement index, so it drops out of this pairing; its role is the
    identity E[grad Phi(. - y)] = -conj grad Phi(. - y), which turns the
    node data into (E u)_mq = 2 h^3 (T_m)_mq / sqrt(w_m w_q) for the node
    factor of G, with T_m = 1/2 b^H M b the response of a grid.  The pairing
    depends on G alone, so for one factor b of KernelG.factor over z and
    every ball cell,

        LHS(delta) = -4 h_B^3 h_delta^3 Re sum_pq conj(T_m^delta)_pq (T_m^B)_pq,
        T(z) = -2 h_B^3 Re tr(M_z b(z)^T T_m^B conj(b(z))),

    with M_z = mz_ball_iso(a, beta_z).M_z, T(z) paired by _pair as in every
    map.  The scatterer and each ball are solved once, for the factor's P
    fields.  Ratios approach 1 as delta shrinks.  Every input is checked
    before the first solve.
    """
    if cells_across < 4:
        raise ValueError("trial ball resolution below 4 cells across")
    if surface.aperture is not None:
        raise ValueError("the finite-size check needs a closed sphere")
    deltas = [float(d) for d in deltas]
    if not all(d > 0.0 for d in deltas):  # NaN fails too
        raise ValueError("delta must be positive")
    m_z = _ball_trial_mz(sys, trial, contrast)
    z = _require_inside(surface, z, "z")
    balls = _trial_balls(z, deltas, cells_across)
    pts = np.vstack([z[None, :], *(g.centers for g in balls)])
    fac = KernelG(surface=surface, bg=sys.bg).factor(pts, sys.grid.centers)
    h_b = sys.grid.cell_volume
    t_b = fac.response(sys, contrast)
    t_val = float(_pair(fac(z[None, :]), t_b, m_z, h_b)[0].real)
    pairs = []
    for delta, grid_d in zip(deltas, balls):
        t_d = fac.response(assemble(grid_d, sys.bg), trial)
        lhs = -4.0 * h_b * grid_d.cell_volume * float(np.real(np.vdot(t_d, t_b)))
        denom = delta**3 * t_val
        if denom == 0.0:
            ratio = 0.0 if lhs == 0.0 else np.inf
        else:
            ratio = lhs / denom
        pairs.append((delta, float(ratio)))
    return FiniteDeltaCheck(pairs=pairs, kernel_factor=fac.kind, kernel_rank=int(fac.rank))

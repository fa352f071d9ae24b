"""Imaging kernels on spherical surfaces and topological-derivative maps.

The two-point kernel G correlates point-source gradients over the surface,

    G(z, y) = int_Gamma conj(grad Phi_kappa(s - z)) (x) grad Phi_kappa(s - y) ds,

and is evaluated four independent ways: direct quadrature, a far-field
closed form, a two-term large-sphere expansion, and second differences of
the scalar correlation kernel L.  On a closed sphere G and L are real.

A topological-derivative map contracts G(z, .) over the true scatterer B
with the trial polarization tensor on one side and the scatterer's solution
operator on the other:

    T(z) = -Re sum_ik (M_z)_ik < G_i(z,.), [M_B G_k(z,.)] >_{L^2(B)},

with the conjugate on the left slot.  Every regime goes through one
contraction: vie.solve_density applies M_B to the rows g_i of G(z, .) and
gives the 3x3 response matrix S(z)_ij = 1/2 < g_i, M_B g_j >, and
T(z) = pref Re tr(c^T c S(z)), where the maps differ only in the scalar pref
and the 3x3 trial factor c.  The scattering matrices of the finite-size
oracle solve through the same call.  Each map reports the moderate-scatterer
certificate plus the imaginary residue of the pre-Re pairing.

The symmetry-restoring operator E multiplies surface-harmonic coefficients
by -conj(h_n(kappa R)) / h_n(kappa R).  Traces use the real orthonormal
harmonic basis, so conjugating a function conjugates its coefficients; the
-conj identity for point sources holds for coefficients in the radiating
normalization (the h_0 expansion), where they are real multiples of
h_n(kappa R).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greens import grad_phi, phi
from .materials import IsoContrast
from .polarization import PolarizationTensor, dz_factor
from .specfun_quad import (
    N_MAX,
    harmonics_table,
    sph_bessel_j,
    sph_hankel1,
    sphere_surface,
    voxelize,
    Ball,
)
from .vie import (
    _sigma_parts,
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


def kernel_L_series(R, kappa, z, y, n_trunc=None):
    """Harmonic series for L on the closed sphere of radius R (kappa > 0).

    L = (kappa^2 R^2 / 4 pi) sum_n (2n+1) |h_n(kappa R)|^2
        j_n(kappa |z|) j_n(kappa |y|) P_n(zhat . yhat);
    the R^2 factor makes L(0,0) = 1/(4 pi) exactly.  Truncation: runs to at
    least n_trunc (default ceil(kappa R) + 20) and stops once the last term
    falls below 1e-14 of the running sum.
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
    n_min = truncation_order(kappa, R) if n_trunc is None else int(n_trunc)
    total = 0.0
    p_prev, p_cur = 1.0, t
    n = 0
    while True:
        if n > N_MAX:
            raise ValueError(f"series truncation exceeds supported order {N_MAX}")
        pn = 1.0 if n == 0 else (t if n == 1 else p_cur)
        hn = sph_hankel1(n, kappa * R)
        term = (
            (2 * n + 1)
            * float(np.abs(hn)) ** 2
            * float(sph_bessel_j(n, kappa * rz))
            * float(sph_bessel_j(n, kappa * ry))
            * pn
        )
        total += term
        if n >= n_min and abs(term) < 1e-14 * max(abs(total), 1e-300):
            break
        if n >= 1:
            p_prev, p_cur = p_cur, ((2 * n + 1) * t * p_cur - n * p_prev) / (n + 1)
        n += 1
    return (kappa**2 * R**2 / (4.0 * np.pi)) * total


def kernel_G_from_L(R, kappa, z, y, step=None, order="zy"):
    """G through mixed second differences of the L series, G_ij = d2 L / dz_i dy_j.

    Central differences with default step lambda / 200.  order picks the
    association of the four-point stencil ('zy' or 'yz'); the results differ
    only by floating-point roundoff.
    """
    if step is None:
        step = (2.0 * np.pi / kappa) / 200.0
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.empty((3, 3), dtype=complex)
    eye = np.eye(3)
    for i in range(3):
        for j in range(3):
            lpp = kernel_L_series(R, kappa, z + step * eye[i], y + step * eye[j])
            lpm = kernel_L_series(R, kappa, z + step * eye[i], y - step * eye[j])
            lmp = kernel_L_series(R, kappa, z - step * eye[i], y + step * eye[j])
            lmm = kernel_L_series(R, kappa, z - step * eye[i], y - step * eye[j])
            if order == "zy":
                out[i, j] = ((lpp - lpm) - (lmp - lmm)) / (4.0 * step**2)
            elif order == "yz":
                out[i, j] = ((lpp - lmp) - (lpm - lmm)) / (4.0 * step**2)
            else:
                raise ValueError("order must be 'zy' or 'yz'")
    return out


@dataclass(frozen=True)
class KernelG:
    """G(z, y) evaluator with a fixed surface, background, and mode.

    mode 'quadrature' integrates over the surface's node set (apertures
    included); 'farfield' and 'asymptotic' use the closed-form expansions
    (isotropic unit background).
    """

    surface: object
    bg: object
    mode: str = "quadrature"

    def __post_init__(self):
        if self.mode not in ("quadrature", "farfield", "asymptotic"):
            raise ValueError(f"unknown kernel mode {self.mode!r}")

    def __call__(self, z, y):
        if self.mode == "quadrature":
            return kernel_G(self.surface, self.bg, z, y)
        if self.mode == "farfield":
            return kernel_G_farfield(self.bg.kappa, z, y).astype(complex)
        return kernel_G_asymptotic(self.surface.radius, self.bg.kappa, z, y)

    def bundle(self, zs, ys, node_chunk=2000):
        """All-pairs table (3Z, 3N): row 3m+i holds G_i.(z_m, y_.) over ys.

        Quadrature mode accumulates one matrix product per node chunk, so the
        cost is a handful of dense multiplies rather than Z x N single-pair
        integrals.  The closed-form modes evaluate each pair through __call__.
        """
        zs = np.atleast_2d(np.asarray(zs, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        if self.mode == "quadrature":
            for pts, name in ((zs, "sample points"), (ys, "voxel centers")):
                r = np.linalg.norm(pts - self.surface.center, axis=1)
                if not np.all(r < self.surface.radius):
                    raise ValueError(f"{name} must lie strictly inside the surface sphere")
            nodes = self.surface.nodes
            w = self.surface.weights
            nz, ny = zs.shape[0], ys.shape[0]
            out = np.zeros((3 * nz, 3 * ny), dtype=complex)
            for k0 in range(0, nodes.shape[0], node_chunk):
                k1 = min(k0 + node_chunk, nodes.shape[0])
                pz = grad_phi(self.bg, nodes[k0:k1, None, :] - zs[None, :, :])
                py = grad_phi(self.bg, nodes[k0:k1, None, :] - ys[None, :, :])
                pz = (pz * w[k0:k1, None, None]).reshape(k1 - k0, 3 * nz)
                out += pz.conj().T @ py.reshape(k1 - k0, 3 * ny)
            return out
        table = np.array([[self(z, y) for y in ys] for z in zs])
        return table.transpose(0, 2, 1, 3).reshape(3 * zs.shape[0], 3 * ys.shape[0])


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
    full = np.repeat(en, 2 * np.arange(trace.n_max + 1) + 1)
    return HarmonicTrace(coeffs=full * trace.coeffs, n_max=trace.n_max)


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
    """

    points: np.ndarray
    values: np.ndarray
    inside_B: np.ndarray
    certificate: float
    certificate_kind: str
    signs: dict
    imag_residue: float


def _check_points(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("sample points must have shape (Z, 3)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("sample points must be finite")
    return pts


def _sign_pattern(sigma):
    """Diagonal of sigma^2 as floats in {1, -1, 0}."""
    return tuple(float(np.round(v.real)) for v in np.diagonal(sigma @ sigma))


def _td_contract(sys, contrast, surface, points, certificate, kind, pref, c, signs):
    """The T(z) contraction shared by every td_map_* regime.

    With g_i the rows of G(z, .) sampled on the voxel grid, solve_density
    applies the solution operator M_B to all 3Z rows at once and gives the
    3x3 response matrix

        S(z)_ij = 1/2 < g_i, M_B g_j >
                = < g_i, A^{1/2} (I - Q R_kappa)^{-1} Q A^{1/2} g_j >

    (conjugate on the left slot), and T(z) = pref Re tr(c^T c S(z)).  The
    trial factor c is I for a scalar unit-ball trial and
    D_z sigma_z q_z A^{1/2} for a tensor trial.  By the push-through identity
    S is also the sign-split pairing with
    A^{1/2} q^T sigma (I - sigma q R q^T sigma)^{-1} sigma q A^{1/2}.
    kind is the operator_norm operator of the certificate, computed when
    certificate is None.
    """
    pts = _check_points(points)
    if certificate is None:
        certificate = operator_norm(sys, which=kind, contrast=contrast)
    g = KernelG(surface=surface, bg=sys.bg).bundle(pts, sys.grid.centers)
    nz = pts.shape[0]
    h = solve_density(sys, contrast, g.reshape(3 * nz, -1, 3)).values
    s = 0.5 * (g.conj().reshape(nz, 3, -1) @ h.reshape(nz, 3, -1).transpose(0, 2, 1))
    raw = pref * np.einsum("ij,zji->z", c.T @ c, s)
    re = raw.real + 0.0  # a vanishing T(z) (matched media) is +0.0, never -0.0
    scale = float(np.abs(re).max()) if re.size else 0.0
    return TdMap(
        points=pts,
        values=re,
        inside_B=np.asarray(sys.grid.shape.contains(pts), dtype=bool),
        certificate=float(certificate),
        certificate_kind=kind,
        signs=signs,
        imag_residue=float(np.abs(raw.imag).max() / scale) if scale > 0.0 else 0.0,
    )


def td_map_iso(sys, contrast, trial, surface, points, certificate=None):
    """T(z) for a scalar scatterer and a scalar unit-ball trial inclusion.

    T(z) = -(16 pi a^2 q q_z / (3 - q_z)) h^3
           Re sum_i < g_i(z), (I - q R_kappa)^{-1} g_i(z) >,

    with g_i the rows of G(z, .) sampled on the voxel grid and the conjugate
    on the left slot of the pairing.
    """
    if not isinstance(contrast, IsoContrast) or not isinstance(trial, IsoContrast):
        raise TypeError("td_map_iso needs IsoContrast scatterer and trial")
    a = sys.bg.iso_a
    if a is None:
        raise ValueError("isotropic map needs an isotropic background")
    for c in (contrast, trial):
        if abs(c.a - a) > 1e-12 * max(a, 1.0):
            raise ValueError("contrast background coefficient must match the system")
    q_z = trial.q
    pref = -16.0 * np.pi * a * q_z / (3.0 - q_z) * sys.grid.cell_volume
    return _td_contract(sys, contrast, surface, points, certificate,
                        "qR_kappa", pref, np.eye(3), {"q": contrast.q, "q_z": q_z})


def td_map_aniso_iso(sys, contrast, trial, surface, points, certificate=None):
    """T(z) for an anisotropic scatterer in an isotropic background, scalar
    unit-ball trial.

    The scatterer side equals the sign-split form: with
    w_i = sigma q_mat A^{1/2} g_i and the barred bundle using conj(sigma),

    T(z) = -(16 pi a q_z / (3 - q_z)) h^3
           Re sum_i < wbar_i, (I - sigma q R q^T sigma)^{-1} w_i >.
    """
    if not isinstance(trial, IsoContrast):
        raise TypeError("trial must be IsoContrast (spherical isotropic)")
    a = sys.bg.iso_a
    if a is None:
        raise ValueError("this regime needs an isotropic background")
    if abs(trial.a - a) > 1e-12 * max(a, 1.0):
        raise ValueError("trial background coefficient must match the system")
    sigma, _ = _sigma_parts(contrast)
    q_z = trial.q
    pref = -16.0 * np.pi * a * q_z / (3.0 - q_z) * sys.grid.cell_volume
    signs = {"sigma2": _sign_pattern(sigma), "q_z": q_z}
    return _td_contract(sys, contrast, surface, points, certificate,
                        "qRq", pref, np.eye(3), signs)


def td_map_general(sys, contrast, trial, surface, points, certificate=None):
    """T(z) for tensor scatterer and tensor trial data.

    The trial side enters through C = D_z sigma_z q_z A^{1/2} (3x3), bundling
    the rows of G; the scatterer side equals the sign-split form:

    k_p = sum_i C_pi g_i,       kbar_p = sum_i conj(C_pi) g_i,
    w_p = sigma q A^{1/2} k_p,  wbar_p = conj(sigma) q A^{1/2} kbar_p,
    T(z) = -4 h^3 Re sum_p < wbar_p, (I - sigma q R q^T sigma)^{-1} w_p >.

    trial is a PolarizationTensor; its factor D_z comes from dz_factor (one
    -signed trial contrast).  For reversed surface nesting pass the
    measurement sphere as the integration surface.
    """
    if not isinstance(trial, PolarizationTensor):
        raise TypeError("trial must be a PolarizationTensor")
    if not np.allclose(trial.A.matrix, sys.bg.A.matrix, rtol=0.0, atol=1e-12):
        raise ValueError("trial background tensor must match the system")
    sigma, _ = _sigma_parts(contrast)
    d_z = trial.D_z if trial.D_z is not None else dz_factor(trial, mode="aniso")
    sz = np.diagonal(trial.sigma_z2)
    sigma_z = np.diag(np.where(sz > 0, 1.0 + 0j, np.where(sz < 0, 1j, 0.0 + 0j)))
    c = d_z @ sigma_z @ trial.q_mat @ trial.A.sqrt().matrix
    signs = {"sigma2": _sign_pattern(sigma), "sigma_z2": tuple(float(v) for v in sz)}
    return _td_contract(sys, contrast, surface, points, certificate,
                        "qRq", -4.0 * sys.grid.cell_volume, c, signs)


# ---------------------------------------------------------------------------
# finite-size oracle for the leading-order identification


def _scatter_matrix(sys, contrast, nodes):
    """Scattered field at every node from a point source at every node (K x K)."""
    rad = radiation_matrix(sys, nodes)
    k = rad.shape[0]
    # row q of the radiation matrix is -h^3 times the incident gradient
    # grad_phi(y - x_q) of a point source at node q
    h = solve_density(sys, contrast, rad.reshape(k, -1, 3) / -sys.grid.cell_volume)
    return rad @ h.values.reshape(k, -1).T


def td_finite_delta_check(sys, contrast, trial, surface, z, deltas,
                          cells_across=8):
    """Ratio of the finite-size misfit increment to delta^3 T(z) per delta.

    For each delta a trial ball of radius delta at z is voxelized
    (cells_across cells over its diameter, at least 4), its scattering
    matrix over the surface nodes computed, the symmetry-restoring operator
    applied on the measurement index of both scattered matrices, and

        LHS(delta) = -Re iint conj(E u_delta) E u_B dm ds

    compared against delta^3 T(z).  Ratios approach 1 as delta shrinks.
    Surfaces of sources and measurements share one node set.
    """
    if cells_across < 4:
        raise ValueError("trial ball resolution below 4 cells across")
    if surface.aperture is not None:
        raise ValueError("the finite-size check needs a closed sphere")
    z = np.asarray(z, dtype=float)
    kappa = sys.bg.kappa
    n_max = truncation_order(kappa, surface.radius)
    surf = sphere_surface(surface.radius, max(surface.order, n_max + 2),
                          center=surface.center)
    if isinstance(contrast, IsoContrast):
        tmap = td_map_iso(sys, contrast, trial, surf, z[None, :])
    else:
        tmap = td_map_aniso_iso(sys, contrast, trial, surf, z[None, :])
    t_val = float(tmap.values[0])
    nodes = surf.nodes
    w = surf.weights
    u_b = _scatter_matrix(sys, contrast, nodes)
    tab = harmonics_table(n_max, surf.dirs, kind="real")
    en = np.repeat(e_multipliers(kappa, surf.radius, n_max),
                   2 * np.arange(n_max + 1) + 1)

    def e_on_measurement(u):
        coef = (tab * w[None, :]) @ u / surf.radius
        return tab.T @ (en[:, None] * coef) / surf.radius

    eu_b = e_on_measurement(u_b)
    out = []
    for delta in deltas:
        delta = float(delta)
        if delta <= 0.0:
            raise ValueError("delta must be positive")
        grid_d = voxelize(Ball(delta, center=tuple(z)), 2.0 * delta / cells_across)
        sys_d = assemble(grid_d, sys.bg)
        u_d = _scatter_matrix(sys_d, trial, nodes)
        eu_d = e_on_measurement(u_d)
        lhs = -float(np.real(np.einsum("m,q,mq,mq->", w, w, eu_d.conj(), eu_b)))
        denom = delta**3 * t_val
        if denom == 0.0:
            ratio = 0.0 if lhs == 0.0 else np.inf
        else:
            ratio = lhs / denom
        out.append((delta, float(ratio)))
    return out

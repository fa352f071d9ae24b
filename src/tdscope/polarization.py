"""Polarization tensors of normalized trial inhomogeneities.

M_z maps a constant incident gradient to the induced dipole strength of a
trial inclusion with tensor A_z embedded in background A.  Closed forms:
balls in scalar media and general ellipsoids (through the static ellipsoid
response tensor S).  Arbitrary shapes go through the static volume integral
equation on a voxel grid.

The factor D_z is the real Choleski-type square root consumed by the imaging
contractions.  Reconstruction formulas by mode:

    iso:    M_z = 2 a q_z D_z^T D_z
    aniso:  M_z = 2 C^T C,  C = D_z sigma_z P,  P = q_mat A^{1/2}

with plain transposes (no conjugation) and sigma_z = I or iI depending on
the common sign of the contrast eigenvalues.  A one-signed moderate trial
contrast makes the relevant matrix SPD; a Choleski failure therefore signals
that the moderate-trial condition is violated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greens import Background, eshelby_tensor
from .materials import SymTensor3, aniso_contrast, choleski_sqrt
from .vie import assemble, solve_density

__all__ = [
    "PolarizationTensor",
    "mz_ball_iso",
    "mz_ellipsoid",
    "mz_general",
    "dz_factor",
]


@dataclass(frozen=True)
class PolarizationTensor:
    """Polarization tensor M_z with the sign data of its factorization.

    M_z is real symmetric (units: background coefficient times volume).
    sigma_z2 and q_mat factor the bounded trial contrast Q_z as
    q_mat^T sigma_z2 q_mat.  The scalars a and q_z are set when both media
    are isotropic (they select the iso reconstruction in dz_factor).  D_z is
    stored when a closed form is available, else computed by dz_factor.
    asymmetry records the relative asymmetry of the raw tensor before
    symmetrization (exactly 0 for closed forms).
    """

    M_z: np.ndarray
    D_z: np.ndarray | None
    sigma_z2: np.ndarray
    q_mat: np.ndarray
    A: SymTensor3
    a: float | None = None
    q_z: float | None = None
    asymmetry: float = 0.0


def _scalar_pair(A, A_z):
    """(a, a_z) if both tensors are scaled identities, else None."""
    a = A.matrix
    az = A_z.matrix
    if np.allclose(a, a[0, 0] * np.eye(3), rtol=0.0, atol=1e-14 * abs(a[0, 0])) and \
       np.allclose(az, az[0, 0] * np.eye(3), rtol=0.0, atol=1e-14 * abs(az[0, 0])):
        return float(a[0, 0]), float(az[0, 0])
    return None


def mz_ball_iso(a, beta_z):
    """Closed-form polarization tensor of the unit ball, scalar media.

    M_z = (4 pi a beta_z / (beta_z + 3)) I and the factor
    D_z = sqrt(4 pi / (3 - q_z)) I with q_z = beta_z / (beta_z + 2).
    """
    a = float(a)
    beta_z = float(beta_z)
    if a <= 0.0:
        raise ValueError("background coefficient a must be > 0")
    if beta_z <= -1.0:
        raise ValueError("beta_z must exceed -1")
    q_z = beta_z / (beta_z + 2.0)
    m = (4.0 * np.pi * a * beta_z / (beta_z + 3.0)) * np.eye(3)
    d = np.sqrt(4.0 * np.pi / (3.0 - q_z)) * np.eye(3)
    s = float(np.sign(beta_z))
    return PolarizationTensor(
        M_z=m,
        D_z=d,
        sigma_z2=s * np.eye(3),
        q_mat=np.sqrt(abs(q_z)) * np.eye(3),
        A=SymTensor3.scaled_identity(a),
        a=a,
        q_z=q_z,
    )


def mz_ellipsoid(A, A_z, semi_axes, axes=None):
    """Closed-form polarization tensor of an ellipsoid, tensor media.

    M_z = |B| (I + (A_z - A) S A^{-1})^{-1} (A_z - A) with S the static
    ellipsoid response tensor of the background (computed from the classical
    depolarization integrals in the A^{-1/2}-mapped frame).  semi_axes are
    along the orthonormal columns of axes (default: coordinate axes).
    """
    if not isinstance(A, SymTensor3):
        A = SymTensor3.from_matrix(A)
    if not isinstance(A_z, SymTensor3):
        A_z = SymTensor3.from_matrix(A_z)
    A.require_spd("A")
    A_z.require_spd("A_z")
    s = np.asarray(semi_axes, dtype=float)
    if s.shape != (3,) or np.any(s <= 0.0):
        raise ValueError("semi_axes must be three positive numbers")
    bg = Background(A=A, kappa=0.0)
    S = eshelby_tensor(bg, semi_axes=s, axes=axes)
    delta = A_z.matrix - A.matrix
    core = np.eye(3) + delta @ S @ bg.inv_A
    if np.linalg.cond(core) > 1e12:
        raise ValueError("degenerate contrast: static response is singular")
    vol = 4.0 * np.pi / 3.0 * float(np.prod(s))
    m = vol * np.linalg.solve(core, delta)
    asym = float(np.abs(m - m.T).max() / max(np.abs(m).max(), 1e-300))
    m = 0.5 * (m + m.T)
    contrast = aniso_contrast(A, A_z)
    pair = _scalar_pair(A, A_z)
    a = q_z = None
    if pair is not None:
        a = pair[0]
        beta_z = pair[1] / pair[0] - 1.0
        q_z = beta_z / (beta_z + 2.0)
    return PolarizationTensor(
        M_z=m,
        D_z=None,
        sigma_z2=contrast.sigma2,
        q_mat=contrast.q_mat,
        A=A,
        a=a,
        q_z=q_z,
        asymmetry=asym,
    )


def mz_general(A, A_z, shape, vol_tol=0.02):
    """Polarization tensor of an arbitrary voxelized trial shape.

    Solves the static volume integral equation on the grid for the three
    canonical constant incident gradients and integrates the induced
    density.  The discrete tensor is symmetrized; its relative asymmetry is
    reported on the result.
    """
    if not isinstance(A, SymTensor3):
        A = SymTensor3.from_matrix(A)
    if not isinstance(A_z, SymTensor3):
        A_z = SymTensor3.from_matrix(A_z)
    A.require_spd("A")
    A_z.require_spd("A_z")
    exact_vol = getattr(shape.shape, "volume", None)
    if exact_vol is not None:
        vol_err = abs(shape.volume - exact_vol) / exact_vol
        if vol_err > vol_tol:
            raise ValueError(
                f"voxelization volume error {vol_err:.3f} exceeds {vol_tol}; refine h"
            )
    bg = Background(A=A, kappa=0.0)
    sys = assemble(shape, bg)
    contrast = aniso_contrast(A, A_z)
    n = shape.n_cells
    m = np.empty((3, 3))
    imag_peak = 0.0
    for p in range(3):
        g = np.zeros((n, 3), dtype=complex)
        g[:, p] = 1.0
        dens = solve_density(sys, contrast, g)
        col = shape.cell_volume * dens.values.reshape(n, 3).sum(axis=0)
        imag_peak = max(imag_peak, float(np.abs(col.imag).max()))
        m[:, p] = col.real
    if imag_peak > 1e-10 * max(np.abs(m).max(), 1e-300):
        raise ArithmeticError("static solve returned a non-real tensor")
    asym = float(np.abs(m - m.T).max() / max(np.abs(m).max(), 1e-300))
    m = 0.5 * (m + m.T)
    pair = _scalar_pair(A, A_z)
    a = q_z = None
    if pair is not None:
        a = pair[0]
        beta_z = pair[1] / pair[0] - 1.0
        q_z = beta_z / (beta_z + 2.0)
    return PolarizationTensor(
        M_z=m,
        D_z=None,
        sigma_z2=contrast.sigma2,
        q_mat=contrast.q_mat,
        A=A,
        a=a,
        q_z=q_z,
        asymmetry=asym,
    )


def dz_factor(pt, mode="iso"):
    """Real 3x3 factor D_z of a polarization tensor.

    iso mode factors (2 a q_z)^{-1} M_z; aniso mode factors the one-signed
    middle map P^{-T} (sigma_z2 M_z / 2) P^{-1} with P = q_mat A^{1/2}.  In
    both modes a Choleski pivot failure means the moderate-trial condition
    does not hold for this tensor; mixed contrast eigenvalue signs are
    rejected for the same reason.
    """
    if mode == "iso":
        if pt.a is None or pt.q_z is None:
            raise ValueError("iso mode needs scalar media; use mode='aniso'")
        if pt.q_z == 0.0:
            raise ValueError("zero contrast has no factor")
        scaled = pt.M_z / (2.0 * pt.a * pt.q_z)
        try:
            low = choleski_sqrt(scaled)
        except ValueError as exc:
            raise ValueError(
                "moderate-trial condition violated: (2 a q_z)^{-1} M_z is not SPD"
            ) from exc
        return low.T
    if mode == "aniso":
        d = np.diagonal(pt.sigma_z2)
        if np.any(d == 0.0) or np.ptp(d) != 0.0:
            raise ValueError(
                "aniso factor needs a one-signed invertible contrast"
            )
        eps = float(d[0])
        P = pt.q_mat @ np.asarray(pt.A.sqrt().matrix)
        try:
            Pinv = np.linalg.inv(P)
        except np.linalg.LinAlgError as exc:
            raise ValueError("contrast factor q_mat is singular") from exc
        mid = eps * (Pinv.T @ (0.5 * pt.M_z) @ Pinv)
        try:
            low = choleski_sqrt(mid)
        except ValueError as exc:
            raise ValueError(
                "moderate-trial condition violated: middle map is not SPD"
            ) from exc
        return low.T
    raise ValueError("mode must be 'iso' or 'aniso'")

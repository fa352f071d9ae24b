"""Polarization tensors of normalized trial inhomogeneities.

M_z maps a constant incident gradient to the induced dipole strength of a
trial inclusion with tensor A_z embedded in background A.  Closed forms:
balls in scalar media and general ellipsoids (through the static ellipsoid
response tensor S).  Arbitrary shapes go through the static volume integral
equation on a voxel grid.  The imaging maps contract M_z itself; the sign
pattern sigma_z2 of the trial contrast predicts the sign of the
topological derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greens import Background, eshelby_tensor
from .materials import SymTensor3, aniso_contrast
from .vie import assemble, solve_density

__all__ = [
    "PolarizationTensor",
    "mz_ball_iso",
    "mz_ellipsoid",
    "mz_general",
]


@dataclass(frozen=True)
class PolarizationTensor:
    """Polarization tensor M_z with the sign pattern of its trial contrast.

    M_z is real symmetric (units: background coefficient times volume).
    sigma_z2 is the diagonal sign matrix (entries -1/0/+1) of the bounded
    trial contrast Q_z = q_mat^T sigma_z2 q_mat.  asymmetry records the
    relative asymmetry of the raw tensor before symmetrization (exactly 0
    for closed forms).
    """

    M_z: np.ndarray
    sigma_z2: np.ndarray
    A: SymTensor3
    asymmetry: float = 0.0


def mz_ball_iso(a, beta_z):
    """Closed-form polarization tensor of the unit ball, scalar media.

    M_z = (4 pi a beta_z / (beta_z + 3)) I.
    """
    a = float(a)
    beta_z = float(beta_z)
    if a <= 0.0:
        raise ValueError("background coefficient a must be > 0")
    if beta_z <= -1.0:
        raise ValueError("beta_z must exceed -1")
    m = (4.0 * np.pi * a * beta_z / (beta_z + 3.0)) * np.eye(3)
    return PolarizationTensor(
        M_z=m,
        sigma_z2=float(np.sign(beta_z)) * np.eye(3),
        A=SymTensor3.scaled_identity(a),
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
    return PolarizationTensor(
        M_z=m,
        sigma_z2=contrast.sigma2,
        A=A,
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
    # field p of the stack is the constant gradient e_p; column p of M_z integrates it
    g = np.repeat(np.eye(3, dtype=complex)[:, None, :], shape.n_cells, axis=1)
    cols = shape.cell_volume * solve_density(sys, contrast, g).values.sum(axis=1)
    m = cols.real.T
    imag_peak = float(np.abs(cols.imag).max())
    if imag_peak > 1e-10 * max(np.abs(m).max(), 1e-300):
        raise ArithmeticError("static solve returned a non-real tensor")
    asym = float(np.abs(m - m.T).max() / max(np.abs(m).max(), 1e-300))
    m = 0.5 * (m + m.T)
    return PolarizationTensor(
        M_z=m,
        sigma_z2=contrast.sigma2,
        A=A,
        asymmetry=asym,
    )


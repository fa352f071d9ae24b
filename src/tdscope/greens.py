"""Fundamental solutions for homogeneous (possibly anisotropic) backgrounds.

The background operator is -div(A grad u) - kappa^2 u with constant SPD A.
Its outgoing fundamental solution is

    Phi_kappa(r) = e^{i kappa rho} / (4 pi sqrt(det A) rho),   rho = |A^{-1/2} r|,

the standard change-of-variables reduction to the unit-coefficient Helmholtz
kernel.  Each kernel below is one formula for every SPD A and kappa >= 0,
through grad rho = A^{-1/2} u, u = A^{-1/2} r / rho; there is no isotropic
or static branch.  At kappa = 0 it is the anisotropic static kernel; for
A = a I it reads e^{i (kappa/sqrt(a)) |r|} / (4 pi a |r|), so with a = 1 the
classical e^{i kappa |r|}/(4 pi |r|).  Correctness of the dynamic
anisotropic form is enforced by the finite-difference PDE residual check,
not assumed.

Also provides the voxel self-interaction block of the discretized grad W_kappa:
static Eshelby part on the volume-equivalent ball plus the closed-form ball
average of the smooth dynamic remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import elliprd

from .materials import SymTensor3

__all__ = [
    "Background",
    "phi",
    "grad_phi",
    "hess_phi",
    "pde_residual",
    "cell_self_term",
    "depolarization_factors",
]


@dataclass(frozen=True)
class Background:
    """Constant background medium: SPD tensor A and wavenumber kappa >= 0."""

    A: SymTensor3
    kappa: float

    def __post_init__(self):
        if not isinstance(self.A, SymTensor3):
            object.__setattr__(self, "A", SymTensor3.from_matrix(self.A))
        self.A.require_spd("A")
        if not 0.0 <= self.kappa < np.inf:
            raise ValueError("kappa must be finite and >= 0")
        w, v = np.linalg.eigh(self.A.matrix)
        object.__setattr__(self, "_sqrt", (v * np.sqrt(w)) @ v.T)
        object.__setattr__(self, "_inv_sqrt", (v / np.sqrt(w)) @ v.T)
        object.__setattr__(self, "_inv", (v / w) @ v.T)
        object.__setattr__(self, "_det", float(np.prod(w)))
        iso = np.allclose(self.A.matrix, w[0] * np.eye(3), rtol=0.0, atol=1e-14 * w[-1])
        object.__setattr__(self, "_iso_a", float(w[0]) if iso else None)

    @classmethod
    def isotropic(cls, a=1.0, kappa=0.0):
        return cls(A=SymTensor3.scaled_identity(a), kappa=float(kappa))

    @property
    def sqrt_A(self):
        return self._sqrt

    @property
    def inv_sqrt_A(self):
        return self._inv_sqrt

    @property
    def inv_A(self):
        return self._inv

    @property
    def det_A(self):
        return self._det

    @property
    def iso_a(self):
        """Scalar a when A = a I, else None."""
        return self._iso_a


def _mapped(bg, r):
    """rho-frame coordinates A^{-1/2} r and their norms."""
    rm = np.asarray(r, dtype=float) @ bg.inv_sqrt_A
    rho = np.sqrt(np.einsum("...i,...i->...", rm, rm))
    if np.any(rho == 0.0):
        raise ValueError("fundamental solution is singular at r = 0")
    return rm, rho


def phi(bg, r):
    """Fundamental solution Phi_kappa(r); r of shape (..., 3), r != 0."""
    _, rho = _mapped(bg, r)
    return np.exp(1j * bg.kappa * rho) / (4.0 * np.pi * np.sqrt(bg.det_A) * rho)


def grad_phi(bg, r):
    """Gradient of phi with respect to its argument; shape (..., 3)."""
    rm, rho = _mapped(bg, r)
    # d/drho [e^{ik rho}/(4 pi rho)] = e^{ik rho} (ik rho - 1)/(4 pi rho^2)
    fp = np.exp(1j * bg.kappa * rho) * (1j * bg.kappa * rho - 1.0) / (4.0 * np.pi * rho**2)
    fac = fp / (np.sqrt(bg.det_A) * rho)
    # rho grad rho = A^{-1} r = A^{-1/2} rm
    return fac[..., None] * (rm @ bg.inv_sqrt_A)


def _hess_profile(bg, r):
    """The parts of hess_phi at r: g = grad rho = A^{-1/2} rm / rho, f''(rho)
    and f'(rho) / rho of the radial profile f(rho) = e^{ik rho}/(4 pi rho).

    H = (f'' g g^T + (f'/rho)(A^{-1} - g g^T)) / sqrt(det A); hess_phi forms
    all nine entries, vie.assemble one packed entry at a time.
    """
    rm, rho = _mapped(bg, r)
    k = bg.kappa
    e = np.exp(1j * k * rho)
    fpp = e * (2.0 - 2j * k * rho - (k * rho) ** 2) / (4.0 * np.pi * rho**3)
    fp_over = e * (1j * k * rho - 1.0) / (4.0 * np.pi * rho**3)
    g = rm @ bg.inv_sqrt_A
    g /= rho[..., None]
    return g, fpp, fp_over


def hess_phi(bg, r):
    """Hessian of phi; shape (..., 3, 3).  Strongly singular kernel of grad W_kappa.

    All nine entries from the profile of _hess_profile, which vie.assemble
    shares to form the far blocks one packed entry at a time.
    """
    g, fpp, fp_over = _hess_profile(bg, r)
    gg = g[..., :, None] * g[..., None, :]
    H = fp_over[..., None, None] * (bg.inv_A - gg)
    H += fpp[..., None, None] * gg
    H /= np.sqrt(bg.det_A)
    return H


def pde_residual(bg, x, h=1e-3):
    """|-div(A grad Phi) - kappa^2 Phi| at x, by second-order central differences.

    Oracle for the closed-form kernel; needs |x| > 10 h so the stencil stays
    away from the singularity.
    """
    x = np.asarray(x, dtype=float)
    if np.linalg.norm(x) <= 10.0 * h:
        raise ValueError("stencil too close to the singularity")
    A = bg.A.matrix
    res = -bg.kappa**2 * phi(bg, x)
    p0 = phi(bg, x)
    for i in range(3):
        ei = np.zeros(3)
        ei[i] = h
        res -= A[i, i] * (phi(bg, x + ei) - 2.0 * p0 + phi(bg, x - ei)) / h**2
        for j in range(i + 1, 3):
            ej = np.zeros(3)
            ej[j] = h
            mixed = (
                phi(bg, x + ei + ej)
                - phi(bg, x + ei - ej)
                - phi(bg, x - ei + ej)
                + phi(bg, x - ei - ej)
            ) / (4.0 * h**2)
            res -= 2.0 * A[i, j] * mixed
    return float(np.abs(res))


def depolarization_factors(semi_axes):
    """Classical depolarization factors N_i of an ellipsoid (static, unit medium).

    N_i = (s1 s2 s3 / 2) * int_0^inf dt / ((t + s_i^2) Delta(t)),
    Delta = sqrt(prod (t + s_j^2)); they are scale invariant and sum to 1.
    The integral is Carlson's symmetric R_D (DLMF 19.16.5, 19.33):
    N_i = (s1 s2 s3 / 3) R_D(s_j^2, s_k^2, s_i^2).
    """
    s = np.asarray(semi_axes, dtype=float)
    if np.any(s <= 0.0):
        raise ValueError("semi-axes must be positive")
    s = s / np.max(s)  # scale invariance; the sphere test below is relative
    if np.ptp(s) < 1e-12:
        return np.full(3, 1.0 / 3.0)
    s2 = s**2
    return np.prod(s) / 3.0 * elliprd(np.roll(s2, -1), np.roll(s2, -2), s2)


def eshelby_tensor(bg, semi_axes=None, axes=None):
    """Eshelby-like tensor S of an ellipsoid in background A: grad W_0[g] = -S A^{-1} g.

    The ellipsoid has the given semi-axes along the given orthonormal axes
    (defaults: sphere / identity).  Computed by mapping through A^{-1/2},
    taking classical depolarization factors of the mapped ellipsoid, and
    mapping back; tr S = 1 always, S = I/3 for a sphere in isotropic A.
    """
    if semi_axes is None:
        semi_axes = (1.0, 1.0, 1.0)
    U = np.eye(3) if axes is None else np.asarray(axes, dtype=float)
    s = np.asarray(semi_axes, dtype=float)
    # quadratic form of the mapped ellipsoid A^{-1/2} E: x' in it iff
    # (A^{1/2} x')^T U diag(1/s^2) U^T (A^{1/2} x') <= 1
    Q = bg.sqrt_A @ U @ np.diag(1.0 / s**2) @ U.T @ bg.sqrt_A
    w, V = np.linalg.eigh(0.5 * (Q + Q.T))
    mapped_axes = 1.0 / np.sqrt(w)
    N = (V * depolarization_factors(mapped_axes)) @ V.T
    # S = A^{-1/2} N A^{1/2}
    return bg.inv_sqrt_A @ N @ bg.sqrt_A


def cell_self_term(bg, h):
    """Self-interaction block int_cell grad grad Phi_kappa(x_c - y) dy of one voxel.

    Static part: -S_A A^{-1} on the volume-equivalent ball (exactly -I/(3a)
    for A = a I, matching the cubic cell by symmetry).  Dynamic part: the
    remainder kernel grad grad (Phi_kappa - Phi_0) is locally integrable; its
    ball average has the closed form below and vanishes as kappa -> 0.
    Returned unscaled (the off-diagonal assembly convention carries h^3; this
    block is the O(1) cell integral itself).
    """
    if not 0.0 < h < np.inf:
        raise ValueError("h must be positive and finite")
    S = eshelby_tensor(bg)
    static = -S @ bg.inv_A
    # mapped volume-equivalent ball radius: cell volume h^3 maps to h^3/sqrt(det A)
    rho_eq = (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0) * h / bg.det_A ** (1.0 / 6.0)
    x = bg.kappa * rho_eq
    corr = np.exp(1j * x) * (1.0 - 1j * x) - 1.0
    return static - (corr / 3.0) * bg.inv_A

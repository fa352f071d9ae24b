"""Constitutive tensors and contrast parameters.

The background medium carries a symmetric positive definite tensor A, the
inhomogeneity carries A-tilde.  Scalar media reduce to the pair (a, a~) with
relative contrast beta = a~/a - 1 and the bounded parameter q = beta/(beta+2),
which controls both the solvability certificate and the sign of the
topological derivative.  Tensor media use the normalized contrast
beta_t = A^{-1/2} (A~ - A) A^{-1/2}, its bounded companion
Q = (beta_t + 2I)^{-1} beta_t, and the sign-revealing factorization
Q = q_mat^T sigma2 q_mat with sigma2 diagonal carrying entries -1/0/+1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SymTensor3",
    "IsoContrast",
    "AnisoContrast",
    "iso_contrast",
    "aniso_contrast",
    "factor_Q",
]

# packed storage order for the 6 independent entries of a symmetric 3x3
_PACK = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]


@dataclass(frozen=True)
class SymTensor3:
    """Real symmetric 3x3 tensor stored as its 6 independent entries."""

    packed: tuple

    @classmethod
    def from_matrix(cls, m):
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("expected a 3x3 matrix")
        scale = max(np.abs(m).max(), 1.0)
        if np.abs(m - m.T).max() > 1e-12 * scale:
            raise ValueError("matrix is not symmetric")
        m = 0.5 * (m + m.T)
        return cls(tuple(m[i, j] for i, j in _PACK))

    @classmethod
    def diag(cls, d1, d2, d3):
        return cls((float(d1), float(d2), float(d3), 0.0, 0.0, 0.0))

    @classmethod
    def identity(cls):
        return cls.diag(1.0, 1.0, 1.0)

    @classmethod
    def scaled_identity(cls, a):
        return cls.diag(a, a, a)

    @property
    def matrix(self):
        m = np.zeros((3, 3))
        for v, (i, j) in zip(self.packed, _PACK):
            m[i, j] = v
            m[j, i] = v
        return m

    def require_spd(self, name="tensor"):
        if not np.linalg.eigvalsh(self.matrix)[0] > 0.0:
            raise ValueError(f"{name} must be positive definite")
        return self


@dataclass(frozen=True)
class IsoContrast:
    """Scalar medium pair (a, a_tilde) with beta = a_tilde/a - 1, q = beta/(beta+2)."""

    a: float
    beta: float
    q: float

    def __post_init__(self):
        if not self.a > 0.0:
            raise ValueError("background coefficient a must be > 0")
        if not self.beta > -1.0:
            raise ValueError("beta must exceed -1")
        if not -1.0 < self.q < 1.0:
            raise ValueError("q must lie in (-1, 1)")

    @property
    def a_tilde(self):
        return self.a * (1.0 + self.beta)


@dataclass(frozen=True)
class AnisoContrast:
    """Tensor contrast (beta_t, Q) and the factorization Q = q_mat^T sigma2 q_mat."""

    beta_t: np.ndarray
    Q: np.ndarray
    q_mat: np.ndarray
    sigma2: np.ndarray
    A: SymTensor3 = field(default_factory=SymTensor3.identity)
    A_tilde: SymTensor3 = field(default_factory=SymTensor3.identity)

    @property
    def sigma(self):
        """Diagonal sigma with sigma @ sigma = sigma2: entries 1, i, or 0."""
        d = np.diagonal(self.sigma2)
        return np.diag(np.where(d > 0, 1.0 + 0j, np.where(d < 0, 1j, 0.0 + 0j)))

    @property
    def spectral_radius(self):
        return float(np.max(np.abs(np.linalg.eigvalsh(self.Q))))


def iso_contrast(a, a_tilde):
    """Contrast parameters for a scalar medium pair.

    beta = a_tilde/a - 1 lies in (-1, inf) for positive coefficients and
    q = beta/(beta+2) lies in (-1, 1).
    """
    a = float(a)
    a_tilde = float(a_tilde)
    if a <= 0.0 or a_tilde <= 0.0:
        raise ValueError("coefficients must be positive")
    beta = a_tilde / a - 1.0
    q = beta / (beta + 2.0)
    return IsoContrast(a=a, beta=beta, q=q)


def factor_Q(Q):
    """Factor a symmetric Q as q_mat^T sigma2 q_mat.

    Q = V diag(lam) V^T gives sigma2 = diag(sign lam) and
    q_mat = diag(sqrt|lam|) V^T.  Eigenvalues below 1e-14 max|lam| are
    treated as exactly zero: the sigma2 entry is 0 and the corresponding row
    of q_mat is zeroed, so rank-deficient contrasts carry no contribution in
    the factored direction.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (3, 3) or np.abs(Q - Q.T).max() > 1e-12 * max(np.abs(Q).max(), 1.0):
        raise ValueError("Q must be a symmetric 3x3 matrix")
    lam, V = np.linalg.eigh(0.5 * (Q + Q.T))
    cut = 1e-14 * max(np.abs(lam).max(), 0.0)
    signs = np.where(np.abs(lam) <= cut, 0.0, np.sign(lam))
    mags = np.where(np.abs(lam) <= cut, 0.0, np.sqrt(np.abs(lam)))
    q_mat = mags[:, None] * V.T
    sigma2 = np.diag(signs)
    return q_mat, sigma2


def aniso_contrast(A, A_tilde):
    """Tensor contrast of the pair (A, A_tilde), both SPD.

    A^{1/2} is the unique SPD root (symmetric eigendecomposition), so beta_t
    is symmetric and every eigenvalue of Q = (beta_t + 2I)^{-1} beta_t lies in
    (-1, 1).
    """
    if not isinstance(A, SymTensor3):
        A = SymTensor3.from_matrix(A)
    if not isinstance(A_tilde, SymTensor3):
        A_tilde = SymTensor3.from_matrix(A_tilde)
    A.require_spd("A")
    A_tilde.require_spd("A_tilde")
    w, v = np.linalg.eigh(A.matrix)
    inv_sqrt = (v / np.sqrt(w)) @ v.T
    beta_t = inv_sqrt @ (A_tilde.matrix - A.matrix) @ inv_sqrt
    beta_t = 0.5 * (beta_t + beta_t.T)
    Q = np.linalg.solve(beta_t + 2.0 * np.eye(3), beta_t)
    Q = 0.5 * (Q + Q.T)
    q_mat, sigma2 = factor_Q(Q)
    return AnisoContrast(beta_t=beta_t, Q=Q, q_mat=q_mat, sigma2=sigma2,
                         A=A, A_tilde=A_tilde)


"""Volume integral equation for the field gradient inside the scatterer.

Collocation on the voxel grid: piecewise-constant vector densities, midpoint
off-diagonal blocks hess_phi(x_i - x_j) h^3, closed-form self blocks from
cell_self_term and subcell-averaged blocks between touching cells.  The
singular equation T h = (At - A) grad u is solved in the normalized variables
eta = A^{-1/2} h,

    (I - Q R_kappa) eta = 2 Q A^{1/2} grad u,      R_kappa = I + 2 A^{1/2} gradW A^{1/2},

which is the conditioning-friendly form; h = A^{1/2} eta.  solve_density is
the one direct-form solution operator h = M_B g of the package: it takes one
field or K stacked fields and checks the residual of the unnormalized
equation.  apply_MB reaches the same operator through the sign-split system
and is kept as its independent reference.  Vectors of length 3N are
voxel-major: x.reshape(N, 3).

Voxel centres lie on one lattice and every block of gradW depends only on
the lattice offset between its two cells, so gradW is block-Toeplitz.  It is
stored as one table of 3x3 blocks per offset, circulant-embedded on a box of
twice the grid's lattice extent, in Fourier space: a product with gradW is a
scatter to the box, an FFT, a blockwise 3x3 product and a gather, O(box log
box) time and O(box) memory.  A dense system matrix is gathered from the
table only for the LU path.  Each block is even in the offset and a symmetric
Hessian, so gradW, R_kappa and the sigma-split system are complex symmetric;
reciprocity of scattered fields is exact for this discretization up to
roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import LinearOperator, gmres

from .greens import cell_self_term, grad_phi, hess_phi
from .materials import IsoContrast

__all__ = [
    "VieSystem",
    "DensityField",
    "assemble",
    "solve_density",
    "born_density",
    "scattered_field",
    "radiation_matrix",
    "apply_MB",
    "resolvent_solve",
    "operator_norm",
]

VOXEL_CAP = 20000
DIRECT_CAP = 3000
NEAR_SUBDIV = 4  # subcells per axis averaged over for touching-cell blocks
_BOX_AXES = (-3, -2, -1)


@dataclass
class DensityField:
    """Complex 3-vector per voxel (units of A grad u); residual diagnostic."""

    values: np.ndarray
    grid: object = None
    residual: float = None


def _per_voxel(C, v):
    """Apply a 3x3 matrix to each voxel 3-vector of v, of shape (3N,) or (3N, K)."""
    x = v.reshape(v.shape[0] // 3, 3, -1)
    return np.einsum("ab,nbk->nak", C, x).reshape(v.shape)


def _contrast_parts(contrast, bg):
    """(Q, sqrtA, dA) as 3x3 arrays: contrast factor, A^{1/2}, and At - A."""
    if isinstance(contrast, IsoContrast):
        a = contrast.a
        if bg.iso_a is None or abs(bg.iso_a - a) > 1e-12 * max(a, 1.0):
            raise ValueError("isotropic contrast requires background A = a I")
        eye = np.eye(3)
        return contrast.q * eye, np.sqrt(a) * eye, a * contrast.beta * eye
    Q = contrast.Q
    dA = contrast.A_tilde.matrix - contrast.A.matrix
    if not np.allclose(contrast.A.matrix, bg.A.matrix, rtol=0.0, atol=1e-12):
        raise ValueError("contrast.A must match the background tensor")
    return Q, bg.sqrt_A, dA


def _sigma_parts(contrast):
    """(sigma, q_mat) of the sign-split factorization Q = q^T sigma^2 q."""
    if isinstance(contrast, IsoContrast):
        q = contrast.q
        sigma = np.eye(3, dtype=complex) * (1.0 if q >= 0.0 else 1j)
        q_mat = np.sqrt(abs(q)) * np.eye(3)
        return sigma, q_mat
    return contrast.sigma, contrast.q_mat


def _system_factors(contrast, bg, form):
    """(L, Rm, D) of the system matrix D + L gradW Rm, with 3x3 factors per voxel.

    form='direct' gives I - Q R_kappa, form='sigma' gives I - sigma q R q^T sigma.
    """
    Q, Ah, _ = _contrast_parts(contrast, bg)
    if form == "direct":
        return -2.0 * Q @ Ah, Ah, np.eye(3) - Q
    if form == "sigma":
        sig, qm = _sigma_parts(contrast)
        return -2.0 * sig @ qm @ Ah, Ah @ qm.T @ sig, np.eye(3) - sig @ qm @ qm.T @ sig
    raise ValueError(f"unknown system form {form!r}")


def _contrast_key(contrast):
    if isinstance(contrast, IsoContrast):
        return ("iso", contrast.a, contrast.beta)
    return ("aniso", contrast.A.packed, contrast.A_tilde.packed)


@dataclass
class VieSystem:
    """grad W_kappa on a voxel grid as an FFT offset table, plus cached factorizations.

    index holds each cell's integer lattice position (N, 3); kernel_hat holds
    the FFT over the box axes of the circulant-embedded block table, shape
    (3, 3, *box).
    """

    grid: object
    bg: object
    index: np.ndarray
    kernel_hat: np.ndarray
    _factor_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_cells(self):
        return self.grid.n_cells

    def apply(self, v, left=None, right=None, diag=None):
        """(diag + left gradW right) v, with 3x3 factors acting on each voxel.

        v has shape (3N,), (N,3) or (3N,K); the result has the same shape.
        Omitted factors are the identity (left, right) and zero (diag).
        """
        x = v.reshape(self.n_cells, 3, -1)
        k = x.shape[2]
        box = self.kernel_hat.shape[2:]
        flat = np.ravel_multi_index(self.index.T, box)
        buf = np.zeros((3, k, *box), dtype=complex)
        buf.reshape(3, k, -1)[:, :, flat] = (x if right is None else right @ x).transpose(1, 2, 0)
        buf = np.einsum("ab...,bk...->ak...", self.kernel_hat, np.fft.fftn(buf, axes=_BOX_AXES))
        y = np.fft.ifftn(buf, axes=_BOX_AXES).reshape(3, k, -1)[:, :, flat].transpose(2, 0, 1)
        if left is not None:
            y = left @ y
        if diag is not None:
            y = y + diag @ x
        return y.reshape(v.shape)

    def gradw_apply(self, v):
        """gradW v for v of shape (3N,), (N,3) or (3N,K)."""
        return self.apply(v)

    def r_apply(self, v):
        """R_kappa v = v + 2 A^{1/2} gradW A^{1/2} v (flat (3N,) or (3N,K))."""
        Ah = self.bg.sqrt_A
        return self.apply(v, 2.0 * Ah, Ah, np.eye(3))

    def dense(self, left=None, right=None, diag=None):
        """The (3N, 3N) matrix of apply(., left, right, diag), gathered from the table."""
        eye = np.eye(3)
        left = eye if left is None else left
        right = eye if right is None else right
        table = np.fft.ifftn(self.kernel_hat, axes=_BOX_AXES)
        box = table.shape[2:]
        blocks = left @ np.moveaxis(table, (0, 1), (-2, -1)).reshape(-1, 3, 3) @ right
        n = self.n_cells
        mat = np.empty((n, 3, n, 3), dtype=complex)
        rows = max(1, (1 << 18) // n)
        for i0 in range(0, n, rows):
            diff = self.index[i0 : i0 + rows, None, :] - self.index[None, :, :]
            off = np.ravel_multi_index(np.moveaxis(diff, -1, 0), box, mode="wrap")
            mat[i0 : i0 + rows] = blocks[off].transpose(0, 2, 1, 3)
        if diag is not None:
            cells = np.arange(n)
            mat[cells, :, cells, :] += diag
        return mat.reshape(3 * n, 3 * n)

    def _factorization(self, contrast, form):
        key = (_contrast_key(contrast), form)
        if key not in self._factor_cache:
            mat = self.dense(*_system_factors(contrast, self.bg, form))
            self._factor_cache[key] = lu_factor(mat, overwrite_a=True, check_finite=False)
        return self._factor_cache[key]


def assemble(grid, bg):
    """grad W_kappa on the voxel grid as an FFT of its block-Toeplitz offset table.

    The table holds midpoint blocks hess_phi(o h) h^3 at every lattice offset
    o != 0 and cell_self_term at o = 0.  Blocks of touching cells (the 26
    offsets of the first neighbor ring) are subcell-averaged integrals
    (NEAR_SUBDIV^3 midpoints): the plain midpoint rule there inflates the
    discrete spectrum of R_0 well above its continuum norm 1.  The table is
    circulant-embedded on a box of twice the grid's lattice extent per axis,
    so an FFT convolution on the box reproduces every cell-pair block.  No
    dense matrix is formed here; VieSystem.dense gathers one for LU.
    """
    n = grid.n_cells
    if n == 0:
        raise ValueError("grid is empty")
    if n > VOXEL_CAP:
        raise MemoryError(f"{n} voxels exceed the cap {VOXEL_CAP}; coarsen the grid")
    h = grid.h
    c = grid.centers
    index = np.round((c - c.min(axis=0)) / h).astype(int)
    dims = index.max(axis=0) + 1
    box = tuple(2 * dims)
    # signed offset held at each box position: o mod box, o in [-dims, dims)
    axes = [(np.arange(p) + d) % p - d for p, d in zip(box, dims)]
    offsets = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    table = np.empty((offsets.shape[0], 3, 3), dtype=complex)
    far = np.any(offsets != 0, axis=1)
    table[far] = hess_phi(bg, offsets[far] * h) * h**3
    table[~far] = cell_self_term(bg, h)
    t = ((np.arange(NEAR_SUBDIV) + 0.5) / NEAR_SUBDIV - 0.5) * h
    sub = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    ring = np.flatnonzero(np.abs(offsets).max(axis=1) == 1)
    pts = offsets[ring, None, :] * h - sub[None, :, :]
    table[ring] = hess_phi(bg, pts).mean(axis=1) * h**3
    table = np.moveaxis(table.reshape(*box, 3, 3), (-2, -1), (0, 1))
    kernel_hat = np.fft.fftn(table, axes=_BOX_AXES)
    return VieSystem(grid=grid, bg=bg, index=index, kernel_hat=kernel_hat)


def resolvent_solve(sys, contrast, rhs, form="direct"):
    """Solve (I - Q R_kappa) X = rhs (form='direct') or the sigma-split system.

    rhs: (3N,) or (3N, K).  Dense LU below the direct cap (cached per
    contrast), residual-controlled GMRES above it.  Each LU batch is checked
    by one seeded Freivalds probe ||M (X r) - B r|| / ||B r|| through the FFT
    apply, which also cross-checks the gathered matrix against the table.
    """
    rhs = np.asarray(rhs, dtype=complex)
    n3 = 3 * sys.n_cells
    cols = rhs.reshape(n3, -1)
    factors = _system_factors(contrast, sys.bg, form)

    def matvec(v):
        return sys.apply(v, *factors)

    if sys.n_cells <= DIRECT_CAP:
        x = lu_solve(sys._factorization(contrast, form), rhs, check_finite=False)
        r = np.random.default_rng(0).standard_normal(cols.shape[1])
        br = cols @ r
        num, den = np.linalg.norm(matvec(x.reshape(n3, -1) @ r) - br), np.linalg.norm(br)
        if not num <= 1e-10 * den:
            raise RuntimeError(f"LU solve residual probe {num / den:.3e} exceeds 1e-10")
        return x
    op = LinearOperator((n3, n3), matvec=matvec, dtype=complex)
    out = np.empty_like(cols)
    for k in range(cols.shape[1]):
        x, info = gmres(op, cols[:, k], rtol=1e-10, atol=0.0, restart=200, maxiter=100)
        if info != 0:
            res = np.linalg.norm(matvec(x) - cols[:, k]) / np.linalg.norm(cols[:, k])
            raise RuntimeError(f"GMRES stalled (info={info}, residual {res:.3e})")
        out[:, k] = x
    return out.reshape(rhs.shape)


def born_density(contrast, incident_grad, grid=None):
    """Born approximation h = (At - A) grad u; no solve."""
    g = np.asarray(incident_grad, dtype=complex)
    if isinstance(contrast, IsoContrast):
        vals = (contrast.a * contrast.beta) * g
    else:
        vals = g @ (contrast.A_tilde.matrix - contrast.A.matrix).T
    return DensityField(values=vals, grid=grid, residual=None)


def solve_density(sys, contrast, incident_grad):
    """Solve T h = (At - A) g for one field g (N, 3) or K stacked fields (K, N, 3).

    This is the direct-form solution operator h = M_B g =
    2 A^{1/2} (I - Q R_kappa)^{-1} Q A^{1/2} g; h has the shape of g.  The
    residual ||T (h r) - (At - A)(g r)|| / ||(At - A)(g r)|| of the
    unnormalized equation is taken for one seeded random combination r of the
    fields (r = 1 for a single field) and must stay below 1e-10 on the LU path
    and 1e-8 on the GMRES path.
    """
    g = np.asarray(incident_grad, dtype=complex)
    if g.ndim not in (2, 3) or g.shape[-2:] != (sys.n_cells, 3):
        raise ValueError("incident_grad must have shape (n_cells, 3) or (K, n_cells, 3)")
    if not np.all(np.isfinite(g)):
        raise ValueError("incident_grad must be finite")
    Q, Ah, dA = _contrast_parts(contrast, sys.bg)
    if not np.any(dA):
        return DensityField(values=np.zeros_like(g), grid=sys.grid, residual=0.0)
    rows = g.reshape(-1, 3 * sys.n_cells)
    # the (3N, K) right-hand sides are the transpose of (K, 3N) rows: Fortran
    # order, which lu_solve takes without a reordering copy; they are dropped
    # before h is formed so that at most two K x 3N blocks are held here
    rhs = (rows.reshape(-1, 3) @ (2.0 * Q @ Ah).T).reshape(rows.shape)
    eta = resolvent_solve(sys, contrast, rhs.T).T
    del rhs
    h = (eta.reshape(-1, 3) @ Ah.T).reshape(g.shape)
    k = rows.shape[0]
    r = np.random.default_rng(0).standard_normal(k) if g.ndim == 3 else np.ones(1)
    gr = (r @ rows).reshape(-1, 3)
    hr = (r @ h.reshape(rows.shape)).reshape(-1, 3)
    target = gr @ dA.T
    num = np.linalg.norm(hr - sys.gradw_apply(hr) @ dA.T - target)
    den = np.linalg.norm(target)
    res = float(num / den) if den > 0.0 else 0.0
    tol = 1e-10 if sys.n_cells <= DIRECT_CAP else 1e-8
    if res > tol:
        raise RuntimeError(f"VIE residual {res:.3e} exceeds {tol:.0e}")
    return DensityField(values=h, grid=sys.grid, residual=res)


def apply_MB(sys, contrast, g):
    """Solution operator h = M_B g through the sign-split system,

        M_B = 2 (A^{1/2} q^T) sigma (I - sigma q R q^T sigma)^{-1} sigma (q A^{1/2}),

    algebraically equal to the direct form of solve_density but solved with a
    different assembled matrix: the independent reference for it.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (sys.n_cells, 3):
        raise ValueError("g must have shape (n_cells, 3)")
    _, Ah, dA = _contrast_parts(contrast, sys.bg)
    if not np.any(dA):
        return DensityField(values=np.zeros_like(g), grid=sys.grid, residual=0.0)
    sig, qm = _sigma_parts(contrast)
    rhs = 2.0 * (g @ (sig @ qm @ Ah).T).reshape(-1)
    x = resolvent_solve(sys, contrast, rhs, form="sigma")
    h = _per_voxel(Ah @ qm.T @ sig, x).reshape(-1, 3)
    return DensityField(values=h, grid=sys.grid, residual=None)


def radiation_matrix(sys, points):
    """Evaluation operator (M, 3N): row p maps h to W_kappa[h](x_p).

    Points must lie outside every voxel (Chebyshev distance >= h/2).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    centers = sys.grid.centers
    h3 = sys.grid.cell_volume
    half = 0.5 * sys.grid.h
    out = np.empty((pts.shape[0], 3 * sys.n_cells), dtype=complex)
    chunk = max(1, int(2e6) // max(sys.n_cells, 1))
    for p0 in range(0, pts.shape[0], chunk):
        p1 = min(p0 + chunk, pts.shape[0])
        diff = pts[p0:p1, None, :] - centers[None, :, :]
        if np.any(np.all(np.abs(diff) < half, axis=-1)):
            raise ValueError("evaluation point inside the scatterer grid")
        out[p0:p1] = (grad_phi(sys.bg, diff) * h3).reshape(p1 - p0, -1)
    return out


def scattered_field(sys, h, x):
    """u^s(x) = sum_j grad Phi_kappa(x - y_j) . h_j h^3 for x outside B."""
    vals = h.values if isinstance(h, DensityField) else np.asarray(h)
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    u = radiation_matrix(sys, x) @ vals.reshape(-1)
    return complex(u[0]) if single else u


def operator_norm(sys, which="R_kappa", contrast=None):
    """Largest singular value of the selected operator by power iteration.

    which: 'R_kappa' | 'qR_kappa' | 'qRq'.  The grid is uniform, so the
    volume-weighted spectral norm coincides with the Euclidean one.  The
    iteration starts from a seeded random vector, stops once successive
    estimates agree to 1e-4 relative and raises after 1000 steps.
    """
    eye = np.eye(3)
    if which == "R_kappa":
        left, right = eye, eye
    elif which == "qR_kappa":
        if contrast is None:
            raise ValueError("qR_kappa needs a contrast")
        Q, _, _ = _contrast_parts(contrast, sys.bg)
        left, right = Q, eye
    elif which == "qRq":
        if contrast is None:
            raise ValueError("qRq needs a contrast")
        _, qm = _sigma_parts(contrast)
        left, right = qm, qm.T
    else:
        raise ValueError(f"unknown operator {which!r}")

    def mv(v):
        return _per_voxel(left, sys.r_apply(_per_voxel(right, v)))

    def rmv(v):
        # adjoint factors; R_kappa is complex symmetric so R^H w = conj(R conj(w))
        w = _per_voxel(left.conj().T, v)
        w = np.conj(sys.r_apply(np.conj(w)))
        return _per_voxel(right.conj().T, w)

    rng = np.random.default_rng(0)
    n3 = 3 * sys.n_cells
    v = rng.standard_normal(n3) + 1j * rng.standard_normal(n3)
    v /= np.linalg.norm(v)
    sig_prev = 0.0
    for _ in range(1000):
        w = mv(v)
        sig = np.linalg.norm(w)
        if sig == 0.0:
            return 0.0
        v_new = rmv(w)
        nv = np.linalg.norm(v_new)
        if nv == 0.0:
            return float(sig)
        v = v_new / nv
        if abs(sig - sig_prev) <= 1e-4 * sig:
            return float(sig)
        sig_prev = sig
    raise RuntimeError("power iteration did not converge in 1000 iterations")

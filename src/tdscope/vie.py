"""Volume integral equation for the field gradient inside the scatterer.

Collocation on the voxel grid: piecewise-constant vector densities, midpoint
off-diagonal blocks hess_phi(x_i - x_j) h^3, closed-form self blocks from
cell_self_term and subcell-averaged blocks between touching cells.  The
singular equation T h = (At - A) grad u is solved through the sign split
Q = q^T sigma^2 q of the contrast (materials.factor_Q),

    (I - sigma q R_kappa q^T sigma) x = 2 sigma q A^{1/2} grad u,    h = A^{1/2} q^T sigma x,

with R_kappa = I + 2 A^{1/2} gradW A^{1/2}.  By the push-through identity
this h is that of the normalized direct form (I - Q R_kappa) eta =
2 Q A^{1/2} grad u, h = A^{1/2} eta, and for a scalar q the two system
matrices coincide.  solve_density is the solution operator h = M_B g of the
package: it takes one field or K stacked fields and checks the residual of
the unnormalized equation.  Vectors of length 3N are voxel-major:
x.reshape(N, 3).

Voxel centres lie on one lattice and every block of gradW depends only on
the lattice offset between its two cells, so gradW is block-Toeplitz.  It is
stored as one table of 3x3 blocks per offset, circulant-embedded on a box of
twice the grid's lattice extent, in Fourier space.  A product with gradW
scatters the density to the first half of each box axis, transforms one axis
at a time (the last axis only on the lines that hold data, the middle one
only on the occupied slabs, the first one on the full box), multiplies by
the 3x3 symbol, transforms back in the reverse order, skipping the half of
each axis that is never read, and gathers: O(box log box) time and O(box)
memory.  Each block is even in the offset and a symmetric Hessian, so gradW,
R_kappa and the system matrix are complex symmetric for every contrast;
reciprocity of scattered fields is exact for this discretization up to
roundoff.

Below DIRECT_CAP cells each solve gathers the system matrix from the table
one block at a time under the grid's mirror group.  An axis is a mirror axis
when reversing the cells' lattice positions along it maps the cell set onto
itself with no cell on the plane, and flipping the sign of that component
commutes with A and, up to a sign per unknown, with the 3x3 system factors;
voxelize centres its lattice on the shape, so a ball or an axis-aligned
ellipsoid in a diagonal background has s = 3 mirror axes.  The system matrix
then commutes with the 2^s mirror maps, and in the symmetry-adapted basis it
splits into 2^s complex-symmetric blocks of 3N / 2^s rows, one per character
of Z2^s.  Only the orbit representatives' rows are gathered (N^2 / 2^s cell
pairs) and combined into the blocks by a Hadamard transform over the group.
Each block is factored and solved by one zsysv call (Bunch-Kaufman LDL^T,
then LAPACK's level-3 zsytrs2) in the memory of the gathered block: the
right-hand sides are routed to the blocks that carry them (a column of
definite parity under every mirror, such as a real regular wave about the
lattice centre, to one block), solved in place and mapped back, and the
factors are dropped: a solve holds 16 (3N)^2 / 2^s bytes of factors, whatever
the number of contrasts.  With no mirror axis (s = 0) the one block is the
whole system.  Above the cap the solve is matrix-free GMRES.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft, ifft
from scipy.linalg import (
    eigvalsh_tridiagonal,
    hadamard,
    lu_factor,  # unused here; the traced benchmark wraps vie.lu_factor
    lu_solve,  # unused here; the traced benchmark wraps vie.lu_solve
)
from scipy.linalg.lapack import zsysv, zsysv_lwork
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


def _contrast_parts(contrast, bg):
    """(Q, sigma, q_mat, dA) as 3x3 arrays: the contrast factor, its sign split
    Q = q_mat^T sigma^2 q_mat, and At - A.  The contrast must live in bg."""
    if isinstance(contrast, IsoContrast):
        a, q = contrast.a, contrast.q
        if bg.iso_a is None or abs(bg.iso_a - a) > 1e-12 * max(a, 1.0):
            raise ValueError("isotropic contrast requires background A = a I")
        eye = np.eye(3)
        sigma = np.eye(3, dtype=complex) * (1.0 if q >= 0.0 else 1j)
        return q * eye, sigma, np.sqrt(abs(q)) * eye, a * contrast.beta * eye
    if not np.allclose(contrast.A.matrix, bg.A.matrix, rtol=0.0, atol=1e-12):
        raise ValueError("contrast.A must match the background tensor")
    return contrast.Q, contrast.sigma, contrast.q_mat, contrast.A_tilde.matrix - contrast.A.matrix


def _system_factors(contrast, bg):
    """(L, Rm, D) of I - sigma q R_kappa q^T sigma = D + L gradW Rm, 3x3 per voxel.

    L = -2 sigma q A^{1/2} is -2 Rm^T and D is symmetric, so the matrix is
    complex symmetric whenever gradW is.
    """
    _, sig, qm, _ = _contrast_parts(contrast, bg)
    Ah = bg.sqrt_A
    return -2.0 * sig @ qm @ Ah, Ah @ qm.T @ sig, np.eye(3) - sig @ qm @ qm.T @ sig


def _mirror_orbits(index, A, left, right, diag):
    """(axes, cells, signs) of the mirror group Z2^s of diag + left gradW right.

    Axis k is a mirror axis when reversing the lattice positions index (N, 3)
    along k maps the cell set onto itself with no cell on the plane (an even
    extent), the flip S_k of component k commutes with A (so gradW commutes
    with the mirror), and a sign diagonal T_k carries the factors across it:
    T_k left S_k = left, S_k right T_k = right and T_k diag T_k = diag.  The
    unknowns live in the eigenbasis of the contrast, so T_k is S_k with its
    -1 moved to the row of left that holds component k.  Any other axis is
    dropped, which keeps the blocks exact.  Bit t of a group element g flips
    axes[t].  cells (2^s, N / 2^s) holds the image g r of each orbit
    representative r, a cell in the lower half of every mirror axis
    (cells[0] are the representatives); signs (2^s, 3) holds T_g.
    """
    dims = index.max(axis=0) + 1
    where = np.full(dims, -1)
    where[tuple(index.T)] = np.arange(index.shape[0])
    occupied = where >= 0
    axes, flips = [], []
    for k in range(3):
        s = np.ones(3)
        s[k] = -1.0
        t = np.where(left[:, k] == 0, 1.0, -1.0)
        if (dims[k] % 2 == 0 and np.array_equal(np.flip(occupied, axis=k), occupied)
                and np.array_equal(s[:, None] * A * s, A)
                and np.array_equal(t[:, None] * left * s, left)
                and np.array_equal(s[:, None] * right * t, right)
                and np.array_equal(t[:, None] * diag * t, diag)):
            axes.append(k)
            flips.append(t)
    rep = index[np.all(index[:, axes] < dims[axes] // 2, axis=1)]
    cells, signs = [], []
    for g in range(1 << len(axes)):
        pos, sign = rep.copy(), np.ones(3)
        for bit, (k, t) in enumerate(zip(axes, flips)):
            if g >> bit & 1:
                pos[:, k] = dims[k] - 1 - pos[:, k]
                sign *= t
        cells.append(where[tuple(pos.T)])
        signs.append(sign)
    return tuple(axes), np.array(cells), np.array(signs)


# a block's share of a column at or below this fraction of the column's largest
# share is roundoff (about 1e-17 for a column of definite parity), far below
# the 1e-10 residual probe, and the block does not solve the column
_LEAK = 1e-14


def _block_name(axes, c):
    """'x+ y- z+': block c's parity under each mirror, + for even; 'single' if s = 0."""
    return " ".join("xyz"[k] + "+-"[c >> t & 1] for t, k in enumerate(axes)) or "single"


def _blocked_solve(blocks, axes, cells, signs, rhs, what):
    """Solution of M X = rhs, block by block, for M that commutes with its mirror group Z2^s.

    axes, cells and signs are those of _mirror_orbits, and blocks[c] is
    B_c = sum_g chi_c(g) M(r, g r') T_g over orbit representatives r, r'
    (VieSystem._gather_blocks), with chi_c(g) = (-1)^popcount(c & g) row c of
    the Sylvester Hadamard matrix.  rhs is complex, (3N,) or (3N, K), and is
    overwritten by the solution when it is Fortran-ordered (or 1-D); what
    names M in errors.  Block c's share of rhs is sum_g chi_c(g) T_g rhs(g r),
    and the solution is 2^-s sum_c chi_c(g) T_g x_c(r) at cell g r.  A block
    whose share of a column is at most _LEAK times the column's largest share
    holds roundoff and does not solve it, so a column of definite parity under
    every mirror is solved in one block and an all-zero column in none.  Each
    block is factored in its own memory and solves its columns in place in one
    zsysv call, also when it carries none, so a singular block raises naming
    it, before rhs is written.
    """
    group = cells.shape[0]
    rows = blocks.shape[1]
    lwork, _ = zsysv_lwork(rows, lower=1)  # scipy's default lwork = n is unblocked
    had = hadamard(group, dtype=float)
    x = np.asfortranarray(rhs.reshape(rhs.shape[0], -1))
    cols = x.T.reshape(x.shape[1], -1, 3)  # (K, N, 3), a view of x
    # (2^s, K, n, 3): block c's share of column k is y[c, k]
    y = np.tensordot(had, cols[:, cells] * signs[:, None, :], axes=(1, 1))
    flat = y.reshape(group, y.shape[1], -1).view(float)
    share = np.einsum("cki,cki->ck", flat, flat)  # squared norm per block and column
    carried = share > _LEAK**2 * share.max(axis=0)
    for c, block in enumerate(blocks):
        part = y[c, carried[c]]  # a C-ordered copy, solved in place
        # the C-ordered symmetric block is its own transpose in Fortran order
        *_, info = zsysv(block.T, part.reshape(part.shape[0], rows).T, lwork=int(lwork.real),
                         lower=1, overwrite_a=1, overwrite_b=1)
        if info > 0:
            raise RuntimeError(f"the {_block_name(axes, c)} block ({rows} rows) of {what} "
                               f"is singular: LDL^T pivot {info} is exactly zero")
        y[c] = 0.0
        y[c, carried[c]] = part
    y = np.tensordot(had, y, axes=(1, 0))
    y *= signs[:, None, None, :] / group
    cols[:, cells] = y.transpose(1, 0, 2, 3)
    return x.reshape(rhs.shape)


@dataclass
class VieSystem:
    """grad W_kappa on a voxel grid as an FFT offset table, plus cached responses.

    index holds each cell's integer lattice position (N, 3); kernel_hat holds
    the FFT over the box axes of the circulant-embedded block table, shape
    (3, 3, *box).  The system keeps scatterer responses (imaging's
    regular-wave response T_w) per contrast and caller-given key, never a
    dense factor.
    """

    grid: object
    bg: object
    index: np.ndarray
    kernel_hat: np.ndarray
    _response_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_cells(self):
        return self.grid.n_cells

    def apply(self, v, left=None, right=None, diag=None):
        """(diag + left gradW right) v, with 3x3 factors acting on each voxel.

        v has shape (3N,), (N,3) or (3N,K); the result has the same shape and
        v is not written to.  Omitted factors are the identity (left, right)
        and zero (diag).  The density is scattered to the first half
        (d0, d1, d2) of the box, so the forward transform runs the last axis
        on those d0*d1 lines only, the middle axis on the d0 slabs and the
        first axis on the full box.  The symbol is applied as nine
        multiply-adds with kernel_hat[a, b], and the inverse transform runs
        the axes in reverse order, dropping the half of each axis that the
        gather does not read before transforming the next.
        """
        x = v.reshape(self.n_cells, 3, -1)
        k = x.shape[2]
        kh = self.kernel_hat
        p0, p1, p2 = kh.shape[2:]
        cells = (slice(None), slice(None), *self.index.T)
        xt = x.transpose(1, 2, 0).reshape(3, -1)
        src = xt if right is None else right @ xt
        buf = np.zeros((3, k, p0 // 2, p1 // 2, p2 // 2), dtype=complex)
        buf[cells] = src.reshape(3, k, -1)
        buf = fft(buf, n=p2, axis=-1, overwrite_x=True)
        buf = fft(buf, n=p1, axis=-2, overwrite_x=True)
        buf = fft(buf, n=p0, axis=-3, overwrite_x=True)
        out = np.empty_like(buf)
        tmp = np.empty_like(out[0])
        for a in range(3):
            np.multiply(kh[a, 0], buf[0], out=out[a])
            for b in (1, 2):
                np.multiply(kh[a, b], buf[b], out=tmp)
                out[a] += tmp
        out = ifft(out, axis=-3, overwrite_x=True)[:, :, : p0 // 2]
        out = ifft(out, axis=-2, overwrite_x=True)[:, :, :, : p1 // 2]
        out = ifft(out, axis=-1, overwrite_x=True)[..., : p2 // 2]
        y = out[cells].reshape(3, -1)
        if left is not None:
            y = left @ y
        if diag is not None:
            y += diag @ xt
        return y.reshape(3, k, -1).transpose(2, 0, 1).reshape(v.shape)

    def r_apply(self, v, left=None, right=None):
        """left R_kappa right v, R_kappa = I + 2 A^{1/2} gradW A^{1/2}, as one apply.

        v is flat (3N,) or (3N,K); omitted 3x3 factors are the identity.
        """
        Ah = self.bg.sqrt_A
        left = np.eye(3) if left is None else left
        right = np.eye(3) if right is None else right
        return self.apply(v, 2.0 * left @ Ah, Ah @ right, left @ right)

    def _offset_blocks(self, left, right):
        """(blocks, box): left K(o) right for every box offset o, flat (prod(box), 3, 3)."""
        table = np.fft.ifftn(self.kernel_hat, axes=_BOX_AXES)
        blocks = left @ np.moveaxis(table, (0, 1), (-2, -1)).reshape(-1, 3, 3) @ right
        return blocks, table.shape[2:]

    def dense(self, left=None, right=None, diag=None):
        """The (3N, 3N) matrix of apply(., left, right, diag), gathered from the table.

        It is the one block of the one-element mirror group (see _gather_blocks).
        """
        eye = np.eye(3)
        left = eye if left is None else left
        right = eye if right is None else right
        diag = np.zeros((3, 3)) if diag is None else diag
        cells = np.arange(self.n_cells)[None]
        return self._gather_blocks(cells, np.ones((1, 3)), left, right, diag)[0]

    def _gather_blocks(self, cells, signs, left, right, diag):
        """The 2^s blocks sum_g chi_c(g) M(r, g r') T_g of M = diag + left gradW right.

        cells and signs are those of _mirror_orbits.  Rows of the orbit
        representatives are gathered against every cell from the offset
        table, a chunk of representatives at a time, and combined by the
        Hadamard transform over g; the diagonal term enters every block.
        Returns (2^s, 3n, 3n) for n representatives, each block C-ordered.
        """
        blocks, box = self._offset_blocks(left, right)
        group, n = cells.shape
        had = hadamard(group, dtype=float)
        pos = self.index[cells]
        out = np.empty((group, n, 3, n, 3), dtype=complex)
        rows = max(1, (1 << 12) // (group * n))
        for i0 in range(0, n, rows):
            diff = pos[0, None, i0 : i0 + rows, None, :] - pos[:, None, :, :]
            off = np.ravel_multi_index(np.moveaxis(diff, -1, 0), box, mode="wrap")
            m = blocks[off]  # (2^s, rows, n, 3, 3): M(r, g r') for r in the chunk
            m *= signs[:, None, None, None, :]
            m = (had @ m.reshape(group, -1)).reshape(m.shape)
            out[:, i0 : i0 + rows] = m.transpose(0, 1, 3, 2, 4)
        reps = np.arange(n)
        out[:, reps, :, reps, :] += diag
        return out.reshape(group, 3 * n, 3 * n)

    def _dense_solve(self, contrast, rhs):
        """_blocked_solve of the contrast's system matrix for rhs (3N,) or (3N, K);
        the blocks are gathered for this call only and factored in place."""
        factors = _system_factors(contrast, self.bg)
        axes, cells, signs = _mirror_orbits(self.index, self.bg.A.matrix, *factors)
        blocks = self._gather_blocks(cells, signs, *factors)
        return _blocked_solve(blocks, axes, cells, signs, rhs,
                              f"the system on {self.n_cells} cells")

    def _response(self, contrast, key, solve):
        """solve() once per contrast and key; the read-only result is kept.

        The contrast enters the key as the bytes of its split matrices, which
        are all that a solve reads of it; key must name everything else the
        response depends on.
        """
        key = (*(m.tobytes() for m in _contrast_parts(contrast, self.bg)), *key)
        if key not in self._response_cache:
            out = solve()
            out.setflags(write=False)
            self._response_cache[key] = out
        return self._response_cache[key]


def assemble(grid, bg):
    """grad W_kappa on the voxel grid as an FFT of its block-Toeplitz offset table.

    The table holds midpoint blocks hess_phi(o h) h^3 at every lattice offset
    o != 0 and cell_self_term at o = 0.  Blocks of touching cells (the 26
    offsets of the first neighbor ring) are subcell-averaged integrals
    (NEAR_SUBDIV^3 midpoints): the plain midpoint rule there inflates the
    discrete spectrum of R_0 well above its continuum norm 1.  The table is
    circulant-embedded on a box of twice the grid's lattice extent per axis,
    so an FFT convolution on the box reproduces every cell-pair block.  No
    dense matrix is formed here; each dense solve gathers its mirror blocks
    from the table (VieSystem._gather_blocks).
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


def resolvent_solve(sys, contrast, rhs):
    """Solve (I - sigma q R_kappa q^T sigma) X = rhs for the contrast's sign split.

    rhs: (3N,) or (3N, K), consumed: on the dense path a complex rhs in
    Fortran order (or 1-D) is overwritten by the solution, which is returned
    in its memory.  Below the direct cap each block of the dense system
    matrix under its mirror group is factored with LDL^T, in place, for this
    call only; a singular block raises naming the block, with rhs untouched.
    Above the cap the solve is residual-controlled GMRES.  Each dense batch is
    checked by one seeded Freivalds probe ||M (X r) - B r|| / ||B r|| through
    the FFT apply, which also cross-checks the gathered blocks against the
    table; B r is formed before the solve.
    """
    rhs = np.asarray(rhs, dtype=complex)
    n3 = 3 * sys.n_cells
    cols = rhs.reshape(n3, -1)
    factors = _system_factors(contrast, sys.bg)

    def matvec(v):
        return sys.apply(v, *factors)

    if sys.n_cells <= DIRECT_CAP:
        r = np.random.default_rng(0).standard_normal(cols.shape[1])
        br = cols @ r
        x = sys._dense_solve(contrast, rhs)
        num, den = np.linalg.norm(matvec(x.reshape(n3, -1) @ r) - br), np.linalg.norm(br)
        if not num <= 1e-10 * den:
            raise RuntimeError(f"dense solve residual probe {num / den:.3e} exceeds 1e-10")
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

    This is the solution operator h = M_B g =
    2 A^{1/2} (I - Q R_kappa)^{-1} Q A^{1/2} g, solved on the sign-split
    system as 2 A^{1/2} q^T sigma (I - sigma q R_kappa q^T sigma)^{-1}
    sigma q A^{1/2} g; h has the shape of g.  The
    residual ||T (h r) - (At - A)(g r)|| / ||(At - A)(g r)|| of the
    unnormalized equation is taken for one seeded random combination r of the
    fields (r = 1 for a single field) and must stay below 1e-10 on the dense
    path and 1e-8 on the GMRES path.  Real fields stay real: no complex copy
    of them is made besides the right-hand sides.
    """
    g = np.asarray(incident_grad)
    if not np.iscomplexobj(g):
        g = np.asarray(g, dtype=float)
    if g.ndim not in (2, 3) or g.shape[-2:] != (sys.n_cells, 3):
        raise ValueError("incident_grad must have shape (n_cells, 3) or (K, n_cells, 3)")
    if not np.all(np.isfinite(g)):
        raise ValueError("incident_grad must be finite")
    *_, dA = _contrast_parts(contrast, sys.bg)
    if not np.any(dA):
        return DensityField(values=np.zeros(g.shape, dtype=complex), grid=sys.grid,
                            residual=0.0)
    left, right, _ = _system_factors(contrast, sys.bg)
    rows = g.reshape(-1, 3 * sys.n_cells)
    lift = -left
    # the (3N, K) right-hand sides are the transpose of (K, 3N) rows: Fortran
    # order, which the LDL^T solve overwrites without a reordering copy; they
    # are dropped before h is formed so that at most two K x 3N blocks are held
    if np.iscomplexobj(g):
        rhs = rows.reshape(-1, 3) @ lift.T
    else:
        # one real product gives the interleaved real and imaginary parts
        lift = np.stack([lift.real.T, lift.imag.T], axis=-1).reshape(3, 6)
        rhs = (rows.reshape(-1, 3) @ lift).view(complex)
    rhs = rhs.reshape(rows.shape)
    x = resolvent_solve(sys, contrast, rhs.T).T
    del rhs
    h = (x.reshape(-1, 3) @ right.T).reshape(g.shape)
    k = rows.shape[0]
    r = np.random.default_rng(0).standard_normal(k) if g.ndim == 3 else np.ones(1)
    gr = (r @ rows).reshape(-1, 3)
    hr = (r @ h.reshape(rows.shape)).reshape(-1, 3)
    target = gr @ dA.T
    num = np.linalg.norm(hr - sys.apply(hr) @ dA.T - target)
    den = np.linalg.norm(target)
    res = float(num / den) if den > 0.0 else 0.0
    tol = 1e-10 if sys.n_cells <= DIRECT_CAP else 1e-8
    if res > tol:
        raise RuntimeError(f"VIE residual {res:.3e} exceeds {tol:.0e}")
    return DensityField(values=h, grid=sys.grid, residual=res)


def radiation_matrix(sys, points):
    """Evaluation operator (M, 3N): row p maps h to W_kappa[h](x_p).

    Points must be finite and lie outside every voxel (Chebyshev distance
    >= h/2).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ValueError("evaluation points must be finite")
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
    """Lower bound on the largest singular value of the selected operator.

    which: 'R_kappa' | 'qR_kappa' | 'qRq'.  The grid is uniform, so the
    volume-weighted spectral norm coincides with the Euclidean one.
    Golub-Kahan-Lanczos bidiagonalization from a seeded random vector v1: after
    k steps the estimate is sigma_max of the k x k upper-bidiagonal B_k, the
    largest ||M v|| / ||v|| over the Krylov space K_k(M^H M, v1).  It never
    exceeds ||M|| (up to roundoff), and since that space holds the k-th power
    iterate, it is never below the power estimate after the same 2k - 1
    products.  No basis is kept, so memory stays three 3N vectors.  The loop
    stops once successive estimates agree to 1e-4 relative (before that step's
    M^H product) or once alpha or beta falls below 1e-12 times the estimate
    (the Krylov space is exhausted: the next step would divide by roundoff),
    and raises after 1000 steps.
    """
    eye = np.eye(3)
    if which == "R_kappa":
        left, right = eye, eye
    elif which in ("qR_kappa", "qRq"):
        if contrast is None:
            raise ValueError(f"{which} needs a contrast")
        Q, _, qm, _ = _contrast_parts(contrast, sys.bg)
        left, right = (Q, eye) if which == "qR_kappa" else (qm, qm.T)
    else:
        raise ValueError(f"unknown operator {which!r}")

    def mv(v):
        return sys.r_apply(v, left, right)

    def rmv(v):
        # R_kappa is complex symmetric, so (left R right)^H v = conj(right^T R left^T conj(v))
        return np.conj(sys.r_apply(np.conj(v), right.T, left.T))

    rng = np.random.default_rng(0)
    n3 = 3 * sys.n_cells
    v = rng.standard_normal(n3) + 1j * rng.standard_normal(n3)
    v /= np.linalg.norm(v)
    u = np.zeros_like(v)
    # alpha_1, beta_1, alpha_2, ...: the off-diagonal of the symmetric tridiagonal
    # form of [[0, B], [B^T, 0]], whose largest eigenvalue is sigma_max(B)
    off = []
    beta = sig_prev = 0.0
    for _ in range(1000):
        u = mv(v) - beta * u
        alpha = np.linalg.norm(u)
        off.append(alpha)
        top = len(off)
        sig = float(eigvalsh_tridiagonal(np.zeros(top + 1), off, select="i",
                                         select_range=(top, top))[0])
        if alpha <= 1e-12 * sig or abs(sig - sig_prev) <= 1e-4 * sig:
            return sig
        u /= alpha
        v = rmv(u) - alpha * v
        beta = np.linalg.norm(v)
        if beta <= 1e-12 * sig:
            return sig
        v /= beta
        off.append(beta)
        sig_prev = sig
    raise RuntimeError("Golub-Kahan-Lanczos norm estimate did not converge in 1000 steps")

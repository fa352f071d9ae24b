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
twice the grid's lattice extent, in Fourier space, where only the 6 distinct
entries of each symmetric block are kept.  A product with gradW scatters the
density to the first half of each box axis, transforms one axis at a time
(the last axis only on the lines that hold data, the middle one only on the
occupied slabs, the first one on the full box), multiplies by the 3x3
symbol in place, one cache-sized slab of the first axis at a time,
transforms back in the reverse order, skipping the half of each axis that
is never read, and gathers: O(box log box) time and O(box) memory.  Each
block is even in the offset and a symmetric Hessian, so gradW, R_kappa and
the system matrix are complex symmetric for every contrast; reciprocity of
scattered fields is exact for this discretization up to roundoff.

Below DIRECT_CAP cells each solve gathers the system matrix from the table
under the grid's group of signed axis permutations (_orbits).  An axis is a
mirror axis when reversing the cells' lattice positions along it maps the
cell set onto itself with no cell on the plane, and flipping the sign of
that component commutes with A and, up to a sign per unknown, with the 3x3
system factors; an axis permutation counts when it maps the cell set onto
itself and commutes with A and, up to the same move of the unknowns' rows,
with the factors.  voxelize centres its lattice on the shape, so a ball in
an isotropic background keeps all 48 signed permutations (the cube group),
an ellipsoid with two equal semi-axes keeps the 8 mirrors and one swap, and
one with three distinct semi-axes or a tensor contrast the 8 mirrors.  The
mirrors Z2^s split the system into 2^s complex-symmetric blocks B_c of
3n = 3N / 2^s rows, one per character c.  An axis permutation p maps c to
p(c) with B_p(c) = U_p B_c U_p^T for a permutation U_p of the unknowns, so
only one block per class of characters is formed, and a member's columns
are solved by its class representative as further columns.  The stabilizer
of the representative (all of S3, a swap, or nothing) splits its block
again, one block per irreducible representation: A1, A2 and E (whose two
rows share one block) for S3, even and odd for a swap (_Split).  Only the
rows of the cells holding an orbit representative of the permutations are
gathered, for every character (about N^2 / 2^s / |H| cell pairs), and
combined by a Hadamard transform over the mirrors, a chunk of rows at a
time; each chunk goes straight to the rows that each class's split reads,
and the irrep blocks are formed from those rows through fixed small
matrices per orbit type, one class and a chunk of its rows at a time,
each class's rows dropped before the next.  The rows of all 2^s
characters are never held at once: on the ball at resolution 14 the
gather's tracemalloc peak is 12.2 MB instead of 28.0 MB, at resolution 16
24.3 MB instead of 57.2 MB.  For
the ball at resolution 14 (3N = 4,416) that is 10 blocks of at most 290
rows instead of 8 of 552.  Each block is factored and solved by one zsysv
call (Bunch-Kaufman LDL^T, then LAPACK's level-3 zsytrs2) in its own
memory: the right-hand sides are routed to the blocks that carry them (a
column of definite parity under every mirror, such as a real regular wave
about the lattice centre, to one class), a chunk of columns at a time, so
that only the reached shares are held, solved in place and, by
solve_density, mapped back, and the factors are dropped.  The response
1/2 F^H M_B F of P fields (_half_pairing) is paired inside the blocks
instead: each block's solutions against its own projected fields, so only
one seeded combination of the solved columns is mapped back, for the
residual checks.  With no symmetry the one block is the whole system.

Above the cap the solve is matrix-free GMRES (_gmres): modified
Gram-Schmidt Arnoldi on the FFT apply, restarted after _GMRES_BASIS vectors.
One Krylov basis serves every shift alpha I + beta A of its operator, so a
sequence of scalar contrasts of one background, (I - q_j R_kappa) y_j =
A^{1/2} g, costs one basis of R_kappa per field instead of one run per
contrast (solve_density with a sequence, as the born study calls it).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft, ifft
from scipy.linalg import (
    eigvalsh_tridiagonal,
    lu_factor,  # unused here; the traced benchmark wraps vie.lu_factor
    lu_solve,  # unused here; the traced benchmark wraps vie.lu_solve
    solve_triangular,
)
from scipy.linalg.lapack import zsysv, zsysv_lwork
from scipy.sparse.linalg import (
    LinearOperator,  # unused here; the traced benchmark wraps vie.LinearOperator
    gmres,  # unused here; the traced benchmark wraps vie.gmres
)

from .greens import _hess_profile, cell_self_term, grad_phi, hess_phi
from .materials import _PACK, IsoContrast

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
# _gmres keeps at most this many basis vectors per cycle and runs at most this
# many cycles per shift
_GMRES_BASIS = 200
_GMRES_CYCLES = 100
NEAR_SUBDIV = 4  # subcells per axis averaged over for touching-cell blocks
# assemble makes the far blocks of at least this many box offsets at once.
# greens._hess_profile forms e * (2 - 2ik rho - (k rho)^2) and e * (ik rho - 1),
# e = exp(ik rho).  Once the parenthesised temporary holds 256 KiB (2^14
# complex values), NumPy reuses it for the result and computes (...) * e; its
# SIMD complex product fuses one of the two products of the imaginary part
# into a multiply-add, so a * b and b * a can differ in the last bit of the
# imaginary part.  Chunks of at least 2^14 offsets thus keep the bits of one
# call on all of them; a box of at most 2^14 offsets is one chunk.
_ASSEMBLE_CHUNK = 1 << 14
_BOX_AXES = (-3, -2, -1)
# row of kernel_hat holding entry (a, b) of the symmetric 3x3 symbol
_UNPACK = np.array([[_PACK.index((min(a, b), max(a, b))) for b in range(3)] for a in range(3)])


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


# the six axis permutations p (axis k goes to axis p[k]): identity, the three
# swaps, the two 3-cycles
_AXIS_PERMS = ((0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1))
# E of S3: the permutation matrices restricted to the plane normal to (1, 1, 1)
_E_PLANE = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]).T / np.sqrt([2.0, 6.0])


@dataclass
class _Split:
    """The irreducible representations of a stabilizer H of axis permutations
    acting on the class representative's 3n unknowns by permutations U(h).

    Irrep rho of dimension d has real orthogonal matrices D(h).  For each
    orbit representative u (the smallest unknown of its orbit, with
    stabilizer K) and each w of an orthonormal basis of the vectors that
    D(k) fixes for every k in K, the vectors v_l = nu^-1 sum_h (D(h) w)_l
    e_{h u}, nu = sqrt(|K| |H| / d), are orthonormal, and v_l is row l of
    one copy of rho: U(h) v_l = sum_l' D_l'l(h) v_l'.  Orbits whose
    representatives have the same stabilizer are of one type, held as
    (E, F, G): the orbits' unknowns E (n_t, |O|) in the order in which h
    first reaches them, the fixed small matrix F (|O|, columns) of every
    v_l on them, irrep by irrep and row by row, and per irrep G = (|H| /
    d nu) W^T (r, d) for the r vectors w.  A block B that commutes with
    U(h) acts on the row-l vectors V_l of rho as one matrix B_rho =
    V_0^T B V_0, and because (B v)(h u) = sum_l D_0l(h) (B v_l)(u) for a
    row-0 v,

        B_rho[(u, w), :] = sum_l G[w, l] B[u, :] V_l,

    so only the representatives' rows of B are needed, those of reps.
    """

    names: tuple
    dims: tuple
    reps: np.ndarray  # the orbit representatives, type by type
    types: list
    # per irrep, per type: (orbits n_t, vectors r, first column of F, the slice
    # of the irrep's coordinates that the type holds, ordered by orbit, then w)
    layout: list = field(init=False)
    # per type: F and F^T acting on interleaved real and imaginary parts
    real: list = field(init=False)

    def __post_init__(self):
        self.layout = [[] for _ in self.dims]
        stops = [0] * len(self.dims)
        for e, _, gs in self.types:
            off = 0
            for r, (d, g) in enumerate(zip(self.dims, gs)):
                w = g.shape[0]
                sl = slice(stops[r], stops[r] + w * e.shape[0])
                self.layout[r].append((e.shape[0], w, off, sl))
                stops[r], off = sl.stop, off + d * w
        self.real = [(_interleave(f), _interleave(f.T)) for _, f, _ in self.types]

    @classmethod
    def of(cls, perm_axes, perm_cells, perm_comps):
        """The _Split of the group of perm_axes (|H|, 3) acting on the unknowns
        by the cell maps perm_cells (|H|, n) and row maps perm_comps (|H|, 3)."""
        order, n = perm_cells.shape
        mats = np.moveaxis(np.eye(3)[:, perm_axes], 1, 0)  # P, P[p[k], k] = 1
        irreps = [np.ones((order, 1, 1))]
        names = ("",)
        if order > 1:
            irreps.append(np.linalg.det(mats).round()[:, None, None])
            names = ("even", "odd")
        if order == 6:
            irreps.append(_E_PLANE.T @ mats @ _E_PLANE)
            names = ("A1", "A2", "E")
        img = (3 * perm_cells[:, :, None] + perm_comps[:, None, :]).reshape(order, -1).T
        reps = np.flatnonzero(img.min(axis=1) == np.arange(3 * n))
        # the stabilizer of each representative, as the bits of its elements
        kind = (img[reps] == reps[:, None]) @ (1 << np.arange(order))
        types, ordered = [], []
        for key in np.unique(kind):
            stab = key >> np.arange(order) & 1 == 1
            sel = reps[kind == key]
            ordered.append(sel)
            first = np.sort(np.unique(img[sel[0]], return_index=True)[1])
            slot = np.argmax(img[sel[0], :, None] == img[sel[0], first], axis=1)
            fs, gs = [], []
            for mat in irreps:
                d = mat.shape[1]
                val, vec = np.linalg.eigh(mat[stab].mean(axis=0))
                w = vec[:, val > 0.5]
                nu = np.sqrt(stab.sum() * order / d)
                f = np.zeros((len(first), d, w.shape[1]))
                np.add.at(f, slot, mat @ w / nu)
                fs.append(f.reshape(len(first), -1))
                gs.append(order / (d * nu) * w.T)
            types.append((img[sel][:, first], np.concatenate(fs, axis=1), gs))
        return cls(names, tuple(m.shape[1] for m in irreps), np.concatenate(ordered), types)

    def sizes(self):
        """Rows of each irrep's block."""
        return [types[-1][3].stop for types in self.layout]

    def project(self, sources):
        """Coordinates on every V_l of the rows of sources: (d, k, m) per irrep, C-ordered.

        A source (x, perm) stands for the rows of x (K, 3n) with unknown u
        read at perm[u] (at u if perm is None); the sources' rows follow one
        another.
        """
        rows = [len(x) for x, _ in sources]
        out = [np.empty((d, sum(rows), m), dtype=complex) for d, m in zip(self.dims, self.sizes())]
        for t, ((e, _, _), (f, _)) in enumerate(zip(self.types, self.real)):
            start = 0
            for (x, perm), k in zip(sources, rows):
                prod = (np.take(x, e if perm is None else perm[e], axis=1).view(float)
                        .reshape(-1, f.shape[0]) @ f).view(complex).reshape(k, *e.shape)
                for coords, d, types in zip(out, self.dims, self.layout):
                    n_t, w, off, sl = types[t]
                    for l in range(d):
                        coords[l, start : start + k, sl].reshape(k, n_t, w)[...] = (
                            prod[:, :, off + l * w : off + (l + 1) * w])
                start += k
        return out

    def blocks(self, rows):
        """The irrep blocks B_rho from the rows (len(reps), 3n) of B at reps.

        Block row (u, w) reads row u of B alone, so the rows are projected a
        chunk at a time, and each chunk's block rows are written, type by
        type, before the next chunk is projected: the projections of all rows
        are never held at once.  A chunk holds about as many values as one
        chunk of VieSystem._gather_blocks, _GATHER_CHUNK 3x3 blocks, and at
        least two rows: NumPy multiplies a single row by F through gemv,
        which rounds differently from gemm, and gemm gives a row the same
        bits among any number of rows (the gather tests check the blocks
        bitwise against those formed from every row at once).
        """
        if len(self.names) == 1:
            return [rows]
        out = [np.empty((m, m), dtype=complex) for m in self.sizes()]
        first = np.cumsum([0] + [e.shape[0] for e, _, _ in self.types])  # each type's first row
        step = max(2, 9 * _GATHER_CHUNK // rows.shape[1])
        stops = np.linspace(0, len(rows), max(1, len(rows) // step) + 1).astype(int)
        for i0, i1 in zip(stops[:-1], stops[1:]):
            bv = self.project([(rows[i0:i1], None)])  # B[u, :] V_l
            for t, (_, _, gs) in enumerate(self.types):
                j0, j1 = max(i0, first[t]), min(i1, first[t + 1])  # this type's rows in the chunk
                if j0 >= j1:
                    continue
                for g, block, coords, types in zip(gs, out, bv, self.layout):
                    _, w, _, sl = types[t]
                    at = sl.start + (j0 - first[t]) * w
                    block[at : at + (j1 - j0) * w] = np.einsum(
                        "wl,lnm->nwm", g, coords[:, j0 - i0 : j1 - i0]).reshape(-1, len(block))
        return out

    def unproject(self, parts, targets):
        """Write sum over irreps and rows l of V_l parts[r][l] to targets (x,
        ks, perm), the rows ks of x (K, 3n) with unknown u at perm[u]: the
        inverse of project on the sources (x[ks], perm)."""
        k = parts[0].shape[1]
        for t, ((e, f, _), (_, f_t)) in enumerate(zip(self.types, self.real)):
            coords = np.empty((k, e.shape[0], f.shape[1]), dtype=complex)
            for part, d, types in zip(parts, self.dims, self.layout):
                n_t, w, off, sl = types[t]
                for l in range(d):
                    coords[:, :, off + l * w : off + (l + 1) * w] = (
                        part[l, :, sl].reshape(k, n_t, w))
            values = (coords.view(float).reshape(-1, f_t.shape[0]) @ f_t).view(complex)
            values = values.reshape(k, *e.shape)
            start = 0
            for x, ks, perm in targets:
                x[ks[:, None, None], e if perm is None else perm[e]] = values[start : start + len(ks)]
                start += len(ks)


def _interleave(f):
    """f acting on interleaved real and imaginary parts: kron(f, I_2)."""
    out = np.zeros((2 * f.shape[0], 2 * f.shape[1]))
    out[0::2, 0::2] = out[1::2, 1::2] = f
    return out


class _Group:
    """The signed-permutation group of a system: the mirrors Z2^s and the axis permutations H.

    axes, cells (2^s, n) and signs (2^s, 3) are the mirror group's (see
    _orbits).  perm_axes (|H|, 3), perm_cells (|H|, n) and perm_comps (|H|, 3)
    hold each permutation p (identity first), its image of each orbit
    representative (as a position in cells[0]) and its map T_p of the
    unknowns' rows; unknown 3 j + i of the representatives goes to
    img[h, 3 j + i].  p maps the mirror character c to image[h, c], whose
    bit for axis p[k] is c's bit for axis k, and B_p(c) = U_p B_c U_p^T.
    classes holds one (c, stabilizer, members) per orbit of characters, with
    each member b = p(c) and the index h of one such p; splits holds the
    _Split of each stabilizer.  Only the rows of the cells in rows, those
    holding the smallest unknown of each H-orbit, are gathered, for every
    character: row h u of B_c is row u of B_p^-1(c), permuted.
    """

    def __init__(self, axes, cells, signs, perm_axes, perm_cells, perm_comps):
        self.axes, self.cells, self.signs = axes, cells, signs
        self.perm_axes, self.perm_cells, self.perm_comps = perm_axes, perm_cells, perm_comps
        s = len(axes)
        order = len(perm_axes)
        bit = [[axes.index(p[k]) for k in axes] for p in perm_axes]
        self.image = np.array([[sum((c >> t & 1) << b[t] for t in range(s))
                                for c in range(1 << s)] for b in bit])
        self.img = (3 * perm_cells[:, :, None] + perm_comps[:, None, :]).reshape(order, -1)
        self.inverse = np.array([next(j for j, q in enumerate(perm_axes)
                                      if np.array_equal(q[p], [0, 1, 2])) for p in perm_axes])
        self.orbit_rep = self.img.min(axis=0)
        self.rows = np.unique(self.orbit_rep // 3)

        def stab(c):
            return tuple(np.flatnonzero(self.image[:, c] == c).tolist())

        self.classes, self.splits, seen = [], {}, set()
        for c in range(1 << s):
            if c in seen:
                continue
            orbit = sorted(set(self.image[:, c].tolist()))
            seen.update(orbit)
            # the representative whose stabilizer comes first, so that classes
            # with the same stabilizer share one split
            rep = min(orbit, key=lambda b: (stab(b), b))
            members = [(b, int(np.argmax(self.image[:, rep] == b))) for b in orbit if b != rep]
            key = stab(rep)
            self.classes.append((rep, key, members))
            if key not in self.splits:
                self.splits[key] = _Split.of(*(m[list(key)] for m in (
                    self.perm_axes, self.perm_cells, self.perm_comps)))

    @classmethod
    def trivial(cls, n):
        """The one-element group of n cells."""
        ident = np.arange(3)[None]
        return cls((), np.arange(n)[None], np.ones((1, 3)), ident, np.arange(n)[None], ident)

    def class_rows(self, c, reps):
        """Where rows reps of B_c lie in the gathered rows (2^s, 3 len(rows), 3n)
        of every B_b: (b, pos, h_inv), row j is gathered[b[j], pos[j], img[h_inv[j]]]."""
        u0 = self.orbit_rep[reps]
        h = np.argmax(self.img[:, u0] == reps, axis=0)  # h u0 = u
        h_inv = self.inverse[h]
        pos = 3 * np.searchsorted(self.rows, u0 // 3) + u0 % 3
        # B_c[h u0, w] = B_b[u0, h^-1 w] with b = h^-1(c)
        return self.image[h_inv, c], pos, h_inv

    def describe(self):
        """The group in words: its mirrors, its axis permutations and its order."""
        words = [f"mirrors {' '.join('xyz'[k] for k in self.axes)}"] if self.axes else []
        if len(self.perm_axes) == 6:
            words.append("all axis permutations")
        elif len(self.perm_axes) == 2:
            a, b = np.flatnonzero(self.perm_axes[1] != np.arange(3))
            words.append(f"the swap {'xyz'[a]} <-> {'xyz'[b]}")
        order = len(self.perm_axes) << len(self.axes)
        return f"{', '.join(words) or 'no symmetry'} ({order} elements)"

    def block_names(self):
        """(name, rows) of each block in solve order: the class representative's
        parity under each mirror and the irrep of its stabilizer."""
        out = []
        for c, key, _ in self.classes:
            split = self.splits[key]
            parity = " ".join("xyz"[k] + "+-"[c >> t & 1] for t, k in enumerate(self.axes))
            for name, rows in zip(split.names, split.sizes()):
                out.append((" ".join(filter(None, (parity, name))) or "single", rows))
        return out


def _orbits(index, A, left, right, diag):
    """The _Group of signed axis permutations of diag + left gradW right.

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

    An axis permutation p (axis k to axis p[k], P its 3x3 matrix) counts when
    it maps the cell set onto itself, P A P^T = A, it maps the mirror axes
    onto themselves, and T_p, P with its rows moved to the rows of left that
    hold the components, carries the factors (T_p left P^T = left, P right
    T_p^T = right, T_p diag T_p^T = diag) and the mirrors' signs (T_p T_k
    T_p^T = T_p[k]).  The permutations that count form a group; it is kept
    when it is all of S3 or a single swap, and is the identity otherwise.
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
    # the row of left holding each component, when each row holds one
    nz = left != 0
    holder = (np.argmax(nz, axis=0) if np.all(nz.sum(axis=0) == 1) and np.all(nz.sum(axis=1) == 1)
              else np.arange(3))
    at_rep = np.full(index.shape[0], -1)
    at_rep[cells[0]] = np.arange(len(cells[0]))
    kept = []
    for p in map(np.array, _AXIS_PERMS):
        inv = np.argsort(p)
        comp = holder[p[np.argsort(holder)]]  # T_p: row i to row comp[i]
        cinv = np.argsort(comp)
        if (np.array_equal(dims[p], dims) and sorted(p[axes]) == axes
                and np.array_equal(A[np.ix_(inv, inv)], A)
                and np.array_equal(left[np.ix_(cinv, inv)], left)
                and np.array_equal(right[np.ix_(inv, cinv)], right)
                and np.array_equal(diag[np.ix_(cinv, cinv)], diag)
                and np.all(where[tuple(index[:, inv].T)] >= 0)):
            kept.append((p, at_rep[where[tuple(rep[:, inv].T)]], comp))
    if len(kept) not in (2, 6):
        kept = kept[:1]
    return _Group(tuple(axes), np.array(cells), np.array(signs),
                  *(np.array(m) for m in zip(*kept)))


# a share of a column at or below this fraction of the column's largest
# character share is roundoff (about 1e-17 for a column of definite parity),
# far below the 1e-10 residual probe, and is not solved
_LEAK = 1e-14
# values per chunk of _walsh's second axis and of the shares _route forms at
# once (1 MiB of complex values)
_WALSH_CHUNK = 1 << 16
# cell pairs per chunk of VieSystem._gather_blocks (576 KiB of 3x3 blocks)
_GATHER_CHUNK = 1 << 12


def _walsh(y):
    """y[c] <- sum_g chi_c(g) y[g] over the first axis of length 2^s, in place:
    the Sylvester Hadamard transform in s butterfly passes.

    The passes run over chunks of the second axis of about _WALSH_CHUNK
    values, so the butterfly's temporary holds at most half a chunk (or half
    of one index of the second axis) and does not grow with that axis.  Each
    value only meets additions and subtractions, in the same order, so the
    result is bitwise that of one pass over the whole array.
    """
    step = max(1, _WALSH_CHUNK // max(1, y[:, :1].size))
    for k in range(0, y.shape[1], step):
        part = y[:, k : k + step]
        h = 1
        while h < len(part):
            for i in range(0, len(part), 2 * h):
                a, b = part[i : i + h], part[i + h : i + 2 * h]
                diff = a - b
                a += b
                b[...] = diff
            h *= 2
    return y


def _shares(group, cols, lift=None):
    """The character shares (2^s, K, 3n) of the columns cols (K, N, 3): y_c =
    sum_g chi_c(g) T_g cols(g r) over the orbit representatives r.  With a
    3x3 lift, those of lift applied per voxel to cols (see _lifted), formed
    one group element at a time."""
    k = cols.shape[0]
    y = np.empty((group.cells.shape[0], k, *group.cells.shape[1:], 3), dtype=complex)
    for g, (cells, sign) in enumerate(zip(group.cells, group.signs)):
        if lift is None:
            np.multiply(cols[:, cells], sign, out=y[g])
        else:
            y[g] = _lifted(cols[:, cells], sign[:, None] * lift)
    return _walsh(y).reshape(len(y), k, -1)


def _route(group, cols, lift=None, conj=False):
    """The forward route of the columns cols (K, N, 3): (routes, parts, floors, conj_parts).

    The character shares of _shares (with the lift) are formed a chunk of
    about _WALSH_CHUNK values of columns at a time.  A share of a column at
    most _LEAK times the column's largest character share is roundoff and
    is not routed: of each chunk, each character keeps only the shares of
    the columns that reach it, and once every chunk is in, each character
    holds its reached columns as one compact (K_b, 3n) array, in column
    order.  routes holds per class its members' (b, ks, perm): character b,
    the columns ks that reach it and the map U_p of its unknowns (None for
    the representative).  parts holds per block the (d, K_c, m) coordinates
    of _Split.project, row l of the class's column j at [l, j], the members'
    columns one after another, and floors per block the _LEAK floor on the
    squared norm of each of its columns.  Each class's compact shares are
    dropped once projected.  With conj, conj(cols) goes through the same
    chunks with the reach of cols, and conj_parts holds its parts (else
    None).
    """
    size, k = len(group.cells), len(cols)
    step = max(1, _WALSH_CHUNK // (3 * group.cells.size))
    reach = np.empty((size, k), dtype=bool)
    floor = np.empty(k)
    kept = [[[] for _ in range(size)] for _ in range(1 + conj)]  # per character, chunk by chunk
    for k0 in range(0, max(k, 1), step):
        chunk = slice(k0, k0 + step)
        y = _shares(group, cols[chunk], lift)
        share = np.einsum("cki,cki->ck", y.view(float), y.view(float))
        floor[chunk] = _LEAK**2 * share.max(axis=0)
        reach[:, chunk] = share > floor[chunk]
        for store, ys in zip(kept, [y, _shares(group, cols[chunk].conj(), lift)] if conj else [y]):
            for pieces, rows, hit in zip(store, ys, reach[:, chunk]):
                pieces.append(rows[hit])
    routes, parts, floors, conj_parts = [], [], [], []
    for c, key, members in group.classes:
        route = [(b, np.flatnonzero(reach[b]), group.img[h] if h else None)
                 for b, h in [(c, 0)] + members]
        split = group.splits[key]
        for store, out in zip(kept, [parts, conj_parts]):
            sources = []
            for b, _, perm in route:
                sources.append((np.concatenate(store[b]), perm))
                store[b] = None
            out += split.project(sources)
        floors += [floor[np.concatenate([ks for _, ks, _ in route])]] * len(split.names)
        routes.append(route)
    return routes, parts, floors, conj_parts if conj else None


def _solve_blocks(blocks, group, parts, floors, what):
    """Solve each block's parts in place, one zsysv call per block.

    floors holds per block the _LEAK floor of each of its columns; a column
    whose share at or below it is roundoff is left out and its solution set to 0.
    """
    for (name, rows), block, part, floor in zip(group.block_names(), blocks, parts, floors):
        if rows == 0:
            continue
        keep = np.einsum("lkm,lkm->lk", part.view(float), part.view(float)) > floor
        every = keep.all()
        # the columns to solve, in place: part itself or a C-ordered copy
        b = part.reshape(-1, rows) if every else part[keep]
        lwork, _ = zsysv_lwork(rows, lower=1)  # scipy's default lwork = n is unblocked
        # the C-ordered symmetric block is its own transpose in Fortran order
        *_, info = zsysv(block.T, b.T, lwork=int(lwork.real), lower=1, overwrite_a=1,
                         overwrite_b=1)
        if info > 0:
            raise RuntimeError(f"the {name} block ({rows} rows) of {what} is singular: "
                               f"LDL^T pivot {info} is exactly zero")
        if not every:
            part[~keep] = 0.0
            part[keep] = b


def _map_back(group, parts, routes, cols):
    """The backward route: unproject parts to zeroed shares (2^s, K, 3n),
    allocated here, after the solves, and write
    2^-s sum_c chi_c(g) T_g x_c(r) to cols (K, N, 3) at each cell g r."""
    flat = np.zeros((len(group.cells), len(cols), 3 * group.cells.shape[1]), dtype=complex)
    solved = iter(parts)
    for route, (_, key, _) in zip(routes, group.classes):
        split = group.splits[key]
        split.unproject([next(solved) for _ in split.names],
                        [(flat[b], ks, perm) for b, ks, perm in route])
    y = _walsh(flat.reshape(*flat.shape[:2], -1, 3))
    y *= group.signs[:, None, None, :] / len(y)
    for cells, part in zip(group.cells, y):
        cols[:, cells] = part


def _blocked_solve(blocks, group, rhs, what):
    """Solution of M X = rhs, block by block, for M that commutes with its _Group.

    blocks are those of VieSystem._gather_blocks, in the order of
    group.block_names(): for each class (c, stabilizer, members) the irrep
    blocks of B_c = sum_g chi_c(g) M(r, g r') T_g over orbit representatives
    r, r', with chi_c(g) = (-1)^popcount(c & g) row c of the Sylvester
    Hadamard matrix.  rhs is complex, (3N,) or (3N, K), and is overwritten by
    the solution when it is Fortran-ordered (or 1-D); what names M in errors.
    Three stages: the forward route, the block solves and the backward route.
    Character c's share of rhs is y_c = sum_g chi_c(g) T_g rhs(g r)
    (_shares), and the solution is 2^-s sum_c chi_c(g) T_g x_c(r) at cell
    g r (_map_back).  A member b = p(c) of a class has B_b = U_p B_c U_p^T,
    so U_p^T y_b is solved with B_c as further columns and x_b = U_p x.  Each
    class's columns are split by the irreps of its stabilizer
    (_Split.project), and each row l of an irrep is a further column of the
    irrep's block.  A share of a column at most _LEAK times the column's
    largest character share is roundoff and is not solved: a column of
    definite parity under every mirror reaches one class, one of definite
    symmetry one block, and an all-zero column none.  The forward route
    (_route) forms the shares a chunk of columns at a time and keeps only
    the reached ones, so the shares of every character and column are
    never held at once; the backward route allocates its full-layout shares
    only after the solves.  Each block is factored in its own memory and
    solves its columns in place in one zsysv call, also when it carries
    none, so a singular block raises naming it, before rhs is written
    (_solve_blocks).
    """
    x = np.asfortranarray(rhs.reshape(rhs.shape[0], -1))
    cols = x.T.reshape(x.shape[1], -1, 3)  # (K, N, 3), a view of x
    routes, parts, floors, _ = _route(group, cols)
    _solve_blocks(blocks, group, parts, floors, what)
    _map_back(group, parts, routes, cols)
    return x.reshape(rhs.shape)


@dataclass
class VieSystem:
    """grad W_kappa on a voxel grid as an FFT offset table, plus cached responses.

    index holds each cell's integer lattice position (N, 3).  kernel_hat
    holds the FFT over the box axes of the circulant-embedded block table,
    packed: the 6 distinct entries of the symmetric 3x3 symbol in the order
    of materials._PACK, shape (6, *box).  flat holds each cell's position in
    the scatter layout of apply, the box's first halves (d0, d1) of the first
    two axes by the whole last axis, flattened.  The system keeps scatterer
    responses (imaging's regular-wave response T_w) per contrast and
    caller-given key, never a dense factor.
    """

    grid: object
    bg: object
    index: np.ndarray
    kernel_hat: np.ndarray
    flat: np.ndarray
    _response_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_cells(self):
        return self.grid.n_cells

    def apply(self, v, left=None, right=None, diag=None):
        """(diag + left gradW right) v, with 3x3 factors acting on each voxel.

        v has shape (3N,), (N,3) or (3N,K); the result has the same shape and
        v is not written to.  Omitted factors are the identity (left, right)
        and zero (diag).  The density is scattered through flat into a
        zeroed (3, K, d0, d1, p2) buffer, so the forward transform runs the
        last axis in place on those d0*d1 lines, the middle axis on the d0
        slabs and the first axis on the full box.  The symbol is applied in
        place, a slab of the first box axis at a time: entry (a, b) is row
        _UNPACK[a, b] of kernel_hat, and out_a = K_a0 x_0 + K_a1 x_1 + K_a2 x_2
        is summed in that order.  The inverse transform runs the axes in
        reverse order, dropping the half of each of the first two axes that
        the gather does not read before transforming the next, and flat
        gathers the result.
        """
        x = v.reshape(self.n_cells, 3, -1)
        k = x.shape[2]
        kh = self.kernel_hat
        p0, p1, p2 = kh.shape[1:]
        d0, d1 = p0 // 2, p1 // 2
        xt = x.transpose(1, 2, 0).reshape(3, -1)
        src = xt if right is None else right @ xt
        buf = np.zeros((3, k, d0 * d1 * p2), dtype=complex)
        buf[:, :, self.flat] = src.reshape(3, k, -1)
        buf = fft(buf.reshape(3, k, d0, d1, p2), axis=-1, overwrite_x=True)
        buf = fft(buf, n=p1, axis=-2, overwrite_x=True)
        buf = fft(buf, n=p0, axis=-3, overwrite_x=True)
        # slabs of about 2^13 box points per column keep their arrays in cache
        step = min(p0, max(1, (1 << 13) // (p1 * p2)))
        acc = np.empty((3, k, step, p1, p2), dtype=complex)
        tmp = np.empty_like(acc[0])
        for i0 in range(0, p0, step):
            i1 = min(i0 + step, p0)
            xs, ks, ys = buf[:, :, i0:i1], kh[:, i0:i1], acc[:, :, : i1 - i0]
            t = tmp[:, : i1 - i0]
            for a, rows in enumerate(_UNPACK):
                np.multiply(ks[rows[0]], xs[0], out=ys[a])
                for b in (1, 2):
                    np.multiply(ks[rows[b]], xs[b], out=t)
                    ys[a] += t
            xs[...] = ys
        out = ifft(buf, axis=-3, overwrite_x=True)[:, :, :d0]
        out = ifft(out, axis=-2, overwrite_x=True)[:, :, :, :d1]
        out = ifft(out, axis=-1, overwrite_x=True)
        y = out.reshape(3, k, -1)[:, :, self.flat].reshape(3, -1)
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
        table = np.fft.ifftn(self.kernel_hat, axes=_BOX_AXES).reshape(6, -1)[_UNPACK]
        table = np.tensordot(left, table, axes=(1, 0))
        return np.einsum("aco,cd->oad", table, right), self.kernel_hat.shape[1:]

    def dense(self, left=None, right=None, diag=None):
        """The (3N, 3N) matrix of apply(., left, right, diag), gathered from the table.

        It is the one block of the one-element group (see _gather_blocks).
        """
        eye = np.eye(3)
        left = eye if left is None else left
        right = eye if right is None else right
        diag = np.zeros((3, 3)) if diag is None else diag
        return self._gather_blocks(_Group.trivial(self.n_cells), left, right, diag)[0]

    def _gather_blocks(self, group, left, right, diag):
        """The irrep blocks of M = diag + left gradW right under its _Group, in solve order.

        The rows of B_c = sum_g chi_c(g) M(r, g r') T_g at the cells group.rows
        are gathered for every character c against every representative r'
        from the offset table, a chunk of rows at a time, and combined by the
        Hadamard transform over g; the diagonal term enters every block.
        Each chunk's rows go straight to the rows that each class's _Split
        needs (_Group.class_rows), so the rows of all 2^s characters are
        never held at once.  Once every chunk is in, the offset table is
        dropped.  Class by class, the rows read through an axis permutation
        then have their columns permuted, and the split forms the irrep
        blocks a chunk of rows at a time (_Split.blocks) and drops the
        class's rows before the next class.  With no
        axis permutation every class is one character c, all rows are
        gathered and its block is B_c itself.  Each block is C-ordered.
        """
        table, box = self._offset_blocks(left, right)
        group_size, n = group.cells.shape
        pos = self.index[group.cells]  # (2^s, n, 3)
        rows = group.rows
        sources = [group.class_rows(c, group.splits[key].reps) for c, key, _ in group.classes]
        class_rows = [np.empty((len(p), 3 * n), dtype=complex) for _, p, _ in sources]
        chunk = max(1, _GATHER_CHUNK // (group_size * n))
        for i0 in range(0, len(rows), chunk):
            at = rows[i0 : i0 + chunk]
            diff = pos[0, at, None, :] - pos[:, None, :, :]
            off = np.ravel_multi_index(np.moveaxis(diff, -1, 0), box, mode="wrap")
            m = table[off]  # (2^s, chunk, n, 3, 3): M(r, g r') for r in the chunk
            m *= group.signs[:, None, None, None, :]
            m = _walsh(m).transpose(0, 1, 3, 2, 4)
            m[:, np.arange(len(at)), :, at, :] += diag
            m = m.reshape(group_size, 3 * len(at), 3 * n)
            for (b, p, h_inv), dest in zip(sources, class_rows):
                j = np.flatnonzero((p >= 3 * i0) & (p < 3 * (i0 + len(at))))
                dest[j] = m[b[j], p[j] - 3 * i0]
        del table
        blocks = []
        for t, ((_, _, h_inv), (_, key, _)) in enumerate(zip(sources, group.classes)):
            class_rows[t], rows_c = None, class_rows[t]
            k = np.flatnonzero(h_inv)  # rows read through an axis permutation (0 is the identity)
            rows_c[k] = np.take_along_axis(rows_c[k], group.img[h_inv[k]], axis=1)
            blocks += group.splits[key].blocks(rows_c)
        return blocks

    def _dense_solve(self, contrast, rhs):
        """_blocked_solve of the contrast's system matrix for rhs (3N,) or (3N, K);
        the blocks are gathered for this call only and factored in place."""
        factors = _system_factors(contrast, self.bg)
        group = _orbits(self.index, self.bg.A.matrix, *factors)
        blocks = self._gather_blocks(group, *factors)
        return _blocked_solve(blocks, group, rhs, f"the system on {self.n_cells} cells")

    def symmetry(self, contrast):
        """(group, blocks) of a dense solve for the contrast: the group that
        _orbits finds, in words, and (name, rows) of each block it factors."""
        group = _orbits(self.index, self.bg.A.matrix, *_system_factors(contrast, self.bg))
        return group.describe(), group.block_names()

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
    so an FFT convolution on the box reproduces every cell-pair block.  Each
    block is symmetric, so only its 6 distinct entries are transformed, in
    materials._PACK order, an off-diagonal one as 1/2 (K_ab + K_ba): the
    entry itself wherever the block is bitwise symmetric, as it is in an
    isotropic background.  The far blocks are made _ASSEMBLE_CHUNK offsets at
    a time from one greens._hess_profile per chunk, each packed entry by the
    operations of hess_phi(...) * h^3 and the packing, straight into the
    table's row: no 3x3 block of a chunk is held, and the table holds the
    bits of the full blocks packed.  The table is transformed in place.  No
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
    a, b = np.array(_PACK).T

    def pack(blocks):
        return (0.5 * (blocks[:, a, b] + blocks[:, b, a])).T

    def far_entry(profile, i, j):
        # entry (i, j) of hess_phi(bg, r) * h**3 by hess_phi's own operations
        g, fpp, fp_over = profile
        gg = g[:, i] * g[:, j]
        e = fp_over * (bg.inv_A[i, j] - gg)
        e += fpp * gg
        e /= sqrt_det
        e *= h**3
        return e

    m = offsets.shape[0]
    packed = np.empty((6, m), dtype=complex)
    # offset 0 is box position 0; the far blocks after it are made a chunk at
    # a time and packed one entry at a time, straight into their rows
    packed[:, :1] = pack(cell_self_term(bg, h)[None])
    sqrt_det = np.sqrt(bg.det_A)
    stops = np.linspace(1, m, max(1, (m - 1) // _ASSEMBLE_CHUNK) + 1).astype(int)
    for i0, i1 in zip(stops[:-1], stops[1:]):
        profile = _hess_profile(bg, offsets[i0:i1] * h)
        for row, (i, j) in enumerate(_PACK):
            k_ij = far_entry(profile, i, j)
            packed[row, i0:i1] = 0.5 * (k_ij + (k_ij if i == j else far_entry(profile, j, i)))
        del profile, k_ij  # before the next chunk's profile
    t = ((np.arange(NEAR_SUBDIV) + 0.5) / NEAR_SUBDIV - 0.5) * h
    sub = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    ring = np.flatnonzero(np.abs(offsets).max(axis=1) == 1)
    pts = offsets[ring, None, :] * h - sub[None, :, :]
    packed[:, ring] = pack(hess_phi(bg, pts).mean(axis=1) * h**3)
    del offsets, ring, pts
    packed = packed.reshape(6, *box)
    kernel_hat = np.fft.fftn(packed, axes=_BOX_AXES, out=packed)
    # the cells in apply's scatter layout (d0, d1, p2) = (dims[0], dims[1], box[2])
    flat = (index[:, 0] * dims[1] + index[:, 1]) * box[2] + index[:, 2]
    return VieSystem(grid=grid, bg=bg, index=index, kernel_hat=kernel_hat, flat=flat)


def _dense_path(sys):
    """Whether resolvent_solve takes the dense path on this system, not GMRES."""
    return sys.n_cells <= DIRECT_CAP


def _probe(sys, factors, xr, br):
    """The seeded Freivalds probe of a dense batch: ||M xr - br|| / ||br|| <=
    1e-10 through the FFT apply, for the combined column xr = X r of the
    solutions and br = B r of the right-hand sides."""
    num, den = np.linalg.norm(sys.apply(xr, *factors) - br), np.linalg.norm(br)
    if not num <= 1e-10 * den:
        raise RuntimeError(f"dense solve residual probe {num / den:.3e} exceeds 1e-10")


def _gmres(matvec, b, shifts):
    """GMRES for every shift at once: the minimal-residual solutions x_j of
    (alpha_j I + beta_j A) x_j = b, one row of an (S, n) array per shift
    (alpha_j, beta_j), where matvec(v) returns A v as a new array.

    Shifted systems share one Krylov space.  One Arnoldi basis of A from b
    (modified Gram-Schmidt), A V_m = V_{m+1} H_m, gives (alpha I + beta A) V_m
    = V_{m+1} (alpha I + beta H_m) for every shift, and each shift solves its
    small least-squares problem with its own Givens rotations, from which it
    also reads its residual norm.  A shift stops once that residual is at most
    1e-10 ||b||, and the cycle ends when every shift has stopped or when the
    basis holds _GMRES_BASIS vectors; on an invariant Krylov space every
    residual is roundoff.  Every shift is solved on the final basis.  A
    shift still above the tolerance then continues alone, restarted from its
    iterate with its true residual, for at most _GMRES_CYCLES cycles in all;
    past that it raises with the residual it reached.  b = 0 gives x = 0.
    """
    size_b = np.linalg.norm(b)
    tol = 1e-10 * size_b
    if tol == 0.0:
        return np.zeros((len(shifts), b.size), dtype=complex)

    def cycle(r, shifts):
        alpha, beta = np.array(shifts, dtype=complex).T[:, :, None]
        m = _GMRES_BASIS
        basis = np.empty((m + 1, r.size), dtype=complex)
        tri = np.zeros((len(alpha), m, m), dtype=complex)  # the R of each shift's QR
        rot = np.zeros((2, len(alpha), m), dtype=complex)  # cosine and sine of each rotation
        top = np.zeros((len(alpha), m + 1), dtype=complex)  # Q^H of each least-squares rhs
        top[:, 0] = np.linalg.norm(r)
        basis[0] = r / top[0, 0]
        for j in range(m):
            w = matvec(basis[j])
            h = np.empty(j + 2, dtype=complex)
            for i in range(j + 1):
                h[i] = np.vdot(basis[i], w)
                w -= h[i] * basis[i]
            h[j + 1] = np.linalg.norm(w)
            col = beta * h
            col[:, j] += alpha[:, 0]
            for i in range(j):
                c, s = rot[:, :, i]
                col[:, i], col[:, i + 1] = (c * col[:, i] + s * col[:, i + 1],
                                            c * col[:, i + 1] - s.conj() * col[:, i])
            a, d = col[:, j], col[:, j + 1]
            mag_a, mag = np.abs(a), np.hypot(np.abs(a), np.abs(d))
            phase = np.divide(a, mag_a, out=np.ones_like(a), where=mag_a > 0.0)
            c = np.divide(mag_a, mag, out=np.ones_like(mag), where=mag > 0.0)
            s = np.divide(phase * d.conj(), mag, out=np.zeros_like(a), where=mag > 0.0)
            rot[:, :, j] = c, s
            tri[:, : j + 1, j] = col[:, : j + 1]
            tri[:, j, j] = phase * mag
            top[:, j + 1] = -s.conj() * top[:, j]
            top[:, j] *= c
            res = np.abs(top[:, j + 1])
            if np.all(res <= tol):
                break
            basis[j + 1] = w / h[j + 1].real
        k = j + 1
        y = np.array([solve_triangular(t[:k, :k], g[:k]) for t, g in zip(tri, top)])
        return y @ basis[:k], res

    x, res = cycle(b, shifts)
    for j in np.flatnonzero(res > tol):
        alpha, beta = shifts[j]
        for cycles in range(1, _GMRES_CYCLES + 1):
            r = b - alpha * x[j] - beta * matvec(x[j])
            err = np.linalg.norm(r)
            if err <= tol or cycles == _GMRES_CYCLES:
                break
            x[j] += cycle(r, [shifts[j]])[0][0]
        if err > tol:
            raise RuntimeError(f"GMRES stalled after {_GMRES_CYCLES} cycles of at most "
                               f"{_GMRES_BASIS} vectors: residual {err / size_b:.3e}")
    return x


def resolvent_solve(sys, contrast, rhs):
    """Solve (I - sigma q R_kappa q^T sigma) X = rhs for the contrast's sign split.

    rhs: (3N,) or (3N, K), consumed: on the dense path a complex rhs in
    Fortran order (or 1-D) is overwritten by the solution, which is returned
    in its memory.  Below the direct cap each irreducible block of the dense
    system matrix under its group of signed axis permutations (_orbits) is
    factored with LDL^T, in place, for this call only; a singular block
    raises naming its class and irrep, with rhs untouched.  Each dense batch
    is checked by one seeded Freivalds probe ||M (X r) - B r|| / ||B r||
    through the FFT apply, which also cross-checks the gathered blocks
    against the table; B r is formed before the solve.  Above the cap each
    column is solved by _gmres with the one shift (0, 1) on the system
    matrix M, to a residual of 1e-10 ||b||, restarted after _GMRES_BASIS
    vectors and raising after _GMRES_CYCLES cycles.
    """
    rhs = np.asarray(rhs, dtype=complex)
    n3 = 3 * sys.n_cells
    cols = rhs.reshape(n3, -1)
    factors = _system_factors(contrast, sys.bg)
    if _dense_path(sys):
        r = np.random.default_rng(0).standard_normal(cols.shape[1])
        br = cols @ r
        x = sys._dense_solve(contrast, rhs)
        _probe(sys, factors, x.reshape(n3, -1) @ r, br)
        return x
    out = np.empty_like(cols)
    for k in range(cols.shape[1]):
        out[:, k] = _gmres(lambda v: sys.apply(v, *factors), cols[:, k], [(0.0, 1.0)])[0]
    return out.reshape(rhs.shape)


def born_density(contrast, incident_grad, grid=None):
    """Born approximation h = (At - A) grad u; no solve."""
    g = np.asarray(incident_grad, dtype=complex)
    if isinstance(contrast, IsoContrast):
        vals = (contrast.a * contrast.beta) * g
    else:
        vals = g @ (contrast.A_tilde.matrix - contrast.A.matrix).T
    return DensityField(values=vals, grid=grid, residual=None)


def _checked_fields(sys, incident_grad):
    """incident_grad as a float or complex array of shape (N, 3) or (K, N, 3),
    all finite."""
    g = np.asarray(incident_grad)
    if not np.iscomplexobj(g):
        g = np.asarray(g, dtype=float)
    if g.ndim not in (2, 3) or g.shape[-2:] != (sys.n_cells, 3):
        raise ValueError("incident_grad must have shape (n_cells, 3) or (K, n_cells, 3)")
    if not np.all(np.isfinite(g)):
        raise ValueError("incident_grad must be finite")
    return g


def _lifted(rows, lift):
    """lift applied to each voxel's 3-vector of rows (..., 3N) or (..., N, 3),
    as a complex array of the same shape.

    Real rows are not copied to complex: one real product gives the
    interleaved real and imaginary parts.
    """
    if np.iscomplexobj(rows):
        out = rows.reshape(-1, 3) @ lift.T
    else:
        lift = np.stack([lift.real.T, lift.imag.T], axis=-1).reshape(3, 6)
        out = (rows.reshape(-1, 3) @ lift).view(complex)
    return out.reshape(rows.shape)


def _residual(sys, dA, hr, gr):
    """||T hr - (At - A) gr|| / ||(At - A) gr|| for one density hr (N, 3) and
    its field gr; an error above 1e-10 on the dense path, 1e-8 on GMRES."""
    target = gr @ dA.T
    num = np.linalg.norm(hr - sys.apply(hr) @ dA.T - target)
    den = np.linalg.norm(target)
    res = float(num / den) if den > 0.0 else 0.0
    tol = 1e-10 if _dense_path(sys) else 1e-8
    if res > tol:
        raise RuntimeError(f"VIE residual {res:.3e} exceeds {tol:.0e}")
    return res


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

    contrast may also be a sequence of IsoContrasts of the system's
    background; the result is then a list of DensityFields, one per contrast.
    On the dense path each contrast is solved on its own.  On the GMRES path
    the sign split of a scalar q is the scalar s = sigma q^{1/2}, s^2 = q, so
    h_j = 2 q_j A^{1/2} y_j with (I - q_j R_kappa) y_j = A^{1/2} g: shifted
    copies of one operator.  Each field runs one _gmres on R_kappa (r_apply)
    from A^{1/2} g with the shifts (1, -q_j): one Arnoldi basis of at most
    _GMRES_BASIS vectors for all of them, after which a shift still above
    1e-10 continues alone from its iterate.  Each h_j keeps its own residual
    check.  Any other contrast in a sequence raises ValueError before a solve.
    """
    if isinstance(contrast, Sequence):
        return _solve_contrasts(sys, contrast, incident_grad)
    g = _checked_fields(sys, incident_grad)
    *_, dA = _contrast_parts(contrast, sys.bg)
    if not np.any(dA):
        return DensityField(values=np.zeros(g.shape, dtype=complex), grid=sys.grid,
                            residual=0.0)
    left, right, _ = _system_factors(contrast, sys.bg)
    rows = g.reshape(-1, 3 * sys.n_cells)
    # the (3N, K) right-hand sides are the transpose of (K, 3N) rows: Fortran
    # order, which the LDL^T solve overwrites without a reordering copy; they
    # are dropped before h is formed so that at most two K x 3N blocks are held
    rhs = _lifted(rows, -left)
    x = resolvent_solve(sys, contrast, rhs.T).T
    del rhs
    h = (x.reshape(-1, 3) @ right.T).reshape(g.shape)
    return _density(sys, dA, g, h)


def _density(sys, dA, g, h):
    """The DensityField of densities h for fields g, both (N, 3) or (K, N, 3),
    with the residual of one seeded random combination (r = 1 for one field)."""
    rows = g.reshape(-1, 3 * sys.n_cells)
    k = rows.shape[0]
    r = np.random.default_rng(0).standard_normal(k) if g.ndim == 3 else np.ones(1)
    gr = (r @ rows).reshape(-1, 3)
    hr = (r @ h.reshape(rows.shape)).reshape(-1, 3)
    return DensityField(values=h, grid=sys.grid, residual=_residual(sys, dA, hr, gr))


def _solve_contrasts(sys, contrasts, incident_grad):
    """solve_density for a sequence of IsoContrasts of sys's background."""
    if not contrasts:
        raise ValueError("a sequence of contrasts must hold at least one contrast")
    if not all(isinstance(c, IsoContrast) for c in contrasts):
        raise ValueError("a sequence of contrasts must hold IsoContrasts only")
    d_as = [_contrast_parts(c, sys.bg)[3] for c in contrasts]
    g = _checked_fields(sys, incident_grad)
    if _dense_path(sys):
        return [solve_density(sys, c, g) for c in contrasts]
    ah = sys.bg.sqrt_A
    shifts = [(1.0, -c.q) for c in contrasts]
    # y (contrasts, K, 3N): one shifted solve per field
    y = np.stack([_gmres(sys.r_apply, b, shifts)
                  for b in _lifted(g.reshape(-1, 3 * sys.n_cells), ah)], axis=1)
    return [_density(sys, dA, g, (yc.reshape(-1, 3) @ (2.0 * c.q * ah).T).reshape(g.shape))
            for c, dA, yc in zip(contrasts, d_as, y)]


def _half_pairing(sys, contrast, fields):
    """1/2 F^H M_B F for P fields F (P, N, 3): a (P, P) matrix, paired in the
    blocks of the dense solve.

    With lift = -L = 2 Rm^T of _system_factors and X = M^-1 (lift F) the
    solutions of the sign-split system M, M_B F = Rm X, so

        1/2 F^H M_B F = 1/4 (lift conj(F))^T M^-1 (lift F).

    The change to block coordinates (the Hadamard transform up to its 2^s,
    the _Split bases and the members' permutations U_p) is real orthogonal,
    so this is 1/4 2^-s sum B^T X over the blocks and, within a block, over
    each (class member, irrep row) segment of its columns, B the block's
    projected lift conj(F) and X its solutions.  Only the first two stages of
    _blocked_solve run: the forward route (_route, which holds the shares
    of one chunk of columns and the reached shares, never those of every
    character and column) and the block solves; for real F, B is a copy of
    the projected right-hand sides, for complex F lift conj(F) goes through
    the same chunks with the reach of F.  Once routed, the fields are no
    longer referenced here, so a caller's temporary F is freed before the
    blocks are gathered.  Of the P solved columns only the seeded
    combination X r is mapped back (_map_back), for the Freivalds probe of
    resolvent_solve and the residual of solve_density, with their
    tolerances.  On the GMRES path the one
    block is the full layout of the one-element group, whose coordinates are
    the unknowns themselves, and resolvent_solve gives X.  Pairs of columns
    that share no segment (waves of different mirror characters) are exact
    zeros.
    """
    g = _checked_fields(sys, fields)
    k, n = g.shape[0], sys.n_cells
    *_, dA = _contrast_parts(contrast, sys.bg)
    if not np.any(dA):
        return np.zeros((k, k), dtype=complex)
    factors = _system_factors(contrast, sys.bg)
    lift = -factors[0]
    r = np.random.default_rng(0).standard_normal(k)
    gr = np.tensordot(r, g, axes=1)
    dense = _dense_path(sys)
    if dense:
        group = _orbits(sys.index, sys.bg.A.matrix, *factors)
        routes, parts, floors, paired = _route(group, g, lift, np.iscomplexobj(g))
        # the fields are routed: a caller's temporary is freed before the gather
        del fields, g
        if paired is None:
            paired = [part.copy() for part in parts]
        _solve_blocks(sys._gather_blocks(group, *factors), group, parts, floors,
                      f"the system on {n} cells")
    else:
        group, routes = _Group.trivial(n), [[(0, np.arange(k), None)]]
        rows = g.reshape(k, -1)
        rhs = _lifted(rows, lift)
        # GMRES leaves its right-hand sides as they are
        paired = [(_lifted(rows.conj(), lift) if np.iscomplexobj(g) else rhs)[None]]
        parts = [resolvent_solve(sys, contrast, rhs.T).T[None]]
        del rhs
    out = np.zeros((k, k), dtype=complex)
    combined = []  # per block, row l of member i's share of X r at [l, i]
    blocks = iter(zip(paired, parts))
    for route, (_, key, _) in zip(routes, group.classes):
        for _ in group.splits[key].names:
            left, sol = next(blocks)
            comb = np.empty((sol.shape[0], len(route), sol.shape[2]), dtype=complex)
            start = 0
            for i, (_, ks, _) in enumerate(route):
                seg = slice(start, start + len(ks))
                out[np.ix_(ks, ks)] += sum(bl @ xl.T for bl, xl in zip(left[:, seg], sol[:, seg]))
                comb[:, i] = r[ks] @ sol[:, seg]
                start = seg.stop
            combined.append(comb)
    out *= 0.25 / len(group.cells)
    xr = np.empty((n, 3), dtype=complex)
    only = np.zeros(1, dtype=int)  # the one combined column
    _map_back(group, combined, [[(b, only, perm) for b, _, perm in route] for route in routes],
              xr[None])
    if dense:
        _probe(sys, factors, xr.reshape(-1), _lifted(gr, lift).reshape(-1))
    _residual(sys, dA, xr @ factors[1].T, gr)
    return out


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

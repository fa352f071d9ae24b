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
density to the first half of each axis of one zeroed box, transforms one
axis at a time in place (the last axis only on the lines that hold data,
the middle one only on the occupied slabs, the first one on the full box),
multiplies by the 3x3 symbol in place, one cache-sized slab of the first
axis at a time, transforms back in the reverse order, skipping the half of
each axis that is never read, and gathers: O(box log box) time and one box
of memory.  Each
block is even in the offset and a symmetric Hessian, so gradW, R_kappa and
the system matrix are complex symmetric for every contrast; reciprocity of
scattered fields is exact for this discretization up to roundoff.

Each public solve derives its set-up once, in one plan of its system and
contrast (_Plan), which every stage of the solve reads: At - A, the 3x3
system factors, the path, the residual tolerance of that path and, on the
dense path, the group.  At most DIRECT_CAP cells take the dense path: the
solve gathers the system matrix from the table under the grid's group of
signed axis permutations (_orbits).  An axis is a
mirror axis when reversing the cells' lattice positions along it maps the
cell set onto itself with no cell on the plane, and flipping the sign of
that component commutes with A and, up to a sign per unknown, with the 3x3
system factors; an axis permutation counts when it maps the cell set onto
itself and commutes with A and, up to the same move of the unknowns' rows,
with the factors.  voxelize centres its lattice on the shape, so a ball in
an isotropic background keeps all 48 signed permutations (the cube group),
an ellipsoid with two equal semi-axes keeps the 8 mirrors and one swap, and
one with three distinct semi-axes or a tensor contrast the 8 mirrors.

The dense solve works in one real basis V of the unknowns (_Group), the
symmetry-adapted basis of that group G (Fassler & Stiefel, Group Theoretical
Methods and Their Applications, 1992, ch. 4-5): V^T V = 2^s I, and V^T M V
/ 2^s is block diagonal.  The mirrors Z2^s split the system by character c;
an axis permutation p maps c to p(c) with B_p(c) = U_p B_c U_p^T for a
permutation U_p of the unknowns, so one block is formed per class of
characters; and the stabilizer of the class representative (all of S3, a
swap, or nothing) splits it again, one complex-symmetric block B per
irreducible representation: A1, A2 and E for S3, even and odd for a swap
(_Split).  V's columns run block by block, in a block by class member and
irrep row (the block's segments, each a further copy of B), and by
coordinate.  A column of V reads one G-orbit of the unknowns only, so V is
block diagonal over the orbits and is held as one small square real matrix
per kind of orbit (orbits whose blocks of V are equal share one), and
applied kind by kind in place, one matmul broadcast over the kind's orbits
(_Group.transform).  Every symmetry operation goes through V: the forward
route V^T x (_forward), a chunk of columns at a time, keeps only the
segments a column reaches (a column of definite parity under every mirror,
such as a real regular wave about the lattice centre, reaches one class);
the backward route is V y / 2^s (_backward); and each block is formed from
the rows of M at one representative unknown per G-orbit times V, B[a, :] a
fixed combination of the row of a's orbit (VieSystem._gather_blocks).  Those
rows, about 3N^2 / |G| values, are the only part of M gathered from the
table, in one pass from a 6-entry packed table of the 3x3 blocks, each
block's columns of them into an array of its own; the blocks are handed out
one at a time (a generator), none kept after, and each block's rows are
dropped once it is formed.  On the ball at resolution 14 (3N = 4,416, 106
orbits) the gather's tracemalloc peak, consumed a block at a time, is 10.6
MB, the pass itself: 7.5 MB of rows and 2.1 MB of table (at resolution 16
20.5 MB); the blocks are 10 of at most 290 rows instead of 8 of 552.  Each
block is factored and solved by one LU solve (np.linalg.solve, partial
pivoting, in numpy's own LAPACK), each routed segment a further column,
written back in place and, by solve_density, mapped back; each block is
taken from the gather's stream just before its solve and dropped after it.
The response 1/2 F^H M_B F of P fields (_half_pairing) is paired inside the
blocks instead, one B^T X per block as the block comes, so only one seeded
combination of the solved columns is mapped back, for the residual checks.
With no symmetry V = I and the one block is the whole system.

Above the cap the solve is matrix-free GMRES (_gmres): modified
Gram-Schmidt Arnoldi on the FFT apply, restarted after _GMRES_BASIS vectors.
A cycle holds only the basis vectors its steps have made (each one an
apply's output, orthogonalised and normalised in place) and the small
Hessenberg matrix, so its memory follows the steps it takes, not
_GMRES_BASIS.  One Krylov basis serves every shift alpha I + beta A of its
operator, each shift's least-squares problem solved by one batched QR per
step, so a sequence of scalar contrasts of one background,
(I - q_j R_kappa) y_j = A^{1/2} g, costs one basis of R_kappa per field
instead of one run per contrast (solve_density with a sequence, as the born
study calls it).
"""

from __future__ import annotations

import importlib
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# numpy imports these submodules on first use: loaded here, with the package,
# they cost the first solve nothing
from numpy.fft import fft, ifft
from numpy.random import default_rng

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
# 4 complex zeros that VieSystem.apply adds to themselves before its FFTs
_SCRATCH = np.zeros(4, dtype=complex)
# scipy names that vie never calls but the traced benchmark wraps as vie
# attributes, by module; __getattr__ imports each on first access, so that a
# run that does not ask for them never loads scipy, which tdscope does not need
_TRACED_NAMES = {"lu_factor": "scipy.linalg", "lu_solve": "scipy.linalg",
                 "gmres": "scipy.sparse.linalg", "LinearOperator": "scipy.sparse.linalg"}


def _unique(a):
    """The sorted distinct values of an integer array, as np.unique(a) gives
    them.  np.unique without its optional outputs checks for a masked array,
    which imports numpy.ma (about 30 ms) on first use."""
    a = np.sort(a, axis=None)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def __getattr__(name):
    """The scipy names of _TRACED_NAMES, imported on first access (PEP 562)."""
    if name not in _TRACED_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_TRACED_NAMES[name]), name)
    globals()[name] = value
    return value


@dataclass
class DensityField:
    """Complex 3-vector per voxel (units of A grad u); residual diagnostic."""

    values: np.ndarray
    grid: object = None
    residual: float = None


def _contrast_parts(contrast, bg):
    """(sigma, q_mat, dA) as 3x3 arrays: the sign split Q = q_mat^T sigma^2
    q_mat of the contrast factor, and At - A.  The contrast must live in bg."""
    if isinstance(contrast, IsoContrast):
        a, q = contrast.a, contrast.q
        if bg.iso_a is None or abs(bg.iso_a - a) > 1e-12 * max(a, 1.0):
            raise ValueError("isotropic contrast requires background A = a I")
        eye = np.eye(3)
        sigma = np.eye(3, dtype=complex) * (1.0 if q >= 0.0 else 1j)
        return sigma, np.sqrt(abs(q)) * eye, a * contrast.beta * eye
    if not np.allclose(contrast.A.matrix, bg.A.matrix, rtol=0.0, atol=1e-12):
        raise ValueError("contrast.A must match the background tensor")
    return contrast.sigma, contrast.q_mat, contrast.A_tilde.matrix - contrast.A.matrix


def _system_factors(contrast, bg):
    """(L, Rm, D) of I - sigma q R_kappa q^T sigma = D + L gradW Rm, 3x3 per voxel.

    L = -2 sigma q A^{1/2} is -2 Rm^T and D is symmetric, so the matrix is
    complex symmetric whenever gradW is.
    """
    sig, qm, _ = _contrast_parts(contrast, bg)
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
    (E, F, irrep, row, coord): the orbits' unknowns E (n_t, |O|) in the
    order in which h first reaches them, the square matrix F (|O|, |O|) of
    every v_l on them, irrep by irrep, row by row and w by w, and for each
    column of F its irrep, its row l and (n_t, |O|) its coordinate on each
    orbit in the irrep's block, whose coordinates run type by type, orbit
    by orbit and w by w; sizes holds the rows of each irrep's block.
    """

    names: tuple
    dims: tuple
    types: list
    sizes: list

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
        types, sizes = [], [0] * len(irreps)
        for key in _unique(kind):
            stab = key >> np.arange(order) & 1 == 1
            sel = reps[kind == key]
            first = np.sort(np.unique(img[sel[0]], return_index=True)[1])
            slot = np.argmax(img[sel[0], :, None] == img[sel[0], first], axis=1)
            fs, cols = [], []
            for r, mat in enumerate(irreps):
                d = mat.shape[1]
                val, vec = np.linalg.eigh(mat[stab].mean(axis=0))
                w = vec[:, val > 0.5]
                nu = np.sqrt(stab.sum() * order / d)
                f = np.zeros((len(first), d, w.shape[1]))
                np.add.at(f, slot, mat @ w / nu)
                fs.append(f.reshape(len(first), -1))
                k = w.shape[1]
                cols.append((np.full(d * k, r), np.repeat(np.arange(d), k),
                             sizes[r] + k * np.arange(len(sel))[:, None] + np.tile(np.arange(k), d)))
                sizes[r] += len(sel) * k
            irrep, row, coord = (np.concatenate(c, axis=-1) for c in zip(*cols))
            types.append((img[sel][:, first], np.concatenate(fs, axis=1), irrep, row, coord))
        return cls(names, tuple(m.shape[1] for m in irreps), types, sizes)


class _Group:
    """The signed-permutation group G of a system, the mirrors Z2^s and the
    axis permutations H, and its real basis V of the unknowns.

    axes, cells (2^s, n) and signs (2^s, 3) are the mirror group's (see
    _orbits).  perm_axes (|H|, 3), perm_cells (|H|, n) and perm_comps (|H|, 3)
    hold each permutation p (identity first), its image of each orbit
    representative (as a position in cells[0]) and its map T_p of the
    unknowns' rows; unknown 3 j + i of the representatives goes to
    img[h, 3 j + i].  p maps the mirror character c to image[h, c], whose
    bit for axis p[k] is c's bit for axis k, and B_p(c) = U_p B_c U_p^T.
    classes holds one (c, stabilizer, members) per orbit of characters, with
    each member b = p(c) and the index h of one such p; splits holds the
    _Split of each stabilizer.

    order is the group's number of elements.  V (3N x 3N, V^T V = 2^s I) is
    the real change to the coordinates of the blocks, the commutant basis of
    G.  Its columns run block by block, within a block class member by class
    member and irrep row by irrep row (D = members x d segments of m
    columns), and within a segment in the order of the block's rows.  With
    (g, u) = 3 cells[g, r] + i the unknown of mirror g and representative
    unknown u = 3 r + i, the column of member b = p(c) (h the index of p),
    row l and coordinate a of block (c, rho) is

        V[(g, img[h, v]), (b, l, a)] = chi_b(g) T_g[img[h, v] % 3] F[v, (rho, l, a)]

    on the unknowns v of the orbit E of coordinate a in the class's _Split,
    with chi_b(g) = (-1)^popcount(b & g) the Hadamard character of b over
    the mirrors, T_g the mirror's signs and F the irrep basis.  A column
    reads only the unknowns of one G-orbit, so V is block diagonal over the
    G-orbits, and it is held that way, in the orbit layout: unknown[q] is
    the unknown at layout position q, orbit by orbit, ascending within an
    orbit.  The orbit has as many columns as unknowns, one per character b
    and unknown of img[h] E (the _Split pairs column j of F with unknown j
    of each row of E), so the column of F's column j is placed at the
    position of unknown (b, img[h, E[j]]), and V^T x is held at the
    columns' positions.  Orbits whose blocks of V are equal (of 106 on the
    resolution-14 ball, 8 distinct) share one: types holds (start, n, mat)
    per kind, the n orbits from layout position start on, each of size S =
    len(mat), with V[unknown[q], col] = mat[q - q_o, p - q_o] for the orbit
    at first position q_o and p the layout position of the column.  The
    orbits are numbered by size and then by their smallest unknown, and
    the layout takes them kind by kind in that order.  blocks holds (name,
    at, orbit, coef) per block: at (D, m) the layout position of each
    column, orbit (m,) the orbit number of each coordinate a, and coef
    (D, m) the weights that form the block from the rows of M at reps, the
    smallest unknown of each G-orbit in orbit order,

        B[a, :] = sum_j coef[j, a] (M V)[reps[orbit[a]], segment j],

    which holds because M V_j = V_j B for each segment j of the block and
    sum_j V[u, (j, a)] V[u, (j, a')] is 2^s D / |O| delta(a, a') at every
    unknown u of the orbit (_gather_blocks).
    """

    def __init__(self, axes, cells, signs, perm_axes, perm_cells, perm_comps):
        self.axes, self.cells, self.signs = axes, cells, signs
        self.perm_axes, self.perm_cells, self.perm_comps = perm_axes, perm_cells, perm_comps
        s = len(axes)
        order = len(perm_axes)
        self.order = order << s
        bit = [[axes.index(p[k]) for k in axes] for p in perm_axes]
        self.image = np.array([[sum((c >> t & 1) << b[t] for t in range(s))
                                for c in range(1 << s)] for b in bit])
        self.img = (3 * perm_cells[:, :, None] + perm_comps[:, None, :]).reshape(order, -1)

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
        self._basis()

    def _basis(self):
        """Build V in the orbit layout (see the class docstring)."""
        size, n = self.cells.shape
        unknown = (3 * self.cells[:, :, None] + np.arange(3)).reshape(size, 3 * n)  # of g, v
        chi = (-1.0) ** np.array([[bin(b & g).count("1") for g in range(size)] for b in range(size)])
        sign = self.signs[:, np.arange(3 * n) % 3]  # T_g at each representative unknown
        # the G-orbit of each unknown, named by the smallest representative
        # unknown of its H-orbit; orbits ordered by size, then by name
        label = np.empty(size * 3 * n, dtype=int)
        label[unknown] = self.img.min(axis=0)
        names, orbit, count = np.unique(label, return_inverse=True, return_counts=True)
        orbit, count = np.argsort(np.lexsort((names, count)))[orbit], np.sort(count)
        self.unknown = np.argsort(orbit, kind="stable")
        first = np.cumsum(count) - count  # each orbit's first layout position
        row_at = np.argsort(self.unknown)  # the layout position of each unknown
        mat_at = np.cumsum(count**2) - count**2  # each orbit's first entry in flat
        flat = np.zeros(np.sum(count**2))
        blocks, start, position = [], 0, np.empty_like(orbit)  # of each column
        for c, key, members in self.classes:
            split = self.splits[key]
            route = [(b, self.img[h]) for b, h in [(c, 0)] + members]
            parity = " ".join("xyz"[k] + "+-"[c >> t & 1] for t, k in enumerate(self.axes))
            begin = []
            for name, d, m in zip(split.names, split.dims, split.sizes):
                blocks.append((" ".join(filter(None, (parity, name))) or "single", start,
                               len(route) * d, m))
                begin.append(start)
                start += len(route) * d * m
            begin, dims, sizes = np.array(begin), np.array(split.dims), np.array(split.sizes)
            for e, f, irrep, row, coord in split.types:
                for i, (b, perm) in enumerate(route):
                    # V on the orbits' unknowns (g, u) (n_t, |O| each, at their
                    # positions q in the orbit), column j of F at q[b, :, j]
                    u = perm[e]
                    o = orbit[unknown[0, u[:, 0]]]
                    q = row_at[unknown[:, u]] - first[o, None]
                    position[begin[irrep] + (i * dims[irrep] + row) * sizes[irrep] + coord] = (
                        q[b] + first[o, None])
                    at = (mat_at[o, None] + q * count[o, None])[..., None] + q[b][:, None, :]
                    # (g, n_t, |O|, |O|)
                    flat[at] = (chi[b, :, None, None] * sign[:, u])[..., None] * f
        of = np.repeat(np.arange(len(count)), count)  # the orbit at each layout position
        self.reps = self.unknown[first]
        self.blocks = []
        for name, start, segs, m in blocks:
            at = position[start : start + segs * m].reshape(segs, m)
            o = of[at[0]]
            p = flat[mat_at[o] + at - first[o]]  # V at each orbit's first unknown
            self.blocks.append([name, at, o, p / np.einsum("ja,ja->a", p, p)])
        # orbits whose blocks of V are equal share one matrix, and the layout
        # takes them kind by kind
        kind, mats, seen = np.empty(len(count), dtype=int), [], {}
        for o, k in enumerate(count):
            mat = flat[mat_at[o] : mat_at[o] + k * k]
            kind[o] = seen.setdefault(mat.tobytes(), len(seen))
            if kind[o] == len(mats):
                mats.append(mat.reshape(k, k).copy())
        order = np.argsort(kind, kind="stable")
        start = np.empty_like(first)
        start[order] = np.cumsum(count[order]) - count[order]
        moved = start[of] + np.arange(len(of)) - first[of]  # the new place of each position
        self.unknown[moved] = self.unknown.copy()
        for block in self.blocks:
            block[1] = moved[block[1]]
        n = np.bincount(kind)
        self.types = list(zip(np.cumsum([0] + [len(m) * c for m, c in zip(mats, n)]), n, mats))

    def chunks(self, w, values=None):
        """(q, mat) per chunk of orbits of one kind of about values
        (_ROUTE_CHUNK) complex values of w columns: the slice q of the layout
        that the chunk holds and the orbits' block of V."""
        for start, n, mat in self.types:
            step = max(1, (values or _ROUTE_CHUNK) // (len(mat) * w))
            for o0 in range(0, n, step):
                yield slice(start + o0 * len(mat), start + min(n, o0 + step) * len(mat)), mat

    def transform(self, buf, transpose=False):
        """buf (3N, w), complex and C-ordered, in the orbit layout, multiplied
        by the orbit blocks of V (transpose: of V^T) in place, a chunk at a
        time (chunks): V^T moves the rows at the unknowns' positions to the
        coordinates at the columns' positions, V moves them back."""
        for q, mat in self.chunks(buf.shape[1]):
            buf[q] = _orbit_product(buf[q], mat, transpose)

    def describe(self):
        """The group in words: its mirrors, its axis permutations and its order."""
        words = [f"mirrors {' '.join('xyz'[k] for k in self.axes)}"] if self.axes else []
        if len(self.perm_axes) == 6:
            words.append("all axis permutations")
        elif len(self.perm_axes) == 2:
            a, b = np.flatnonzero(self.perm_axes[1] != np.arange(3))
            words.append(f"the swap {'xyz'[a]} <-> {'xyz'[b]}")
        return f"{', '.join(words) or 'no symmetry'} ({self.order} elements)"

    def block_names(self):
        """(name, rows) of each block in solve order: the class representative's
        parity under each mirror and the irrep of its stabilizer."""
        return [(name, at.shape[1]) for name, at, *_ in self.blocks]


def _orbit_product(part, mat, transpose):
    """part (S n, w), complex and C-ordered, the layout rows of n orbits of
    size S that share the block mat (S, S) of V, multiplied by it
    (transpose: by its transpose), as a new array of part's shape."""
    flat = part.view(float).reshape(-1, len(mat), 2 * part.shape[1])
    return ((mat.T if transpose else mat) @ flat).reshape(part.shape[0], -1).view(complex)


# the last _Group that _orbits found, by its arguments: a study that pairs on
# several systems of one grid and contrast (finite_delta's trial balls)
# builds it once
_LAST_GROUP = {}


def _orbits(index, A, left, right, diag):
    """The _Group of signed axis permutations of diag + left gradW right
    (_find_group), kept for the next call with equal arguments."""
    key = tuple((m.shape, m.dtype.str, m.tobytes()) for m in (index, A, left, right, diag))
    if key not in _LAST_GROUP:
        _LAST_GROUP.clear()
        _LAST_GROUP[key] = _find_group(index, A, left, right, diag)
    return _LAST_GROUP[key]


def _find_group(index, A, left, right, diag):
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


# a segment of a column at or below this fraction of the column's norm in
# coordinates is roundoff (about 1e-17 for a column of definite parity), far
# below the 1e-10 residual probe, and is not solved
_LEAK = 1e-14
# complex values per chunk of the columns that _forward routes at once, and of
# the orbits that _Group.transform multiplies at once (512 KiB)
_ROUTE_CHUNK = 1 << 15
# cell pairs per chunk of VieSystem._gather_blocks (576 KiB of 3x3 blocks)
_GATHER_CHUNK = 1 << 12


def _forward(group, cols, lift=None, conj=False):
    """The forward route V^T x of the columns cols (K, N, 3): per block of
    group.blocks, (part, seg, col, conj_part).

    The columns (with the 3x3 lift applied per voxel, see _lifted) go a chunk
    of about _ROUTE_CHUNK values at a time to the orbit layout, where
    _Group.transform multiplies them by V^T in place, and on to V's column
    order (block by block, segment by segment, from each block's layout
    positions at).  A segment of a column, its m coordinates of one
    (member, irrep row) of a block, whose squared norm is at most
    _LEAK^2 times that of all the column's coordinates (2^s ||x||^2) is
    roundoff and is not kept: part (n, m) holds the block's kept segments,
    segment seg[i] of column col[i] in row i, chunk by chunk, in each chunk
    segment by segment.  A column of definite parity under every mirror
    reaches one class, one of definite symmetry one block, and an all-zero
    column none.  With conj, conj(cols) goes through the same chunks with
    the segments of cols, and conj_part holds them (else None).
    """
    def segments(k0, chunk):
        ys = []
        for x in [chunk, chunk.conj()] if conj else [chunk]:
            y = (x if lift is None else _lifted(x, lift)).reshape(len(x), -1).T[group.unknown]
            group.transform(y, transpose=True)
            ys.append(y[order])  # V^T x in V's column order
        del y
        v = ys[0].view(float)
        norm = np.zeros((len(starts), len(chunk)))  # of each segment and column
        norm[filled] = np.add.reduceat(v * v, starts[filled]).reshape(-1, len(chunk), 2).sum(axis=2)
        keep = norm > _LEAK**2 * norm.sum(axis=0)
        out, j, b0 = [], 0, 0
        for _, at, *_ in group.blocks:
            (segs, m), hit = at.shape, keep[j : j + len(at)]
            seg, col = np.nonzero(hit)
            out.append([seg, col + k0] + [y[b0 : b0 + at.size].reshape(segs, m, len(chunk))
                                          .transpose(0, 2, 1)[hit] for y in ys])
            j, b0 = j + segs, b0 + at.size
        return out

    # V's columns block by block, segment by segment: the layout position of
    # each, and the first of each segment (a segment of no coordinate has none)
    order = np.concatenate([at.ravel() for _, at, *_ in group.blocks])
    size = np.concatenate([[at.shape[1]] * len(at) for _, at, *_ in group.blocks])
    starts, filled = np.cumsum(size) - size, size > 0
    step = max(1, _ROUTE_CHUNK // group.unknown.size)
    pieces = [segments(k0, cols[k0 : k0 + step]) for k0 in range(0, max(len(cols), 1), step)]
    out = []
    for i in range(len(group.blocks)):
        seg, col, *parts = (np.concatenate(p) for p in zip(*(piece[i] for piece in pieces)))
        for piece in pieces:
            piece[i] = None
        out.append((parts[0], seg, col, parts[1] if conj else None))
    return out


def _solve_block(name, block, part, what):
    """Solve the block's routed segments part (n, m) in place, by one LU
    solve of the block (np.linalg.solve); name and what name it in errors.
    A block with no segment is factored all the same."""
    try:
        part[...] = np.linalg.solve(block, part.T).T
    except np.linalg.LinAlgError:
        raise RuntimeError(f"the {name} block ({len(block)} rows) of {what} is singular") from None


def _backward(group, coords, out):
    """The backward route: V coords / 2^s written to out (3N, w) at the
    unknowns, for coords (3N, w) in the orbit layout, which it overwrites."""
    group.transform(coords)
    coords /= len(group.cells)
    out[group.unknown] = coords


def _blocked_solve(blocks, group, rhs, what):
    """Solution of M X = rhs, block by block, for M that commutes with its _Group.

    blocks are those of VieSystem._gather_blocks (a list or its stream), in
    the order of group.blocks: with V the group's basis (V^T V = 2^s I),
    V^T M V / 2^s is block diagonal, block B repeated once per segment
    (class member and irrep row) of its columns, so M^-1 = V diag(B^-1) V^T
    / 2^s.  rhs is complex, (3N,) or (3N, K), and is overwritten by the
    solution when it is Fortran-ordered (or 1-D); what names M in errors.
    Three stages: the forward route V^T rhs (_forward, which keeps only the
    segments that a column reaches), the block solves, each segment a
    further column of its block, and the backward route V X / 2^s
    (_backward), whose coordinates are allocated only after the solves.
    blocks may be any iterable, such as the stream of _gather_blocks: each
    block is taken from it just before its solve and dropped after it, so
    at most one block is held here.  Each block is factored and solves its
    segments in one LU solve, written back in place, also when it carries
    none, so a singular block raises naming it, before rhs is written
    (_solve_block).
    """
    x = np.asfortranarray(rhs.reshape(rhs.shape[0], -1))
    routed = _forward(group, x.T.reshape(x.shape[1], -1, 3))
    blocks = iter(blocks)
    for (name, *_), (part, *_) in zip(group.blocks, routed):
        _solve_block(name, next(blocks), part, what)
    coords = np.zeros(x.shape, dtype=complex)
    for i, (_, at, *_) in enumerate(group.blocks):
        (part, seg, col, _), routed[i] = routed[i], None
        coords[at[seg], col[:, None]] = part
    _backward(group, coords, x)
    return x.reshape(rhs.shape)


@dataclass
class VieSystem:
    """grad W_kappa on a voxel grid as an FFT offset table.

    index holds each cell's integer lattice position (N, 3).  kernel_hat
    holds the FFT over the box axes of the circulant-embedded block table,
    packed: the 6 distinct entries of the symmetric 3x3 symbol in the order
    of materials._PACK, shape (6, *box).  flat holds each cell's position in
    the flattened box, where apply scatters and gathers.  The system holds
    the operator alone: no response and no dense factor.
    """

    grid: object
    bg: object
    index: np.ndarray
    kernel_hat: np.ndarray
    flat: np.ndarray

    @property
    def n_cells(self):
        return self.grid.n_cells

    def apply(self, v, left=None, right=None, diag=None):
        """(diag + left gradW right) v, with 3x3 factors acting on each voxel.

        v has shape (3N,), (N,3) or (3N,K); the result has the same shape and
        v is not written to.  Omitted factors are the identity (left, right)
        and zero (diag).  The density is scattered through flat into one
        zeroed (3, K, p0, p1, p2) box, and every transform runs in place in
        it (numpy.fft's out= writes into the complex view it reads), on the
        part that holds data: the forward transform runs the last axis on the
        d0*d1 lines of the view [:d0, :d1], the middle axis on the d0 slabs
        of [:d0] and the first axis on the full box.  The symbol is applied
        in place, a slab of the first box axis at a time: entry (a, b) is row
        _UNPACK[a, b] of kernel_hat, and out_a = K_a0 x_0 + K_a1 x_1 + K_a2
        x_2 is summed in that order.  The inverse transform runs the axes in
        reverse order, on the full box, then on [:d0] and on [:d0, :d1],
        skipping the half of each of the first two axes that the gather
        does not read, and flat gathers the result.  No padded copy of the
        box is made: the transforms hold the box alone.
        """
        x = v.reshape(self.n_cells, 3, -1)
        k = x.shape[2]
        kh = self.kernel_hat
        p0, p1, p2 = kh.shape[1:]
        d0, d1 = p0 // 2, p1 // 2
        xt = x.transpose(1, 2, 0).reshape(3, -1)
        src = xt if right is None else right @ xt
        box = np.zeros((3, k, p0, p1, p2), dtype=complex)
        box.reshape(3, k, -1)[:, :, self.flat] = src.reshape(3, k, -1)
        # right @ xt may return from OpenBLAS with the upper halves of the
        # vector registers in use, and numpy.fft's SSE code runs about a third
        # slower until a vectorised ufunc clears them: one on 4 values does
        # (r_apply on a 36^3 box, 3.60 -> 3.22 ms on a Xeon with AVX-512)
        np.add(_SCRATCH, _SCRATCH, out=_SCRATCH)
        for view, axis in ((box[:, :, :d0, :d1], -1), (box[:, :, :d0], -2), (box, -3)):
            fft(view, axis=axis, out=view)
        # slabs of about 2^13 box points per column keep their arrays in cache
        step = min(p0, max(1, (1 << 13) // (p1 * p2)))
        acc = np.empty((3, k, step, p1, p2), dtype=complex)
        tmp = np.empty_like(acc[0])
        for i0 in range(0, p0, step):
            i1 = min(i0 + step, p0)
            xs, ks, ys = box[:, :, i0:i1], kh[:, i0:i1], acc[:, :, : i1 - i0]
            t = tmp[:, : i1 - i0]
            for a, rows in enumerate(_UNPACK):
                np.multiply(ks[rows[0]], xs[0], out=ys[a])
                for b in (1, 2):
                    np.multiply(ks[rows[b]], xs[b], out=t)
                    ys[a] += t
            xs[...] = ys
        for view, axis in ((box, -3), (box[:, :, :d0], -2), (box[:, :, :d0, :d1], -1)):
            ifft(view, axis=axis, out=view)
        y = box.reshape(3, k, -1)[:, :, self.flat].reshape(3, -1)
        del box
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

    def _offset_blocks(self, left, right, diag, pairs):
        """The table (len(pairs), prod(box)) of diag + left K(o) right: row e
        holds its entry pairs[e] = (a, b) at every box offset o (diag at
        o = 0, box position 0), by one inverse FFT of the packed symbol mixed
        by the factors."""
        a, b = np.array(pairs).T
        mix = np.zeros((len(pairs), 6), dtype=complex)
        np.add.at(mix, (slice(None), _UNPACK), np.einsum("ac,db->abcd", left, right)[a, b])
        table = (mix @ self.kernel_hat.reshape(6, -1)).reshape(-1, *self.kernel_hat.shape[1:])
        table = np.fft.ifftn(table, axes=_BOX_AXES, out=table).reshape(len(pairs), -1)
        table[:, 0] += diag[a, b]
        return table

    def dense(self, left=None, right=None, diag=None):
        """The (3N, 3N) matrix of apply(., left, right, diag), gathered from
        the 9-entry table (_offset_blocks) a chunk of about _GATHER_CHUNK 3x3
        blocks at a time.  It is the one block of the one-element group (see
        _gather_blocks)."""
        eye = np.eye(3)
        table = self._offset_blocks(eye if left is None else left, eye if right is None else right,
                                    0 * eye if diag is None else diag, list(np.ndindex(3, 3)))
        n, box = self.n_cells, self.kernel_hat.shape[1:]
        out = np.empty((n, 3, n, 3), dtype=complex)
        chunk = max(1, _GATHER_CHUNK // n)
        for i0 in range(0, n, chunk):
            diff = self.index[i0 : i0 + chunk, None, :] - self.index[None, :, :]
            off = np.ravel_multi_index(np.moveaxis(diff, -1, 0), box, mode="wrap")
            out[i0 : i0 + chunk] = table[:, off].reshape(3, 3, -1, n).transpose(2, 0, 3, 1)
        return out.reshape(3 * n, 3 * n)

    def _gather_blocks(self, group, left, right, diag):
        """The blocks of M = diag + left gradW right under its _Group, handed
        out one at a time in the order of group.blocks (a generator).

        With V the group's basis, each block is B = V_0^T M V_0 / 2^s for the
        block's first segment V_0 of V, and it is formed from the rows of M
        at the G-orbit representatives group.reps only (see _Group).  M is
        complex symmetric, and so is each block, so the table holds
        the 6 distinct entries of each 3x3 block (_offset_blocks).  The rows
        are gathered from it a chunk of orbits at a time (_Group.chunks, in
        the orbit layout), multiplied by the chunk's orbit blocks of V in
        place and moved to one array per block, the block's columns of
        M_reps V; then the table is dropped.  This one pass holds the table
        and the representatives' rows, the gather's floor.  Each block is
        formed from its own array, a segment and a chunk of its rows at a
        time, the array is dropped, and the block is handed out before the
        next is formed: the rows held fall block by block, and the
        generator keeps no block it has handed out, so a caller that drops
        each block after use holds one block at most.  The one-element group
        has V = I: its one block is M itself (dense).  Each block is
        C-ordered.
        """
        if group.order == 1:
            yield self.dense(left, right, diag)
            return
        table = self._offset_blocks(left, right, diag, _PACK).reshape(-1)
        box = self.kernel_hat.shape[1:]
        reps = group.reps
        cells, rep_cell = np.unique(reps // 3, return_inverse=True)
        diff = self.index[None, cells, :] - self.index[:, None, :]
        # int32 halves the index arrays that the pass holds beside the rows
        off = np.ravel_multi_index(np.moveaxis(diff, -1, 0), box, mode="wrap").astype(np.int32)
        del diff
        entry = (np.prod(box) * _UNPACK[:, reps % 3]).astype(np.int32)  # each component's row
        # rows[i][k, o] = (M V)[reps[o], the column of block i at layout position pos[i][k]]
        pos = [np.sort(at.ravel()) for _, at, *_ in group.blocks]
        rows = [np.empty((len(p), len(reps)), dtype=complex) for p in pos]
        # half a route chunk: the pass holds a chunk's rows and their product
        # with V beside the table and every block's rows
        for q, mat in group.chunks(len(reps), _ROUTE_CHUNK // 2):
            u = group.unknown[q]
            part = np.take(table, off[u // 3][:, rep_cell] + entry[u % 3], mode="clip")  # unbuffered
            part = _orbit_product(part, mat, True)
            for p, block_rows in zip(pos, rows):
                k0, k1 = p.searchsorted((q.start, q.stop))
                block_rows[k0:k1] = part[p[k0:k1] - q.start]
        del table, off
        for i, (_, at, orbit, coef) in enumerate(group.blocks):
            m, block_rows, rows[i] = at.shape[1], rows[i], None
            block = np.zeros((m, m), dtype=complex)
            step = max(1, 9 * _GATHER_CHUNK // max(m, 1))
            for j, seg in enumerate(np.searchsorted(pos[i], at)):
                # part[a, b] = (M V)[reps[orbit[a]], column b of segment j], a chunk of a at a time
                part = block_rows[seg].T
                for a0 in range(0, m, step):
                    a = slice(a0, a0 + step)
                    block[a] += coef[j, a, None] * part[orbit[a]]
            del part, block_rows
            yield block
            del block

    def symmetry(self, contrast):
        """(group, blocks) of a solve for the contrast, as its _Plan sets it
        up.  On the dense path: the group that _orbits finds, in words, and
        (name, rows) of each block the solve factors.  On the GMRES path the
        path is named, no block is listed and no group is built."""
        plan = _Plan(self, contrast)
        return ((plan.group.describe(), plan.group.block_names()) if plan.dense
                else ("none (the GMRES path)", []))


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
    a, b = np.array(_PACK).T

    def offsets(pos):
        # signed offset held at each flat box position: o mod box, o in [-dims, dims)
        return (np.stack(np.unravel_index(pos, box), axis=-1) + dims) % box - dims

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

    m = int(np.prod(box))
    packed = np.empty((6, m), dtype=complex)
    # offset 0 is box position 0; the far blocks after it are made a chunk at
    # a time and packed one entry at a time, straight into their rows
    packed[:, :1] = pack(cell_self_term(bg, h)[None])
    sqrt_det = np.sqrt(bg.det_A)
    stops = np.linspace(1, m, max(1, (m - 1) // _ASSEMBLE_CHUNK) + 1).astype(int)
    for i0, i1 in zip(stops[:-1], stops[1:]):
        profile = _hess_profile(bg, offsets(np.arange(i0, i1)) * h)
        for row, (i, j) in enumerate(_PACK):
            k_ij = far_entry(profile, i, j)
            packed[row, i0:i1] = 0.5 * (k_ij + (k_ij if i == j else far_entry(profile, j, i)))
        del profile, k_ij  # before the next chunk's profile
    t = ((np.arange(NEAR_SUBDIV) + 0.5) / NEAR_SUBDIV - 0.5) * h
    sub = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    # the box positions of the 26 touching offsets, in box order (an axis of
    # box 2 holds +1 and -1 at one position)
    near = np.stack(np.meshgrid(*3 * [[-1, 0, 1]], indexing="ij")).reshape(3, -1)
    ring = _unique(np.ravel_multi_index(near[:, near.any(axis=0)], box, mode="wrap"))
    pts = offsets(ring)[:, None, :] * h - sub[None, :, :]
    packed[:, ring] = pack(hess_phi(bg, pts).mean(axis=1) * h**3)
    del ring, pts
    packed = packed.reshape(6, *box)
    kernel_hat = np.fft.fftn(packed, axes=_BOX_AXES, out=packed)
    # the cells' positions in the flattened box, apply's scatter layout
    flat = np.ravel_multi_index(index.T, box)
    return VieSystem(grid=grid, bg=bg, index=index, kernel_hat=kernel_hat, flat=flat)


class _Plan:
    """The set-up of the solves of one system and contrast, derived once.

    dA is At - A, factors the (L, Rm, D) of _system_factors, dense whether
    the solve takes the dense path (at most DIRECT_CAP cells) rather than
    GMRES, tol the residual bound of that path (1e-10 dense, 1e-8 GMRES)
    and what names the system in errors.  group, the system matrix's
    _Group (_orbits), is found on its first read, which only the dense path
    makes.  Each public call makes one plan and hands it to every stage,
    so that a residual check reads the path of the solve it checks.
    """

    def __init__(self, sys, contrast):
        *_, self.dA = _contrast_parts(contrast, sys.bg)
        self.factors = _system_factors(contrast, sys.bg)
        self.dense = sys.n_cells <= DIRECT_CAP
        self.tol = 1e-10 if self.dense else 1e-8
        self.what = f"the system on {sys.n_cells} cells"
        self._sys = sys

    @cached_property
    def group(self):
        return _orbits(self._sys.index, self._sys.bg.A.matrix, *self.factors)


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

    Shifted systems share one Krylov space.  One Arnoldi basis of A from r = b
    (modified Gram-Schmidt), A V_k = V_{k+1} H_k, gives (alpha I + beta A) V_k
    = V_{k+1} (alpha E_k + beta H_k) for every shift, E_k the (k + 1) x k
    identity.  After each Arnoldi step one batched complete QR of these small
    shifted Hessenbergs, Q R, gives every shift its least-squares problem:
    with g = Q^H ||r|| e_1 = ||r|| conj(Q_{0,:}), its residual norm is |g_k|,
    read from the last column of the complete Q with no cancellation, and
    its solution y solves R_k y = g_{:k}.  A shift stops once that residual
    is at most 1e-10 ||b||, and the cycle ends when every shift has stopped
    or when the basis holds _GMRES_BASIS vectors; on an invariant Krylov
    space every residual is roundoff, read before h_{k+1,k} is divided by.
    Every shift is solved on the final basis.  A shift still above the
    tolerance then continues alone, restarted from its iterate with its true
    residual, for at most _GMRES_CYCLES cycles in all; past that it raises
    with the residual it reached.  b = 0 gives x = 0.

    The QR is redone from scratch at every step, O(S k^3) work where
    per-shift Givens rotations would update it in O(S k).  For three shifts
    (one BLAS thread, a 2-vCPU Intel Xeon) it takes 0.08-0.15 ms at k = 20,
    0.2-0.5 ms at 50, 1.4-2.7 ms at 100 and 13-22 ms at 200, so a full
    200-vector cycle would spend 0.64-1.06 s in it.  The born study at
    resolution 18 converges in 17 steps, where it costs nothing that shows,
    and no shipped run restarts.

    A cycle holds what its steps build and nothing in reserve: the basis is
    a list of the vectors made so far, each new one matvec's output
    orthogonalised and normalised in place, and H_k grows by a row and a
    column per step.  x = sum_i y_i v_i is summed vector by vector over that
    list, with no stacked copy of the basis.  So a cycle of k steps holds
    about k + 2S vectors of b's size for S shifts, whatever _GMRES_BASIS
    allows.
    """
    size_b = np.linalg.norm(b)
    tol = 1e-10 * size_b
    if tol == 0.0:
        return np.zeros((len(shifts), b.size), dtype=complex)

    def cycle(r, shifts):
        alpha, beta = np.array(shifts, dtype=complex).T[:, :, None, None]
        size_r = np.linalg.norm(r)
        basis = [r / size_r]  # the Arnoldi vectors made so far
        hess = np.zeros((1, 0), dtype=complex)  # H_k, (k + 1, k)
        for k in range(1, _GMRES_BASIS + 1):
            w = matvec(basis[-1])
            hess = np.pad(hess, ((0, 1), (0, 1)))
            for i, v in enumerate(basis):
                hess[i, -1] = np.vdot(v, w)
                w -= hess[i, -1] * v
            hess[k, -1] = np.linalg.norm(w)
            q, tri = np.linalg.qr(alpha * np.eye(k + 1, k) + beta * hess, mode="complete")
            g = size_r * q[:, 0].conj()  # Q^H ||r|| e_1, one row per shift
            res = np.abs(g[:, k])
            if np.all(res <= tol):
                break
            w /= hess[k, -1].real  # the apply's output becomes the next vector
            basis.append(w)
        y = np.linalg.solve(tri[:, :k], g[:, :k, None])[..., 0]
        x = np.zeros((len(shifts), r.size), dtype=complex)
        for yi, v in zip(y.T, basis):
            x += yi[:, None] * v
        return x, res

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
    in its memory.  The solve's _Plan decides its path, factors and group
    once; contrast may also be the _Plan that a caller in this module has
    made for its contrast.  On the dense path each irreducible block of the
    system matrix under its group of signed axis permutations (_orbits) is
    gathered (VieSystem._gather_blocks) and factored with LU, for this
    call only (_blocked_solve); a singular block raises naming its
    class and irrep, with rhs untouched.  Each dense batch is checked by one
    seeded Freivalds probe ||M (X r) - B r|| / ||B r|| through the FFT
    apply, which also cross-checks the gathered blocks against the table;
    B r is formed before the solve.  On the GMRES path each column is
    solved by _gmres with the one shift (0, 1) on the system matrix M, to a
    residual of 1e-10 ||b||, restarted after _GMRES_BASIS vectors and
    raising after _GMRES_CYCLES cycles.
    """
    plan = contrast if isinstance(contrast, _Plan) else _Plan(sys, contrast)
    rhs = np.asarray(rhs, dtype=complex)
    n3 = 3 * sys.n_cells
    cols = rhs.reshape(n3, -1)
    if plan.dense:
        r = default_rng(0).standard_normal(cols.shape[1])
        br = cols @ r
        blocks = sys._gather_blocks(plan.group, *plan.factors)
        x = _blocked_solve(blocks, plan.group, rhs, plan.what)
        _probe(sys, plan.factors, x.reshape(n3, -1) @ r, br)
        return x
    out = np.empty_like(cols)
    for k in range(cols.shape[1]):
        out[:, k] = _gmres(lambda v: sys.apply(v, *plan.factors), cols[:, k], [(0.0, 1.0)])[0]
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


def _residual(sys, plan, hr, gr):
    """||T hr - (At - A) gr|| / ||(At - A) gr|| for one density hr (N, 3) and
    its field gr, solved under the _Plan; an error above the plan's tol."""
    target = gr @ plan.dA.T
    num = np.linalg.norm(hr - sys.apply(hr) @ plan.dA.T - target)
    den = np.linalg.norm(target)
    res = float(num / den) if den > 0.0 else 0.0
    if res > plan.tol:
        raise RuntimeError(f"VIE residual {res:.3e} exceeds {plan.tol:.0e}")
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
    path and 1e-8 on the GMRES path.  One _Plan per contrast decides the
    path, this tolerance and the group once, for the solve and its residual
    check alike.  Real fields stay real: no complex copy of them is made
    besides the right-hand sides.

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
    return _solve(sys, _Plan(sys, contrast), _checked_fields(sys, incident_grad))


def _solve(sys, plan, g):
    """solve_density of the checked fields g under the contrast's _Plan."""
    if not np.any(plan.dA):
        return DensityField(values=np.zeros(g.shape, dtype=complex), grid=sys.grid,
                            residual=0.0)
    left, right, _ = plan.factors
    rows = g.reshape(-1, 3 * sys.n_cells)
    # the (3N, K) right-hand sides are the transpose of (K, 3N) rows: Fortran
    # order, which the dense solve overwrites without a reordering copy; they
    # are dropped before h is formed so that at most two K x 3N blocks are held
    rhs = _lifted(rows, -left)
    x = resolvent_solve(sys, plan, rhs.T).T
    del rhs
    h = (x.reshape(-1, 3) @ right.T).reshape(g.shape)
    return _density(sys, plan, g, h)


def _density(sys, plan, g, h):
    """The DensityField of densities h for fields g, both (N, 3) or (K, N, 3),
    solved under the _Plan, with the residual of one seeded random
    combination (r = 1 for one field)."""
    rows = g.reshape(-1, 3 * sys.n_cells)
    k = rows.shape[0]
    r = default_rng(0).standard_normal(k) if g.ndim == 3 else np.ones(1)
    gr = (r @ rows).reshape(-1, 3)
    hr = (r @ h.reshape(rows.shape)).reshape(-1, 3)
    return DensityField(values=h, grid=sys.grid, residual=_residual(sys, plan, hr, gr))


def _solve_contrasts(sys, contrasts, incident_grad):
    """solve_density for a sequence of IsoContrasts of sys's background."""
    if not contrasts:
        raise ValueError("a sequence of contrasts must hold at least one contrast")
    if not all(isinstance(c, IsoContrast) for c in contrasts):
        raise ValueError("a sequence of contrasts must hold IsoContrasts only")
    plans = [_Plan(sys, c) for c in contrasts]
    g = _checked_fields(sys, incident_grad)
    if any(plan.dense for plan in plans):
        return [_solve(sys, plan, g) for plan in plans]
    ah = sys.bg.sqrt_A
    shifts = [(1.0, -c.q) for c in contrasts]
    # y (contrasts, K, 3N): one shifted solve per field
    y = np.stack([_gmres(sys.r_apply, b, shifts)
                  for b in _lifted(g.reshape(-1, 3 * sys.n_cells), ah)], axis=1)
    return [_density(sys, plan, g, (yc.reshape(-1, 3) @ (2.0 * c.q * ah).T).reshape(g.shape))
            for c, plan, yc in zip(contrasts, plans, y)]


def _half_pairing(sys, contrast, fields):
    """1/2 F^H M_B F for P fields F (P, N, 3): a (P, P) matrix, paired in the
    blocks of the dense solve.

    With lift = -L = 2 Rm^T of _system_factors and X = M^-1 (lift F) the
    solutions of the sign-split system M, M_B F = Rm X, so

        1/2 F^H M_B F = 1/4 (lift conj(F))^T M^-1 (lift F).

    On the dense path M^-1 = V diag(B^-1) V^T / 2^s with V the real basis
    of M's _Group (see _blocked_solve), so this is 1/4 2^-s sum B^T X over
    the blocks, B the block's coordinates V^T lift conj(F) and X its
    solutions, one (D m, P_b) by (D m, P_b) product per block over the P_b
    fields that reach it (the segments a field does not reach are zeros
    there).  Only the first two stages of _blocked_solve run: the forward
    route (_forward, which holds one chunk of columns and the reached
    segments, never every coordinate of every column) and the block
    solves.  For complex F, lift conj(F) goes through the same chunks with
    the segments of F.  Once routed, the fields are no longer referenced
    here, so a caller's temporary F is freed before the blocks are gathered.
    The blocks then come one at a time from the stream of
    VieSystem._gather_blocks, and each is worked through before the next is
    taken: for real F, B is copied from the block's routed right-hand sides
    just before its LU solve (_solve_block), the block is paired, its share of
    the seeded combination X r is kept, and the block, B and X are dropped.
    No two blocks, and no two blocks' copies of B, are held at once, and the
    (P, P) sum is allocated only once the first block has come, after the
    gather's pass.  Of the P solved columns only X r is mapped back
    (_backward), for the Freivalds probe of resolvent_solve and the residual
    of solve_density, with their tolerances.  Pairs of fields that share no
    segment (waves of different mirror characters, or of one character in
    different irreps of its stabilizer) are exact zeros.  On the GMRES path
    the pairing is one product, 1/2 F^H H, with no basis, of the densities
    H = M_B F that solve_density gives with its residual check (_solve).
    One _Plan decides the path, the factors, the group and the residual
    tolerance, for the solve and its checks alike.
    """
    g = _checked_fields(sys, fields)
    k, n = g.shape[0], sys.n_cells
    plan = _Plan(sys, contrast)
    if not np.any(plan.dA):
        return np.zeros((k, k), dtype=complex)
    if not plan.dense:
        h = _solve(sys, plan, g).values
        return 0.5 * (g.conj().reshape(k, -1) @ h.reshape(k, -1).T)
    group, lift = plan.group, -plan.factors[0]
    r = default_rng(0).standard_normal(k)
    gr = np.tensordot(r, g, axes=1)
    routed = _forward(group, g, lift, np.iscomplexobj(g))
    # the fields are routed: a caller's temporary is freed before the gather
    del fields, g
    blocks = sys._gather_blocks(group, *plan.factors)
    for i, (name, at, *_) in enumerate(group.blocks):
        (part, seg, col, left), routed[i] = routed[i], None
        block = next(blocks)
        if i == 0:  # allocated after the gather's pass, which the first block ends
            out = np.zeros((k, k), dtype=complex)
            coords = np.zeros((3 * n, 1), dtype=complex)  # X r in the orbit layout
        if left is None:
            left = part.copy()  # real F: the routed right-hand sides themselves
        _solve_block(name, block, part, plan.what)
        del block
        # B and X of the columns ks that reach the block, (ks, D m), zero
        # on the segments a column does not reach
        ks, which = np.unique(col, return_inverse=True)
        b, x = (np.zeros((len(ks), at.size), dtype=complex) for _ in range(2))
        b.reshape(len(ks), *at.shape)[which, seg] = left
        del left
        x.reshape(len(ks), *at.shape)[which, seg] = part
        del part
        out[np.ix_(ks, ks)] += b @ x.T
        coords[at.reshape(-1), 0] = r[ks] @ x
        del b, x
    out *= 0.25 / len(group.cells)
    xr = np.empty((3 * n, 1), dtype=complex)
    _backward(group, coords, xr)
    _probe(sys, plan.factors, xr[:, 0], _lifted(gr, lift).reshape(-1))
    _residual(sys, plan, xr.reshape(n, 3) @ plan.factors[1].T, gr)
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


def operator_norm(sys, contrast=None):
    """Lower bound on ||q_mat R_kappa q_mat^T||, the moderate-scatterer
    certificate of the contrast (q_mat = I, ||R_kappa||, without one).

    For a scalar contrast q_mat = sqrt|q| I, so the norm is |q| ||R_kappa||,
    the ||q R_kappa|| of the sign and decay studies.  The grid is uniform, so
    the volume-weighted spectral norm coincides with the Euclidean one.
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
    qm = np.eye(3) if contrast is None else _contrast_parts(contrast, sys.bg)[1]

    def mv(v):
        return sys.r_apply(v, qm, qm.T)

    def rmv(v):
        # R_kappa is complex symmetric and q_mat real, so M^H v = conj(M conj(v))
        return np.conj(mv(np.conj(v)))

    rng = default_rng(0)
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
        sig = float(np.linalg.eigvalsh(np.diag(off, 1), UPLO="U")[-1])
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

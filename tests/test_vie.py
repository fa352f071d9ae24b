"""Volume integral equation: assembly, solves, radiation, operator norms."""

import dataclasses
import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.fft import fft, ifft

from tdscope import (
    Background,
    Ball,
    DensityField,
    Ellipsoid,
    ScattererGrid,
    SymTensor3,
    Union,
    VieSystem,
    aniso_contrast,
    assemble,
    born_density,
    cell_self_term,
    grad_phi,
    hess_phi,
    iso_contrast,
    operator_norm,
    phi,
    radiation_matrix,
    scattered_field,
    solve_density,
    voxelize,
)
from tdscope import vie
from tdscope.materials import _PACK
from tdscope.specfun_quad import _real_basis, regular_wave_gradients
from tdscope.vie import _system_factors

from conftest import peak_bytes

# Golub-Kahan-Lanczos estimates on the h = 1/6 unit-kappa ball system (seed 0),
# frozen against the dense singular values computed in-test.  The power iteration
# from the same start vector gave the lower values below: both approach the norm
# from below, and the Krylov estimate is never the further from it.
NORM_R = 0.9632850975532965
NORM_QR = 0.3210950325177655
NORM_R_POWER = 0.9589882995376452
NORM_QR_POWER = 0.3196627665125484


def unit_inc(n, axis=2):
    g = np.zeros((n, 3), dtype=complex)
    g[:, axis] = 1.0
    return g


def dense_gradw_reference(grid, bg, nsub=4):
    """Cell-pair collocation matrix of grad W: the oracle for the offset table.

    Midpoint blocks hess_phi(x_i - x_j) h^3 off the diagonal, cell_self_term
    on it, nsub^3-subcell averages for touching cells.
    """
    c, h, n = grid.centers, grid.h, grid.n_cells
    diff = c[:, None, :] - c[None, :, :]
    cells = np.arange(n)
    diff[cells, cells] = 1.0  # placeholder, overwritten by the self block
    blocks = hess_phi(bg, diff) * h**3
    blocks[cells, cells] = cell_self_term(bg, h)
    t = ((np.arange(nsub) + 0.5) / nsub - 0.5) * h
    sub = np.array(list(itertools.product(t, t, t)))
    touching = (np.abs(diff).max(axis=-1) < 1.5 * h) & (cells[:, None] != cells[None, :])
    i, j = np.nonzero(touching)
    blocks[i, j] = hess_phi(bg, diff[i, j][:, None, :] - sub).mean(axis=1) * h**3
    return blocks.transpose(0, 2, 1, 3).reshape(3 * n, 3 * n)


def _oracle_cases():
    aniso = Background(A=SymTensor3.from_matrix([[1.3, 0.2, 0.0], [0.2, 0.9, 0.1],
                                                 [0.0, 0.1, 1.1]]), kappa=1.5)
    two_balls = Union((Ball(0.25, center=(-0.6, 0.0, 0.0)), Ball(0.25, center=(0.55, 0.3, 0.1))))
    return {
        "ball_h6": (voxelize(Ball(0.5), 1.0 / 6.0), Background.isotropic(a=1.0, kappa=1.0),
                    iso_contrast(1.0, 2.0)),
        "offcentre_ellipsoid_aniso": (
            voxelize(Ellipsoid((0.5, 0.35, 0.3), center=(0.2, -0.1, 0.05)), 0.1),
            aniso,
            aniso_contrast(aniso.A, SymTensor3.diag(2.0, 0.7, 1.6)),
        ),
        "two_disjoint_balls": (voxelize(two_balls, 0.1), Background.isotropic(a=1.0, kappa=2.0),
                               iso_contrast(1.0, 0.5)),
    }


@pytest.mark.parametrize("case", sorted(_oracle_cases()))
def test_fft_operator_matches_dense_reference(case):
    grid, bg, contrast = _oracle_cases()[case]
    sys = assemble(grid, bg)
    ref = dense_gradw_reference(grid, bg)
    n = grid.n_cells
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3 * n, 3)) + 1j * rng.standard_normal((3 * n, 3))
    L, Rm, D = _system_factors(contrast, bg)
    want_mat = np.einsum("ab,ibjc,cd->iajd", L, ref.reshape(n, 3, n, 3), Rm)
    want_mat[np.arange(n), :, np.arange(n), :] += D
    want_mat = want_mat.reshape(3 * n, 3 * n)
    got = sys.dense(L, Rm, D)
    assert np.linalg.norm(got - want_mat) < 1e-13 * np.linalg.norm(want_mat)
    # every accepted input shape: one flat column, one (N, 3) field, K columns
    for v in (x[:, 0], x[:, 0].reshape(n, 3), x):
        want = (ref @ v.reshape(3 * n, -1)).reshape(v.shape)
        got = sys.apply(v)
        assert got.shape == v.shape
        assert np.linalg.norm(got - want) < 1e-13 * np.linalg.norm(want)
        want = (want_mat @ v.reshape(3 * n, -1)).reshape(v.shape)
        got = sys.apply(v, L, Rm, D)
        assert got.shape == v.shape
        assert np.linalg.norm(got - want) < 1e-13 * np.linalg.norm(want)


def test_apply_leaves_its_input_unchanged(sys_h6, rng):
    # GMRES hands apply its own Krylov vectors: the transforms work on copies
    c = iso_contrast(1.0, 2.0)
    factors = _system_factors(c, sys_h6.bg)
    for shape in ((3 * sys_h6.n_cells,), (3 * sys_h6.n_cells, 4)):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        before = v.copy()
        sys_h6.apply(v, *factors)
        sys_h6.r_apply(v, factors[0], factors[1])
        np.testing.assert_array_equal(v, before)


def test_one_cell_grid_matches_dense_reference(bg_unit, rng):
    # a single cell embeds in a 2^3 box: each half axis has length 1
    grid = voxelize(Ball(0.5), 1.0 / 6.0)
    grid = dataclasses.replace(grid, centers=grid.centers[:1])
    sys = assemble(grid, bg_unit)
    assert sys.kernel_hat.shape == (6, 2, 2, 2)
    ref = dense_gradw_reference(grid, bg_unit)
    x = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    want = ref @ x
    assert np.linalg.norm(sys.apply(x) - want) < 1e-13 * np.linalg.norm(want)


def nine_entry_symbol(sys):
    """kernel_hat in its former unpacked layout, (3, 3, *box): the FFT of every
    entry of every block of the circulant-embedded table, each 3x3 block taken
    from hess_phi, cell_self_term and the subcell averages as evaluated, with
    no symmetrization."""
    grid, bg = sys.grid, sys.bg
    box = sys.kernel_hat.shape[1:]
    axes = [(np.arange(p) + p // 2) % p - p // 2 for p in box]
    offsets = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    h = grid.h
    table = np.empty((offsets.shape[0], 3, 3), dtype=complex)
    far = np.any(offsets != 0, axis=1)
    table[far] = hess_phi(bg, offsets[far] * h) * h**3
    table[~far] = cell_self_term(bg, h)
    t = ((np.arange(vie.NEAR_SUBDIV) + 0.5) / vie.NEAR_SUBDIV - 0.5) * h
    sub = np.stack(np.meshgrid(t, t, t, indexing="ij"), axis=-1).reshape(-1, 3)
    ring = np.flatnonzero(np.abs(offsets).max(axis=1) == 1)
    table[ring] = hess_phi(bg, offsets[ring, None, :] * h - sub[None, :, :]).mean(axis=1) * h**3
    table = np.moveaxis(table.reshape(*box, 3, 3), (-2, -1), (0, 1))
    return np.fft.fftn(table, axes=(-3, -2, -1))


def nine_product_apply(kh, index, v, left=None, right=None, diag=None):
    """The former apply: a full np.zeros scatter on the half box through three
    index arrays, the transforms padding each axis, and nine products with
    the (3, 3, *box) symbol kh."""
    n = index.shape[0]
    x = v.reshape(n, 3, -1)
    k = x.shape[2]
    p0, p1, p2 = kh.shape[2:]
    cells = (slice(None), slice(None), *index.T)
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


COUPLED_BG = Background(A=SymTensor3.from_matrix([[1.3, 0.2, 0.0], [0.2, 0.9, 0.1],
                                                  [0.0, 0.1, 1.1]]), kappa=1.5)
# two small balls far apart along the (0, 1, 1) diagonal: a box of
# (8, 48, 48), swept in slabs of 3, 3 and 2 of its first axis
TWO_BALLS = Union((Ball(0.1, center=(0.0, -0.5, -0.5)), Ball(0.1, center=(0.0, 0.5, 0.5))))
# a one-cell layer of 5 x 4 cells: its box is 2 along the last axis, where the
# touching offsets +1 and -1 share one box position
PLATE = ScattererGrid(centers=0.1 * np.array(list(np.ndindex(5, 4, 1)), dtype=float), h=0.1,
                      shape=None)


def _columns_and_factors(n, k, rng):
    x = rng.standard_normal((3 * n, k)) + 1j * rng.standard_normal((3 * n, k))
    f = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
    return (x[:, 0] if k == 1 else x), f


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("case", ["ball_h8", "two_balls", "plate"])
def test_apply_is_bitwise_the_nine_product_apply_in_isotropic_media(case, k, rng):
    # an isotropic block is bitwise symmetric, so its packed symbol holds the
    # very entries of the nine-entry one and the sweep sums them in the same order
    grid = {"ball_h8": lambda: voxelize(Ball(0.5), 1.0 / 8.0),
            "two_balls": lambda: voxelize(TWO_BALLS, 0.05), "plate": lambda: PLATE}[case]()
    sys = assemble(grid, Background.isotropic(a=1.0, kappa=1.0))
    kh = nine_entry_symbol(sys)
    np.testing.assert_array_equal(kh, np.swapaxes(kh, 0, 1))
    x, f = _columns_and_factors(sys.n_cells, k, rng)
    for factors in ((), tuple(f)):
        np.testing.assert_array_equal(sys.apply(x, *factors),
                                      nine_product_apply(kh, sys.index, x, *factors))


@pytest.mark.parametrize("k", [1, 5])
def test_apply_matches_the_nine_product_apply_for_a_coupled_background(k, rng):
    # off the axes hess_phi is symmetric only up to roundoff; the packed
    # symbol holds the mean of the two entries
    sys = assemble(voxelize(TWO_BALLS, 0.05), COUPLED_BG)
    kh = nine_entry_symbol(sys)
    assert not np.array_equal(kh, np.swapaxes(kh, 0, 1))
    x, f = _columns_and_factors(sys.n_cells, k, rng)
    for factors in ((), tuple(f)):
        want = nine_product_apply(kh, sys.index, x, *factors)
        got = sys.apply(x, *factors)
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("case", ["coupled_A", "distinct_semi_axes", "off_centre", "two_balls"])
def test_apply_matches_dense(case, k, rng):
    # apply reads the packed symbol through the flat index and the slab sweep,
    # dense through the inverse transform and _UNPACK: the two must agree
    bg = COUPLED_BG if case == "coupled_A" else Background.isotropic(a=1.0, kappa=1.0)
    shape = {
        "coupled_A": Ball(0.5),
        "distinct_semi_axes": Ellipsoid((0.5, 0.35, 0.25)),
        "off_centre": Ellipsoid((0.5, 0.35, 0.25), center=(0.3, -0.2, 0.1)),
        "two_balls": TWO_BALLS,
    }[case]
    grid = voxelize(shape, 0.05 if case == "two_balls" else 0.1)
    sys = assemble(grid, bg)
    if case != "coupled_A":
        assert len(set(sys.kernel_hat.shape[1:])) > 1
    x, (L, Rm, D) = _columns_and_factors(sys.n_cells, k, rng)
    want = (sys.dense(L, Rm, D) @ x.reshape(3 * sys.n_cells, -1)).reshape(x.shape)
    got = sys.apply(x, L, Rm, D)
    assert got.shape == x.shape
    assert np.linalg.norm(got - want) < 1e-13 * np.linalg.norm(want)


def padded_copy_apply(sys, v, left=None, right=None, diag=None):
    """The former apply: the density scattered into a (3, K, d0, d1, p2) half
    box, the middle and first forward transforms padding their axis to a new
    array (n=p1, n=p0), and the inverse transforms on views of their input."""
    x = v.reshape(sys.n_cells, 3, -1)
    k = x.shape[2]
    kh = sys.kernel_hat
    p0, p1, p2 = kh.shape[1:]
    d0, d1 = p0 // 2, p1 // 2
    flat = (sys.index[:, 0] * d1 + sys.index[:, 1]) * p2 + sys.index[:, 2]
    xt = x.transpose(1, 2, 0).reshape(3, -1)
    src = xt if right is None else right @ xt
    buf = np.zeros((3, k, d0 * d1 * p2), dtype=complex)
    buf[:, :, flat] = src.reshape(3, k, -1)
    buf = fft(buf.reshape(3, k, d0, d1, p2), axis=-1, overwrite_x=True)
    buf = fft(buf, n=p1, axis=-2, overwrite_x=True)
    buf = fft(buf, n=p0, axis=-3, overwrite_x=True)
    step = min(p0, max(1, (1 << 13) // (p1 * p2)))
    acc = np.empty((3, k, step, p1, p2), dtype=complex)
    tmp = np.empty_like(acc[0])
    for i0 in range(0, p0, step):
        i1 = min(i0 + step, p0)
        xs, ks, ys = buf[:, :, i0:i1], kh[:, i0:i1], acc[:, :, : i1 - i0]
        t = tmp[:, : i1 - i0]
        for a, rows in enumerate(vie._UNPACK):
            np.multiply(ks[rows[0]], xs[0], out=ys[a])
            for b in (1, 2):
                np.multiply(ks[rows[b]], xs[b], out=t)
                ys[a] += t
        xs[...] = ys
    out = ifft(buf, axis=-3, overwrite_x=True)[:, :, :d0]
    out = ifft(out, axis=-2, overwrite_x=True)[:, :, :, :d1]
    out = ifft(out, axis=-1, overwrite_x=True)
    y = out.reshape(3, k, -1)[:, :, flat].reshape(3, -1)
    if left is not None:
        y = left @ y
    if diag is not None:
        y += diag @ xt
    return y.reshape(3, k, -1).transpose(2, 0, 1).reshape(v.shape)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("bg", ["isotropic", "coupled_A"])
@pytest.mark.parametrize("shape", ["ball", "distinct_axes_ellipsoid"])
def test_apply_in_one_box_is_bitwise_the_padded_copy_apply(shape, bg, k, rng):
    # the transforms run in place on views of one box instead of padding the
    # middle and first axes to new arrays: the same lines are transformed, so
    # the result is bitwise the former apply's, also on a box whose three
    # axes differ
    grid = voxelize(Ball(0.5) if shape == "ball" else Ellipsoid((0.5, 0.4, 0.3)), 0.1)
    sys = assemble(grid, COUPLED_BG if bg == "coupled_A" else Background.isotropic(1.0, 1.0))
    if shape != "ball":
        assert len(set(sys.kernel_hat.shape[1:])) == 3
    x, f = _columns_and_factors(sys.n_cells, k, rng)
    for factors in ((), tuple(f)):
        np.testing.assert_array_equal(sys.apply(x, *factors), padded_copy_apply(sys, x, *factors))


def test_apply_peak_memory_is_one_box(bg_unit, rng):
    # the transforms of three columns on the resolution-14 ball's 28^3 box
    # run in place in the box: the tracemalloc peak stays below 1.75 times
    # the box's bytes, 4% above the 1.68 times measured (the box, the symbol
    # sweep's slabs of 2^13 points per column, 0.48 times, and the scattered
    # and gathered columns); the padded copies of the former apply peaked at
    # 1.87 times it
    sys = assemble(voxelize(Ball(0.5), 1.0 / 14.0), bg_unit)
    x, _ = _columns_and_factors(sys.n_cells, 3, rng)
    box = 16 * 3 * 3 * np.prod(sys.kernel_hat.shape[1:])
    got, peak = peak_bytes(sys.apply, x)
    assert peak < 1.75 * box
    np.testing.assert_array_equal(got, padded_copy_apply(sys, x))


def test_assemble_shape_and_symmetry(sys_h6):
    n3 = 3 * sys_h6.n_cells
    gradW = sys_h6.dense()
    assert gradW.shape == (n3, n3)
    # kernel blocks are even in the separation, so the matrix is complex symmetric
    asym = np.abs(gradW - gradW.T).max()
    assert asym < 1e-13 * np.abs(gradW).max()


def test_assemble_voxel_cap(ball_grid_h8, bg_unit, monkeypatch):
    monkeypatch.setattr(vie, "VOXEL_CAP", 10)
    with pytest.raises(MemoryError):
        assemble(ball_grid_h8, bg_unit)


def test_assemble_in_chunks_keeps_the_bits_of_one_call(ball_grid_h6, bg_unit, monkeypatch):
    # the far blocks are made a chunk of box offsets at a time; on the h6
    # ball's box of 1,728 offsets, chunks of about 100 give the symbol of one
    # call on all of them, bit for bit
    want = assemble(ball_grid_h6, bg_unit).kernel_hat
    monkeypatch.setattr(vie, "_ASSEMBLE_CHUNK", 100)
    assert np.array_equal(assemble(ball_grid_h6, bg_unit).kernel_hat, want)


def test_assemble_peak_memory_on_a_large_box(bg_unit, monkeypatch):
    # the 36^3 box of a resolution-18 ball (46,656 offsets) is made in two
    # chunks and one packed entry at a time, with the bits of one call and a
    # tracemalloc peak below 2.5 times the symbol it keeps (measured 1.70
    # times; holding the whole box's offsets peaked at 1.95 times it, every
    # 3x3 block of a chunk at once at 3.9 times, and one call on every offset
    # at 6.9 times)
    grid = voxelize(Ball(0.5), 1.0 / 18.0)
    sys, peak = peak_bytes(assemble, grid, bg_unit)
    kernel_hat = sys.kernel_hat
    assert kernel_hat.shape == (6, 36, 36, 36)
    assert peak < 2.5 * kernel_hat.nbytes
    monkeypatch.setattr(vie, "_ASSEMBLE_CHUNK", 1 << 30)
    assert np.array_equal(assemble(grid, bg_unit).kernel_hat, kernel_hat)


def _packed_far_blocks(grid, bg, chunk):
    """The far blocks of assemble's offset table from the full 3x3 blocks,
    hess_phi(o h) h^3 packed as 1/2 (K_ab + K_ba), over the chunks of box
    offsets that assemble makes; (6, box positions) and the mask of the far
    positions (neither offset 0 nor the first neighbour ring)."""
    h = grid.h
    index = np.round((grid.centers - grid.centers.min(axis=0)) / h).astype(int)
    dims = index.max(axis=0) + 1
    axes = [(np.arange(2 * d) + d) % (2 * d) - d for d in dims]
    offsets = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    a, b = np.array(_PACK).T
    m = len(offsets)
    table = np.zeros((6, m), dtype=complex)
    stops = np.linspace(1, m, max(1, (m - 1) // chunk) + 1).astype(int)
    for i0, i1 in zip(stops[:-1], stops[1:]):
        blocks = hess_phi(bg, offsets[i0:i1] * h) * h**3
        table[:, i0:i1] = (0.5 * (blocks[:, a, b] + blocks[:, b, a])).T
    return table, np.abs(offsets).max(axis=1) > 1


@pytest.mark.parametrize("chunk", [1 << 14, 1 << 10], ids=["one_chunk", "21_chunks"])
@pytest.mark.parametrize("bg", [Background.isotropic(a=1.0, kappa=0.0),
                                Background.isotropic(a=2.0, kappa=1.0),
                                dataclasses.replace(COUPLED_BG, kappa=0.0), COUPLED_BG],
                         ids=["iso_k0", "iso_k1", "coupled_k0", "coupled_k15"])
def test_assemble_packs_the_far_blocks_of_hess_phi_bit_for_bit(bg, chunk, monkeypatch):
    # assemble writes each packed entry of a far block straight from the
    # radial profile of hess_phi; the table it transforms holds the bits of
    # the full 3x3 blocks packed, on the 28^3 box of the resolution-14 ball
    # in one chunk and in 21 (the complex products of the profile round as
    # (...) * e above 2^14 offsets and as e * (...) below, see _ASSEMBLE_CHUNK)
    grid = voxelize(Ball(0.5), 1.0 / 14.0)
    monkeypatch.setattr(vie, "_ASSEMBLE_CHUNK", chunk)
    tables = []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda x, *a, **k: tables.append(x.copy()) or fftn(x, *a, **k))
    kernel_hat = assemble(grid, bg).kernel_hat
    assert len(tables) == 1 and tables[0].shape == kernel_hat.shape == (6, 28, 28, 28)
    want, far = _packed_far_blocks(grid, bg, chunk)
    got = tables[0].reshape(6, -1)
    assert got[:, far].tobytes() == want[:, far].tobytes()
    assert kernel_hat.tobytes() == fftn(tables[0], axes=(-3, -2, -1)).tobytes()


def test_solve_density_residual_recorded(sys_h6):
    c = iso_contrast(1.0, 2.0)
    dens = solve_density(sys_h6, c, unit_inc(sys_h6.n_cells))
    assert isinstance(dens, DensityField)
    assert dens.residual is not None and dens.residual < 1e-10


def test_solve_density_input_guards(sys_h6):
    c = iso_contrast(1.0, 2.0)
    with pytest.raises(ValueError):
        solve_density(sys_h6, c, np.zeros((3, sys_h6.n_cells)))
    bad = unit_inc(sys_h6.n_cells)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        solve_density(sys_h6, c, bad)
    n = sys_h6.n_cells
    for shape in ((n, 4), (2, n + 1, 3), (2, 2, n, 3)):
        with pytest.raises(ValueError, match="shape"):
            solve_density(sys_h6, c, np.ones(shape))


A_TILDE = SymTensor3.from_matrix([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 3.0]])


@pytest.mark.parametrize("path", ["dense", "gmres"])
def test_solve_density_stacked_matches_per_field(sys_h6, rng, monkeypatch, path):
    if path == "gmres":
        monkeypatch.setattr(vie, "DIRECT_CAP", 1)
    c = aniso_contrast(SymTensor3.identity(), A_TILDE)
    shape = (4, sys_h6.n_cells, 3)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stacked = solve_density(sys_h6, c, g)
    assert stacked.values.shape == shape
    assert stacked.residual < (1e-10 if path == "dense" else 1e-8)
    per = np.array([solve_density(sys_h6, c, gk).values for gk in g])
    assert np.linalg.norm(stacked.values - per) <= 1e-12 * np.linalg.norm(per)


def test_solve_density_single_field_residual_is_exact(sys_h6, rng):
    # one field: ||T h - (At - A) g|| / ||(At - A) g|| with no random combination
    c = aniso_contrast(SymTensor3.identity(), A_TILDE)
    g = rng.standard_normal((sys_h6.n_cells, 3)) + 1j * rng.standard_normal((sys_h6.n_cells, 3))
    dens = solve_density(sys_h6, c, g)
    h = dens.values
    d_a = A_TILDE.matrix - np.eye(3)
    target = g @ d_a.T
    want = np.linalg.norm(h - sys_h6.apply(h) @ d_a.T - target) / np.linalg.norm(target)
    assert dens.residual == pytest.approx(want, rel=1e-12)


def test_stacked_residual_catches_a_wrong_field(sys_h6, rng, monkeypatch):
    # the random combination must see an error in any one of the K fields
    c = iso_contrast(1.0, 2.0)
    shape = (5, sys_h6.n_cells, 3)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    solve = vie.resolvent_solve

    def corrupt_last(*args, **kwargs):
        x = solve(*args, **kwargs).copy()
        x[:, -1] *= 1.0 + 1e-6
        return x

    monkeypatch.setattr(vie, "resolvent_solve", corrupt_last)
    with pytest.raises(RuntimeError, match="VIE residual"):
        solve_density(sys_h6, c, g)


@pytest.fixture()
def work(monkeypatch):
    """The calls of vie._find_group and of VieSystem.apply so far, by name.
    The kept group is cleared first, so each group a call needs is built."""
    counts = {"_find_group": 0, "apply": 0}
    monkeypatch.setattr(vie, "_LAST_GROUP", {})
    for owner, name in ((vie, "_find_group"), (VieSystem, "apply")):
        def counted(*args, _call=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def test_zero_contrast_short_circuit(sys_h6, work):
    # neither the solve nor the pairing of a zero contrast builds a group or
    # applies the operator
    c = iso_contrast(1.0, 1.0)
    dens = solve_density(sys_h6, c, unit_inc(sys_h6.n_cells))
    assert np.all(dens.values == 0.0)
    assert dens.residual == 0.0
    waves = _real_basis(regular_wave_gradients(3, 1.0, sys_h6.grid.centers))
    pairing = vie._half_pairing(sys_h6, c, waves)
    assert pairing.shape == (len(waves), len(waves)) and not np.any(pairing)
    assert work == {"_find_group": 0, "apply": 0}


def test_dense_contrast_sequence_builds_one_group_per_contrast(sys_h6, work):
    # each contrast's plan builds its group once and its solve reads it: three
    # contrasts, three groups, and one probe and one residual apply each
    solve_density(sys_h6, _halved_contrasts(0.5), unit_inc(sys_h6.n_cells))
    assert work == {"_find_group": 3, "apply": 6}


def test_symmetry_on_the_gmres_path_builds_no_group(sys_h6, monkeypatch, work):
    # above DIRECT_CAP no solve factors a block: symmetry names the path,
    # lists no block and finds no group
    monkeypatch.setattr(vie, "DIRECT_CAP", 1)
    assert sys_h6.symmetry(iso_contrast(1.0, 2.0)) == ("none (the GMRES path)", [])
    assert work["_find_group"] == 0


def test_residual_tolerance_follows_the_plan_path(sys_h6, monkeypatch):
    # a density off by 1e-9 relative fails the dense path's 1e-10 and passes
    # the GMRES path's 1e-8; _residual reads the path of the plan it is
    # given, not the cap at the time of the check
    c = iso_contrast(1.0, 2.0)
    g = unit_inc(sys_h6.n_cells)
    h = solve_density(sys_h6, c, g).values * (1.0 + 1e-9)
    dense = vie._Plan(sys_h6, c)
    monkeypatch.setattr(vie, "DIRECT_CAP", 1)
    gmres = vie._Plan(sys_h6, c)
    assert dense.dense and not gmres.dense
    with pytest.raises(RuntimeError, match="exceeds 1e-10"):
        vie._residual(sys_h6, dense, h, g)
    assert vie._residual(sys_h6, gmres, h, g) == pytest.approx(1e-9, rel=1e-3)


@pytest.mark.parametrize("case", ["iso", "aniso"])
def test_solve_density_real_fields_match_their_complex_copy(sys_h6, rng, case):
    c = iso_contrast(1.0, 2.0) if case == "iso" else aniso_contrast(SymTensor3.identity(),
                                                                     A_TILDE)
    g = rng.standard_normal((4, sys_h6.n_cells, 3))
    real, cplx = solve_density(sys_h6, c, g), solve_density(sys_h6, c, g.astype(complex))
    assert real.values.dtype == complex
    np.testing.assert_allclose(real.values, cplx.values, rtol=1e-15, atol=0.0)
    assert real.residual == pytest.approx(cplx.residual, rel=1e-12)


def test_zero_contrast_gives_complex_zeros_for_real_fields(sys_h6):
    g = np.ones((2, sys_h6.n_cells, 3))
    dens = solve_density(sys_h6, iso_contrast(1.0, 1.0), g)
    assert dens.values.dtype == complex and dens.values.shape == g.shape
    assert not np.any(dens.values)


def test_born_limit(sys_h6):
    # full solve approaches the Born density as the contrast vanishes
    g = unit_inc(sys_h6.n_cells)
    for a_t, band in ((1.0 + 1e-4, 1e-3), (1.0 + 1e-2, 1e-1)):
        c = iso_contrast(1.0, a_t)
        full = solve_density(sys_h6, c, g).values
        born = born_density(c, g, sys_h6.grid).values
        rel = np.linalg.norm(full - born) / np.linalg.norm(born)
        assert 0.0 < rel < band


def test_static_interior_gradient_factor(sys_static_h8):
    # uniform incident gradient in a coefficient-2 ball: interior factor 3/(2+a_t)
    c = iso_contrast(1.0, 2.0)
    g = unit_inc(sys_static_h8.n_cells)
    dens = solve_density(sys_static_h8, c, g)
    fac = dens.values[:, 2].real.mean()
    assert fac == pytest.approx(0.75, rel=2e-2)
    assert np.abs(dens.values.imag).max() < 1e-12


def test_static_self_action_third(sys_static_h8):
    # grad W_0 applied to a constant field over the ball averages to -1/3
    g = unit_inc(sys_static_h8.n_cells)
    act = sys_static_h8.apply(g)
    assert act[:, 2].real.mean() == pytest.approx(-1.0 / 3.0, rel=1e-10)
    # transverse components cancel only on average over the symmetric grid
    assert np.abs(act[:, (0, 1)].mean(axis=0)).max() < 1e-13


def test_operator_norms_frozen(sys_h6):
    c = iso_contrast(1.0, 2.0)
    est_r = operator_norm(sys_h6, which="R_kappa", contrast=c)
    est_qr = operator_norm(sys_h6, which="qR_kappa", contrast=c)
    assert est_r == pytest.approx(NORM_R, rel=1e-9)
    assert est_qr == pytest.approx(NORM_QR, rel=1e-9)
    assert est_r >= NORM_R_POWER
    assert est_qr >= NORM_QR_POWER


def test_operator_norm_vs_dense_svd(sys_h6, bg_unit):
    c = iso_contrast(1.0, 2.0)
    n3 = 3 * sys_h6.n_cells
    dense = np.eye(n3, dtype=complex) + 2.0 * bg_unit.iso_a * sys_h6.dense()
    top = float(np.linalg.svd(c.q * dense, compute_uv=False)[0])
    est = operator_norm(sys_h6, which="qR_kappa", contrast=c)
    assert est <= top * (1.0 + 1e-9)
    assert abs(est - top) / top < 2e-3


# Golub-Kahan-Lanczos estimates for a tensor contrast in an anisotropic
# background (seed 0), and the lower power-iteration values they replaced
NORM_TENSOR = {"qR_kappa": 0.4474551000366767, "qRq": 0.4469520818633888}
NORM_TENSOR_POWER = {"qR_kappa": 0.4462473254473686, "qRq": 0.4455693810394928}


@pytest.mark.parametrize("which", sorted(NORM_TENSOR))
def test_operator_norm_tensor_factors_vs_dense_svd(ball_grid_h6, which):
    bg_a = SymTensor3.diag(1.2, 0.9, 1.1)
    sys = assemble(ball_grid_h6, Background(A=bg_a, kappa=1.0))
    c = aniso_contrast(bg_a, A_TILDE)
    n = sys.n_cells
    ah = sys.bg.sqrt_A
    r = 2.0 * np.einsum("ab,ibjc,cd->iajd", ah, sys.dense().reshape(n, 3, n, 3), ah)
    r[np.arange(n), :, np.arange(n), :] += np.eye(3)
    left, right = (c.Q, np.eye(3)) if which == "qR_kappa" else (c.q_mat, c.q_mat.T)
    op = np.einsum("ab,ibjc,cd->iajd", left, r, right).reshape(3 * n, 3 * n)
    top = float(np.linalg.svd(op, compute_uv=False)[0])
    est = operator_norm(sys, which=which, contrast=c)
    assert est <= top * (1.0 + 1e-9)
    assert abs(est - top) / top < 2e-3
    assert est == pytest.approx(NORM_TENSOR[which], rel=1e-9)
    assert est >= NORM_TENSOR_POWER[which]


@pytest.fixture()
def r_applies(monkeypatch):
    """The shape of each vector passed to VieSystem.r_apply so far, one entry a call."""
    calls = []
    r_apply = VieSystem.r_apply

    def counted(self, v, left=None, right=None):
        calls.append(v.shape)
        return r_apply(self, v, left, right)

    monkeypatch.setattr(VieSystem, "r_apply", counted)
    return calls


def test_operator_norm_apply_count(sys_h6, r_applies):
    # every product with the operator or its adjoint is one r_apply; the power
    # iteration took 80 (40 steps) on this system, GKL takes 53: 27 steps of
    # M v and 26 of M^H u, since the loop stops before the last adjoint product
    operator_norm(sys_h6, which="qR_kappa", contrast=iso_contrast(1.0, 2.0))
    assert r_applies == [(3 * sys_h6.n_cells,)] * 53


# one isotropic cell makes R_kappa a multiple of I, and the two-cell operator
# has four distinct singular values: beta_1 or beta_4 is roundoff, and the loop
# returns after that step's M^H product instead of dividing by it
@pytest.mark.parametrize(("cells", "applies"), [(1, 2), (2, 8)])
def test_operator_norm_exact_on_tiny_grids(ball_grid_h6, bg_unit, cells, applies, r_applies):
    grid = dataclasses.replace(ball_grid_h6, centers=ball_grid_h6.centers[:cells])
    sys = assemble(grid, bg_unit)
    top = np.linalg.svd(np.eye(3 * cells) + 2.0 * sys.dense(), compute_uv=False)[0]
    assert operator_norm(sys) == pytest.approx(top, rel=1e-12)
    assert len(r_applies) == applies


class _RankOne:
    """A stand-in system whose R_kappa is the complex-symmetric x x^T on 12 unknowns."""

    n_cells = 4

    def __init__(self, rng):
        self.x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        self.applies = 0

    def r_apply(self, v, left, right):
        self.applies += 1
        return self.x * (self.x @ v)


def test_operator_norm_stops_when_alpha_vanishes(rng):
    # M v_2 lies in span(u_1), so alpha_2 is roundoff: the loop returns the
    # bidiagonal's sigma_max after M, M^H, M instead of dividing by alpha_2
    sys = _RankOne(rng)
    assert operator_norm(sys) == pytest.approx(np.linalg.norm(sys.x) ** 2, rel=1e-14)
    assert sys.applies == 3


def test_operator_norm_of_matched_contrast_is_zero(sys_h6, r_applies):
    assert operator_norm(sys_h6, which="qR_kappa", contrast=iso_contrast(1.0, 1.0)) == 0.0
    assert len(r_applies) == 1


# a contrast of another background: a = 3 against the a = 1 system, and a
# tensor contrast whose A is not the system's
FOREIGN_CONTRASTS = {
    "iso": (iso_contrast(3.0, 6.0), "isotropic contrast requires background A = a I"),
    "aniso": (aniso_contrast(SymTensor3.diag(1.2, 0.9, 1.1), SymTensor3.diag(2.0, 2.0, 3.0)),
              "contrast.A must match the background tensor"),
}


@pytest.mark.parametrize("which", ["qR_kappa", "qRq"])
@pytest.mark.parametrize("kind", sorted(FOREIGN_CONTRASTS))
def test_operator_norm_rejects_a_contrast_of_another_background(sys_h6, kind, which):
    contrast, message = FOREIGN_CONTRASTS[kind]
    with pytest.raises(ValueError, match=message):
        operator_norm(sys_h6, which=which, contrast=contrast)
    with pytest.raises(ValueError, match=message):
        solve_density(sys_h6, contrast, unit_inc(sys_h6.n_cells))


def test_operator_norm_scales_with_q(sys_h6):
    big = operator_norm(sys_h6, which="qR_kappa", contrast=iso_contrast(1.0, 2.0))
    small = operator_norm(sys_h6, which="qR_kappa", contrast=iso_contrast(1.0, 1.4))
    q_big = iso_contrast(1.0, 2.0).q
    q_small = iso_contrast(1.0, 1.4).q
    assert small / big == pytest.approx(q_small / q_big, rel=1e-6)


# solve_density (sign-split system, LDL^T) against the dense direct form of the
# test-side reference: q > 0; q < 0, where sigma = i I while the direct form
# stays real; and a mixed-sign tensor contrast in an anisotropic background,
# where sigma has 1 and i entries and I - Q R_kappa is not symmetric
BG_ANISO = SymTensor3.diag(1.2, 0.9, 1.1)
MB_CASES = {
    "q_pos": (None, iso_contrast(1.0, 2.0)),
    "q_neg": (None, iso_contrast(1.0, 0.5)),
    "aniso_mixed_sign": (BG_ANISO, aniso_contrast(BG_ANISO, SymTensor3.from_matrix(
        [[2.0, 0.3, 0.0], [0.3, 0.6, 0.1], [0.0, 0.1, 1.5]]))),
}


@pytest.mark.parametrize("case", sorted(MB_CASES))
def test_solve_density_matches_dense_mb_reference(sys_h6, rng, mb_reference, case):
    bg_a, c = MB_CASES[case]
    sys = sys_h6 if bg_a is None else assemble(sys_h6.grid, Background(A=bg_a, kappa=1.0))
    if bg_a is not None:
        assert sorted(np.diagonal(c.sigma2)) == [-1.0, 1.0, 1.0]
    g = rng.standard_normal((sys.n_cells, 3)) + 1j * rng.standard_normal((sys.n_cells, 3))
    got = solve_density(sys, c, g).values
    np.testing.assert_allclose(got, mb_reference(sys, c, g), rtol=1e-10)


def test_gmres_path_matches_dense(sys_h6, monkeypatch):
    c = iso_contrast(1.0, 2.0)
    g = unit_inc(sys_h6.n_cells)
    dense_dens = solve_density(sys_h6, c, g).values
    monkeypatch.setattr(vie, "DIRECT_CAP", 1)
    it_dens = solve_density(sys_h6, c, g).values
    np.testing.assert_allclose(it_dens, dense_dens, rtol=1e-7)


def _count_applies(monkeypatch):
    """A list that grows by one at every VieSystem.apply call."""
    calls, apply = [], VieSystem.apply
    monkeypatch.setattr(VieSystem, "apply", lambda self, *args: calls.append(1) or apply(self,
                                                                                         *args))
    return calls


def _halved_contrasts(q0):
    """IsoContrasts of a = 1 with q = q0, q0 / 2 and q0 / 4."""
    return [iso_contrast(1.0, 1.0 + 2.0 * q / (1.0 - q)) for q in (q0, q0 / 2, q0 / 4)]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("q0", [0.5, -0.5], ids=["q_pos", "q_neg"])
def test_shared_shifted_solve_matches_per_contrast_dense_solves(sys_h6, rng, monkeypatch, q0, k):
    # one Arnoldi basis of R_kappa per field serves every contrast (sigma = i
    # for q < 0); it costs at most the largest single-contrast solve plus one
    # residual apply per contrast
    contrasts = _halved_contrasts(q0)
    assert [c.q for c in contrasts] == pytest.approx([q0, q0 / 2, q0 / 4])
    shape = (k, sys_h6.n_cells, 3) if k > 1 else (sys_h6.n_cells, 3)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    dense = [solve_density(sys_h6, c, g).values for c in contrasts]
    monkeypatch.setattr(vie, "DIRECT_CAP", 1)
    calls = _count_applies(monkeypatch)
    singles = []
    for c in contrasts:
        calls.clear()
        solve_density(sys_h6, c, g)
        singles.append(len(calls))
    calls.clear()
    shared = solve_density(sys_h6, contrasts, g)
    assert len(calls) <= max(singles) + len(contrasts)
    assert len(shared) == len(contrasts)
    for c, dens, want in zip(contrasts, shared, dense):
        assert isinstance(dens, DensityField) and dens.values.shape == shape
        assert dens.residual < 1e-8
        np.testing.assert_allclose(dens.values, want, rtol=1e-7, atol=1e-7 * np.abs(want).max())
        if k == 1:  # each density's own residual, with no random combination
            target = g * c.beta
            res = (np.linalg.norm(dens.values - sys_h6.apply(dens.values) * c.beta - target)
                   / np.linalg.norm(target))
            assert dens.residual == pytest.approx(res, rel=1e-12)


def test_shared_solve_checks_each_contrast_residual(sys_h6, monkeypatch):
    # an error in the solution of one shift is caught by its own residual
    monkeypatch.setattr(vie, "DIRECT_CAP", 1)
    gmres = vie._gmres

    def corrupt_last(*args):
        x = gmres(*args)
        x[-1] *= 1.0 + 1e-6
        return x

    monkeypatch.setattr(vie, "_gmres", corrupt_last)
    with pytest.raises(RuntimeError, match="VIE residual"):
        solve_density(sys_h6, _halved_contrasts(0.5), unit_inc(sys_h6.n_cells))


def test_contrast_sequence_on_the_dense_path_is_the_per_contrast_solves(sys_h6, rng):
    contrasts = _halved_contrasts(0.5) + [iso_contrast(1.0, 1.0)]
    g = rng.standard_normal((2, sys_h6.n_cells, 3))
    for got, c in zip(solve_density(sys_h6, tuple(contrasts), g), contrasts, strict=True):
        want = solve_density(sys_h6, c, g)
        assert np.array_equal(got.values, want.values) and got.residual == want.residual


@pytest.mark.parametrize("path", ["dense", "gmres"])
@pytest.mark.parametrize("bad", ["tensor", "other_background", "empty"])
def test_contrast_sequence_is_checked_before_any_apply(sys_h6, monkeypatch, path, bad):
    if path == "gmres":
        monkeypatch.setattr(vie, "DIRECT_CAP", 1)
    extra = {"tensor": [aniso_contrast(SymTensor3.identity(), A_TILDE)],
             "other_background": [iso_contrast(2.0, 3.0)], "empty": None}[bad]
    contrasts = [] if extra is None else _halved_contrasts(0.5) + extra
    calls = _count_applies(monkeypatch)
    with pytest.raises(ValueError):
        solve_density(sys_h6, contrasts, unit_inc(sys_h6.n_cells))
    assert calls == []


def test_gmres_stall_raises_with_its_residual(sys_h6, monkeypatch):
    monkeypatch.setattr(vie, "DIRECT_CAP", 1)
    monkeypatch.setattr(vie, "_GMRES_BASIS", 2)
    monkeypatch.setattr(vie, "_GMRES_CYCLES", 2)
    g = unit_inc(sys_h6.n_cells)
    for contrast in (iso_contrast(1.0, 2.0), _halved_contrasts(0.5)):
        with pytest.raises(RuntimeError, match=r"GMRES stalled .* residual \d\.\d{3}e-0\d"):
            solve_density(sys_h6, contrast, g)


def test_gmres_restarts_a_shift_that_outgrows_the_basis(sys_h6, monkeypatch):
    # with 5 vectors a cycle, shifts that need more continue alone from their
    # iterate and still reach the dense solution
    contrasts = _halved_contrasts(0.5)
    g = unit_inc(sys_h6.n_cells)
    dense = [solve_density(sys_h6, c, g).values for c in contrasts]
    monkeypatch.setattr(vie, "DIRECT_CAP", 1)
    calls = _count_applies(monkeypatch)
    solve_density(sys_h6, contrasts[0], g)
    assert len(calls) > 5 + 1  # one cycle of 5 vectors would not do
    monkeypatch.setattr(vie, "_GMRES_BASIS", 5)
    for dens, want in zip(solve_density(sys_h6, contrasts, g), dense):
        assert dens.residual < 1e-8
        np.testing.assert_allclose(dens.values, want, rtol=1e-7, atol=1e-7 * np.abs(want).max())


@pytest.mark.parametrize("basis", [200, 4])
def test_gmres_solves_every_shift_of_a_small_matrix(rng, monkeypatch, basis):
    # complex shifts of a 40 x 40 matrix against dense solves; with 4 vectors a
    # cycle every shift is restarted
    monkeypatch.setattr(vie, "_GMRES_BASIS", basis)
    n = 40
    a = 2.0 * np.eye(n) + 0.2 * (rng.standard_normal((n, n))
                                 + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    shifts = [(0.0, 1.0), (1.0, -0.3), (2.0, 0.5j), (1.0, 0.0)]
    x = vie._gmres(lambda v: a @ v, b, shifts)
    for (alpha, beta), xj in zip(shifts, x, strict=True):
        m = alpha * np.eye(n) + beta * a
        assert np.linalg.norm(m @ xj - b) <= 1e-10 * np.linalg.norm(b)
        np.testing.assert_allclose(xj, np.linalg.solve(m, b), rtol=1e-8)
    assert not np.any(vie._gmres(lambda v: a @ v, np.zeros(n, dtype=complex), shifts))


def test_gmres_stops_on_an_invariant_krylov_space():
    # b spans three eigenvectors of a diagonal A: the third Arnoldi step finds
    # the space invariant, and every shift is solved exactly there
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    b = np.array([1.0, 1.0, 1.0, 0.0, 0.0], dtype=complex)
    calls = []
    x = vie._gmres(lambda v: calls.append(1) or a * v, b, [(0.0, 1.0), (1.0, -0.1)])
    assert len(calls) == 3
    np.testing.assert_allclose(x, [b / a, b / (1.0 - 0.1 * a)], rtol=1e-13, atol=1e-15)


def test_gmres_memory_follows_its_steps_not_the_basis_cap(rng, monkeypatch):
    # a diagonal A with eigenvalues in [1, 1.3] converges in about ten steps;
    # the basis holds only the vectors those steps make, so the traced peak
    # is a few vectors above the step count, whatever _GMRES_BASIS allows
    n = 20000
    a = 1.0 + 0.3 * rng.random(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    shifts = [(0.0, 1.0), (1.0, -0.5)]
    vector = b.nbytes
    peaks = []
    for basis in (200, 20):
        monkeypatch.setattr(vie, "_GMRES_BASIS", basis)
        calls = []
        x, peak = peak_bytes(vie._gmres, lambda v: calls.append(1) or a * v, b, shifts)
        assert 5 <= len(calls) <= 15
        for (alpha, beta), xj in zip(shifts, x, strict=True):
            assert np.linalg.norm((alpha + beta * a) * xj - b) <= 1e-10 * np.linalg.norm(b)
        assert peak < (len(calls) + 7) * vector  # measured steps + 5.1
        peaks.append(peak)
    assert abs(peaks[0] - peaks[1]) < vector / 4


def _walsh_one_pass(y):
    """The Hadamard transform in one butterfly pass over the whole array."""
    h = 1
    while h < len(y):
        for i in range(0, len(y), 2 * h):
            a, b = y[i : i + h], y[i + h : i + 2 * h]
            diff = a - b
            a += b
            b[...] = diff
        h *= 2
    return y


@pytest.mark.parametrize("chunk", [None, 1])
def test_transform_runs_in_chunks_with_the_bits_of_one_pass(rng, monkeypatch, bg_unit, chunk):
    # V^T and V multiply a chunk of orbits at a time in place (two orbits of
    # 48 unknowns at the default chunk, one with chunk = 1): the extra memory
    # stays below a sixteenth of buf (0.044 and 0.018 times buf measured;
    # one product of every orbit of a size at once peaked at 0.82 times it)
    # and the result is bitwise the product of every orbit block at once.
    # V V^T = 2^s I brings buf back.
    if chunk is not None:
        monkeypatch.setattr(vie, "_ROUTE_CHUNK", chunk)
    sys = assemble(voxelize(Ball(0.5), 1.0 / 12.0), bg_unit)
    group, _ = _group_and_factors(sys, iso_contrast(1.0, 2.0))
    assert group.order == 48 and max(len(mat) for *_, mat in group.types) == 48
    shape = (group.unknown.size, 256)
    buf = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = buf.copy()
    flat = want.view(float)
    for start, n, mat in group.types:
        part = flat[start : start + n * len(mat)].reshape(n, len(mat), -1)
        part[...] = mat.T @ part
    got = buf.copy()
    _, peak = peak_bytes(group.transform, got, True)
    assert np.array_equal(got, want)
    assert peak < got.nbytes / 16
    group.transform(got)
    assert np.abs(got / len(group.cells) - buf).max() <= 1e-13


def test_dense_residual_probe_catches_wrong_factorization(sys_h6, monkeypatch):
    c = iso_contrast(1.0, 2.0)
    g = unit_inc(sys_h6.n_cells)
    assert solve_density(sys_h6, c, g).residual < 1e-10
    # factor the blocks of another contrast in place of this contrast's
    gather = VieSystem._gather_blocks
    other = _system_factors(iso_contrast(1.0, 3.0), sys_h6.bg)
    monkeypatch.setattr(VieSystem, "_gather_blocks",
                        lambda self, group, *args: gather(self, group, *other))
    with pytest.raises(RuntimeError, match="residual probe"):
        solve_density(sys_h6, c, g)


# systems of the block pairing 1/2 F^H M_B F: (grid, background, contrast,
# centre of the regular waves F, order of the group the dense solve finds)
def _pairing_cases():
    iso = Background.isotropic(a=1.0, kappa=1.0)
    ball = voxelize(Ball(0.5), 1.0 / 6.0)
    origin = (0.0, 0.0, 0.0)
    return {
        "centred_ball": (ball, iso, iso_contrast(1.0, 2.0), origin, 48),
        "one_swap_ellipsoid": (voxelize(Ellipsoid((0.5, 0.5, 0.3)), 1.0 / 8.0), iso,
                               iso_contrast(1.0, 2.0), origin, 16),
        "distinct_axes_ellipsoid": (voxelize(Ellipsoid((0.5, 0.4, 0.3)), 1.0 / 8.0), iso,
                                    iso_contrast(1.0, 0.5), origin, 8),
        # sigma = i on the y row; the x <-> z swap of the equal eigenvalues stays
        "sigma_i_tensor_contrast": (ball, iso, aniso_contrast(iso.A, SymTensor3.diag(
            2.0, 0.5, 2.0)), origin, 16),
        # waves about another centre reach every block
        "off_centre_fields": (ball, iso, iso_contrast(1.0, 2.0), (0.2, -0.1, 0.15), 48),
        "no_mirror_axis": (dataclasses.replace(ball, centers=ball.centers[1:]), iso,
                           iso_contrast(1.0, 2.0), origin, 1),
        # a 2 x 2 x 2 block of cells: the A2 blocks hold no row
        "eight_cells": (dataclasses.replace(ball, centers=np.array(list(itertools.product(
            (-0.5, 0.5), repeat=3))) / 6.0), iso, iso_contrast(1.0, 2.0), origin, 48),
    }


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("case", sorted(_pairing_cases()) + ["gmres"])
def test_half_pairing_matches_the_dense_reference(mb_reference, block_rhs, monkeypatch, case,
                                                  kind):
    # 1/2 F^H M_B F paired in the blocks against the test-side dense solve,
    # for the real and the complex basis of the regular waves of degree <= 5;
    # "gmres" is the centred ball above DIRECT_CAP
    grid, bg, contrast, centre, order = _pairing_cases()["centred_ball" if case == "gmres"
                                                          else case]
    sys = assemble(grid, bg)
    assert sys.symmetry(contrast)[0].endswith(f"({order} elements)")
    waves = regular_wave_gradients(5, 1.0, grid.centers - np.asarray(centre))
    fields = _real_basis(waves) if kind == "real" else waves
    if case == "gmres":
        monkeypatch.setattr(vie, "DIRECT_CAP", 1)
    got = vie._half_pairing(sys, contrast, fields)
    p = len(fields)
    want = 0.5 * fields.conj().reshape(p, -1) @ mb_reference(sys, contrast, fields).reshape(p, -1).T
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    if case == "off_centre_fields":
        assert block_rhs and all(call.rhs.shape[1] > 0 for call in block_rhs)
    assert (not block_rhs) == (case == "gmres")


def test_half_pairing_maps_back_one_column(sys_h6, monkeypatch):
    # the solved columns stay in the blocks: only the seeded combination X r
    # goes back to the full layout, for the probe and the residual
    calls = []
    backward = vie._backward

    def spy(group, coords, out):
        calls.append((coords.shape, out.shape))
        return backward(group, coords, out)

    monkeypatch.setattr(vie, "_backward", spy)
    waves = _real_basis(regular_wave_gradients(5, 1.0, sys_h6.grid.centers))
    vie._half_pairing(sys_h6, iso_contrast(1.0, 2.0), waves)
    assert calls == [((3 * sys_h6.n_cells, 1), (3 * sys_h6.n_cells, 1))]


def test_pairing_residual_probe_catches_wrong_factorization(sys_h6, monkeypatch):
    c = iso_contrast(1.0, 2.0)
    waves = _real_basis(regular_wave_gradients(3, 1.0, sys_h6.grid.centers))
    vie._half_pairing(sys_h6, c, waves)
    # factor the blocks of another contrast in place of this contrast's
    gather = VieSystem._gather_blocks
    other = _system_factors(iso_contrast(1.0, 3.0), sys_h6.bg)
    monkeypatch.setattr(VieSystem, "_gather_blocks",
                        lambda self, group, *args: gather(self, group, *other))
    with pytest.raises(RuntimeError, match="residual probe"):
        vie._half_pairing(sys_h6, c, waves)


def test_half_pairing_peak_memory(sys_h6):
    # the pairing of the h6 ball's 196 real waves holds neither their complex
    # right-hand sides in the full layout nor a full-layout solution, and the
    # forward route V^T x holds one chunk of columns and the reached segments
    # only: its tracemalloc peak, in the forward route and the gather alike,
    # stays below 1.08 times the waves' bytes in complex, 4% above the 1.04
    # times measured (1.05 times with every block's rows held until the last
    # block; the route through the mirror-character shares of a chunk peaked
    # at 1.46 times them, the route through solve_density and a P x 3N
    # product at 2.97 times, the block pairing from the shares of every
    # character and column at 1.64 times)
    waves = _real_basis(regular_wave_gradients(13, 1.0, sys_h6.grid.centers))
    assert waves.shape == (196, sys_h6.n_cells, 3)
    _, peak = peak_bytes(vie._half_pairing, sys_h6, iso_contrast(1.0, 2.0), waves)
    assert peak < 1.08 * 16 * waves.size


def test_half_pairing_peak_memory_when_the_waves_reach_every_block(bg_unit, mb_reference,
                                                                   monkeypatch):
    # the finite-delta study's largest trial ball (radius 0.2 at (0.2, 0.05,
    # -0.1), 8 cells across) against the 196 real waves about the origin:
    # every wave reaches every block, so the routed right-hand sides are as
    # large as the waves.  Each block is taken from the gather's stream, its
    # right-hand sides copied just before its solve, paired and dropped, so
    # the tracemalloc peak, in the block loop, stays below 2.1 times the
    # waves' bytes in complex, 3% above the 2.04 times measured (2.07 times
    # with every block's rows held until the last block, 2.13 times through
    # the mirror-character shares; copying every block's right-hand sides
    # before the solves, beside the list of every block, peaked at 2.97
    # times them)
    grid = voxelize(Ball(0.2, center=(0.2, 0.05, -0.1)), 0.4 / 8)
    sys = assemble(grid, bg_unit)
    contrast = iso_contrast(1.0, 2.0)
    assert sys.symmetry(contrast)[0].endswith("(48 elements)")
    waves = _real_basis(regular_wave_gradients(13, 1.0, grid.centers))
    assert waves.shape == (196, 280, 3)
    columns = []  # per zsysv call, the columns it solves
    zsysv = vie.zsysv
    monkeypatch.setattr(vie, "zsysv", lambda a, b, **kw: columns.append(b.shape[1]) or zsysv(
        a, b, **kw))
    got, peak = peak_bytes(vie._half_pairing, sys, contrast, waves)
    assert len(columns) == 10 and min(columns) > 0
    assert peak < 2.1 * 16 * waves.size
    p = len(waves)
    want = 0.5 * waves.reshape(p, -1) @ mb_reference(sys, contrast, waves).reshape(p, -1).T
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _route_full_layout(group, cols, lift, conj):
    """The forward route of every column at once, as vie._forward returns it:
    V^T x of all the columns in the full layout, one product per orbit size,
    each block's segments read at its layout positions, the _LEAK floors
    taken from the squared norms of the segments and of all the column's
    coordinates, and each block's reached segments cut from it."""
    ys = []
    for x in [cols, cols.conj()] if conj else [cols]:
        y = vie._lifted(x, lift).reshape(len(x), -1).T[group.unknown]
        flat = y.view(float)
        for start, n, mat in group.types:
            part = flat[start : start + n * len(mat)].reshape(n, len(mat), -1)
            part[...] = mat.T @ part
        ys.append(y)
    total = (ys[0].real**2 + ys[0].imag**2).sum(axis=0)
    routed = []
    for _, at, *_ in group.blocks:
        seg_y = [y[at].transpose(0, 2, 1) for y in ys]
        norm = (seg_y[0].real**2 + seg_y[0].imag**2).sum(axis=2)
        seg, col = np.nonzero(norm > vie._LEAK**2 * total)
        routed.append((seg_y[0][seg, col], seg, col, seg_y[1][seg, col] if conj else None))
    return routed


def _block_starts(group):
    """The first column of each block in V's column order (see _dense_basis)."""
    return np.cumsum([0] + [at.size for _, at, *_ in group.blocks])[:-1]


@pytest.mark.parametrize("chunk", [None, 1, 7], ids=["default", "one_column", "seven_columns"])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("case", ["centred_ball", "one_swap_ellipsoid", "off_centre_fields",
                                  "no_mirror_axis"])
def test_route_keeps_the_reached_shares_with_the_bits_of_the_full_layout(monkeypatch, case, kind,
                                                                         chunk):
    # the forward route V^T x runs a chunk of columns at a time (one column,
    # or seven of the 37, at the smaller chunks) and keeps each block's
    # reached segments only: its parts, segments and columns, and for complex
    # fields the parts of their conjugates, are those routed from V^T x of
    # every column at once (bitwise at the default chunk, which holds them
    # all; within 1e-14 of the column's largest coordinate at the others,
    # whose products are narrower), and V^T x is the dense basis's within
    # 1e-14.  An all-zero column reaches no block.
    grid, bg, contrast, centre, _ = _pairing_cases()[case]
    sys = assemble(grid, bg)
    group, factors = _group_and_factors(sys, contrast)
    waves = regular_wave_gradients(5, 1.0, grid.centers - np.asarray(centre))
    fields = _real_basis(waves) if kind == "real" else waves
    fields = np.concatenate([fields, np.zeros_like(fields[:1])])
    assert vie._ROUTE_CHUNK >= len(fields) * group.unknown.size
    if chunk is not None:
        monkeypatch.setattr(vie, "_ROUTE_CHUNK", chunk * group.unknown.size)
    lift = -factors[0]
    got = vie._forward(group, fields, lift, kind == "complex")
    want = _route_full_layout(group, fields, lift, kind == "complex")
    coords = vie._lifted(fields, lift).reshape(len(fields), -1) @ _dense_basis(group)
    scale = np.abs(coords).max(axis=1)
    assert len(got) == len(want) == len(group.blocks)
    for (_, at, *_), start, g, w in zip(group.blocks, _block_starts(group), got, want):
        m = at.shape[1]
        # the route keeps the segments chunk by chunk, in a chunk segment by
        # segment: taken column by column, they are the full layout's
        g_at, w_at = np.lexsort(g[1:3]), np.lexsort(w[1:3])
        if chunk is None:
            assert np.array_equal(g_at, w_at)
        assert np.array_equal(g[1][g_at], w[1][w_at]) and np.array_equal(g[2][g_at], w[2][w_at])
        for a, b, x in [(g[0], w[0], coords), (g[3], w[3], coords.conj())]:
            if b is None:
                assert a is None
                continue
            a, b = a[g_at], b[w_at]
            assert a.shape == b.shape
            if chunk is None:
                assert np.array_equal(a, b)
            seg, col = g[1][g_at], g[2][g_at]
            tol = 1e-14 * scale[col, None]
            assert np.all(np.abs(a - b) <= tol)
            dense = x[col[:, None], start + seg[:, None] * m + np.arange(m)]
            assert np.all(np.abs(a - dense) <= tol)
    assert not any(len(fields) - 1 in col for _, _, col, _ in got)


def _gather_blocks_materialised(sys, group, left, right, diag):
    """The irrep blocks of diag + left gradW right cut from the gathered rows
    (2^s, 3 len(rows), 3n) of every character, formed all at once, by the
    class and irrep arithmetic the gather used before the basis V.

    rows are the cells holding the smallest unknown u0 of each orbit of the
    axis permutations.  Rows reps of B_c are read at B_b[u0, h^-1 w] with u0
    the orbit representative of u = h u0 and b = h^-1(c); with no axis
    permutation block c is B_c itself.
    """
    table = sys._offset_blocks(left, right, np.zeros((3, 3)), list(np.ndindex(3, 3)))
    table, box = table.T.reshape(-1, 3, 3), sys.kernel_hat.shape[1:]
    group_size, n = group.cells.shape
    pos = sys.index[group.cells]
    orbit_rep = group.img.min(axis=0)
    rows = np.unique(orbit_rep // 3)
    inverse = np.array([next(j for j, q in enumerate(group.perm_axes)
                             if np.array_equal(q[p], [0, 1, 2])) for p in group.perm_axes])
    diff = pos[0, rows][None, :, None, :] - pos[:, None, :, :]
    m = table[np.ravel_multi_index(np.moveaxis(diff, -1, 0), box, mode="wrap")]
    m *= group.signs[:, None, None, None, :]
    out = _walsh_one_pass(m).transpose(0, 1, 3, 2, 4).copy()
    out[:, np.arange(len(rows)), :, rows, :] += diag
    out = out.reshape(group_size, 3 * len(rows), 3 * n)
    if len(group.perm_axes) == 1:
        return list(out)
    blocks = []
    for c, key, _ in group.classes:
        split = group.splits[key]
        reps = np.concatenate([e[:, 0] for e, *_ in split.types])
        u0 = orbit_rep[reps]
        h_inv = inverse[np.argmax(group.img[:, u0] == reps, axis=0)]
        at = 3 * np.searchsorted(rows, u0 // 3) + u0 % 3
        blocks += _split_blocks_at_once(split, out[group.image[h_inv, c][:, None], at[:, None],
                                                   group.img[h_inv]])
    return blocks


def _widths(split, irrep):
    """The number of vectors w of each irrep on a type of split, from the
    irrep of each column of its F."""
    return [np.count_nonzero(irrep == r) // d for r, d in enumerate(split.dims)]


def _project(split, rows):
    """The coordinates (d, K, m) per irrep of the rows (K, 3n) on the row-l
    vectors V_l of split: type by type, orbit by orbit and w by w."""
    out = [np.empty((d, len(rows), m), dtype=complex) for d, m in zip(split.dims, split.sizes)]
    at = [0] * len(out)
    for e, f, irrep, *_ in split.types:
        prod = rows[:, e] @ f
        off = 0
        for r, (coords, d, w) in enumerate(zip(out, split.dims, _widths(split, irrep))):
            for l in range(d):
                coords[l, :, at[r] : at[r] + len(e) * w] = (
                    prod[:, :, off + l * w : off + (l + 1) * w].reshape(len(rows), -1))
            at[r] += len(e) * w
            off += d * w
    return out


def _split_blocks_at_once(split, rows):
    """The irrep blocks of split from the rows of B at its orbit
    representatives (type by type), every row projected at once:
    B_rho[(u, w), :] = sum_l G[w, l] B[u, :] V_l, with G = |O| / d F[u, (l,
    w)]^T read at the representative u of each orbit O of the type."""
    if len(split.names) == 1:
        return [rows]
    bv = _project(split, rows)
    out = []
    for r, (d, m) in enumerate(zip(split.dims, split.sizes)):
        block = np.empty((m, m), dtype=complex)
        start = stop = 0
        for e, f, irrep, *_ in split.types:
            widths = _widths(split, irrep)
            w = widths[r]
            off = sum(dd * ww for dd, ww in zip(split.dims[:r], widths))
            g = e.shape[1] / d * f[0, off : off + d * w].reshape(d, w).T
            block[stop : stop + len(e) * w] = np.einsum(
                "wl,lnm->nwm", g, bv[r][:, start : start + len(e)]).reshape(-1, m)
            start += len(e)
            stop += len(e) * w
        out.append(block)
    return out


def _dense_basis(group):
    """The group's basis V (3N, 3N) as one dense real matrix, from its orbit
    blocks, its columns block by block, segment by segment, in the order of
    each block's layout positions at."""
    n3 = group.unknown.size
    # the column of V at each layout position
    column = np.argsort(np.concatenate([at.ravel() for _, at, *_ in group.blocks]))
    v = np.zeros((n3, n3))
    for start, n, mat in group.types:
        at = slice(start, start + n * len(mat))
        rows = group.unknown[at].reshape(n, len(mat))
        v[rows[:, :, None], column[at].reshape(n, len(mat))[:, None, :]] = mat
    return v


def _group_and_factors(sys, contrast):
    factors = _system_factors(contrast, sys.bg)
    return vie._orbits(sys.index, sys.bg.A.matrix, *factors), factors


# the five kinds of group of the dense solve: the cube group, the mirrors and
# one swap (of the axes, and of the unknowns' rows with a tensor contrast),
# the mirrors alone and the one-element group
GROUP_CASES = ["centred_ball", "one_swap_ellipsoid", "sigma_i_tensor_contrast",
               "distinct_axes_ellipsoid", "no_mirror_axis"]


@pytest.mark.parametrize("chunk", [None, 1])
@pytest.mark.parametrize("case", GROUP_CASES)
def test_gather_blocks_match_the_materialised_gather(monkeypatch, case, chunk):
    # the representatives' rows gathered a chunk at a time (with chunk = 1,
    # one row per chunk), multiplied by V and combined into the blocks, give
    # the blocks cut from every gathered row at once by the class and irrep
    # arithmetic of before (within 1e-14 of each block's largest entry; the
    # sums run in another order), and V_b^T M V_b / 2^s for the first
    # segment V_b of each block's columns of V, with M the one-element
    # group's gather.  On the one-element group V = I and the block is
    # bitwise M.
    if chunk is not None:
        monkeypatch.setattr(vie, "_GATHER_CHUNK", chunk)
    grid, bg, contrast, _, order = _pairing_cases()[case]
    sys = assemble(grid, bg)
    group, factors = _group_and_factors(sys, contrast)
    assert group.order == order
    got = list(sys._gather_blocks(group, *factors))
    want = _gather_blocks_materialised(sys, group, *factors)
    assert [len(b) for b in got] == [rows for _, rows in group.block_names()]
    assert len(got) == len(want)
    mat, v = sys.dense(*factors), _dense_basis(group)
    for a, b, (_, at, *_), start in zip(got, want, group.blocks, _block_starts(group)):
        rows = at.shape[1]
        assert a.flags.c_contiguous
        assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()
        v_b = v[:, start : start + rows]
        assert np.abs(a - v_b.T @ mat @ v_b / len(group.cells)).max() <= 1e-14 * np.abs(b).max()
        if order == 1:
            assert np.array_equal(a, b) and np.array_equal(a, mat)


def test_gather_blocks_peak_memory_on_the_resolution_14_ball(bg_unit):
    # the rows of M at the 106 G-orbit representatives are gathered from the
    # packed 6-entry offset table half a route chunk at a time, multiplied by
    # V in place and moved to one array per block, and the blocks are formed
    # from them one at a time, each block's array dropped once its block is
    # formed.  Consumed a block at a time, the stream's tracemalloc peak is
    # the one gather pass: the table and the representatives' rows (2.1 +
    # 7.5 MB), with the chunk's temporaries.  It stays below 1.12 times those
    # two, 2% above the 1.10 times (10.6 MB) measured; the rows held in one
    # array until the last block peaked at 1.11 times, the class rows and the
    # 9-entry table of the gather before the basis at 11.7 MB, the
    # materialised gather at 28.0 MB.  Beside the block it hands out, the
    # stream holds ever fewer rows: less than a twentieth of them by the
    # last block (0.6% measured).  The blocks match the materialised gather.
    sys = assemble(voxelize(Ball(0.5), 1.0 / 14.0), bg_unit)
    group, factors = _group_and_factors(sys, iso_contrast(1.0, 2.0))
    assert group.order == 48 and len(group.reps) == 106
    want = _gather_blocks_materialised(sys, group, *factors)

    def consume():
        base = tracemalloc.get_traced_memory()[0]
        blocks, same, held = sys._gather_blocks(group, *factors), [], []
        for b in want:
            a = next(blocks)
            held.append(tracemalloc.get_traced_memory()[0] - base - a.nbytes)
            same.append(np.abs(a - b).max() <= 1e-14 * np.abs(b).max())
            del a  # before the next block is formed
        assert next(blocks, None) is None
        return same, held

    (same, held), peak = peak_bytes(consume)
    assert same and all(same)
    rows = 16 * len(group.reps) * 3 * sys.n_cells
    table = 16 * 6 * np.prod(sys.kernel_hat.shape[1:])
    assert peak < 1.12 * (rows + table)
    assert all(b <= a for a, b in zip(held, held[1:])) and held[-1] < rows / 20


@pytest.mark.parametrize("case", GROUP_CASES)
def test_basis_is_real_orthogonal_and_block_diagonal_over_the_orbits(case):
    # V is real with V^T V = 2^s I, each orbit block is square and holds one
    # G-orbit of unknowns, and the blocks' columns, counted once per class
    # member and irrep dimension, are the 3N unknowns
    grid, bg, contrast, _, order = _pairing_cases()[case]
    sys = assemble(grid, bg)
    group, _ = _group_and_factors(sys, contrast)
    n3 = 3 * sys.n_cells
    v = _dense_basis(group)
    assert v.dtype == float
    assert np.abs(v.T @ v - len(group.cells) * np.eye(n3)).max() <= 1e-14 * len(group.cells)
    for start, n, mat in group.types:
        assert mat.shape == (len(mat), len(mat))
        size = len(mat)
        for orbit in group.unknown[start : start + n * size].reshape(-1, size):
            # the images of its first unknown (mirror g, representative
            # unknown v) under every mirror and axis permutation
            g, r = np.argwhere(group.cells == orbit[0] // 3)[0]
            v = group.img[:, 3 * r + orbit[0] % 3]
            assert set(orbit.tolist()) == set((3 * group.cells[:, v // 3] + v % 3).ravel().tolist())
    assert sorted(group.unknown.tolist()) == list(range(n3))
    total = sum((1 + len(members)) * d * rows for _, key, members in group.classes
                for d, rows in zip(group.splits[key].dims, group.splits[key].sizes))
    assert total == sum(at.size for _, at, *_ in group.blocks) == n3


def test_orbits_keeps_the_last_group_for_equal_arguments(sys_h6):
    # a study that pairs on several systems of one grid and contrast (the
    # finite-delta trial balls) builds the group once; another contrast
    # builds its own, and the last group found is the one kept
    contrast = iso_contrast(1.0, 2.0)
    group, _ = _group_and_factors(sys_h6, contrast)
    again, _ = _group_and_factors(assemble(sys_h6.grid, sys_h6.bg), contrast)
    assert again is group
    other, _ = _group_and_factors(sys_h6, iso_contrast(1.0, 0.5))
    assert other is not group and _group_and_factors(sys_h6, contrast)[0] is not group


def _arrays_reachable(obj, seen=None):
    """Every ndarray reachable from obj through containers and instance attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays_reachable(item, seen)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays_reachable(item, seen)
    elif hasattr(obj, "__dict__"):
        yield from _arrays_reachable(vars(obj), seen)


def test_system_holds_no_dense_block_after_solves(sys_h6):
    # each dense solve drops its factor: no 3N x 3N block outlives it
    g = unit_inc(sys_h6.n_cells)
    for c in (iso_contrast(1.0, 2.0), iso_contrast(1.0, 0.5)):
        assert solve_density(sys_h6, c, g).residual < 1e-10
    sizes = [a.size for a in _arrays_reachable(vars(sys_h6))]
    assert sizes and (3 * sys_h6.n_cells) ** 2 not in sizes


@pytest.mark.parametrize("k", [None, 4], ids=["one", "stacked"])
def test_resolvent_solve_dense_path_solves_in_place(sys_h6, rng, k):
    # the dense path consumes its right-hand sides: the solution takes their memory
    c = iso_contrast(1.0, 2.0)
    shape = (3 * sys_h6.n_cells,) + (() if k is None else (k,))
    rhs = np.asfortranarray(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    b = rhs.copy()
    x = vie.resolvent_solve(sys_h6, c, rhs)
    assert np.shares_memory(x, rhs)
    mat = sys_h6.dense(*_system_factors(c, sys_h6.bg))
    assert np.linalg.norm(mat @ x - b) <= 1e-10 * np.linalg.norm(b)


# the complex-symmetric system of each kind of contrast, factored with LDL^T:
# q > 0, q < 0 with sigma = i I (symmetric, not Hermitian), and a non-scalar Q
SYMMETRIC_SYSTEMS = {
    "q_pos": iso_contrast(1.0, 2.0),
    "q_neg": iso_contrast(1.0, 0.5),
    "aniso": aniso_contrast(SymTensor3.identity(), A_TILDE),
}


# the LDL^T solve against a dense solve of a reference matrix: "sigma" is the
# gathered sign-split system itself, "direct" is I - Q R_kappa, which for a
# scalar q of either sign is the same matrix
LDLT_SOLVE_CASES = {
    "q_pos_direct": ("q_pos", "direct"),
    "q_neg_direct": ("q_neg", "direct"),
    "q_neg_sigma": ("q_neg", "sigma"),
    "aniso_sigma": ("aniso", "sigma"),
}


def _reference_matrix(sys, contrast, form):
    if form == "sigma":
        return sys.dense(*_system_factors(contrast, sys.bg))
    # I - Q R = I - Q - 2 Q A^{1/2} gradW A^{1/2}
    Q, Ah = vie._contrast_parts(contrast, sys.bg)[0], sys.bg.sqrt_A
    return sys.dense(-2.0 * Q @ Ah, Ah, np.eye(3) - Q)


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("case", sorted(LDLT_SOLVE_CASES))
def test_ldlt_solve_matches_dense_solve(sys_h6, rng, case, k):
    system, form = LDLT_SOLVE_CASES[case]
    contrast = SYMMETRIC_SYSTEMS[system]
    mat = _reference_matrix(sys_h6, contrast, form)
    shape = (3 * sys_h6.n_cells, k)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = np.linalg.solve(mat, b)
    x = vie.resolvent_solve(sys_h6, contrast, np.asfortranarray(b))
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)


@pytest.fixture()
def block_rhs(monkeypatch):
    """One record per zsysv call: the block a, its right-hand sides b (3n, k), a
    copy of b taken before the call, the lwork passed, and the pivots ipiv and
    solution x returned."""
    calls = []
    zsysv = vie.zsysv

    def spy(a, b, **kwargs):
        call = SimpleNamespace(a=a, b=b, rhs=b.copy(), lwork=kwargs.get("lwork"))
        calls.append(call)
        out = zsysv(a, b, **kwargs)
        call.ipiv, call.x = out[1], out[2]
        return out

    monkeypatch.setattr(vie, "zsysv", spy)
    return calls


def _blocked_solve_single(mat, rhs):
    """_blocked_solve of a symmetric mat on the one-element group."""
    n, ident = mat.shape[0] // 3, np.arange(3)[None]
    group = vie._Group((), np.arange(n)[None], np.ones((1, 3)), ident, np.arange(n)[None], ident)
    return vie._blocked_solve([mat.copy()], group, rhs, "test matrix")


def test_ldlt_two_by_two_pivots(rng, block_rhs):
    # a zero diagonal forces Bunch-Kaufman into 2x2 blocks of D
    n = 12
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = a + a.T
    a[np.arange(n), np.arange(n)] = 0.0
    b = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    want = np.linalg.solve(a, b)
    got = _blocked_solve_single(a, b.copy(order="F"))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    got = _blocked_solve_single(a, b[:, 0].copy())
    assert np.linalg.norm(got - want[:, 0]) <= 1e-12 * np.linalg.norm(want)
    # a 2x2 block of D is marked by negative pivots
    assert [call.rhs.shape for call in block_rhs] == [(n, 3), (n, 1)]
    assert all(np.any(call.ipiv < 0) for call in block_rhs)


@pytest.mark.parametrize("case", sorted(SYMMETRIC_SYSTEMS))
def test_factorization_overwrites_the_gathered_matrix(sys_h6, rng, monkeypatch, block_rhs,
                                                     case):
    # each block is factored in the memory of its gathered block and solves its
    # columns in the memory of its right-hand sides, and no 3N x 3N array is
    # allocated besides the blocks: the ball's ten blocks hold far less than one
    gathered = []
    gather = VieSystem._gather_blocks

    def keep(self, *args):
        for block in gather(self, *args):
            gathered.append(block)
            yield block

    monkeypatch.setattr(VieSystem, "_gather_blocks", keep)
    b = np.asfortranarray(rng.standard_normal((3 * sys_h6.n_cells, 1)) + 0j)
    _, peak = peak_bytes(vie.resolvent_solve, sys_h6, SYMMETRIC_SYSTEMS[case], b)
    blocks = gathered
    assert len(block_rhs) == len(blocks)
    for block, call in zip(blocks, block_rhs):
        assert np.shares_memory(call.a, block)
        assert np.shares_memory(call.x, call.b)
    full = 16 * (3 * sys_h6.n_cells) ** 2
    assert peak < sum(block.nbytes for block in blocks) + full
    if case != "aniso":
        assert len(blocks) == 10 and peak < full


def test_blocked_factor_gets_its_workspace(sys_h6, block_rhs):
    # scipy's default lwork = n runs the unblocked factor, about half as fast
    solve_density(sys_h6, iso_contrast(1.0, 2.0), unit_inc(sys_h6.n_cells))
    assert len(block_rhs) == 10
    for call in block_rhs:
        lwork, info = vie.zsysv_lwork(call.a.shape[0], lower=1)
        assert info == 0 and call.lwork is not None and call.lwork >= lwork.real


BLOCK_3x4x4 = np.stack(np.meshgrid(np.arange(3), np.arange(4), np.arange(4), indexing="ij"),
                      axis=-1).reshape(-1, 3)


def test_mirror_axes_drop_each_axis_that_breaks_a_condition(sys_h8):
    # the ball's cell set is symmetric on every axis; an xy coupling in A or in
    # any system factor leaves only the z mirror
    eye = np.eye(3)
    xy = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for k in range(-1, 4):
        mats = [xy if j == k else eye for j in range(4)]
        group = vie._orbits(sys_h8.index, *mats)
        axes, cells = group.axes, group.cells
        assert axes == ((0, 1, 2) if k == -1 else (2,))
        # each orbit has 2^s distinct cells, and the orbits cover the grid
        assert np.array_equal(np.sort(cells.ravel()), np.arange(sys_h8.n_cells))
    # factors whose rows hold the components in another order: the z mirror
    # flips the sign of row 0 of the unknowns, not of component 2
    perm = eye[[2, 0, 1]]
    group = vie._orbits(sys_h8.index, eye, perm, perm.T, eye)
    assert group.axes == (0, 1, 2)
    np.testing.assert_array_equal(group.signs[[1, 2, 4]], [[1, -1, 1], [1, 1, -1], [-1, 1, 1]])
    group = vie._orbits(BLOCK_3x4x4, eye, eye, eye, eye)
    assert group.axes == (1, 2)
    assert np.array_equal(np.sort(group.cells.ravel()), np.arange(len(BLOCK_3x4x4)))


def _perms(group):
    return sorted(map(tuple, group.perm_axes.tolist()))


ALL_PERMS = sorted(itertools.permutations(range(3)))


def test_axis_permutations_drop_each_one_that_breaks_a_condition(sys_h8):
    # the ball keeps all six axis permutations; a z entry apart in A or in any
    # system factor leaves only the x <-> y swap
    eye = np.eye(3)
    zz = np.diag([1.0, 1.0, 2.0])
    for k in range(-1, 4):
        mats = [zz if j == k else eye for j in range(4)]
        group = vie._orbits(sys_h8.index, *mats)
        assert group.axes == (0, 1, 2)
        assert _perms(group) == (ALL_PERMS if k == -1 else [(0, 1, 2), (1, 0, 2)])
    # factors whose rows hold the components in another order: the
    # permutations move the unknowns' rows with them
    perm = eye[[2, 0, 1]]
    group = vie._orbits(sys_h8.index, eye, perm, perm.T, eye)
    assert _perms(group) == ALL_PERMS
    swap = group.perm_axes.tolist().index([1, 0, 2])
    # x <-> y moves components 0 and 1, which rows 1 and 2 of the unknowns hold
    assert group.perm_comps[swap].tolist() == [0, 2, 1]
    # a cell set symmetric under y <-> z only, and one under the 3-cycles only
    # (not a group the split knows: the identity is kept)
    assert _perms(vie._orbits(BLOCK_3x4x4, eye, eye, eye, eye)) == [(0, 1, 2), (0, 2, 1)]
    chiral = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert _perms(vie._orbits(chiral, eye, eye, eye, eye)) == [(0, 1, 2)]


def _mirror_case_systems():
    """(grid, background, contrast, mirror axes, axis permutations): symmetric
    and broken grids at resolution 8."""
    iso = Background.isotropic(a=1.0, kappa=1.0)
    xy = Background(A=SymTensor3.from_matrix([[1.3, 0.2, 0.0], [0.2, 0.9, 0.0],
                                               [0.0, 0.0, 1.1]]), kappa=1.0)
    full = Background(A=SymTensor3.from_matrix([[1.3, 0.2, 0.1], [0.2, 0.9, 0.1],
                                                 [0.1, 0.1, 1.1]]), kappa=1.0)
    ball = voxelize(Ball(0.5), 1.0 / 8.0)
    ellipsoid = voxelize(Ellipsoid((0.5, 0.35, 0.3), center=(0.2, -0.1, 0.05)), 1.0 / 8.0)
    xy_tensor = SymTensor3.from_matrix([[2.0, 0.3, 0.0], [0.3, 1.5, 0.0], [0.0, 0.0, 1.6]])
    diagonal = aniso_contrast(iso.A, SymTensor3.diag(2.0, 0.7, 1.6))
    one = [(0, 1, 2)]
    return {
        "ball_q_pos": (ball, iso, iso_contrast(1.0, 2.0), (0, 1, 2), ALL_PERMS),
        "ball_q_neg": (ball, iso, iso_contrast(1.0, 0.5), (0, 1, 2), ALL_PERMS),
        # two equal semi-axes: the x <-> y swap
        "equal_axes_ellipsoid": (voxelize(Ellipsoid((0.5, 0.5, 0.3)), 1.0 / 8.0), iso,
                                 iso_contrast(1.0, 2.0), (0, 1, 2), [(0, 1, 2), (1, 0, 2)]),
        "offcentre_ellipsoid": (ellipsoid, iso, iso_contrast(1.0, 2.0), (0, 1, 2), one),
        "ellipsoid_tensor_contrast": (ellipsoid, iso, diagonal, (0, 1, 2), one),
        "xy_background": (ball, xy, aniso_contrast(xy.A, SymTensor3.diag(2.0, 1.5, 1.6)), (2,),
                          one),
        "xy_tensor_contrast": (ball, iso, aniso_contrast(iso.A, xy_tensor), (2,), one),
        "coupled_background": (ball, full, aniso_contrast(full.A, SymTensor3.diag(2.0, 1.5, 1.6)),
                               (), one),
        # mixed signs, and factors whose rows are the eigenvectors in another order
        "diagonal_tensor_contrast": (ball, iso, diagonal, (0, 1, 2), one),
        # two equal eigenvalues keep the swap of their axes, which moves the
        # unknowns' rows that hold them; the second has sigma = i on the y row
        "equal_eigenvalues_contrast": (ball, iso, aniso_contrast(iso.A, SymTensor3.diag(
            2.0, 2.0, 1.6)), (0, 1, 2), [(0, 1, 2), (1, 0, 2)]),
        "equal_eigenvalues_mixed_signs": (ball, iso, aniso_contrast(iso.A, SymTensor3.diag(
            2.0, 0.5, 2.0)), (0, 1, 2), [(0, 1, 2), (2, 1, 0)]),
        # one removed cell leaves no mirror and no axis permutation of the
        # ball's cell set
        "ball_less_one_cell": (dataclasses.replace(ball, centers=ball.centers[1:]), iso,
                               iso_contrast(1.0, 2.0), (), one),
        # a 3 x 4 x 4 block: its middle x slab lies on the x mirror plane
        "odd_extent_block": (dataclasses.replace(ball, centers=BLOCK_3x4x4 / 8.0), iso,
                             iso_contrast(1.0, 2.0), (1, 2), [(0, 1, 2), (0, 2, 1)]),
    }


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("case", sorted(_mirror_case_systems()))
def test_blocked_solve_matches_dense_solve(rng, block_rhs, case, k):
    grid, bg, contrast, axes, perms = _mirror_case_systems()[case]
    sys = assemble(grid, bg)
    factors = _system_factors(contrast, bg)
    group = vie._orbits(sys.index, bg.A.matrix, *factors)
    assert group.axes == axes and _perms(group) == perms
    shape = (3 * sys.n_cells, k)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = np.linalg.solve(sys.dense(*factors), b)
    x = vie.resolvent_solve(sys, contrast, np.asfortranarray(b))
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    shapes = [call.a.shape for call in block_rhs]
    assert shapes == [(rows, rows) for _, rows in group.block_names()]
    if len(perms) == 1:
        rows = 3 * sys.n_cells // 2 ** len(axes)
        assert shapes == [(rows, rows)] * 2 ** len(axes)
    else:
        # each class solves for its members: the blocks' rows, counted once per
        # member and irrep dimension, are the 3N unknowns
        total = sum((1 + len(members)) * d * rows for _, key, members in group.classes
                    for d, rows in zip(group.splits[key].dims, group.splits[key].sizes))
        assert total == 3 * sys.n_cells
        assert max(rows for _, rows in group.block_names()) <= 3 * sys.n_cells // 2 ** len(axes)


def _parity_projection(field, index, c):
    """The part of field (N, 3) of parity class c: for each bit k of c set, odd
    under the mirror of lattice axis k (v(S_k x) = -S_k v(x)), else even."""
    dims = index.max(axis=0) + 1
    where = np.full(dims, -1)
    where[tuple(index.T)] = np.arange(len(index))
    out = np.zeros_like(field)
    for g in range(8):
        pos, flip = index.copy(), np.ones(3)
        for k in range(3):
            if g >> k & 1:
                pos[:, k] = dims[k] - 1 - pos[:, k]
                flip[k] = -1.0
        out += (-1) ** bin(c & g).count("1") * flip * field[where[tuple(pos.T)]]
    return out / 8.0


def _symmetric_projection(field, index):
    """The part of field (N, 3) invariant under all 48 signed axis permutations
    of a grid with that symmetry: v(P x) = P v(x) for each of them."""
    dims = index.max(axis=0) + 1
    where = np.full(dims, -1)
    where[tuple(index.T)] = np.arange(len(index))
    even = _parity_projection(field, index, 0)
    # the cell at x' takes P v(x) from the cell at x, x'[p[k]] = x[k]
    return sum(even[where[tuple(index[:, p].T)]][:, np.argsort(p)]
               for p in map(list, itertools.permutations(range(3)))) / 6.0


def test_blocked_solve_routes_each_column_to_the_blocks_that_carry_it(rng, block_rhs):
    # class c gets c % 3 + 1 columns of definite parity; a generic column, an
    # all-zero column and a class-0 column with a faint (1e-9) class-5 part
    # ride along, and the columns are shuffled.  The centred ellipsoid with
    # three distinct semi-axes has the eight mirrors and no axis permutation.
    sys = assemble(voxelize(Ellipsoid((0.5, 0.4, 0.3)), 1.0 / 8.0),
                   Background.isotropic(a=1.0, kappa=1.0))
    contrast = iso_contrast(1.0, 2.0)
    factors = _system_factors(contrast, sys.bg)
    group = vie._orbits(sys.index, sys.bg.A.matrix, *factors)
    assert group.axes == (0, 1, 2) and len(group.perm_axes) == 1
    n, index = sys.n_cells, sys.index
    classes = [c for c in range(8) for _ in range(c % 3 + 1)]
    fields = [_parity_projection(rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)),
                                 index, c) for c in classes]
    fields += [rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)), np.zeros((n, 3)),
               fields[classes.index(0)] + 1e-9 * fields[classes.index(5)]]
    order = rng.permutation(len(fields))
    fields = [fields[i] for i in order]
    b = np.stack([f.reshape(-1) for f in fields], axis=1)
    want = np.linalg.solve(sys.dense(*factors), b)
    x = vie.resolvent_solve(sys, contrast, np.asfortranarray(b))
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    assert not np.any(x[:, order == len(fields) - 2])
    faint = order == len(fields) - 1
    assert np.linalg.norm(x[:, faint] - want[:, faint]) <= 1e-12 * np.linalg.norm(want[:, faint])
    # block c receives 8 v_c(r) on the orbit representatives r for exactly the
    # columns v whose class-c part v_c is more than roundoff, in their order
    reps = group.cells[0]
    assert np.array_equal(reps, np.flatnonzero(np.all(index < (index.max(axis=0) + 1) // 2,
                                                       axis=1)))
    assert len(block_rhs) == 8
    for c, got in enumerate(call.rhs for call in block_rhs):
        parts = [(_parity_projection(f, index, c), f) for f in fields]
        want_rhs = np.stack([8.0 * v[reps].reshape(-1) for v, f in parts
                             if np.linalg.norm(v) > 1e-12 * np.linalg.norm(f)], axis=1)
        assert got.shape[1] == classes.count(c) + 1 + (c in (0, 5))
        assert np.linalg.norm(got - want_rhs) <= 1e-12 * np.linalg.norm(want_rhs)


def test_group_solve_routes_a_member_column_through_its_class(sys_h6, rng, block_rhs):
    # on the ball, a column odd under the x mirror only belongs to the class of
    # x+ y+ z-, whose representative solves it as the image under the axis
    # permutation that takes z to x, split between the even and odd blocks of
    # the x <-> y swap that fixes that class; the other eight blocks are idle
    contrast = iso_contrast(1.0, 2.0)
    factors = _system_factors(contrast, sys_h6.bg)
    group = vie._orbits(sys_h6.index, sys_h6.bg.A.matrix, *factors)
    names = [name for name, _ in group.block_names()]
    assert names == ["x+ y+ z+ A1", "x+ y+ z+ A2", "x+ y+ z+ E", "x+ y+ z- even",
                     "x+ y+ z- odd", "x- y- z+ even", "x- y- z+ odd", "x- y- z- A1",
                     "x- y- z- A2", "x- y- z- E"]
    n = sys_h6.n_cells
    field = _parity_projection(rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)),
                               sys_h6.index, 1)
    b = field.reshape(-1, 1)
    want = np.linalg.solve(sys_h6.dense(*factors), b)
    x = vie.resolvent_solve(sys_h6, contrast, np.asfortranarray(b))
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    assert [call.rhs.shape[1] for call in block_rhs] == [0, 0, 0, 1, 1, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (0.2, -0.1, 0.15)],
                         ids=["centred", "off_centre"])
def test_regular_waves_reach_one_block_only_about_the_ball_centre(bg_unit, block_rhs, center):
    # the real parts of the regular waves about the origin have a definite
    # parity under each mirror of a ball centred there, and none about an
    # off-centre ball's mirrors.  The diagonal tensor contrast keeps the eight
    # mirrors and no axis permutation, so each parity is one block.
    sys = assemble(voxelize(Ball(0.5, center=center), 1.0 / 6.0), bg_unit)
    contrast = aniso_contrast(bg_unit.A, SymTensor3.diag(2.0, 0.7, 1.6))
    waves = regular_wave_gradients(3, 1.0, sys.grid.centers)[1:].real
    dens = solve_density(sys, contrast, waves)
    assert dens.residual < 1e-10
    counts = [call.rhs.shape[1] for call in block_rhs]
    if any(center):
        assert counts == [len(waves)] * 8
    else:
        assert sum(counts) == len(waves)


def test_real_fields_are_solved_without_a_complex_copy(sys_h6):
    # besides the right-hand sides, solving the centred ball's real waves
    # allocates no complex copy of the P x 3N stack: its peak is that of the
    # same waves passed in complex
    waves = regular_wave_gradients(7, 1.0, sys_h6.grid.centers)[1:].real.copy()
    as_complex = waves.astype(complex)
    contrast = iso_contrast(1.0, 2.0)
    peaks = [peak_bytes(solve_density, sys_h6, contrast, g)[1] for g in (waves, as_complex)]
    assert peaks[0] < peaks[1] + as_complex.nbytes // 2


@pytest.mark.parametrize("diag", [np.zeros((3, 3))], ids=["symmetric"])
def test_singular_system_raises_before_solve(sys_h6, rng, monkeypatch, diag):
    # the error names the block, its class and irrep, and the caller's
    # right-hand sides come back unchanged
    zero = np.zeros((3, 3))
    monkeypatch.setattr(vie, "_system_factors", lambda contrast, bg: (zero, zero, diag))
    shape = (3 * sys_h6.n_cells, 4)
    rhs = np.asfortranarray(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    b = rhs.copy()
    (name, rows), *_ = vie._orbits(sys_h6.index, np.eye(3), zero, zero, diag).block_names()
    assert (name, rows) == ("x+ y+ z+ A1", 11)
    want = (rf"the x\+ y\+ z\+ A1 block \(11 rows\) of the system on "
            rf"{sys_h6.n_cells} cells is singular: LDL\^T pivot 1 is exactly zero")
    with pytest.raises(RuntimeError, match=want):
        vie.resolvent_solve(sys_h6, iso_contrast(1.0, 2.0), rhs)
    np.testing.assert_array_equal(rhs, b)
    with pytest.raises(RuntimeError, match=want):
        solve_density(sys_h6, iso_contrast(1.0, 2.0), unit_inc(sys_h6.n_cells))


def test_blocks_that_carry_no_column_are_factored(sys_h6, rng, monkeypatch, block_rhs):
    # one fully symmetric column is solved in block 0 alone, yet every block is
    # factored: a singular x- y- z- E block raises after block 0 has solved the
    # column, and the caller's column is left as it was
    contrast = iso_contrast(1.0, 2.0)
    n = sys_h6.n_cells
    field = _symmetric_projection(
        rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)), sys_h6.index)
    vie.resolvent_solve(sys_h6, contrast, field.reshape(-1).copy())
    assert [call.rhs.shape[1] for call in block_rhs] == [1] + [0] * 9
    gather = VieSystem._gather_blocks

    def zero_last(self, *args):
        blocks = list(gather(self, *args))
        blocks[-1][...] = 0.0
        yield from blocks

    monkeypatch.setattr(VieSystem, "_gather_blocks", zero_last)
    rhs = field.reshape(-1)
    b = rhs.copy()
    with pytest.raises(RuntimeError, match=r"the x- y- z- E block .* is singular"):
        vie.resolvent_solve(sys_h6, contrast, rhs)
    np.testing.assert_array_equal(rhs, b)


def test_radiation_matrix_matches_scattered_field(sys_h6, rng):
    c = iso_contrast(1.0, 2.0)
    dens = solve_density(sys_h6, c, unit_inc(sys_h6.n_cells))
    pts = np.array([[2.0, 0.5, -1.0], [0.0, -3.0, 0.2]])
    mat = radiation_matrix(sys_h6, pts)
    via_mat = mat @ dens.values.reshape(-1)
    direct = np.array([scattered_field(sys_h6, dens, x) for x in pts])
    np.testing.assert_allclose(via_mat, direct, rtol=1e-12)
    # raw array density accepted too
    raw = scattered_field(sys_h6, dens.values, pts[0])
    assert raw == pytest.approx(direct[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_radiation_matrix_rejects_non_finite_points(sys_h6, bad):
    dens = np.ones((sys_h6.n_cells, 3), dtype=complex)
    pts = np.array([[2.0, 0.5, -1.0], [bad, 0.0, 0.0]])
    with pytest.raises(ValueError, match="evaluation points must be finite"):
        radiation_matrix(sys_h6, pts)
    with pytest.raises(ValueError, match="evaluation points must be finite"):
        scattered_field(sys_h6, dens, pts[1])


def test_point_source_reciprocity(sys_h6, bg_unit):
    # total field symmetry under source/receiver exchange
    c = iso_contrast(1.0, 2.0)
    xs = np.array([0.0, 0.0, 2.5])
    xr = np.array([1.8, -1.2, -0.9])

    def total(src, rec):
        g = np.stack([grad_phi(bg_unit, cell - src) for cell in sys_h6.grid.centers])
        dens = solve_density(sys_h6, c, g)
        return scattered_field(sys_h6, dens, rec) + phi(bg_unit, rec - src)

    u1 = total(xs, xr)
    u2 = total(xr, xs)
    assert abs(u1 - u2) / abs(u1) < 1e-3


def test_vie_system_is_dataclass():
    assert dataclasses.is_dataclass(VieSystem)


def test_apply_factors_act_blockwise_on_three_columns(sys_h6, bg_unit):
    # a (3N, 3) block of right-hand sides must not be read as an (N, 3) array
    C = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    n = sys_h6.n_cells
    gradw = dense_gradw_reference(sys_h6.grid, bg_unit).reshape(n, 3, n, 3)
    cases = (
        (gradw, lambda v: sys_h6.apply(v, C, C.T, C @ C.T)),
        # C R_kappa C^T = C C^T + C (2 a gradW) C^T, since A^{1/2} = sqrt(a) I
        (2.0 * bg_unit.iso_a * gradw, lambda v: sys_h6.r_apply(v, C, C.T)),
    )
    v = np.arange(9.0 * n).reshape(3 * n, 3)
    for blocks, op in cases:
        mat = np.einsum("ab,ibjc,cd->iajd", C, blocks, C.T)
        mat[np.arange(n), :, np.arange(n), :] += C @ C.T
        by_column = np.column_stack([mat.reshape(3 * n, 3 * n) @ v[:, k] for k in range(3)])
        for got, want in ((op(v), by_column), (op(v[:, 0]), by_column[:, 0])):
            assert np.linalg.norm(got - want) < 1e-13 * np.linalg.norm(want)

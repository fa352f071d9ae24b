"""Volume integral equation: assembly, solves, radiation, operator norms."""

import dataclasses
import itertools

import numpy as np
import pytest

from tdscope import (
    Background,
    Ball,
    DensityField,
    Ellipsoid,
    SymTensor3,
    Union,
    VieSystem,
    aniso_contrast,
    apply_MB,
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
from tdscope.vie import _per_voxel, _system_factors

# power-iteration estimates on the h = 1/6 unit-kappa ball system (seed 0),
# frozen against the dense singular values computed in-test
NORM_R = 0.9589882995376452
NORM_QR = 0.3196627665125484


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
    want = ref @ x
    assert np.linalg.norm(sys.gradw_apply(x) - want) < 1e-13 * np.linalg.norm(want)
    ref4 = ref.reshape(n, 3, n, 3)
    for form in ("direct", "sigma"):
        L, Rm, D = _system_factors(contrast, bg, form)
        want_mat = np.einsum("ab,ibjc,cd->iajd", L, ref4, Rm)
        want_mat[np.arange(n), :, np.arange(n), :] += D
        want_mat = want_mat.reshape(3 * n, 3 * n)
        got = sys.dense(L, Rm, D)
        assert np.linalg.norm(got - want_mat) < 1e-13 * np.linalg.norm(want_mat)
        want = want_mat @ x
        assert np.linalg.norm(sys.apply(x, L, Rm, D) - want) < 1e-13 * np.linalg.norm(want)


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


@pytest.mark.parametrize("path", ["lu", "gmres"])
def test_solve_density_stacked_matches_per_field(sys_h6, rng, monkeypatch, path):
    if path == "gmres":
        monkeypatch.setattr(vie, "DIRECT_CAP", 1)
    c = aniso_contrast(SymTensor3.identity(), A_TILDE)
    shape = (4, sys_h6.n_cells, 3)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stacked = solve_density(sys_h6, c, g)
    assert stacked.values.shape == shape
    assert stacked.residual < (1e-10 if path == "lu" else 1e-8)
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
    want = np.linalg.norm(h - sys_h6.gradw_apply(h) @ d_a.T - target) / np.linalg.norm(target)
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


def test_zero_contrast_short_circuit(sys_h6):
    dens = solve_density(sys_h6, iso_contrast(1.0, 1.0), unit_inc(sys_h6.n_cells))
    assert np.all(dens.values == 0.0)
    assert dens.residual == 0.0


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
    act = sys_static_h8.gradw_apply(g)
    assert act[:, 2].real.mean() == pytest.approx(-1.0 / 3.0, rel=1e-10)
    # transverse components cancel only on average over the symmetric grid
    assert np.abs(act[:, (0, 1)].mean(axis=0)).max() < 1e-13


def test_operator_norms_frozen(sys_h6):
    c = iso_contrast(1.0, 2.0)
    assert operator_norm(sys_h6, which="R_kappa", contrast=c) == pytest.approx(
        NORM_R, rel=1e-9
    )
    assert operator_norm(sys_h6, which="qR_kappa", contrast=c) == pytest.approx(
        NORM_QR, rel=1e-9
    )


def test_operator_norm_vs_dense_svd(sys_h6, bg_unit):
    c = iso_contrast(1.0, 2.0)
    n3 = 3 * sys_h6.n_cells
    dense = np.eye(n3, dtype=complex) + 2.0 * bg_unit.iso_a * sys_h6.dense()
    top = float(np.linalg.svd(c.q * dense, compute_uv=False)[0])
    est = operator_norm(sys_h6, which="qR_kappa", contrast=c)
    assert est <= top * (1.0 + 1e-9)
    assert abs(est - top) / top < 2e-2


def test_operator_norm_scales_with_q(sys_h6):
    big = operator_norm(sys_h6, which="qR_kappa", contrast=iso_contrast(1.0, 2.0))
    small = operator_norm(sys_h6, which="qR_kappa", contrast=iso_contrast(1.0, 1.4))
    q_big = iso_contrast(1.0, 2.0).q
    q_small = iso_contrast(1.0, 1.4).q
    assert small / big == pytest.approx(q_small / q_big, rel=1e-6)


def test_apply_MB_paths_agree(sys_h6, rng):
    c = iso_contrast(1.0, 2.0)
    g = rng.standard_normal((sys_h6.n_cells, 3)) + 1j * rng.standard_normal(
        (sys_h6.n_cells, 3)
    )
    direct = solve_density(sys_h6, c, g).values
    symm = apply_MB(sys_h6, c, g).values
    np.testing.assert_allclose(symm, direct, rtol=1e-10)


def test_apply_MB_negative_contrast_paths(sys_h6, rng):
    # sigma split goes imaginary for a_t < a; both routes must still agree
    c = iso_contrast(1.0, 0.5)
    g = rng.standard_normal((sys_h6.n_cells, 3)).astype(complex)
    direct = solve_density(sys_h6, c, g).values
    symm = apply_MB(sys_h6, c, g).values
    np.testing.assert_allclose(symm, direct, rtol=1e-10)


def test_gmres_path_matches_lu(sys_h6, monkeypatch):
    c = iso_contrast(1.0, 2.0)
    g = unit_inc(sys_h6.n_cells)
    lu_dens = solve_density(sys_h6, c, g).values
    monkeypatch.setattr(vie, "DIRECT_CAP", 1)
    it_dens = solve_density(sys_h6, c, g).values
    np.testing.assert_allclose(it_dens, lu_dens, rtol=1e-7)


def test_lu_residual_probe_catches_wrong_factorization(sys_h6):
    c = iso_contrast(1.0, 2.0)
    g = unit_inc(sys_h6.n_cells)
    fresh = dataclasses.replace(sys_h6, _factor_cache={})
    assert solve_density(fresh, c, g).residual < 1e-10
    # swap in the factorization of another contrast under this contrast's key
    other = dataclasses.replace(sys_h6, _factor_cache={})
    other._factorization(iso_contrast(1.0, 3.0), "direct")
    (key,) = fresh._factor_cache
    fresh._factor_cache[key] = other._factor_cache.popitem()[1]
    with pytest.raises(RuntimeError, match="residual probe"):
        solve_density(fresh, c, g)


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


def test_per_voxel_applies_blockwise_for_three_columns():
    # a (3N, 3) block of right-hand sides must not be read as an (N, 3) array
    C = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    v = np.arange(18.0).reshape(6, 3)
    by_column = np.column_stack([(v[:, k].reshape(2, 3) @ C.T).reshape(6) for k in range(3)])
    np.testing.assert_array_equal(_per_voxel(C, v), by_column)
    np.testing.assert_array_equal(_per_voxel(C, v[:, 0]), by_column[:, 0])

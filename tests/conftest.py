"""Shared fixtures: small assembled systems reused across test modules."""

import tracemalloc

import numpy as np
import pytest

from tdscope import Background, Ball, IsoContrast, assemble, sphere_surface, voxelize
from tdscope.specfun_quad import _degree_order, _radial_factors, _solid_harmonics


def dense_mb_reference(sys, contrast, g):
    """M_B g = 2 A^{1/2} (I - Q R_kappa)^{-1} Q A^{1/2} g by a dense solve.

    g holds one field (N, 3) or K stacked fields (K, N, 3).  The direct form
    I - Q (I + 2 A^{1/2} gradW A^{1/2}) is built from the gathered grad W
    (sys.dense(), checked against the cell-pair oracle in test_vie) with Q and
    A^{1/2} applied per voxel here, and solved by np.linalg.solve: no factor
    code of vie is shared.
    """
    n = sys.n_cells
    w, v = np.linalg.eigh(sys.bg.A.matrix)
    ah = (v * np.sqrt(w)) @ v.T
    q = contrast.q * np.eye(3) if isinstance(contrast, IsoContrast) else contrast.Q
    qah = q @ ah
    # I - Q R = I - Q - 2 (Q A^{1/2}) gradW A^{1/2}, blockwise over cell pairs
    mat = -2.0 * np.einsum("ab,ibjc,cd->iajd", qah, sys.dense().reshape(n, 3, n, 3), ah)
    mat[np.arange(n), :, np.arange(n), :] += np.eye(3) - q
    fields = np.asarray(g, dtype=complex).reshape(-1, n, 3)
    eta = np.linalg.solve(mat.reshape(3 * n, 3 * n), 2.0 * (fields @ qah.T).reshape(-1, 3 * n).T)
    return (eta.T.reshape(-1, n, 3) @ ah.T).reshape(np.shape(g))


def full_table_wave_gradients(n_max, k, x):
    """regular_wave_gradients as one complex table of every (n, m): the ladder
    reads R_{n-1}^{m+1}, R_{n-1}^{m-1} and R_{n-1}^m of every row at once by
    fancy indexing a zero-padded table of R_n^m, the rows m < 0 included.
    The bitwise reference of the degree-by-degree kernel of specfun_quad."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    npts = x.shape[0]
    packed = np.vstack([_solid_harmonics(n_max, x), np.zeros((1, npts))])
    deg, order = _degree_order(n_max)
    r2 = np.einsum("pi,pi->p", x, x)

    def lower(m):
        ok = (deg >= 1) & (np.abs(m) <= deg - 1)
        return packed[np.where(ok, (deg - 1) * deg + m, deg.size)]

    up, down = lower(order + 1), lower(order - 1)
    f = _radial_factors(n_max + 1, np.sqrt(r2) * k)
    f_n = f[deg]
    radial = (k * k / (2 * deg + 3))[:, None] * f[deg + 1] * packed[:-1]
    grad = np.empty((deg.size, npts, 3), dtype=complex)
    grad[..., 0] = 0.5 * f_n * (up - down) - radial * x[:, 0]
    grad[..., 1] = -0.5j * f_n * (down + up) - radial * x[:, 1]
    grad[..., 2] = f_n * lower(order) - radial * x[:, 2]
    return grad


def full_table_real_basis(rows):
    """specfun_quad._real_basis on every row at once: Re f^m (m >= 0) and
    Im f^|m| (m < 0) by one fancy index, then the sqrt(2) (-1)^m signs."""
    deg, order = _degree_order(int(np.sqrt(rows.shape[0])) - 1)
    neg = order < 0
    out = rows.real.copy()
    out[neg] = rows.imag[deg[neg] * (deg[neg] + 1) - order[neg]]
    sign = np.where(order == 0, 1.0, np.sqrt(2.0) * (-1.0) ** order)
    out *= sign.reshape((-1,) + (1,) * (out.ndim - 1))
    return out


def peak_bytes(fn, *args):
    """(fn(*args), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def bg_unit():
    return Background.isotropic(a=1.0, kappa=1.0)


@pytest.fixture(scope="session")
def bg_static():
    return Background.isotropic(a=1.0, kappa=0.0)


@pytest.fixture(scope="session")
def ball_grid_h6():
    return voxelize(Ball(0.5), 1.0 / 6.0)


@pytest.fixture(scope="session")
def ball_grid_h8():
    return voxelize(Ball(0.5), 1.0 / 8.0)


@pytest.fixture(scope="session")
def sys_h6(ball_grid_h6, bg_unit):
    return assemble(ball_grid_h6, bg_unit)


@pytest.fixture(scope="session")
def sys_h8(ball_grid_h8, bg_unit):
    return assemble(ball_grid_h8, bg_unit)


@pytest.fixture(scope="session")
def sys_static_h8(ball_grid_h8, bg_static):
    return assemble(ball_grid_h8, bg_static)


@pytest.fixture(scope="session")
def surface_r5():
    return sphere_surface(5.0, 30)


@pytest.fixture(scope="session")
def mb_reference():
    return dense_mb_reference


@pytest.fixture()
def rng():
    return np.random.default_rng(7)

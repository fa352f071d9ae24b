"""Shared fixtures: small assembled systems reused across test modules."""

import tracemalloc

import numpy as np
import pytest

from tdscope import Background, Ball, IsoContrast, assemble, sphere_surface, voxelize


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

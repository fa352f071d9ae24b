"""Polarization tensors of trial inclusions, three independent routes."""

import numpy as np
import pytest

from tdscope import (
    Ball,
    Ellipsoid,
    SymTensor3,
    mz_ball_iso,
    mz_ellipsoid,
    mz_general,
    voxelize,
)
from tdscope import polarization

IDENT = SymTensor3.identity()
DOUBLE = SymTensor3.scaled_identity(2.0)


def test_ball_closed_form_exact():
    # unit trial ball, a = 1, beta_z = 1: M_z = pi I bit-exact
    pt = mz_ball_iso(1.0, 1.0)
    assert np.all(pt.M_z == np.pi * np.eye(3))


def test_ball_closed_form_sign():
    neg = mz_ball_iso(1.0, -0.5)
    assert np.all(np.diag(neg.M_z) < 0.0)


def test_ball_scaling_in_a():
    # M_z scales linearly in the background coefficient at fixed beta_z
    one = mz_ball_iso(1.0, 1.0).M_z
    three = mz_ball_iso(3.0, 1.0).M_z
    np.testing.assert_allclose(three, 3.0 * one, rtol=1e-14)


def test_ellipsoid_sphere_matches_ball():
    pt = mz_ellipsoid(IDENT, DOUBLE, (1.0, 1.0, 1.0))
    assert np.abs(pt.M_z - mz_ball_iso(1.0, 1.0).M_z).max() < 1e-12


def test_ellipsoid_axes_rotation_covariance():
    # rotating the ellipsoid conjugates the tensor
    th = 0.41
    rot = np.array(
        [
            [np.cos(th), -np.sin(th), 0.0],
            [np.sin(th), np.cos(th), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    base = mz_ellipsoid(IDENT, DOUBLE, (1.0, 1.5, 0.7)).M_z
    rotated = mz_ellipsoid(IDENT, DOUBLE, (1.0, 1.5, 0.7), axes=rot).M_z
    np.testing.assert_allclose(rotated, rot @ base @ rot.T, atol=1e-12)


def test_general_matches_closed_forms():
    grid = voxelize(Ball(1.0), 1.0 / 6.0)
    pt = mz_general(IDENT, DOUBLE, grid)
    closed = mz_ball_iso(1.0, 1.0).M_z
    rel = np.abs(pt.M_z - closed).max() / np.abs(closed).max()
    assert rel < 0.02
    assert pt.asymmetry < 1e-12


def test_general_matches_ellipsoid_route():
    axes = (1.0, 1.0, 0.6)
    grid = voxelize(Ellipsoid(axes), 0.15)
    pt = mz_general(IDENT, DOUBLE, grid, vol_tol=0.03)
    closed = mz_ellipsoid(IDENT, DOUBLE, axes).M_z
    rel = np.abs(pt.M_z - closed).max() / np.abs(closed).max()
    assert rel < 0.05


def test_general_is_one_stacked_solve(monkeypatch):
    # the three canonical fields go to the solver as one (3, N, 3) stack
    shapes = []
    solve = polarization.solve_density

    def count(sys, contrast, g):
        shapes.append(g.shape)
        return solve(sys, contrast, g)

    monkeypatch.setattr(polarization, "solve_density", count)
    grid = voxelize(Ball(1.0), 0.25)
    mz_general(IDENT, DOUBLE, grid, vol_tol=1.0)
    assert shapes == [(3, grid.n_cells, 3)]


def test_general_volume_guard():
    coarse = voxelize(Ball(1.0), 0.49)
    vol_err = abs(coarse.volume - Ball(1.0).volume) / Ball(1.0).volume
    if vol_err > 0.02:
        with pytest.raises(ValueError):
            mz_general(IDENT, DOUBLE, coarse, vol_tol=0.02)
    pt = mz_general(IDENT, DOUBLE, coarse, vol_tol=1.0)
    assert pt.M_z.shape == (3, 3)


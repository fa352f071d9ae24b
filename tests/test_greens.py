"""Anisotropic fundamental solution and its static limits."""

import numpy as np
import pytest

from tdscope import (
    Background,
    SymTensor3,
    cell_self_term,
    depolarization_factors,
    eshelby_tensor,
    grad_phi,
    hess_phi,
    pde_residual,
    phi,
)


def test_phi_isotropic_closed_form():
    bg = Background.isotropic(a=1.0, kappa=2.0)
    r = np.array([0.3, -0.2, 0.6])
    d = np.linalg.norm(r)
    assert phi(bg, r) == pytest.approx(np.exp(2j * d) / (4.0 * np.pi * d), rel=1e-14)


def test_phi_scaled_isotropic():
    # A = a I rescales distance by sqrt(a) and amplitude by a^{3/2} inside det
    a = 4.0
    bg = Background.isotropic(a=a, kappa=1.5)
    r = np.array([0.5, 0.1, -0.3])
    rho = np.linalg.norm(r) / np.sqrt(a)
    want = np.exp(1.5j * rho) / (4.0 * np.pi * np.sqrt(a**3) * rho)
    assert phi(bg, r) == pytest.approx(want, rel=1e-14)


def test_phi_singular_at_origin():
    bg = Background.isotropic()
    with pytest.raises(ValueError):
        phi(bg, np.zeros(3))


# a diagonal, a full SPD (off-diagonal entries) and a scaled isotropic A
KERNEL_BACKGROUNDS = {
    "diag": SymTensor3.diag(1.0, 2.0, 0.5),
    "full": SymTensor3.from_matrix([[1.4, 0.3, -0.2], [0.3, 0.8, 0.25], [-0.2, 0.25, 1.9]]),
    "iso_a2": SymTensor3.scaled_identity(2.0),
}


def test_grad_phi_matches_finite_differences():
    r = np.array([0.4, -0.7, 0.55])
    eps = 1e-6
    for A in KERNEL_BACKGROUNDS.values():
        bg = Background(A=A, kappa=1.2)
        g = grad_phi(bg, r)
        for k in range(3):
            e = np.zeros(3)
            e[k] = eps
            fd = (phi(bg, r + e) - phi(bg, r - e)) / (2.0 * eps)
            assert g[k] == pytest.approx(fd, rel=1e-7), A


def test_hess_phi_matches_finite_differences():
    r = np.array([0.4, -0.7, 0.55])
    eps = 1e-5
    for A in KERNEL_BACKGROUNDS.values():
        bg = Background(A=A, kappa=1.2)
        hess = hess_phi(bg, r)
        np.testing.assert_allclose(hess, hess.T, atol=1e-12 * np.abs(hess).max())
        for k in range(3):
            e = np.zeros(3)
            e[k] = eps
            fd = (grad_phi(bg, r + e) - grad_phi(bg, r - e)) / (2.0 * eps)
            np.testing.assert_allclose(hess[:, k], fd, rtol=1e-6, err_msg=str(A))


@pytest.mark.parametrize("kappa", [0.0, 1.7])
def test_hess_phi_matches_the_two_sided_form(rng, kappa):
    # reference: A^{-1/2} (f'' u u^T + f'/rho (I - u u^T)) A^{-1/2} / sqrt(det A),
    # u = A^{-1/2} r / rho, written out independently of hess_phi's g = grad rho form
    bg = Background(A=KERNEL_BACKGROUNDS["full"], kappa=kappa)
    w, v = np.linalg.eigh(bg.A.matrix)
    inv_sqrt = (v / np.sqrt(w)) @ v.T
    r = rng.standard_normal((200, 3))
    rm = r @ inv_sqrt
    rho = np.linalg.norm(rm, axis=-1)
    e = np.exp(1j * kappa * rho)
    fpp = e * (2.0 - 2j * kappa * rho - (kappa * rho) ** 2) / (4.0 * np.pi * rho**3)
    fp_over = e * (1j * kappa * rho - 1.0) / (4.0 * np.pi * rho**3)
    u = rm / rho[:, None]
    uu = u[:, :, None] * u[:, None, :]
    inner = fpp[:, None, None] * uu + fp_over[:, None, None] * (np.eye(3) - uu)
    want = np.einsum("ij,njk,kl->nil", inv_sqrt, inner, inv_sqrt) / np.sqrt(np.prod(w))
    got = hess_phi(bg, r)
    scale = np.abs(want).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)


@pytest.mark.parametrize("kappa", [np.nan, -1.0, np.inf])
def test_background_rejects_a_bad_kappa(kappa):
    with pytest.raises(ValueError, match="kappa must be finite and >= 0"):
        Background.isotropic(1.0, kappa)


@pytest.mark.parametrize("h", [np.nan, 0.0, -0.1, np.inf])
def test_cell_self_term_rejects_a_bad_h(h):
    with pytest.raises(ValueError, match="h must be positive and finite"):
        cell_self_term(Background.isotropic(1.0, 1.0), h)


def test_grad_odd_hess_even():
    bg = Background(A=SymTensor3.diag(1.5, 0.8, 1.1), kappa=0.9)
    r = np.array([0.2, 0.9, -0.4])
    np.testing.assert_allclose(grad_phi(bg, -r), -grad_phi(bg, r), rtol=1e-14)
    np.testing.assert_allclose(hess_phi(bg, -r), hess_phi(bg, r), rtol=1e-14)


def test_pde_residual_small():
    # div(A grad phi) + kappa^2 phi = 0 away from the singularity
    bg = Background(A=SymTensor3.diag(1.0, 3.0, 0.7), kappa=1.4)
    for x in ([1.0, 0.4, -0.6], [0.3, -1.1, 0.8]):
        assert pde_residual(bg, np.array(x)) < 1e-6


def test_depolarization_ball_and_spheroid():
    np.testing.assert_allclose(depolarization_factors((1.0, 1.0, 1.0)), 1.0 / 3.0)
    # prolate a=b=1, c=2 closed form via the eccentricity integral
    e = np.sqrt(1.0 - 0.25)
    lz = (1.0 - e**2) / e**3 * (np.arctanh(e) - e)
    got = depolarization_factors((1.0, 1.0, 2.0))
    np.testing.assert_allclose(got, [(1.0 - lz) / 2.0, (1.0 - lz) / 2.0, lz], rtol=1e-10)
    assert got.sum() == pytest.approx(1.0, abs=1e-12)


def test_depolarization_sum_rule():
    rng = np.random.default_rng(11)
    for _ in range(10):
        axes = rng.uniform(0.3, 3.0, 3)
        got = depolarization_factors(tuple(axes))
        assert got.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(got > 0.0)


def _depolarization_by_quadrature(semi_axes):
    # the defining integral, N_i = (s1 s2 s3 / 2) int_0^inf dt / ((t + s_i^2) Delta(t))
    from scipy.integrate import quad

    s = np.asarray(semi_axes, dtype=float)
    out = np.empty(3)
    for i in range(3):
        def integrand(t, i=i):
            return 1.0 / ((t + s[i] ** 2) * np.sqrt(np.prod(t + s**2)))

        val, _ = quad(integrand, 0.0, np.inf, epsabs=1e-15, epsrel=1e-13, limit=200)
        out[i] = 0.5 * np.prod(s) * val
    return out


def test_depolarization_matches_the_defining_integral():
    rng = np.random.default_rng(5)
    extremes = [(1.0, 1.0, 0.02), (1.0, 1.0, 50.0), (1.0, 0.02, 0.02), (1.0, 50.0, 50.0),
                (0.02, 1.0, 0.4), (50.0, 1.0, 3.0)]
    for axes in [tuple(rng.uniform(0.1, 2.0, 3)) for _ in range(20)] + extremes:
        got = depolarization_factors(axes)
        np.testing.assert_allclose(got, _depolarization_by_quadrature(axes),
                                   rtol=0.0, atol=1e-12, err_msg=str(axes))


def test_eshelby_ball_is_third_identity():
    bg = Background.isotropic(a=1.0, kappa=0.0)
    np.testing.assert_allclose(eshelby_tensor(bg), np.eye(3) / 3.0, atol=1e-12)


def test_eshelby_scaled_background():
    # isotropic scaling of A leaves the normalized tensor at I/3
    bg = Background.isotropic(a=3.0, kappa=0.0)
    np.testing.assert_allclose(eshelby_tensor(bg), np.eye(3) / 3.0, atol=1e-12)


def test_eshelby_ellipsoid_uses_depolarization():
    bg = Background.isotropic(a=1.0, kappa=0.0)
    s = eshelby_tensor(bg, semi_axes=(1.0, 1.0, 2.0))
    np.testing.assert_allclose(np.diag(s), depolarization_factors((1.0, 1.0, 2.0)), rtol=1e-10)


def test_cell_self_term_static_block():
    bg = Background.isotropic(a=1.0, kappa=0.0)
    block = cell_self_term(bg, 0.1)
    np.testing.assert_allclose(block, -np.eye(3) / 3.0, atol=1e-14)


def test_cell_self_term_dynamic_limit():
    # the kappa-dependent part vanishes as kappa -> 0
    h = 0.1
    static = cell_self_term(Background.isotropic(a=1.0, kappa=0.0), h)
    small = cell_self_term(Background.isotropic(a=1.0, kappa=1e-4), h)
    np.testing.assert_allclose(small, static, atol=1e-9)
    big = cell_self_term(Background.isotropic(a=1.0, kappa=2.0), h)
    assert np.abs(big - static).max() > 1e-5
    with pytest.raises(ValueError):
        cell_self_term(Background.isotropic(), 0.0)

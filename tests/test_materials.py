"""Material tensors and contrast factorizations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdscope import (
    SymTensor3,
    aniso_contrast,
    factor_Q,
    iso_contrast,
)

coef = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)


def random_spd(rng, lo=0.2, hi=5.0):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    return SymTensor3.from_matrix((q * rng.uniform(lo, hi, 3)) @ q.T)


def test_symtensor_roundtrip():
    t = SymTensor3.diag(1.0, 2.0, 3.0)
    np.testing.assert_allclose(t.matrix, np.diag([1.0, 2.0, 3.0]))
    s = t.sqrt().matrix
    np.testing.assert_allclose(s @ s, t.matrix, atol=1e-14)
    np.testing.assert_allclose(t.inv().matrix @ t.matrix, np.eye(3), atol=1e-14)
    assert t.det() == pytest.approx(6.0)


def test_symtensor_rejects_asymmetric():
    with pytest.raises(ValueError):
        SymTensor3.from_matrix(np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))


def test_symtensor_spd_guard():
    SymTensor3.diag(1.0, 2.0, 3.0).require_spd()
    with pytest.raises(ValueError):
        SymTensor3.diag(1.0, -2.0, 3.0).require_spd()


def test_iso_contrast_values():
    c = iso_contrast(1.0, 2.0)
    assert c.beta == pytest.approx(1.0)
    assert c.q == pytest.approx(1.0 / 3.0)
    assert c.a_tilde == pytest.approx(2.0)
    c = iso_contrast(1.0, 0.5)
    assert c.beta == pytest.approx(-0.5)
    assert c.q == pytest.approx(-1.0 / 3.0)


def test_iso_contrast_rejects_nonpositive():
    with pytest.raises(ValueError):
        iso_contrast(0.0, 1.0)
    with pytest.raises(ValueError):
        iso_contrast(1.0, -2.0)


@given(a=coef, at=coef)
@settings(max_examples=50, deadline=None)
def test_iso_contrast_q_range(a, at):
    c = iso_contrast(a, at)
    assert -1.0 < c.q < 1.0
    assert c.beta > -1.0
    # q is a monotone reparametrization of beta
    assert np.sign(c.q) == np.sign(c.beta)


def test_aniso_contrast_iso_pair_reduces_to_scalar():
    c = aniso_contrast(SymTensor3.scaled_identity(1.0), SymTensor3.scaled_identity(2.0))
    np.testing.assert_allclose(c.Q, np.eye(3) / 3.0, atol=1e-14)
    # signs sit in sigma2, magnitudes in q_mat
    np.testing.assert_allclose(c.sigma2, np.eye(3), atol=1e-14)
    np.testing.assert_allclose(c.q_mat.T @ c.q_mat, np.eye(3) / 3.0, atol=1e-14)


def test_aniso_contrast_eigenvalue_band():
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = aniso_contrast(random_spd(rng), random_spd(rng))
        assert c.spectral_radius < 1.0
        np.testing.assert_allclose(c.Q, c.Q.T, atol=1e-13)


def test_factor_Q_reconstructs():
    rng = np.random.default_rng(1)
    for _ in range(20):
        c = aniso_contrast(random_spd(rng), random_spd(rng))
        np.testing.assert_allclose(
            c.q_mat.T @ c.sigma2 @ c.q_mat, c.Q, atol=1e-12 * max(1.0, c.spectral_radius)
        )


def test_factor_Q_signs_split():
    # one-signed negative contrast gives an all-negative sigma2 diagonal
    c = aniso_contrast(SymTensor3.scaled_identity(2.0), SymTensor3.scaled_identity(1.0))
    d = np.diagonal(c.sigma2)
    assert np.all(d == -1.0)
    sig = c.sigma
    np.testing.assert_allclose(sig @ sig, c.sigma2, atol=1e-14)


def test_sigma_entries_unit_or_imaginary():
    rng = np.random.default_rng(2)
    for _ in range(10):
        c = aniso_contrast(random_spd(rng), random_spd(rng))
        for v in np.diagonal(c.sigma):
            assert v in (1.0 + 0j, 1j, 0.0 + 0j)

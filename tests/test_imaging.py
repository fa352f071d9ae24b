"""Imaging kernels, surface operator, and the topological-derivative maps."""

import numpy as np
import pytest

from tdscope import (
    Background,
    HarmonicTrace,
    KernelG,
    SymTensor3,
    TdMap,
    aniso_contrast,
    apply_MB,
    assemble,
    e_apply,
    e_multipliers,
    grad_phi,
    harmonic_trace,
    iso_contrast,
    kernel_G,
    kernel_G_asymptotic,
    kernel_G_farfield,
    kernel_G_from_L,
    kernel_L,
    kernel_L_series,
    mz_ball_iso,
    mz_ellipsoid,
    sphere_surface,
    synthesize_trace,
    td_finite_delta_check,
    td_map_aniso_iso,
    td_map_general,
    td_map_iso,
    truncation_order,
    surface_order_hint,
)
from tdscope.imaging import _scatter_matrix

Z = np.array([1.5, -1.0, 2.0])
Y = np.array([-2.0, 0.4, 0.8])

# frozen quadrature values on the radius-5 order-30 sphere at kappa = 1
L_ZY = -0.015671038488195583
G_ZY_00 = -0.015819627034507764
G_ZY_12 = 0.0025029997984467563
G_ZY_FRO = 0.020962814145893568


def test_kernel_G_real_on_closed_sphere(surface_r5, bg_unit):
    g = kernel_G(surface_r5, bg_unit, Z, Y)
    assert np.abs(g.imag).max() / np.linalg.norm(g) < 1e-8
    assert g[0, 0].real == pytest.approx(G_ZY_00, rel=1e-12)
    assert g[1, 2].real == pytest.approx(G_ZY_12, rel=1e-12)
    assert np.linalg.norm(g) == pytest.approx(G_ZY_FRO, rel=1e-12)


def test_kernel_G_hermitian_pair_symmetry(surface_r5, bg_unit):
    g_zy = kernel_G(surface_r5, bg_unit, Z, Y)
    g_yz = kernel_G(surface_r5, bg_unit, Y, Z)
    np.testing.assert_allclose(g_yz, g_zy.conj().T, atol=1e-14)


def test_kernel_L_series_matches_quadrature(surface_r5, bg_unit):
    lq = kernel_L(surface_r5, bg_unit, Z, Y)
    ls = kernel_L_series(5.0, 1.0, Z, Y)
    assert abs(lq.real - L_ZY) < 1e-12
    assert abs(ls - lq) / abs(lq) < 1e-6
    assert abs(lq.imag) < 1e-12


def test_kernel_L_series_origin():
    val = kernel_L_series(5.0, 1.0, np.zeros(3), np.zeros(3))
    assert abs(val - 1.0 / (4.0 * np.pi)) < 1e-8


def test_kernel_L_series_guards():
    with pytest.raises(ValueError):
        kernel_L_series(5.0, 0.0, Z, Y)
    with pytest.raises(ValueError):
        kernel_L_series(50.0, 2.0, Z, Y)  # truncation would exceed the order cap


def test_kernel_G_from_L(surface_r5, bg_unit):
    direct = kernel_G(surface_r5, bg_unit, Z, Y)
    via_l = kernel_G_from_L(5.0, 1.0, Z, Y)
    assert np.abs(via_l - direct).max() < 1e-4
    swapped = kernel_G_from_L(5.0, 1.0, Z, Y, order="yz")
    np.testing.assert_allclose(swapped, via_l, atol=1e-8)
    with pytest.raises(ValueError):
        kernel_G_from_L(5.0, 1.0, Z, Y, order="xy")


def test_kernel_G_farfield_overlap():
    kappa, R = 1.0, 500.0
    bg = Background.isotropic(1.0, kappa)
    order = surface_order_hint(kappa, np.linalg.norm(Z), np.linalg.norm(Y))
    surf = sphere_surface(R, order)
    quad = kernel_G(surf, bg, Z, Y)
    far = kernel_G_farfield(kappa, Z, Y)
    assert np.abs(far - quad).max() / np.linalg.norm(quad) < 1e-2
    assert np.abs(np.asarray(far).imag).max() == 0.0


def test_kernel_G_farfield_coincidence():
    far = kernel_G_farfield(2.0, Z, Z)
    np.testing.assert_allclose(far, (4.0 / (12.0 * np.pi)) * np.eye(3), rtol=1e-12)


def test_kernel_G_asymptotic_overlap():
    # two-scale regime eta = 0.05, alpha = 0.5
    eta, alpha = 0.05, 0.5
    diam = 1.0
    R = diam / eta
    dist = diam * eta ** -(1.0 - alpha)
    kappa = 1.0
    bg = Background.isotropic(1.0, kappa)
    z = np.array([dist, 0.0, 0.0])
    y = np.array([0.05, -0.02, 0.04])
    order = surface_order_hint(kappa, dist, np.linalg.norm(y))
    surf = sphere_surface(R, order)
    quad = kernel_G(surf, bg, z, y)
    asym = kernel_G_asymptotic(R, kappa, z, y)
    assert np.abs(asym - quad).max() / np.linalg.norm(quad) < 5.0 * eta**alpha


@pytest.mark.parametrize("mode", ["quadrature", "farfield", "asymptotic"])
def test_kernel_bundle_matches_loop(surface_r5, bg_unit, mode):
    k = KernelG(surface_r5, bg_unit, mode=mode)
    zs = np.array([[0.5, 0.0, 0.0], [0.0, -0.8, 0.3]])
    ys = np.array([[0.1, 0.2, -0.1], [-0.4, 0.0, 0.6], [0.0, 0.9, 0.0]])
    table = k.bundle(zs, ys)
    assert table.shape == (6, 9)
    for i, z in enumerate(zs):
        for j, y in enumerate(ys):
            np.testing.assert_allclose(
                table[3 * i : 3 * i + 3, 3 * j : 3 * j + 3],
                k(z, y),
                rtol=1e-12,
                atol=1e-15,
            )


def test_kernel_modes_dispatch(surface_r5, bg_unit):
    far = KernelG(surface_r5, bg_unit, mode="farfield")
    np.testing.assert_allclose(far(Z, Y), kernel_G_farfield(1.0, Z, Y), rtol=1e-14)
    asy = KernelG(surface_r5, bg_unit, mode="asymptotic")
    np.testing.assert_allclose(asy(Z, Y), kernel_G_asymptotic(5.0, 1.0, Z, Y), rtol=1e-14)
    with pytest.raises(ValueError):
        KernelG(surface_r5, bg_unit, mode="series")


def test_truncation_and_order_hint():
    assert truncation_order(1.0, 5.0) == 25
    assert truncation_order(0.0, 5.0) == 20
    assert surface_order_hint(2.0, 3.0, 1.0) >= surface_order_hint(1.0, 1.0, 0.5)
    assert surface_order_hint(0.0, 1.0) >= 20


def test_harmonic_trace_roundtrip(surface_r5, rng):
    n_max = 8
    coeffs = rng.standard_normal((n_max + 1) ** 2) + 1j * rng.standard_normal(
        (n_max + 1) ** 2
    )
    trace = HarmonicTrace(coeffs=coeffs, n_max=n_max)
    values = synthesize_trace(trace, surface_r5)
    back = harmonic_trace(surface_r5, values, n_max=n_max)
    np.testing.assert_allclose(back.coeffs, coeffs, atol=1e-12)
    # Parseval: the coefficient vector is an isometric representation on the surface
    integral = float(np.sum(surface_r5.weights * np.abs(values) ** 2))
    assert integral == pytest.approx(float(np.sum(np.abs(coeffs) ** 2)), rel=1e-12)
    assert trace.norm() == pytest.approx(np.linalg.norm(coeffs))


def test_harmonic_trace_needs_closed_sphere(bg_unit):
    cap = sphere_surface(5.0, 16, aperture=2.0)
    with pytest.raises(ValueError):
        harmonic_trace(cap, np.ones(cap.nodes.shape[0]))


def test_e_multipliers_unimodular():
    en = e_multipliers(1.0, 5.0, 40)
    assert np.abs(np.abs(en) - 1.0).max() < 1e-12
    # n = 0 multiplier has the closed form -conj(h0)/h0 = exp(-2 i kappa R)
    assert en[0] == pytest.approx(np.exp(-10j), rel=1e-12)
    assert en[3] == pytest.approx(-0.9910101226409508 - 0.13378690826522383j, rel=1e-12)


def test_e_multipliers_overflow_guard():
    with pytest.raises(OverflowError):
        e_multipliers(1e-8, 1.0, 40)


def test_e_apply_minus_conj_identity(surface_r5, bg_unit):
    # E maps the radiating-normalized point-source trace to minus its conjugate
    z = np.array([0.4, -0.2, 0.3])
    kappa = 1.0
    d = np.linalg.norm(surface_r5.nodes - z, axis=1)
    u = -1j * np.exp(1j * kappa * d) / (kappa * d)  # h0(kappa |x - z|)
    trace = harmonic_trace(surface_r5, u)
    out = e_apply(trace, surface_r5, kappa)
    err = np.linalg.norm(out.coeffs + trace.coeffs.conj()) / np.linalg.norm(trace.coeffs)
    assert err < 1e-6


@pytest.fixture(scope="module")
def small_map_setup(sys_h6, bg_unit):
    surf = sphere_surface(5.0, 24)
    pts = np.array(
        [
            [0.0, 0.0, 0.0],
            [0.25, 0.1, -0.15],
            [0.8, -0.5, 0.6],
            [-1.0, 1.0, 1.0],
        ]
    )
    return surf, pts


def test_td_map_iso_fields_and_signs(sys_h6, small_map_setup):
    surf, pts = small_map_setup
    c = iso_contrast(1.0, 2.0)
    tmap = td_map_iso(sys_h6, c, iso_contrast(1.0, 2.0), surf, pts)
    assert isinstance(tmap, TdMap)
    assert tmap.values.shape == (4,)
    assert tmap.certificate < 1.0
    assert tmap.certificate_kind == "qR_kappa"
    assert np.all(tmap.values < 0.0)
    assert tmap.inside_B.tolist() == [True, True, False, False]
    assert 0.0 <= tmap.imag_residue < 0.1
    flipped = td_map_iso(sys_h6, c, iso_contrast(1.0, 0.5), surf, pts)
    assert np.all(flipped.values > 0.0)


def test_td_map_regimes_agree(sys_h6, small_map_setup):
    surf, pts = small_map_setup
    a_iso = iso_contrast(1.0, 2.0)
    a_tensor = aniso_contrast(SymTensor3.identity(), SymTensor3.scaled_identity(2.0))
    trial_iso = iso_contrast(1.0, 2.0)
    trial_pt = mz_ball_iso(1.0, 1.0)
    base = td_map_iso(sys_h6, a_iso, trial_iso, surf, pts).values
    mixed = td_map_aniso_iso(sys_h6, a_tensor, trial_iso, surf, pts).values
    full = td_map_general(sys_h6, a_tensor, trial_pt, surf, pts).values
    np.testing.assert_allclose(mixed, base, rtol=1e-12)
    np.testing.assert_allclose(full, base, rtol=1e-12)


def test_td_map_negative_contrast_regimes_agree(sys_h6, small_map_setup):
    surf, pts = small_map_setup
    a_iso = iso_contrast(1.0, 0.5)
    a_tensor = aniso_contrast(SymTensor3.identity(), SymTensor3.scaled_identity(0.5))
    trial = iso_contrast(1.0, 2.0)
    base = td_map_iso(sys_h6, a_iso, trial, surf, pts).values
    mixed = td_map_aniso_iso(sys_h6, a_tensor, trial, surf, pts).values
    np.testing.assert_allclose(mixed, base, rtol=1e-12)


A_TILDE = SymTensor3.from_matrix([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 3.0]])


def test_td_map_single_point_matches_map(sys_h6, small_map_setup):
    # one sample point solves a (3N, 3) block; a non-scalar scatterer factor
    # must still act voxel by voxel on it
    surf, pts = small_map_setup
    c = aniso_contrast(SymTensor3.identity(), A_TILDE)
    trial = iso_contrast(1.0, 2.0)
    full = td_map_aniso_iso(sys_h6, c, trial, surf, pts[:3])
    one = td_map_aniso_iso(sys_h6, c, trial, surf, pts[1:2], certificate=full.certificate)
    assert one.values[0] == pytest.approx(full.values[1], rel=1e-12)


@pytest.mark.parametrize(
    "bg_a, a_z",
    [
        (SymTensor3.identity(), A_TILDE),
        (SymTensor3.identity(), SymTensor3.diag(0.5, 0.6, 0.4)),
        (SymTensor3.diag(1.2, 0.9, 1.1), A_TILDE),
    ],
    ids=["stiffer", "softer", "aniso_background"],
)
def test_td_map_general_matches_mb_oracle(ball_grid_h6, small_map_setup, bg_a, a_z):
    # T(z) = -h^3 Re sum_ik (M_z)_ik < g_i, M_B g_k > with M_B through the
    # sign-split system, an anisotropic scatterer and an ellipsoidal trial
    surf, pts = small_map_setup
    sys = assemble(ball_grid_h6, Background(A=bg_a, kappa=1.0))
    c = aniso_contrast(bg_a, A_TILDE)
    trial = mz_ellipsoid(bg_a, a_z, (0.3, 0.25, 0.2))
    tmap = td_map_general(sys, c, trial, surf, pts)
    gall = KernelG(surface=surf, bg=sys.bg).bundle(pts, sys.grid.centers)
    n = sys.n_cells
    for k in range(pts.shape[0]):
        g = gall[3 * k : 3 * k + 3].reshape(3, n, 3)
        mb = np.array([apply_MB(sys, c, g[j]).values for j in range(3)])
        pair = np.einsum("inc,knc->ik", g.conj(), mb)
        ref = -sys.grid.cell_volume * np.sum(trial.M_z * pair).real
        assert tmap.values[k] == pytest.approx(ref, rel=1e-9)


def test_td_map_matches_brute_pairing(sys_h6, small_map_setup):
    # independent route: the resolvent pairing rewritten through the solution
    # operator M_B on the sigma-split system, (I - q R)^{-1} g = M_B g / (2 a q)
    surf, pts = small_map_setup
    c = iso_contrast(1.0, 2.0)
    trial = iso_contrast(1.0, 2.0)
    tmap = td_map_iso(sys_h6, c, trial, surf, pts)
    kern = KernelG(surface=surf, bg=sys_h6.bg, mode="quadrature")
    gall = kern.bundle(pts, sys_h6.grid.centers)
    a = sys_h6.bg.iso_a
    pref = -16.0 * np.pi * a**2 * c.q * trial.q / (3.0 - trial.q)
    pref *= sys_h6.grid.cell_volume
    n = sys_h6.n_cells
    for k in range(pts.shape[0]):
        total = 0.0
        for i in range(3):
            g = gall[3 * k + i].reshape(n, 3)
            mb = apply_MB(sys_h6, c, g).values
            total += (np.sum(g.conj() * mb) / (2.0 * a * c.q)).real
        assert tmap.values[k] == pytest.approx(pref * total, rel=1e-9)


def test_td_map_input_guards(sys_h6, small_map_setup):
    surf, pts = small_map_setup
    c = iso_contrast(1.0, 2.0)
    with pytest.raises(ValueError):
        td_map_iso(sys_h6, c, iso_contrast(2.0, 4.0), surf, pts)  # trial bg mismatch
    with pytest.raises(ValueError):
        td_map_iso(sys_h6, c, c, surf, np.array([[6.0, 0.0, 0.0]]))  # outside surface
    trial_pt = mz_ball_iso(1.0, 1.0)
    a_tensor = aniso_contrast(SymTensor3.identity(), SymTensor3.scaled_identity(2.0))
    bad_pt = mz_ball_iso(2.0, 1.0)
    with pytest.raises(ValueError):
        td_map_general(sys_h6, a_tensor, bad_pt, surf, pts)


def test_nan_points_are_rejected(sys_h6, small_map_setup):
    # a NaN coordinate compares False against the radius; it must still fail
    surf, pts = small_map_setup
    c = iso_contrast(1.0, 2.0)
    bad = pts.copy()
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        td_map_iso(sys_h6, c, c, surf, bad)
    with pytest.raises(ValueError):
        KernelG(surface=surf, bg=sys_h6.bg).bundle(bad, sys_h6.grid.centers)
    with pytest.raises(ValueError):
        kernel_G(surf, sys_h6.bg, bad[1], pts[0])


def test_scatter_matrix_matches_per_source_reference(ball_grid_h6):
    # one stacked solve over all sources against one sign-split solve per
    # point source, anisotropic scatterer in an anisotropic background
    bg_a = SymTensor3.diag(1.2, 0.9, 1.1)
    sys = assemble(ball_grid_h6, Background(A=bg_a, kappa=1.0))
    c = aniso_contrast(bg_a, A_TILDE)
    nodes = sphere_surface(3.0, 4).nodes
    got = _scatter_matrix(sys, c, nodes)
    centers = sys.grid.centers
    to_nodes = grad_phi(sys.bg, nodes[:, None, :] - centers[None, :, :])
    ref = np.empty((nodes.shape[0], nodes.shape[0]), dtype=complex)
    for q, x in enumerate(nodes):
        h = apply_MB(sys, c, grad_phi(sys.bg, centers - x)).values
        ref[:, q] = sys.grid.cell_volume * np.einsum("pjc,jc->p", to_nodes, h)
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_finite_delta_smoke(sys_h6, small_map_setup):
    surf, _ = small_map_setup
    c = iso_contrast(1.0, 2.0)
    trial = iso_contrast(1.0, 2.0)
    z = np.array([0.25, 0.1, -0.15])
    out = td_finite_delta_check(sys_h6, c, trial, surf, z, deltas=(0.2,), cells_across=4)
    (delta, ratio), = out
    assert delta == 0.2
    assert 0.5 < ratio < 1.5
    with pytest.raises(ValueError):
        td_finite_delta_check(sys_h6, c, trial, surf, z, deltas=(0.2,), cells_across=2)

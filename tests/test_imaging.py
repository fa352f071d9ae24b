"""Imaging kernels, surface operator, and the topological-derivative maps."""

from types import SimpleNamespace

import numpy as np
import pytest

from tdscope import (
    Background,
    HarmonicTrace,
    KernelG,
    SymTensor3,
    TdMap,
    aniso_contrast,
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
    operator_norm,
    solve_density,
    sphere_surface,
    synthesize_trace,
    td_finite_delta_check,
    td_map_aniso_iso,
    td_map_general,
    td_map_iso,
    truncation_order,
    surface_order_hint,
)
from tdscope import Ball, imaging, vie, voxelize
from tdscope.imaging import _scatter_matrix
from tdscope.specfun_quad import harmonics_table, regular_wave_gradients

from conftest import full_table_real_basis, full_table_wave_gradients, peak_bytes

Z = np.array([1.5, -1.0, 2.0])
Y = np.array([-2.0, 0.4, 0.8])

# frozen quadrature values on the radius-5 order-30 sphere at kappa = 1
L_ZY = -0.015671038488195583
G_ZY_00 = -0.015819627034507764
G_ZY_12 = 0.0025029997984467563
G_ZY_FRO = 0.020962814145893568


def kernel_factor(surface, bg, zs, ys):
    """The factor b of G(z, y) = sum_p conj(b_p(z)) (x) b_p(y) over zs and ys
    that imaging._kernel_factors picks for the one sphere."""
    return imaging._kernel_factors(bg, [(surface, zs)], ys)[0]


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


def test_kernel_L_series_names_itself_when_a_term_overflows():
    # the oracle study's points at kappa = 1e-6: the series needs degrees whose
    # |h_n(kappa R)|^2 passes the float range
    z, y = np.array([1.5, -1.0, 2.0]) * 1.25, np.array([-2.0, 0.4, 0.8]) * 1.25
    with pytest.raises(ValueError, match=r"kernel_L_series: .* overflows at kappa R = 5e-06"):
        kernel_L_series(5.0, 1e-6, z, y)
    # kappa R = 100 lies past the order cap; the series is cut on kappa |z|
    bg = Background.isotropic(1.0, 2.0)
    surf = sphere_surface(50.0, surface_order_hint(2.0, np.linalg.norm(Z), np.linalg.norm(Y)))
    lq = kernel_L(surf, bg, Z, Y)
    assert abs(kernel_L_series(50.0, 2.0, Z, Y) - lq) < 1e-10 * abs(lq)


def test_kernel_G_from_L(surface_r5, bg_unit):
    direct = kernel_G(surface_r5, bg_unit, Z, Y)
    via_l = kernel_G_from_L(5.0, 1.0, Z, Y)
    assert np.abs(via_l - direct).max() < 1e-4


def test_kernel_G_from_L_refuses_a_truncation_past_n_max():
    # (|z| |y| / R^2)^n = 0.98^n needs about 1,800 degrees to fall by 1e-16
    with pytest.raises(ValueError, match="series truncation exceeds supported order 60"):
        kernel_G_from_L(1.0, 1.0, (0.0, 0.0, 0.99), (0.0, 0.99, 0.0))
    # a negative kappa used to give the static kernel
    with pytest.raises(ValueError, match="kappa must be finite and >= 0"):
        kernel_G_from_L(5.0, -1.0, Z, Y)


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


@pytest.mark.parametrize("kappa, y", [(1.5, [0.1, 0.2, -0.3]), (0.0, [0.4, -0.2, 0.1])],
                         ids=["coincident", "static"])
def test_kernel_G_asymptotic_leading_term_alone(kappa, y):
    # at y = z, and at kappa = 0 for y != z, only j0 = 1 of the leading term
    # survives: ((1 + (kappa R)^2) / (12 pi R^2)) I, with no correction
    R, z = 20.0, np.array([0.1, 0.2, -0.3])
    asym = kernel_G_asymptotic(R, kappa, z, np.array(y))
    np.testing.assert_allclose(asym, (1.0 + (kappa * R) ** 2) / (12.0 * np.pi * R**2) * np.eye(3),
                               rtol=1e-15, atol=0.0)


def test_kernel_bundle_matches_loop(surface_r5, bg_unit):
    k = KernelG(surface_r5, bg_unit)
    zs = np.array([[0.5, 0.0, 0.0], [0.0, -0.8, 0.3]])
    ys = np.array([[0.1, 0.2, -0.1], [-0.4, 0.0, 0.6], [0.0, 0.9, 0.0]])
    table = k.bundle(zs, ys)
    assert table.shape == (6, 9)
    for i, z in enumerate(zs):
        for j, y in enumerate(ys):
            np.testing.assert_allclose(
                table[3 * i : 3 * i + 3, 3 * j : 3 * j + 3],
                kernel_G(surface_r5, bg_unit, z, y),
                rtol=1e-12,
                atol=1e-15,
            )


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


def test_harmonic_trace_needs_closed_sphere(bg_unit):
    cap = sphere_surface(5.0, 16, aperture=2.0)
    with pytest.raises(ValueError):
        harmonic_trace(cap, np.ones(cap.nodes.shape[0]))


def test_harmonic_trace_rejects_degrees_the_rule_cannot_integrate():
    # past order - 1 the product rule no longer integrates Y_n Y_n' exactly
    # and Parseval fails: for these values on an order-6 sphere the
    # coefficient norm read 2.084 at n_max = 12 against a surface norm of 1.384
    surf = sphere_surface(1.0, 6)
    values = np.cos(3.0 * surf.dirs[:, 0]) * surf.dirs[:, 2]
    surface_norm = np.sqrt(np.sum(surf.weights * values**2))
    assert np.linalg.norm(harmonic_trace(surf, values, n_max=5).coeffs) <= surface_norm
    with pytest.raises(ValueError, match="n_max = 12 exceeds"):
        harmonic_trace(surf, values, n_max=12)


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
    assert operator_norm(sys_h6, c) < 1.0
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


def test_td_maps_share_one_route_for_a_ball_trial(sys_h6, small_map_setup):
    # a scalar scatterer and a ball trial: the three maps take the same M_z
    # into the same contraction, bit for bit
    surf, pts = small_map_setup
    c, trial = iso_contrast(1.0, 2.0), iso_contrast(1.0, 0.5)
    maps = [td_map(sys_h6, c, trial, surf, pts)
            for td_map in (td_map_iso, td_map_aniso_iso, td_map_general)]
    for tmap in maps[1:]:
        assert tmap.values.tobytes() == maps[0].values.tobytes()
        assert tmap.inside_B.tolist() == maps[0].inside_B.tolist()
        assert tmap.imag_residue == maps[0].imag_residue


A_TILDE = SymTensor3.from_matrix([[2.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 3.0]])


def test_td_map_single_point_matches_map(sys_h6, small_map_setup):
    # one sample point solves a (3N, 3) block; a non-scalar scatterer factor
    # must still act voxel by voxel on it
    surf, pts = small_map_setup
    c = aniso_contrast(SymTensor3.identity(), A_TILDE)
    trial = iso_contrast(1.0, 2.0)
    full = td_map_aniso_iso(sys_h6, c, trial, surf, pts[:3])
    one = td_map_aniso_iso(sys_h6, c, trial, surf, pts[1:2])
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
def test_td_map_general_matches_mb_oracle(ball_grid_h6, small_map_setup, mb_reference, bg_a,
                                          a_z):
    # an anisotropic scatterer and an ellipsoidal trial
    surf, pts = small_map_setup
    sys = assemble(ball_grid_h6, Background(A=bg_a, kappa=1.0))
    c = aniso_contrast(bg_a, A_TILDE)
    trial = mz_ellipsoid(bg_a, a_z, (0.3, 0.25, 0.2))
    tmap = td_map_general(sys, c, trial, surf, pts)
    _assert_matches_mb_oracle(tmap, sys, c, surf, pts, trial.M_z, mb_reference)


@pytest.mark.parametrize("a_tilde_z", [2.0, 0.5], ids=["q_z>0", "q_z<0"])
@pytest.mark.parametrize("regime", ["iso", "aniso_iso"])
def test_td_map_ball_trial_matches_mb_oracle(sys_h6, small_map_setup, mb_reference, regime,
                                             a_tilde_z):
    # a scalar unit-ball trial enters through the closed-form M_z of the ball
    surf, pts = small_map_setup
    trial = iso_contrast(1.0, a_tilde_z)
    if regime == "iso":
        c = iso_contrast(1.0, 2.0)
        tmap = td_map_iso(sys_h6, c, trial, surf, pts)
    else:
        c = aniso_contrast(SymTensor3.identity(), A_TILDE)
        tmap = td_map_aniso_iso(sys_h6, c, trial, surf, pts)
    m_z = mz_ball_iso(1.0, trial.beta).M_z
    _assert_matches_mb_oracle(tmap, sys_h6, c, surf, pts, m_z, mb_reference)


def _assert_matches_mb_oracle(tmap, sys, c, surf, pts, m_z, mb_reference):
    # T(z) = -h^3 Re sum_ik (M_z)_ik < g_i, M_B g_k > with M_B from the dense
    # direct form, applied to every row of G
    gall = KernelG(surface=surf, bg=sys.bg).bundle(pts, sys.grid.centers)
    n = sys.n_cells
    rows = gall.reshape(-1, n, 3)
    mb_rows = mb_reference(sys, c, rows)
    for k in range(pts.shape[0]):
        g, mb = rows[3 * k : 3 * k + 3], mb_rows[3 * k : 3 * k + 3]
        pair = np.einsum("inc,knc->ik", g.conj(), mb)
        ref = -sys.grid.cell_volume * np.sum(m_z * pair).real
        assert tmap.values[k] == pytest.approx(ref, rel=1e-9)


def test_td_map_matches_brute_pairing(sys_h6, small_map_setup, mb_reference):
    # independent route: the resolvent pairing rewritten through the dense
    # direct-form solution operator M_B, (I - q R)^{-1} g = M_B g / (2 a q)
    surf, pts = small_map_setup
    c = iso_contrast(1.0, 2.0)
    trial = iso_contrast(1.0, 2.0)
    tmap = td_map_iso(sys_h6, c, trial, surf, pts)
    kern = KernelG(surface=surf, bg=sys_h6.bg)
    gall = kern.bundle(pts, sys_h6.grid.centers)
    a = sys_h6.bg.iso_a
    pref = -16.0 * np.pi * a**2 * c.q * trial.q / (3.0 - trial.q)
    pref *= sys_h6.grid.cell_volume
    n = sys_h6.n_cells
    for k in range(pts.shape[0]):
        total = 0.0
        for i in range(3):
            g = gall[3 * k + i].reshape(n, 3)
            mb = mb_reference(sys_h6, c, g)
            total += (np.sum(g.conj() * mb) / (2.0 * a * c.q)).real
        assert tmap.values[k] == pytest.approx(pref * total, rel=1e-9)


def test_td_map_input_guards(sys_h6, small_map_setup):
    surf, pts = small_map_setup
    c = iso_contrast(1.0, 2.0)
    with pytest.raises(ValueError):
        td_map_iso(sys_h6, c, iso_contrast(2.0, 4.0), surf, pts)  # trial bg mismatch
    with pytest.raises(ValueError):
        td_map_iso(sys_h6, c, c, surf, np.array([[6.0, 0.0, 0.0]]))  # outside surface
    a_tensor = aniso_contrast(SymTensor3.identity(), SymTensor3.scaled_identity(2.0))
    bad_pt = mz_ball_iso(2.0, 1.0)
    with pytest.raises(ValueError):
        td_map_general(sys_h6, a_tensor, bad_pt, surf, pts)
    # a ball trial of another background
    with pytest.raises(ValueError, match="contrast background coefficient must match"):
        td_map_general(sys_h6, c, iso_contrast(2.0, 4.0), surf, pts)


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


def test_scatter_matrix_matches_per_source_reference(ball_grid_h6, mb_reference):
    # one stacked solve over all sources against one dense direct-form solve
    # per point source, anisotropic scatterer in an anisotropic background
    bg_a = SymTensor3.diag(1.2, 0.9, 1.1)
    sys = assemble(ball_grid_h6, Background(A=bg_a, kappa=1.0))
    c = aniso_contrast(bg_a, A_TILDE)
    nodes = sphere_surface(3.0, 4).nodes
    got = _scatter_matrix(sys, c, nodes)
    centers = sys.grid.centers
    to_nodes = grad_phi(sys.bg, nodes[:, None, :] - centers[None, :, :])
    ref = np.empty((nodes.shape[0], nodes.shape[0]), dtype=complex)
    for q, x in enumerate(nodes):
        h = mb_reference(sys, c, grad_phi(sys.bg, centers - x))
        ref[:, q] = sys.grid.cell_volume * np.einsum("pjc,jc->p", to_nodes, h)
    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_finite_delta_smoke(sys_h6, small_map_setup):
    surf, _ = small_map_setup
    c = iso_contrast(1.0, 2.0)
    trial = iso_contrast(1.0, 2.0)
    z = np.array([0.25, 0.1, -0.15])
    out = td_finite_delta_check(sys_h6, c, trial, surf, z, deltas=(0.2,), cells_across=4)
    (delta, ratio), = out.pairs
    assert delta == 0.2
    assert 0.5 < ratio < 1.5
    with pytest.raises(ValueError):
        td_finite_delta_check(sys_h6, c, trial, surf, z, deltas=(0.2,), cells_across=2)


def test_finite_delta_checks_inputs_before_any_solve(sys_h6, small_map_setup, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("assembled or solved before the inputs were checked")

    monkeypatch.setattr(imaging, "assemble", refuse)
    monkeypatch.setattr(imaging, "_half_pairing", refuse)
    surf, _ = small_map_setup
    c = iso_contrast(1.0, 2.0)
    z = np.array([0.25, 0.1, -0.15])
    with pytest.raises(ValueError, match="delta must be positive"):
        td_finite_delta_check(sys_h6, c, c, surf, z, deltas=(0.2, -0.1))
    with pytest.raises(ValueError, match="delta must be positive"):
        td_finite_delta_check(sys_h6, c, c, surf, z, deltas=(0.2, np.nan))
    with pytest.raises(ValueError, match="must match the system"):
        td_finite_delta_check(sys_h6, c, iso_contrast(2.0, 4.0), surf, z, deltas=(0.2,))
    with pytest.raises(ValueError, match="must match the system"):
        td_finite_delta_check(sys_h6, iso_contrast(2.0, 4.0), c, surf, z, deltas=(0.2,))
    with pytest.raises(TypeError):
        td_finite_delta_check(sys_h6, c, mz_ball_iso(1.0, 1.0), surf, z, deltas=(0.2,))
    with pytest.raises(ValueError, match="closed sphere"):
        cap = sphere_surface(5.0, 24, aperture=1.0)
        td_finite_delta_check(sys_h6, c, c, cap, z, deltas=(0.2,))
    # the ball of radius 0.2 at |z| = 4.9 crosses the radius-5 sphere
    with pytest.raises(ValueError, match="strictly inside"):
        td_finite_delta_check(sys_h6, c, c, surf, [4.9, 0.0, 0.0], deltas=(0.2,))
    aniso = SimpleNamespace(grid=sys_h6.grid, bg=Background(SymTensor3.diag(1.0, 2.0, 1.0), 1.0))
    with pytest.raises(ValueError, match="isotropic background"):
        td_finite_delta_check(aniso, c, c, surf, z, deltas=(0.2,))
    # 40 cells across give each trial ball 33,552 voxels, above the cap of 20,000
    with pytest.raises(MemoryError, match="33552 voxels, which exceed the cap 20000"):
        td_finite_delta_check(sys_h6, c, c, surf, z, deltas=(0.2, 0.1), cells_across=40)


def _data_lhs(sys_b, contrast, sys_d, trial, surf, with_e):
    """-Re sum_mq w_m w_q conj(u_delta) u_B from the K x K node data, with E on
    the measurement index of both or without it."""
    w = surf.weights
    u_b = _scatter_matrix(sys_b, contrast, surf.nodes)
    u_d = _scatter_matrix(sys_d, trial, surf.nodes)
    if with_e:
        k = sys_b.bg.kappa / np.sqrt(sys_b.bg.iso_a)
        n_max = truncation_order(k, surf.radius)
        assert surf.order >= n_max + 2
        tab = harmonics_table(n_max, surf.dirs, kind="real")
        en = np.repeat(e_multipliers(k, surf.radius, n_max), 2 * np.arange(n_max + 1) + 1)

        def e_on_measurement(u):
            # harmonic_trace, e_apply and synthesize_trace on every column
            return tab.T @ (en[:, None] * ((tab * w) @ u)) / surf.radius**2

        u_b, u_d = e_on_measurement(u_b), e_on_measurement(u_d)
    return -float(np.real(np.einsum("m,q,mq,mq->", w, w, u_d.conj(), u_b)))


@pytest.mark.parametrize("case", ["spectral", "nodes_aniso_a15"])
def test_finite_delta_matches_node_data(ball_grid_h6, monkeypatch, case):
    # the check's kernel-factor responses against the data-side route: the
    # node scattering matrices of the scatterer and of the delta-ball
    a, delta, cells = (1.0, 0.2, 4) if case == "spectral" else (1.5, 0.15, 4)
    bg = Background.isotropic(a, 1.0)
    sys = assemble(ball_grid_h6, bg)
    z = np.array([0.25, 0.1, -0.15])
    trial = iso_contrast(a, 2.0 * a)
    if case == "spectral":
        contrast = iso_contrast(a, 2.0 * a)
        surf = sphere_surface(5.0, truncation_order(1.0, 5.0) + 2)
        t_z = td_map_iso(sys, contrast, trial, surf, z[None, :]).values[0]
    else:
        _force_nodes(monkeypatch)
        contrast = aniso_contrast(bg.A, SymTensor3.from_matrix(a * A_TILDE.matrix))
        surf = sphere_surface(3.0, truncation_order(1.0 / np.sqrt(a), 3.0) + 2)
        t_z = td_map_aniso_iso(sys, contrast, trial, surf, z[None, :]).values[0]
    check = td_finite_delta_check(sys, contrast, trial, surf, z, deltas=(delta,),
                                  cells_across=cells)
    assert check.kernel_factor == case.split("_")[0]
    if case != "spectral":
        assert check.kernel_rank == surf.weights.size
    (_, ratio), = check.pairs
    sys_d = assemble(voxelize(Ball(delta, center=tuple(z)), 2.0 * delta / cells), bg)
    for with_e in (True, False):
        lhs = _data_lhs(sys, contrast, sys_d, trial, surf, with_e)
        assert abs(lhs / (delta**3 * t_z) - ratio) <= 1e-10


# ---------------------------------------------------------------------------
# the kernel factor: spectral on closed spheres in isotropic media, nodes otherwise

OFF_CENTER = (0.3, -0.2, 0.1)
FACTOR_CASES = [(1.0, 1.0, None), (0.0, 1.0, None), (1.0, 2.0, OFF_CENTER),
                (0.0, 2.0, OFF_CENTER)]


def _force_nodes(monkeypatch):
    monkeypatch.setattr(imaging, "_spectral_order", lambda *args: None)


@pytest.fixture(scope="module")
def iso_systems_h8(ball_grid_h8):
    return {(kappa, a): assemble(ball_grid_h8, Background.isotropic(a, kappa))
            for kappa, a, _ in FACTOR_CASES}


def _regime_map(regime, sys, surf, pts):
    a = sys.bg.iso_a
    if regime == "iso":
        return td_map_iso(sys, iso_contrast(a, 2.0 * a), iso_contrast(a, 1.5 * a), surf, pts)
    c = aniso_contrast(SymTensor3.scaled_identity(a), SymTensor3.from_matrix(a * A_TILDE.matrix))
    if regime == "aniso_iso":
        return td_map_aniso_iso(sys, c, iso_contrast(a, 0.5 * a), surf, pts)
    trial = mz_ellipsoid(sys.bg.A, SymTensor3.diag(0.5 * a, 0.6 * a, 0.4 * a), (0.3, 0.25, 0.2))
    return td_map_general(sys, c, trial, surf, pts)


@pytest.mark.parametrize("regime", ["iso", "aniso_iso", "general"])
@pytest.mark.parametrize("kappa, a, center", FACTOR_CASES,
                         ids=["k1_a1", "k0_a1", "k1_a2_off", "k0_a2_off"])
def test_spectral_and_node_factor_maps_agree(iso_systems_h8, monkeypatch, regime,
                                             kappa, a, center):
    # 125 points: the spectral map contracts its P = 225 wave response T_m,
    # the node map its K = 1800 node response
    sys = iso_systems_h8[(kappa, a)]
    c = np.zeros(3) if center is None else np.asarray(center)
    surf = sphere_surface(5.0, 30, center=c)
    ax = np.linspace(-0.9, 0.9, 5)
    pts = c + np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    spectral = _regime_map(regime, sys, surf, pts)
    assert spectral.kernel_factor == "spectral"
    assert spectral.kernel_rank < 3 * pts.shape[0]
    _force_nodes(monkeypatch)
    nodes = _regime_map(regime, sys, surf, pts)
    assert (nodes.kernel_factor, nodes.kernel_rank) == ("nodes", surf.weights.size)
    err = np.abs(spectral.values - nodes.values).max() / np.abs(nodes.values).max()
    assert err <= 1e-12


@pytest.mark.parametrize("radius, dist", [(100.0, 10.5), (1000.0, 126.0), (2.15e5, 40.3)])
def test_factors_agree_at_decay_geometries(ball_grid_h8, monkeypatch, radius, dist):
    # within the node quadrature's own error, read off its imaginary part
    # (zero in exact arithmetic on a closed sphere)
    bg = Background.isotropic(1.0, 1.0)
    ys = ball_grid_h8.centers[::10]
    zs = (dist * np.array([2.0, -1.0, 2.0]) / 3.0)[None, :]
    surf = sphere_surface(radius, surface_order_hint(1.0, dist + 0.5, 0.5))
    kern = KernelG(surf, bg)
    assert kernel_factor(surf, bg, zs, ys).kind == "spectral"
    spectral = kern.bundle(zs, ys)
    _force_nodes(monkeypatch)
    nodes = kern.bundle(zs, ys)
    scale = np.abs(nodes).max()
    tol = max(1e-12, 10.0 * np.abs(nodes.imag).max() / scale)
    assert np.abs(spectral - nodes).max() / scale <= tol


def test_single_point_map_matches_many_point_map(sys_h8):
    # the node factor of a cap rule (K = 128 nodes): Z = 125 points and each
    # single point contract the same node response T_m
    surf = sphere_surface(5.0, 8, aperture=2.0)
    ax = np.linspace(-1.0, 1.0, 5)
    pts = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    c = iso_contrast(1.0, 2.0)
    trial = iso_contrast(1.0, 2.0)
    full = td_map_iso(sys_h8, c, trial, surf, pts)
    assert (full.kernel_factor, full.kernel_rank) == ("nodes", 128)
    assert full.kernel_rank < 3 * pts.shape[0]
    for k in (0, 37, 124):
        one = td_map_iso(sys_h8, c, trial, surf, pts[k:k + 1])
        assert one.kernel_rank > 3
        assert one.values[0] == pytest.approx(full.values[k], rel=1e-13)


def test_cap_and_anisotropic_background_take_node_factor(ball_grid_h6, sys_h6):
    zs = np.array([[0.5, 0.0, 0.0], [0.0, -0.8, 0.3]])
    ys = ball_grid_h6.centers[::20]
    cap = sphere_surface(5.0, 24, aperture=2.0)
    aniso = Background(A=SymTensor3.diag(1.2, 0.9, 1.1), kappa=1.0)
    for surf, bg in ((cap, sys_h6.bg), (sphere_surface(5.0, 24), aniso)):
        kern = KernelG(surf, bg)
        fac = kernel_factor(surf, bg, zs, ys)
        assert (fac.kind, fac.rank) == ("nodes", surf.weights.size)
        table = kern.bundle(zs, ys)
        loop = np.block([[kernel_G(surf, bg, z, y) for y in ys] for z in zs])
        np.testing.assert_allclose(table, loop, rtol=1e-12, atol=1e-15)
    c = iso_contrast(1.0, 2.0)
    tmap = td_map_iso(sys_h6, c, c, cap, zs)
    assert (tmap.kernel_factor, tmap.kernel_rank) == ("nodes", cap.weights.size)


def test_spectral_truncation_falls_back_near_the_surface(bg_unit):
    # the geometric tail (|z| |y| / R^2)^n needs more than N_MAX degrees when
    # both point sets reach close to the surface, and the node factor takes over
    surf = sphere_surface(1.0, 40)
    near = np.array([[0.0, 0.0, 0.9]])
    assert kernel_factor(surf, bg_unit, near, near).kind == "nodes"
    mid = np.array([[0.0, 0.3, 0.0]])
    assert kernel_factor(surf, bg_unit, mid, near).kind == "spectral"
    # the peaked integrand needs a fine rule; its roundoff shows in Im G
    quad = kernel_G(sphere_surface(1.0, 200), bg_unit, mid[0], near[0])
    scale = np.abs(quad).max()
    tol = max(1e-12, 10.0 * np.abs(quad.imag).max() / scale)
    assert np.abs(KernelG(surf, bg_unit).bundle(mid, near) - quad).max() / scale <= tol


def test_spectral_truncation_on_a_sphere_past_r_squared_overflow(sys_h6):
    # R^2 overflows past R = 1.3e154; the tail ratio (|z| / R) (|y| / R)
    # underflows to 0 instead, leaving the Bessel tail to set the degree
    assert imaging._spectral_order(1.0, 1e200, 0.5, 0.5) == 13
    c = iso_contrast(1.0, 2.0)
    pts = np.array([[0.3, -0.2, 0.1]])
    far, farther = (td_map_iso(sys_h6, c, c, sphere_surface(r, 20), pts) for r in (1e100, 1e200))
    assert farther.kernel_factor == "spectral"
    assert farther.values[0] == pytest.approx(far.values[0], rel=1e-12)


# ---------------------------------------------------------------------------
# the regular-wave response T_w, solved by each map on its own: a system
# that served other maps gives the same map as a fresh one


def _rel_diff(got, want):
    return np.abs(got.values - want.values).max() / np.abs(want.values).max()


@pytest.mark.parametrize("regime", ["iso", "aniso_iso", "general"])
@pytest.mark.parametrize("kappa, a, center", FACTOR_CASES,
                         ids=["k1_a1", "k0_a1", "k1_a2_off", "k0_a2_off"])
def test_map_on_a_used_system_matches_a_fresh_system(ball_grid_h8, monkeypatch, regime,
                                                     kappa, a, center):
    # the used system first serves a map of another n_max (R = 3), then the
    # radii in turn, which share one n_max; each map must equal the map on a
    # fresh system, and that one the node-factor map
    bg = Background.isotropic(a, kappa)
    c = np.zeros(3) if center is None else np.asarray(center)
    ax = np.linspace(-0.9, 0.9, 3)
    pts = c + np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    used = assemble(ball_grid_h8, bg)
    first = _regime_map(regime, used, sphere_surface(3.0, 20, center=c), pts)
    for radius in (5.0, 100.0, 1000.0):
        surf = sphere_surface(radius, 20, center=c)
        reused = _regime_map(regime, used, surf, pts)
        assert reused.kernel_factor == "spectral"
        assert reused.kernel_rank != first.kernel_rank
        fresh_sys = assemble(ball_grid_h8, bg)
        fresh = _regime_map(regime, fresh_sys, surf, pts)
        assert _rel_diff(reused, fresh) <= 1e-13
        with monkeypatch.context() as m:
            _force_nodes(m)
            nodes = _regime_map(regime, fresh_sys, surf, pts)
        assert nodes.kernel_factor == "nodes"
        assert _rel_diff(fresh, nodes) <= 1e-12


def test_maps_leave_the_system_as_they_found_it(ball_grid_h6, bg_unit, small_map_setup):
    # a map, a finite-size check and a map with another contrast: the system
    # keeps its attribute names and objects, and no array or container grows
    surf, pts = small_map_setup
    sys = assemble(ball_grid_h6, bg_unit)
    before = dict(vars(sys))
    sizes = {k: np.shape(v) if isinstance(v, np.ndarray) else len(v)
             for k, v in before.items() if hasattr(v, "__len__")}
    trial = iso_contrast(1.0, 1.5)
    td_map_general(sys, iso_contrast(1.0, 2.0), trial, surf, pts)
    td_finite_delta_check(sys, iso_contrast(1.0, 2.0), trial, surf, pts[1], deltas=(0.2,),
                          cells_across=4)
    td_map_general(sys, iso_contrast(1.0, 0.5), trial, surf, pts)
    assert list(vars(sys)) == list(before)
    assert all(vars(sys)[k] is v for k, v in before.items())
    assert sizes == {k: np.shape(v) if isinstance(v, np.ndarray) else len(v)
                     for k, v in vars(sys).items() if hasattr(v, "__len__")}


def test_cached_response_is_keyed_by_contrast_centre_and_order(ball_grid_h8):
    # on one system: contrast A, B, then A again; a second centre; points
    # reaching further, which raise n_max
    bg = Background.isotropic(1.0, 1.0)
    used = assemble(ball_grid_h8, bg)
    trial = iso_contrast(1.0, 1.5)
    c_a, c_b = iso_contrast(1.0, 2.0), iso_contrast(1.0, 0.5)
    ax = np.linspace(-0.6, 0.6, 3)
    pts = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    off = np.asarray(OFF_CENTER)
    surf, surf_off = sphere_surface(5.0, 20), sphere_surface(5.0, 20, center=off)
    far = 4.0 * pts
    ranks = []
    for c, s, p in ((c_a, surf, pts), (c_b, surf, pts), (c_a, surf, pts),
                    (c_a, surf_off, pts + off), (c_a, surf, far)):
        got = td_map_iso(used, c, trial, s, p)
        want = td_map_iso(assemble(ball_grid_h8, bg), c, trial, s, p)
        assert _rel_diff(got, want) <= 1e-13
        ranks.append(got.kernel_rank)
    assert ranks[3] == ranks[0] < ranks[4]


# ---------------------------------------------------------------------------
# one contraction for sample points on spheres of several radii (the decay
# sweep), against one td_map_iso call per sample


def _contract(sys, contrast, trial, spheres):
    """imaging._contract for a scalar ball trial, as the decay study calls it:
    Re T per sample in order, and each sample's (kernel_factor, kernel_rank)."""
    m_z = imaging._ball_trial_mz(sys, trial, contrast)
    facs = imaging._kernel_factors(sys.bg, spheres, sys.grid.centers)
    raw = imaging._contract(sys, contrast, m_z, facs, [zs for _, zs in spheres])
    return raw.real, [(fac.kind, fac.rank) for fac, (_, zs) in zip(facs, spheres) for _ in zs]


def _own_spheres(surfs, pts):
    """Each sample on its own sphere, with its own truncation."""
    return [(surf, z[None, :]) for surf, z in zip(surfs, pts)]


def _per_sample(sys, contrast, trial, spheres):
    maps = [td_map_iso(sys, contrast, trial, s, z[None, :])
            for s, zs in spheres for z in zs]
    return (np.array([m.values[0] for m in maps]),
            [(m.kernel_factor, m.kernel_rank) for m in maps])


def _decay_sweep(kappa):
    """A window sweep at alpha = 0.5 on three rays from a ball of radius 0.5
    (distances over one decade, radii over two), one sphere per distance
    shared by the rays, then the three sphere geometries of
    test_factors_agree_at_decay_geometries."""
    etas = 0.01 * 10.0 ** -np.linspace(0.0, 2.0, 8)
    dists = etas ** -0.5
    rays = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.0, -1.0]])
    spheres = [(sphere_surface(1.0 / e, surface_order_hint(kappa, d + 0.5, 0.5)),
                (0.5 + d) * rays) for e, d in zip(etas, dists)]
    for radius, dist in ((100.0, 10.5), (1000.0, 126.0), (2.15e5, 40.3)):
        spheres.append((sphere_surface(radius, surface_order_hint(kappa, dist + 0.5, 0.5)),
                        dist * np.array([[2.0, -1.0, 2.0]]) / 3.0))
    return spheres


@pytest.mark.parametrize("kappa", [1.0, 0.0], ids=["k1", "k0"])
def test_sphere_route_matches_per_sample_maps(sys_h8, sys_static_h8, kappa):
    sys = sys_h8 if kappa > 0.0 else sys_static_h8
    c, trial = iso_contrast(1.0, 2.0), iso_contrast(1.0, 1.5)
    spheres = _decay_sweep(kappa)
    got, used = _contract(sys, c, trial, spheres)
    want, want_used = _per_sample(sys, c, trial, spheres)
    assert used == want_used
    assert {kind for kind, _ in used} == {"spectral"}
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_sphere_route_groups_by_centre_and_order_and_falls_back(sys_h8):
    # two centres, two truncations, a cap rule and a point close to its
    # sphere (past N_MAX): four spectral groups and two node maps; +-pts
    # about the off-centre spheres reach differently, so each sample has
    # its own sphere
    c, trial = iso_contrast(1.0, 2.0), iso_contrast(1.0, 1.5)
    off = np.array([0.2, -0.1, 0.1])
    surfs = [sphere_surface(r, 20, center=ctr) for ctr in (np.zeros(3), off)
             for r in (3.0, 40.0)]
    surfs += [sphere_surface(5.0, 8, aperture=2.0), sphere_surface(0.6, 12)]
    pts = np.array([[1.0, 0.5, 0.0], [0.0, 3.0, 1.0], [0.0, 0.3, -1.5], [2.0, 2.0, 2.0],
                    [0.5, 0.0, 0.5], [0.0, 0.0, 0.59]])
    spheres = _own_spheres(surfs * 2, np.vstack([pts, -pts]))
    got, used = _contract(sys_h8, c, trial, spheres)
    want, want_used = _per_sample(sys_h8, c, trial, spheres)
    assert used == want_used
    assert [kind for kind, _ in used[:6]] == ["spectral"] * 4 + ["nodes"] * 2
    assert len({rank for _, rank in used[:4]}) >= 2
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_sphere_route_solves_each_node_sphere_once(ball_grid_h8, bg_unit, monkeypatch):
    # three samples on a cap rule share one node response, two on a closed
    # sphere one wave response T_w: two solves, where one node solve per
    # sample would make four
    sys = assemble(ball_grid_h8, bg_unit)
    c, trial = iso_contrast(1.0, 2.0), iso_contrast(1.0, 1.5)
    cap, closed = sphere_surface(5.0, 8, aperture=2.0), sphere_surface(5.0, 20)
    spheres = [(cap, np.array([[0.5, 0.0, 0.5], [1.0, -0.5, 0.0], [-0.3, 0.2, 1.2]])),
               (closed, np.array([[1.0, 0.5, 0.0], [0.0, -2.0, 1.0]]))]
    solved = []
    solve = imaging._half_pairing
    monkeypatch.setattr(imaging, "_half_pairing",
                        lambda s, ctr, g: solved.append(np.shape(g)[0]) or solve(s, ctr, g))
    got, used = _contract(sys, c, trial, spheres)
    assert sorted(solved) == sorted([used[-1][1], cap.weights.size])
    assert [kind for kind, _ in used] == ["nodes"] * 3 + ["spectral"] * 2
    monkeypatch.setattr(imaging, "_half_pairing", solve)
    want, want_used = _per_sample(sys, c, trial, spheres)
    assert used == want_used
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_sphere_route_coefficients_out_of_range(sys_h8, monkeypatch):
    c, trial = iso_contrast(1.0, 2.0), iso_contrast(1.0, 1.5)
    # the first ray of the sweep, on rules of 200 nodes for the node maps
    spheres = [(sphere_surface(s.radius, 10), zs[:1]) for s, zs in _decay_sweep(1.0)[:8]]
    half_log_c = imaging._half_log_c
    # non-finite coefficients past a radius: those samples, like their
    # single maps, take the node factor
    with monkeypatch.context() as m:
        m.setattr(imaging, "_half_log_c", lambda n_max, k, a, radii: np.where(
            np.asarray(radii) > 2000.0, np.inf, half_log_c(n_max, k, a, radii)))
        got, used = _contract(sys_h8, c, trial, spheres)
        want, want_used = _per_sample(sys_h8, c, trial, spheres)
    assert used == want_used
    assert [kind for kind, _ in used] == ["spectral"] * 5 + ["nodes"] * 3
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))
    # finite coefficients whose folded diagonal underflows: an error, not a zero map
    monkeypatch.setattr(imaging, "_half_log_c", lambda *args: half_log_c(*args) - 400.0)
    with pytest.raises(ValueError, match="out of floating-point range"):
        _contract(sys_h8, c, trial, spheres)


def test_sphere_route_checks_every_point_before_solving(sys_h8, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the checks")

    monkeypatch.setattr(imaging, "_half_pairing", no_solve)
    c, trial = iso_contrast(1.0, 2.0), iso_contrast(1.0, 1.5)
    surfs = [sphere_surface(5.0, 20), sphere_surface(5.0, 20)]
    good = np.array([1.0, 0.0, 0.0])
    for pts, surfs_, match in (
            ([good, [0.0, 5.0, 0.0]], surfs, "sample points must lie strictly inside"),
            ([good, [np.nan, 0.0, 0.0]], surfs, "sample points must be finite"),
            ([good, [0.1, 0.0, 0.0]], [surfs[0], sphere_surface(0.4, 20)], "voxel centers must"),
            ([good, [0.1, 0.0]], surfs, r"sample points must have shape \(Z, 3\)")):
        spheres = [(s, np.array(z)[None, :]) for s, z in zip(surfs_, pts)]
        with pytest.raises(ValueError, match=match):
            _contract(sys_h8, c, trial, spheres)
    with pytest.raises(TypeError):
        _contract(sys_h8, c, mz_ball_iso(1.0, 0.5), _own_spheres(surfs, np.array([good, good])))


def test_kernel_factors_raise_the_error_of_the_first_failing_sphere(bg_unit):
    # the spheres are checked in order, so the error is that of the first
    # sphere that fails, whatever the later spheres hold
    ys = voxelize(Ball(0.5), 1.0 / 6.0).centers
    s5, s04 = sphere_surface(5.0, 20), sphere_surface(0.4, 20)
    good, outside, nan = [[1.0, 0.0, 0.0]], [[0.0, 5.0, 0.0]], [[np.nan, 0.0, 0.0]]
    facs = imaging._kernel_factors(bg_unit, [(s5, good), (s5, np.zeros((0, 3))), (s5, good)], ys)
    assert [fac.kind for fac in facs] == ["spectral"] * 3
    for spheres, match in (
            ([(s5, outside), (s5, nan)], "sample points must lie strictly inside"),
            ([(s5, good), (s5, nan), (s5, outside)], "sample points must be finite"),
            ([(s04, [[0.1, 0.0, 0.0]]), (s5, [[0.1, 0.0]])], "voxel centers must"),
            ([(s5, [[0.1, 0.0]]), (s04, [[0.1, 0.0, 0.0]])], r"must have shape \(Z, 3\)"),
            ([(s5, outside), (s5, np.zeros((1, 1, 3)))], "sample points must lie strictly"),
            ([(s5, outside), (s5, [[0.0, 0.0, 0.0], [1.0]])], "sample points must lie strictly")):
        with pytest.raises(ValueError, match=match):
            imaging._kernel_factors(bg_unit, spheres, ys)


# ---------------------------------------------------------------------------
# the spectral factor in the real basis of the regular waves


def _complex_factor(fac, pts):
    """sqrt(c_p) grad u_nm(x - centre) in the complex basis of the waves, unscaled."""
    w = regular_wave_gradients(fac.n_max, fac.k, pts - fac.center)
    return np.exp(fac.half_log_c)[:, None, None] * w


def test_spectral_factor_is_real_and_factors_G(surface_r5, bg_unit):
    fac = kernel_factor(surface_r5, bg_unit, Z[None, :], Y[None, :])
    assert fac.kind == "spectral"
    bz, by = fac(Z[None, :])[:, 0], fac(Y[None, :])[:, 0]
    assert np.isrealobj(bz) and np.isrealobj(by)
    g = bz.T @ by
    ref = kernel_G_from_L(5.0, 1.0, Z, Y)
    assert np.abs(g - ref).max() <= 1e-13 * np.abs(ref).max()
    cz, cy = _complex_factor(fac, Z[None, :])[:, 0], _complex_factor(fac, Y[None, :])[:, 0]
    gc = cz.conj().T @ cy
    assert np.abs(g - gc).max() <= 1e-13 * np.abs(gc).max()


def test_centred_ball_wave_response_is_block_diagonal_by_parity(ball_grid_h6, bg_unit,
                                                                 mb_reference):
    sys = assemble(ball_grid_h6, bg_unit)
    centers = sys.grid.centers
    fac = kernel_factor(sphere_surface(5.0, 20), bg_unit, centers, centers)
    rho = fac._rho(centers)
    waves = fac._waves(centers, rho)
    assert np.isrealobj(waves)
    # each wave is even or odd under each coordinate mirror S_k through the
    # centre: W(S_k x) = +-S_k W(x); bit k of its class is set when odd
    scale = np.abs(waves).max(axis=(1, 2))
    cls = np.zeros(fac.rank, dtype=int)
    for k in range(3):
        s = np.ones(3)
        s[k] = -1.0
        mirrored = fac._waves(centers * s, rho) * s
        even = np.abs(mirrored - waves).max(axis=(1, 2))
        odd = np.abs(mirrored + waves).max(axis=(1, 2))
        assert np.all(np.minimum(even, odd) <= 1e-13 * scale)
        cls += (odd < even) << k
    assert fac.rank == 196
    assert np.bincount(cls, minlength=8).tolist() == [28, 28, 28, 21, 28, 21, 21, 21]
    contrast = iso_contrast(1.0, 2.0)
    t_w = imaging._half_pairing(sys, contrast, waves)
    # every pair is the dense reference's 1/2 W^T M_B W
    p = len(waves)
    want = 0.5 * waves.reshape(p, -1) @ mb_reference(sys, contrast, waves).reshape(p, -1).T
    assert np.abs(t_w - want).max() <= 1e-12 * np.abs(want).max()
    # a pair is formed, and nonzero, exactly when its two waves share a
    # segment of a block (read from the forward route); the others are exact
    # zeros: every pair of waves of different characters, and waves of one
    # character in different irreps of its stabilizer.  Each wave pairs with
    # itself.
    factors = vie._system_factors(contrast, sys.bg)
    group = vie._orbits(sys.index, sys.bg.A.matrix, *factors)
    share = np.zeros((p, p), dtype=bool)
    for _, seg, col, _ in vie._forward(group, waves, -factors[0]):
        for s in np.unique(seg):
            share[np.ix_(col[seg == s], col[seg == s])] = True
    assert np.array_equal(t_w != 0.0, share)
    off = cls[:, None] != cls[None, :]
    assert not share[off].any() and share.diagonal().all() and share[~off].mean() < 1.0


def _one_call_waves(fac, pts, rho):
    """The real waves of _SpectralFactor._waves from one complex table of every
    degree on every point, the reference evaluation."""
    x = (pts - fac.center) / rho
    return full_table_real_basis(full_table_wave_gradients(fac.n_max, fac.k * rho, x))


@pytest.mark.parametrize("chunk", [None, 49 * 6])
@pytest.mark.parametrize("k", [0.0, 1.3])
def test_spectral_waves_are_filled_in_chunks_with_the_bits_of_one_call(monkeypatch, k, chunk):
    # 1,001 points, the expansion centre among them, go through
    # _real_wave_gradients a chunk at a time: 334 points per call at the
    # default (196 waves), 6 with the smaller chunk (49 waves), neither a
    # divisor of 1,001; the real waves are bitwise those of one full table
    n_max = 13 if chunk is None else 6
    if chunk is not None:
        monkeypatch.setattr(imaging, "_WAVE_CHUNK", chunk)
    fac = imaging._SpectralFactor(center=np.array([0.1, -0.2, 0.05]), k=k, n_max=n_max,
                                  half_log_c=np.zeros((n_max + 1) ** 2))
    rng = np.random.default_rng(11)
    pts = fac.center + rng.uniform(-1.0, 1.0, (1001, 3)) * rng.uniform(0.0, 1.0, (1001, 1))
    pts[500] = fac.center
    rho = fac._rho(pts)
    calls = []
    waves = imaging._real_wave_gradients

    def spy(n, kk, x, out):
        calls.append(len(x))
        return waves(n, kk, x, out)

    monkeypatch.setattr(imaging, "_real_wave_gradients", spy)
    got = fac._waves(pts, rho)
    step = 334 if chunk is None else 6
    assert calls == [step] * (1001 // step) + [1001 % step]
    want = _one_call_waves(fac, pts, rho)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [0.0, 1.0])
@pytest.mark.parametrize("n_max", [0, 1, 2, 20])
def test_spectral_waves_are_the_full_table_real_waves_bit_for_bit(n_max, k):
    # degree by degree, the real waves keep the bits of the full complex
    # table, signed zeros included: at the centre, on the axes and in the
    # coordinate planes, where R_n^m has exact zero parts
    fac = imaging._SpectralFactor(center=np.zeros(3), k=k, n_max=n_max,
                                  half_log_c=np.zeros((n_max + 1) ** 2))
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, (60, 3))
    pts[:4] = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.4], [0.3, 0.0, 0.2], [-0.2, 0.0, 0.0]]
    pts[4:8] = [[0.0, 0.5, 0.0], [0.0, -0.3, 0.1], [0.2, -0.2, 0.0], [-0.7, 0.0, -0.1]]
    rho = fac._rho(pts)
    got, want = fac._waves(pts, rho), _one_call_waves(fac, pts, rho)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("resolution", [14, 8])
def test_spectral_waves_peak_memory(bg_unit, resolution):
    # the 196 real waves on the 1,472 cells of the resolution-14 ball (6.9 MB)
    # are written one chunk of 334 points and one degree at a time: the
    # tracemalloc peak stays below 1.5 times the real waves (measured 1.32
    # times; complex waves of every degree, a chunk at a time, peaked at 2.5
    # times them, and one call on every point at 6.4 times).  The 280 cells
    # of the resolution-8 ball are one chunk: the peak stays below half of
    # one full complex table and its real copy (measured 3.2 against 8.5 MB)
    centers = voxelize(Ball(0.5), 1.0 / resolution).centers
    fac = kernel_factor(sphere_surface(5.0, 20), bg_unit, centers, centers)
    rho = fac._rho(centers)
    waves, peak = peak_bytes(fac._waves, centers, rho)
    want, full_table = peak_bytes(_one_call_waves, fac, centers, rho)
    assert waves.shape == (196, len(centers), 3) and waves.dtype == float
    assert waves.tobytes() == want.tobytes()
    if resolution == 14:
        assert peak < 1.5 * waves.nbytes
    else:
        assert peak < 0.5 * full_table


def _pair_at_once(b_z, t_m, m_z, h3):
    """imaging._pair with one product over every sample."""
    p, nz = b_z.shape[:2]
    s = np.einsum("pzi,pzj->zij", b_z, (t_m @ b_z.conj().reshape(p, -1)).reshape(p, nz, 3))
    return -2.0 * h3 * np.einsum("ij,zji->z", m_z, s)


@pytest.mark.parametrize("chunk", [None, 1], ids=["default", "eight_samples"])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_pair_runs_in_sample_chunks_with_the_bits_of_one_product(monkeypatch, kind, chunk):
    # 729 samples of 196 waves: 48 samples per chunk at the default, 8 (the
    # least) at the smaller chunk, neither a divisor of 729; a real factor
    # (the spectral waves) and a complex one (the node fields) pair bitwise
    # as in one product over every sample
    if chunk is not None:
        monkeypatch.setattr(imaging, "_WAVE_CHUNK", chunk)
    rng = np.random.default_rng(5)
    b_z = rng.standard_normal((196, 729, 3))
    if kind == "complex":
        b_z = b_z + 1j * rng.standard_normal(b_z.shape)
    t_m = rng.standard_normal((196, 196)) + 1j * rng.standard_normal((196, 196))
    m_z = rng.standard_normal((3, 3))
    assert np.array_equal(imaging._pair(b_z, t_m, m_z, 0.01), _pair_at_once(b_z, t_m, m_z, 0.01))


def test_pair_peak_memory():
    # the real factor of 196 waves at 729 samples (3.4 MB) is cast to complex
    # for zgemm a chunk at a time, and the product is held for one chunk: the
    # tracemalloc peak stays below the real factor's own bytes, half of its
    # complex copy (one product over every sample peaked at 2.0 times that
    # copy, this at 0.31 times it)
    rng = np.random.default_rng(5)
    b_z = rng.standard_normal((196, 729, 3))
    t_m = rng.standard_normal((196, 196)) + 1j * rng.standard_normal((196, 196))
    _, peak = peak_bytes(imaging._pair, b_z, t_m, np.eye(3), 0.01)
    assert peak < b_z.nbytes


def test_wave_response_peak_memory_on_the_resolution_14_ball(bg_unit):
    # the regular-wave response of the resolution-14 ball (196 real waves W on
    # 1,472 cells, 6.9 MB) peaks while W is formed, at about 2.5 times W (see
    # test_spectral_waves_peak_memory): the route keeps the reached shares
    # only, W is freed before the blocks are gathered, and the blocks are
    # formed a chunk of rows at a time, so no later stage rises above it.  The
    # tracemalloc peak stays below 2.6 times W, 5% above the 2.47 times
    # measured (routed from the shares of every character and column, with
    # W held through the gather, it peaked at 3.67 times W)
    sys = assemble(voxelize(Ball(0.5), 1.0 / 14.0), bg_unit)
    centers = sys.grid.centers
    fac = kernel_factor(sphere_surface(5.0, 20), bg_unit, centers, centers)
    t_w, peak = peak_bytes(fac.wave_response, sys, iso_contrast(1.0, 2.0))
    assert t_w.shape == (196, 196)
    assert peak < 2.6 * 8 * t_w.shape[0] * sys.n_cells * 3


def test_td_map_iso_matches_a_complex_basis_reference(ball_grid_h6, bg_unit, small_map_setup):
    surf, pts = small_map_setup
    sys = assemble(ball_grid_h6, bg_unit)
    c, trial = iso_contrast(1.0, 2.0), iso_contrast(1.0, 1.5)
    tmap = td_map_iso(sys, c, trial, surf, pts)
    assert tmap.kernel_factor == "spectral"
    fac = kernel_factor(surf, bg_unit, pts, sys.grid.centers)
    b = _complex_factor(fac, sys.grid.centers)
    p = fac.rank
    h = solve_density(sys, c, b).values
    t_m = 0.5 * b.conj().reshape(p, -1) @ h.reshape(p, -1).T
    bz = _complex_factor(fac, pts)
    s = np.einsum("pzi,pq,qzj->zij", bz, t_m, bz.conj())
    m_z = mz_ball_iso(1.0, trial.beta).M_z
    want = -2.0 * sys.grid.cell_volume * np.einsum("ij,zji->z", m_z, s).real
    assert np.abs(tmap.values - want).max() <= 1e-12 * np.abs(want).max()

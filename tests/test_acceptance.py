"""Acceptance gate: eleven criteria, one test and one pass/fail line each.

Every tolerance here is the contract value; none may be loosened.  The two
qualitative claims (sign heuristic, distance decay) are exercised at full
stated size, the rest through closed forms and independent oracles.
"""

import time

import numpy as np
import pytest

from tdscope import (
    Background,
    Ball,
    SymTensor3,
    assemble,
    e_apply,
    e_multipliers,
    emit_outputs,
    eshelby_tensor,
    harmonic_trace,
    iso_contrast,
    mz_ball_iso,
    mz_ellipsoid,
    mz_general,
    operator_norm,
    parse_config,
    run_study,
    solve_density,
    sphere_surface,
    voxelize,
)


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def _cfg(text):
    return parse_config(text)


@pytest.fixture(scope="module")
def oracle_report():
    return run_study(_cfg("study = oracle\nresolution = 8\n"))


def test_criterion_01_sign_heuristic():
    base = run_study(
        _cfg("study = sign\nkappa = 1.0\nscatterer_a = 2.0\nresolution = 16\n")
    )
    flipped = run_study(
        _cfg("study = sign\nkappa = 1.0\nscatterer_a = 0.5\nresolution = 16\n")
    )
    cert = base.results["certificate"]
    neg = float(np.mean(base.tdmap.values < 0.0))
    pos = float(np.mean(flipped.tdmap.values > 0.0))
    wall = base.wall_clock_s + flipped.wall_clock_s
    ok = (
        base.status == "PASS"
        and flipped.status == "PASS"
        and cert < 1.0
        and base.tdmap.values.shape == (729,)
        and neg == 1.0
        and pos == 1.0
        and wall < 300.0
    )
    _line(
        1,
        ok,
        f"certificate {cert:.4f} < 1, T<0 at {neg:.0%} of 9^3 grid, "
        f"contrast flip positive at {pos:.0%}, {wall:.0f}s < 300s",
    )


def test_criterion_02_decay_exponent():
    rep = run_study(_cfg("study = decay\nkappa = 1.0\nresolution = 8\n"))
    slope = rep.results["slope"]
    gap = rep.results["alpha_pair_gap"]
    ok = (
        rep.status == "PASS"
        and -2.3 <= slope <= -1.7
        and gap <= 0.2
        and rep.wall_clock_s < 600.0
    )
    _line(
        2,
        ok,
        f"log-log slope {slope:.3f} in [-2.3, -1.7], alpha 0.3/0.7 gap "
        f"{gap:.3f} <= 0.2, {rep.wall_clock_s:.0f}s < 600s",
    )


def test_criterion_03_zero_frequency():
    rep = run_study(_cfg("study = decay\nkappa = 0.0\nresolution = 8\n"))
    slope = rep.results["slope"]
    ok = rep.status == "PASS" and -0.3 <= slope <= 0.3
    _line(3, ok, f"kappa = 0 slope {slope:.3f} in [-0.3, 0.3]")


def test_criterion_04_oracle_suite(oracle_report):
    rep = oracle_report
    by_name = {c["name"]: c for c in rep.checks}
    want = {
        "G_real_closed_sphere": 1e-8,
        "L_series_vs_quadrature": 1e-6,
        "L_origin_value": 1e-8,
        "G_from_L_vs_quadrature": 1e-4,
        "farfield_overlap": 1e-2,
    }
    ok = rep.status == "PASS"
    parts = []
    for name, tol in want.items():
        c = by_name[name]
        ok = ok and c["pass"] and c["tol"] == tol
        parts.append(f"{name} {c['value']:.2e}<{tol:g}")
    asym = by_name["asymptotic_overlap"]
    tol_asym = 5.0 * 0.01**0.5
    ok = ok and asym["pass"] and asym["tol"] == pytest.approx(tol_asym)
    parts.append(f"asymptotic_overlap {asym['value']:.2e}<{tol_asym:g}")
    _line(4, ok, "; ".join(parts))


def test_criterion_05_symmetry_operator():
    kappa, radius = 1.0, 5.0
    en = e_multipliers(kappa, radius, 40)
    unimod = float(np.abs(np.abs(en) - 1.0).max())
    surf = sphere_surface(radius, 30)
    z = np.array([0.4, -0.2, 0.3])
    d = np.linalg.norm(surf.nodes - z, axis=1)
    trace = harmonic_trace(surf, -1j * np.exp(1j * kappa * d) / (kappa * d))
    out = e_apply(trace, surf, kappa)
    conj_err = float(
        np.linalg.norm(out.coeffs + trace.coeffs.conj()) / np.linalg.norm(trace.coeffs)
    )
    ok = unimod < 1e-12 and conj_err < 1e-6
    _line(
        5,
        ok,
        f"|E_n| - 1 max {unimod:.2e} < 1e-12 for n <= 40, "
        f"minus-conjugate identity {conj_err:.2e} < 1e-6",
    )


def test_criterion_06_static_physics():
    bg = Background.isotropic(a=1.0, kappa=0.0)
    grid = voxelize(Ball(0.5), 1.0 / 20.0)
    sys = assemble(grid, bg)
    c = iso_contrast(1.0, 2.0)
    g = np.zeros((sys.n_cells, 3), dtype=complex)
    g[:, 2] = 1.0
    dens = solve_density(sys, c, g)
    factor = float(dens.values[:, 2].real.mean())
    factor_err = abs(factor - 0.75) / 0.75
    action = float(sys.apply(g)[:, 2].real.mean())
    eshelby_err = abs(action + 1.0 / 3.0) * 3.0
    closed = float(np.abs(eshelby_tensor(bg) - np.eye(3) / 3.0).max())
    r0 = operator_norm(sys)
    ok = (
        factor_err < 0.02
        and eshelby_err < 0.02
        and closed < 1e-12
        and 0.9 <= r0 <= 1.05
    )
    _line(
        6,
        ok,
        f"interior gradient factor {factor:.4f} (err {factor_err:.3%} < 2%), "
        f"self-action {action:.4f} vs -1/3 (err {eshelby_err:.3%} < 2%), "
        f"|R_0| = {r0:.4f} in [0.9, 1.05]",
    )


def test_criterion_07_polarization_routes():
    ball = mz_ball_iso(1.0, 1.0)
    exact = bool(np.all(ball.M_z == np.pi * np.eye(3)))
    ell = mz_ellipsoid(SymTensor3.identity(), SymTensor3.scaled_identity(2.0), (1.0, 1.0, 1.0))
    two_way = float(np.abs(ell.M_z - ball.M_z).max())
    gen = mz_general(
        SymTensor3.identity(),
        SymTensor3.scaled_identity(2.0),
        voxelize(Ball(1.0), 1.0 / 6.0),
    )
    three_way = float(np.abs(gen.M_z - ball.M_z).max() / np.abs(ball.M_z).max())
    ok = exact and two_way < 1e-12 and three_way < 0.02
    _line(
        7,
        ok,
        f"M_z(a=1, beta_z=1) = pi I exactly: {exact}, ellipsoid route diff "
        f"{two_way:.2e} < 1e-12, discrete route diff {three_way:.3%} < 2%",
    )


def test_criterion_08_reciprocity(oracle_report):
    c = {c["name"]: c for c in oracle_report.checks}["reciprocity_random_pairs"]
    ok = c["pass"] and c["tol"] == 1e-3 and c["value"] < 1e-3
    _line(8, ok, f"max relative mismatch {c['value']:.2e} < 1e-3 over 10 random pairs")


def test_criterion_09_finite_delta():
    rep = run_study(_cfg("study = finite_delta\nresolution = 8\ncells_across = 8\n"))
    pairs = rep.results["pairs"]
    deltas = [d for d, _ in pairs]
    ratios = [r for _, r in pairs]
    final = ratios[-1]
    gaps = np.diff(ratios)
    monotone = bool(np.all(gaps >= -1e-9) or np.all(gaps <= 1e-9))
    ok = (
        rep.status == "PASS"
        and deltas == [0.2, 0.1, 0.05]
        and abs(final - 1.0) <= 0.1
        and monotone
        and rep.wall_clock_s < 900.0
    )
    ratio_txt = ", ".join(f"{r:.4f}" for r in ratios)
    _line(
        9,
        ok,
        f"misfit ratio at delta = {{0.2, 0.1, 0.05}} diam(B): {ratio_txt}; "
        f"final within 10% of 1, monotone, {rep.wall_clock_s:.0f}s < 900s",
    )


def test_criterion_10_born_vs_moderate():
    rep = run_study(
        _cfg("study = born\nkappa = 0.2\nresolution = 8\nborn_q0 = 0.5\n")
    )
    cert = rep.results["certificate"][0]
    err = rep.results["born_error"][0]
    ratios = rep.results["halving_ratios"]
    ok = (
        rep.status == "PASS"
        and cert < 1.0
        and err > 0.2
        and all(1.5 <= r <= 3.0 for r in ratios)
    )
    ratio_txt = ", ".join(f"{r:.2f}" for r in ratios)
    _line(
        10,
        ok,
        f"certificate {cert:.3f} < 1 with Born error {err:.1%} > 20%; "
        f"q-halving error ratios [{ratio_txt}] in [1.5, 3]",
    )


def test_criterion_11_determinism(tmp_path):
    configs = {
        "sign": "study = sign\nscatterer_a = 2.0\nresolution = 8\ngrid_n = 3\n",
        "decay": (
            "study = decay\neta = 0.05\npoints_per_decade = 10\nresolution = 6\n"
            "alpha_pair = 0.4, 0.6\ntol_slope = 0.9\ntol_alpha_pair = 0.9\n"
        ),
        "born": "study = born\nkappa = 0.2\nresolution = 8\n",
    }
    identical = []
    for name, text in configs.items():
        d1 = tmp_path / f"{name}_1"
        d2 = tmp_path / f"{name}_2"
        p1 = emit_outputs(run_study(_cfg(text)), d1)
        p2 = emit_outputs(run_study(_cfg(text)), d2)
        rel1 = sorted(p.split("/")[-1] for p in p1)
        rel2 = sorted(p.split("/")[-1] for p in p2)
        same = rel1 == rel2
        for f1, f2 in zip(sorted(p1), sorted(p2)):
            if f1.endswith("timing.txt"):
                continue  # wall clock sidecar, excluded from the guarantee
            same = same and open(f1, "rb").read() == open(f2, "rb").read()
        identical.append(same)
    ok = all(identical)
    _line(
        11,
        ok,
        "byte-identical reruns for sign (report + map CSV), decay (report + "
        "ray CSV), born (report)",
    )

"""Experiment configs, study runners, and deterministic output emission."""

import json
import math
import re
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdscope import harness, specfun_quad, vie
from tdscope import (
    Background,
    ExperimentConfig,
    STATUS_EXIT_CODES,
    emit_outputs,
    load_config,
    parse_config,
    run_study,
    validate_config,
)


def cfg_from(text):
    return parse_config(text)


def test_parse_config_grammar():
    cfg = cfg_from(
        """
        # comment line
        study = sign
        kappa = 2.5
        grid_n = 5          # trailing comment
        rays = 1,0,0; 0,1,0
        scatterer_center = 0.1, -0.2, 0.3
        """
    )
    assert cfg.study == "sign"
    assert cfg.kappa == 2.5
    assert cfg.grid_n == 5
    assert cfg.rays == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert cfg.scatterer_center == (0.1, -0.2, 0.3)
    # untouched keys keep schema defaults
    assert cfg.resolution == 16
    assert cfg.tol_slope == 0.3


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        cfg_from("study = sign\nnot_a_key = 3\n")
    with pytest.raises(ValueError, match="line 3"):
        cfg_from("study = sign\nkappa = 1\ngrid_n = two\n")
    with pytest.raises(ValueError, match="line 1"):
        cfg_from("study: sign\n")
    with pytest.raises(ValueError, match="scatterer_center"):
        cfg_from("study = sign\nscatterer_center = 1, 2\n")


def test_parse_config_study_left_to_validation():
    cfg = cfg_from("kappa = 1.0\n")
    assert cfg.study is None
    assert any("study" in p for p in validate_config(cfg))


def test_load_config(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("study = born\nborn_q0 = 0.25\n")
    cfg = load_config(p)
    assert cfg.study == "born"
    assert cfg.born_q0 == 0.25
    with pytest.raises(RuntimeError):
        load_config(tmp_path / "missing.cfg")


def test_validate_config_catches_problems():
    bad = cfg_from(
        """
        study = decay
        eta = 0.5
        alpha = 1.5
        surface_radius = 0.3
        points_per_decade = 2
        """
    )
    problems = validate_config(bad)
    text = " | ".join(problems)
    assert "eta" in text
    assert "alpha" in text
    assert "enclose" in text
    assert "points_per_decade" in text
    assert validate_config(cfg_from("study = sign\n")) == []
    assert validate_config(cfg_from("study = warp\n")) != []


def test_validate_config_shape_and_tensor_arity():
    # must report problems, not crash, on incomplete shape input
    assert validate_config(cfg_from("study = sign\nscatterer_shape = ellipsoid\n"))
    assert validate_config(cfg_from("study = decay\nalpha_pair = 0.3, 0.5, 0.7\n"))
    assert validate_config(cfg_from("study = sign\nscatterer_A = 1, 2\n"))
    ok = cfg_from("study = sign\nscatterer_A = 2, 2, 3\n")
    assert validate_config(ok) == []


@pytest.mark.parametrize("lines, key", [
    ("quad_order = 0", "quad_order"),
    ("quad_order = -3", "quad_order"),
    ("scatterer_a = 0", "scatterer_a"),
    ("scatterer_a = -1", "scatterer_a"),
    ("scatterer_A = 1, -1, 2", "scatterer_A"),
    ("scatterer_A = 1, 1, 1, 2, 0, 0", "scatterer_A"),
    ("trial_A = 1, 1, 0", "trial_A"),
    ("trial_A = 2, 2, 2\ntrial_semi_axes = 1, 0, 1", "trial_semi_axes"),
    ("scatterer_radius = 0", "scatterer_radius"),
    ("scatterer_radius = -0.5", "scatterer_radius"),
    ("scatterer_shape = ellipsoid\nscatterer_semi_axes = 0.5, -0.3, 0.4", "scatterer_semi_axes"),
])
def test_validate_config_rejects_what_run_rejects(lines, key):
    # each of these passed validation and then failed (or warned) in the run
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        problems = validate_config(cfg_from(f"study = sign\n{lines}\n"))
    assert len(problems) == 1 and problems[0].startswith(key + " "), problems


@pytest.mark.parametrize("study, line, key", [
    ("sign", "trial_A = 0.5, 2, 2", "trial_A"),
    ("sign", "scatterer_A = 0.5, 2, 2", "scatterer_A"),
    ("decay", "scatterer_A = 2, 2, 3", "scatterer_A"),
    ("decay", "trial_A = 2, 2, 3", "trial_A"),
    ("finite_delta", "trial_A = 2, 2, 3", "trial_A"),
])
def test_validate_config_rejects_contrasts_the_study_rejects(study, line, key):
    # each passed validation, and run then stopped with exit 1: a mixed-sign
    # contrast in the sign study, a tensor where the study takes a scalar
    problems = validate_config(cfg_from(f"study = {study}\n{line}\n"))
    assert len(problems) == 1 and problems[0].startswith(key + " "), problems


def test_validate_config_keeps_the_contrasts_each_study_runs():
    both = "scatterer_A = 2, 2, 3\ntrial_A = 1.5, 3, 2\n"
    assert validate_config(cfg_from(f"study = sign\n{both}")) == []
    assert validate_config(cfg_from("study = finite_delta\nscatterer_A = 2, 2, 3\n")) == []


def test_validate_config_bounds_born_halvings():
    # born_halvings = 60 validated, and the run then reported NaN and FAILed on
    # roundoff ratios from halving 50 on; |born_q0| 2^-halvings must stay >= 1e-6
    problems = validate_config(cfg_from("study = born\nborn_halvings = 60\n"))
    assert len(problems) == 1 and problems[0].startswith("born_halvings "), problems
    assert validate_config(cfg_from("study = born\nborn_halvings = 19\n"))  # 0.5 / 2^19
    assert validate_config(cfg_from("study = born\nborn_halvings = 18\n")) == []
    assert validate_config(cfg_from("study = born\nborn_q0 = -0.001\nborn_halvings = 10\n"))
    with pytest.raises(ValueError, match="born_halvings = 60"):
        run_study(cfg_from("study = born\nborn_halvings = 60\n"))


def test_born_moderate_config_keeps_validating():
    cfg = load_config(Path(__file__).resolve().parents[1] / "demos" / "configs"
                      / "born_moderate.cfg")
    assert validate_config(cfg) == []
    more = dict(cfg.values, born_halvings=cfg.born_halvings + 5)
    assert validate_config(ExperimentConfig(values=more)) == []


@pytest.mark.parametrize("study", ["sign", "decay", "oracle", "finite_delta"])
def test_quad_order_is_capped_before_any_rule_is_built(study, monkeypatch):
    # quad_order = 100000 validated; a node path would then have built 2e10 nodes
    def no_rule(*args, **kwargs):
        raise AssertionError("a quadrature rule was built")

    monkeypatch.setattr(specfun_quad, "sphere_quadrature", no_rule)
    cfg = cfg_from(f"study = {study}\nquad_order = 100000\n")
    problems = validate_config(cfg)
    assert len(problems) == 1 and problems[0].startswith("quad_order "), problems
    with pytest.raises(MemoryError, match="quad_order = 100000"):
        run_study(cfg)
    top = int(np.sqrt(harness.imaging._NODE_CAP / 2))
    assert validate_config(cfg_from(f"study = {study}\nquad_order = {top}\n")) == []
    assert validate_config(cfg_from(f"study = {study}\nquad_order = {top + 1}\n"))


@pytest.mark.parametrize("text, order", [
    ("kappa = 10000\naperture = 1.0\n", 11254),
    # the closed sphere's spectral truncation passes N_MAX: the node factor again
    ("kappa = 10000\n", 11254),
    ("kappa = 100\naperture = 1.0\n", 145),
], ids=["cap", "closed", "cap_order_145"])
def test_node_factor_of_a_derived_order_is_capped_before_assembling(text, order, monkeypatch):
    # the surface order comes from kappa, not quad_order: 2 order^2 nodes
    # past the cap are refused by the set-up, before any rule or assembly
    def no_rule(*args, **kwargs):
        raise AssertionError("a quadrature rule was built")

    monkeypatch.setattr(specfun_quad, "sphere_quadrature", no_rule)
    cfg = cfg_from(f"study = sign\n{text}")
    t0 = time.monotonic()
    problems = validate_config(cfg)
    assert time.monotonic() - t0 < 1.0
    assert problems == [f"a node factor on a surface of order {order} reads {2 * order**2} "
                        f"nodes, above the cap {harness.imaging._NODE_CAP}"]
    calls = []
    monkeypatch.setattr(harness, "assemble", lambda *args: calls.append(args))
    with pytest.raises(MemoryError, match=f"order {order} reads"):
        run_study(cfg)
    assert calls == []


def test_validate_config_flags_zero_length_rays():
    problems = validate_config(cfg_from("study = decay\nrays = 1,0,0; 0,0,0\n"))
    assert any("ray" in p for p in problems)
    assert validate_config(cfg_from("study = decay\nrays = 1,0,0; 0,2,0\n")) == []


# Boundary values of every schema key but study, kept cheap to build: quad_order <= 60
# (a rule of order m has 2 m^2 nodes) and kappa <= 10.  None leaves a key
# unset.
BOUNDARY = {
    "kappa": (-1.0, 0.0, 1e-6, 1e-5, 1.0, 10.0),
    "background_a": (-1.0, 0.0, 1e-300, 2.0, 1e300),
    "scatterer_shape": ("ball", "ellipsoid", "cube"),
    "scatterer_radius": (-0.5, 0.0, 1e-300, 0.5, 1e200),
    "scatterer_semi_axes": (None, (0.5, 0.4, 0.3), (0.5, 0.5, 0.05), (1.0, -1.0, 1.0),
                            (1e200, 1.0, 1.0)),
    "scatterer_center": ((0.0, 0.0, 0.0), (0.1, 0.0, 0.0), (1e200, 0.0, 0.0)),
    "scatterer_a": (-1.0, 0.0, 1e-300, 1.0, 0.5, 1e308),
    "scatterer_A": (None, (2.0, 2.0, 3.0), (0.5, 2.0, 2.0), (1.0, -1.0, 2.0), (1.0, 2.0),
                    (2.0, 2.0, 3.0, 0.0, 0.0, 0.0), (1e308, 1.0, 1.0)),
    "resolution": (3, 4, 6, 40),
    "surface_radius": (-1.0, 1e-300, 0.3, 5.0, 1e200, 1e300),
    "aperture": (None, -1.0, 0.0, 1.0, np.pi, 4.0),
    "quad_order": (None, -3, 0, 1, 60),
    "trial_a": (0.0, 1e-300, 1.0, 0.5, 1e308),
    "trial_A": (None, (1.5, 3.0, 2.0), (2.0, 0.5, 1.5), (1.0, 1.0, 0.0), (1e308, 1.0, 1.0)),
    "trial_semi_axes": ((1.0, 0.0, 1.0), (1e-300, 1.0, 1.0), (1e200, 1.0, 1.0)),
    "grid_extent": (0.0, 1e-300, 1.0, 3.0, 1e200),
    "grid_n": (0, 1, 2, 3),
    "eta": (0.0, 1e-200, 0.01, 0.1, 0.5),
    "alpha": (0.0, 1e-300, 0.5, 0.9999, 1.0),
    "alpha_pair": ((0.3, 0.7), (0.3, 0.5, 0.7), (0.9999, 0.5), (1e-300, 0.5)),
    "rays": (((0.0, 0.0, 0.0),), ((1e-300, 0.0, 0.0),), ((1e300, 1e300, 0.0),),
             ((1.0, 0.0, 0.0), (0.0, 1.0, 1.0))),
    "points_per_decade": (7, 8, 60),
    "born_q0": (-1.0, -0.5, 0.0, 1e-300, 0.9999999999999999, 1.0),
    "born_halvings": (-1, 0, 1, 60),
    "deltas": ((0.2, -0.1), (0.0,), (1e-300,), (0.2, 0.1, 0.05), (1e200,)),
    "delta_point": ((0.2, 0.05, -0.1), (4.9, 0.0, 0.0), (1e200, 0.0, 0.0)),
    "cells_across": (3, 4, 8, 40),
    "seed": (0, 7),
    "out": ("", "elsewhere"),
    "tol_slope": (0.0, 0.3),
    "tol_alpha_pair": (0.0, 0.2),
    "tol_ratio": (0.0, 0.1),
    "tol_born": (0.0, 0.2),
}
STUDIES = ("sign", "decay", "born", "oracle", "finite_delta")


def config_text(values):
    def text(v):
        if isinstance(v, tuple):
            sep = "; " if isinstance(v[0], tuple) else ", "
            return sep.join(text(e) for e in v)
        return repr(v) if isinstance(v, float) else str(v)

    return "".join(f"{k} = {text(v)}\n" for k, v in values.items() if v is not None)


@st.composite
def boundary_configs(draw):
    """A study and up to five other keys at boundary values."""
    keys = draw(st.lists(st.sampled_from(sorted(BOUNDARY)), max_size=5, unique=True))
    values = {"study": draw(st.sampled_from(STUDIES))}
    values.update((k, draw(st.sampled_from(BOUNDARY[k]))) for k in keys)
    return values


class Reached(Exception):
    """Raised in place of the first assembly or kernel evaluation of a run."""


def reached(*args, **kwargs):
    raise Reached


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=400, derandomize=True, deadline=None)
@given(boundary_configs())
@example({"study": "finite_delta", "deltas": (1e-300,)})
@example({"study": "decay", "background_a": 1e-300})
@example({"study": "sign", "scatterer_a": 1e308})
@example({"study": "sign", "scatterer_radius": 1e200})
@example({"study": "sign", "scatterer_radius": 1e200, "surface_radius": 1e201})
@example({"study": "decay", "alpha": 0.9999})
def test_validate_passes_exactly_the_configs_whose_run_reaches_assembly(values):
    # validate never raises on a parsed config, and says ok exactly when the
    # run gets past its set-up; a run that stops first raises ValueError or
    # MemoryError, never another error
    cfg = cfg_from(config_text(values))
    problems = validate_config(cfg)
    assert isinstance(problems, list) and all(isinstance(p, str) for p in problems)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "assemble", reached)
        mp.setattr(harness.imaging, "kernel_G", reached)
        try:
            run_study(cfg)
        except Reached:
            assert problems == []
        except (ValueError, MemoryError) as exc:
            assert problems != [], exc
        else:
            raise AssertionError("the run returned without assembling")


@pytest.mark.parametrize("line", ["kappa = nan", "grid_extent = nan",
                                  "scatterer_A = 1, inf, 2", "rays = nan,0,0"])
def test_parse_config_rejects_non_finite(line):
    # NaN fails every range check of validate_config silently
    key = line.split("=")[0].strip()
    with pytest.raises(ValueError, match=f"line 2: bad value for {key}"):
        cfg_from(f"study = sign\n{line}\n")


def test_surface_radius_m_is_an_unknown_key():
    with pytest.raises(ValueError, match="unknown key 'surface_radius_m'"):
        cfg_from("study = sign\nsurface_radius_m = 6.0\n")


def test_config_echo_and_overrides():
    cfg = cfg_from("study = sign\ntol_slope = 0.25\nrays = 1,0,0\n")
    echo = cfg.echo()
    assert list(echo) == sorted(echo)
    assert echo["rays"] == [[1.0, 0.0, 0.0]]
    assert cfg.overrides() == {"tol_slope": 0.25}
    assert cfg_from("study = sign\n").overrides() == {}
    with pytest.raises(AttributeError):
        cfg.nonsense


def test_sample_points_span_the_cube_and_one_point_is_its_centre():
    pts = harness._sample_points(cfg_from("study = sign\ngrid_n = 3\ngrid_extent = 0.5\n"))
    assert pts.shape == (27, 3)
    np.testing.assert_array_equal(pts[0], [-0.5, -0.5, -0.5])
    np.testing.assert_array_equal(pts[13], [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(pts[-1], [0.5, 0.5, 0.5])
    one = harness._sample_points(cfg_from("study = sign\ngrid_n = 1\ngrid_extent = 0.5\n"))
    np.testing.assert_array_equal(one, [[0.0, 0.0, 0.0]])


def test_exit_code_table():
    assert STATUS_EXIT_CODES == {
        "PASS": 0,
        "NEUTRAL": 0,
        "FAIL": 2,
        "INCONCLUSIVE": 3,
    }


def test_run_study_rejects_invalid():
    with pytest.raises(ValueError):
        run_study(cfg_from("study = warp\n"))
    with pytest.raises(ValueError):
        run_study(cfg_from("study = sign\nsurface_radius = 0.1\n"))


SIGN_SMALL = """
study = sign
kappa = 1.0
scatterer_a = 2.0
resolution = 8
grid_n = 3
"""


@pytest.fixture(scope="module")
def sign_report():
    return run_study(cfg_from(SIGN_SMALL))


def test_sign_study_small(sign_report):
    rep = sign_report
    assert rep.study == "sign"
    assert rep.status == "PASS"
    assert rep.results["certificate"] < 1.0
    assert rep.results["sign_tally"] == 1.0
    assert rep.results["expected_sign"] == -1.0
    assert rep.kappa_diam == pytest.approx(1.0)
    assert rep.kappa_R == pytest.approx(5.0)
    assert rep.tdmap is not None and rep.tdmap.values.shape == (27,)
    names = [c["name"] for c in rep.checks]
    assert names == ["certificate<1", "sign_tally==1"]
    assert all(c["pass"] for c in rep.checks)


def test_sign_study_neutral_on_zero_contrast():
    rep = run_study(cfg_from("study = sign\nscatterer_a = 1.0\nresolution = 8\ngrid_n = 3\n"))
    assert rep.status == "NEUTRAL"
    assert rep.results["sign_tally"] is None
    # +0.0, not -0.0: report.json must not print a negative zero
    assert math.copysign(1.0, rep.results["expected_sign"]) == 1.0
    assert STATUS_EXIT_CODES[rep.status] == 0


def test_sign_study_neutral_on_matched_trial():
    rep = run_study(cfg_from("study = sign\ntrial_a = 1.0\nresolution = 8\ngrid_n = 3\n"))
    assert rep.status == "NEUTRAL"
    assert math.copysign(1.0, rep.results["expected_sign"]) == 1.0


@pytest.mark.parametrize(
    "lines, expected",
    [
        ("scatterer_A = 2, 1.5, 3", -1.0),
        ("scatterer_A = 2, 1.5, 3\ntrial_A = 2, 2.5, 1.5", -1.0),
        ("scatterer_A = 0.5, 0.6, 0.4\ntrial_A = 2, 2.5, 1.5", 1.0),
    ],
    ids=["aniso_iso", "general", "general_softer"],
)
def test_sign_study_tensor_branches(lines, expected):
    rep = run_study(cfg_from(f"study = sign\n{lines}\nresolution = 8\ngrid_n = 3\n"))
    assert rep.status == "PASS"
    assert rep.results["expected_sign"] == expected
    assert rep.results["sign_tally"] == 1.0


@pytest.mark.parametrize("lines", ["scatterer_a = 2.0", "scatterer_a = 0.5\ntrial_a = 1.5",
                                   "scatterer_A = 2, 1.5, 3\ntrial_A = 2, 2.5, 1.5"],
                         ids=["q_pos", "q_neg", "tensor"])
def test_sign_study_certificate_is_the_operator_norm_of_its_contrast(lines):
    # the one certificate form, ||q_mat R_kappa q_mat^T||, computed by the study
    cfg = cfg_from(f"study = sign\n{lines}\nresolution = 8\ngrid_n = 3\n")
    rep = run_study(cfg)
    bg, contrast, _ = harness._media(cfg)
    sys = harness.assemble(harness._grid(cfg), bg)
    assert rep.results["certificate"] == vie.operator_norm(sys, contrast)
    assert "certificate_kind" not in rep.results


def test_sign_study_mixed_trial_raises_before_solving(monkeypatch):
    def no_system(*args):
        raise AssertionError("the system was assembled")

    monkeypatch.setattr(harness, "assemble", no_system)
    cfg = cfg_from("study = sign\ntrial_A = 2, 0.5, 1.5\nresolution = 8\ngrid_n = 3\n")
    with pytest.raises(ValueError, match="trial contrast must be one-signed"):
        run_study(cfg)


@pytest.mark.parametrize("runner, lines, message", [
    (harness.run_decay_study, "study = decay\nscatterer_A = 2, 2, 3",
     "the decay study uses scalar contrasts"),
    (harness.run_finite_delta_study, "study = finite_delta\ntrial_A = 2, 2, 3",
     "the finite-size study uses a scalar trial"),
], ids=["decay", "finite_delta"])
def test_scalar_runners_reject_a_tensor_before_assembling(monkeypatch, runner, lines, message):
    calls = []
    assemble = harness.assemble
    monkeypatch.setattr(harness, "assemble", lambda *args: calls.append(args) or assemble(*args))
    with pytest.raises(ValueError, match=message):
        runner(cfg_from(f"{lines}\nresolution = 8\n"))
    assert calls == []


def test_sign_study_inconclusive_when_certificate_fails():
    rep = run_study(
        cfg_from("study = sign\nkappa = 3.0\nscatterer_a = 100.0\nresolution = 8\ngrid_n = 3\n")
    )
    assert rep.status == "INCONCLUSIVE"
    assert rep.results["certificate"] >= 1.0
    assert STATUS_EXIT_CODES[rep.status] == 3


def test_decay_study_small():
    rep = run_study(
        cfg_from(
            """
            study = decay
            eta = 0.05
            alpha = 0.5
            alpha_pair = 0.4, 0.6
            points_per_decade = 10
            resolution = 6
            rays = 1,0,0
            tol_slope = 0.9
            tol_alpha_pair = 0.9
            """
        )
    )
    assert rep.study == "decay"
    assert rep.rays is not None and len(rep.rays) == 1
    dists, mags, normed = np.asarray(rep.rays[0]).T
    assert dists.shape[0] >= 10
    assert np.all(np.diff(dists) > 0.0)
    assert np.all(normed > 0.0)
    assert "slope" in rep.results
    assert rep.tol_overrides == {"tol_slope": 0.9, "tol_alpha_pair": 0.9}


def test_sign_study_reports_kernel_factor(sign_report):
    res = sign_report.results
    assert res["kernel_factor"] == sign_report.tdmap.kernel_factor == "spectral"
    assert res["kernel_rank"] == sign_report.tdmap.kernel_rank
    n_max = int(round(np.sqrt(res["kernel_rank"]))) - 1
    assert res["kernel_rank"] == (n_max + 1) ** 2


def test_decay_study_needs_no_surface_quadrature(monkeypatch):
    # closed sphere, isotropic background: every map takes the spectral
    # factor, so no point-source gradient on a surface node is evaluated
    def no_nodes(*args, **kwargs):
        raise AssertionError("surface quadrature evaluated")

    monkeypatch.setattr(harness.imaging, "grad_phi", no_nodes)
    rep = run_study(cfg_from("study = decay\neta = 0.05\npoints_per_decade = 8\n"
                             "resolution = 6\ntol_slope = 9\ntol_alpha_pair = 9\n"))
    assert rep.results["kernel_factor"] == "spectral"
    assert len(rep.rays[0]) == 8


def test_decay_study_solves_the_scatterer_once(monkeypatch):
    # every sample shares the system, contrast, centre and n_max: one solve
    # of the regular-wave response serves the 3 x 8 samples of all three
    # window exponents
    calls = []
    solve = harness.imaging._half_pairing
    monkeypatch.setattr(harness.imaging, "_half_pairing",
                        lambda *a, **k: calls.append(a[2].shape) or solve(*a, **k))
    rep = run_study(cfg_from("study = decay\neta = 0.05\npoints_per_decade = 8\n"
                             "resolution = 6\ntol_slope = 9\ntol_alpha_pair = 9\n"))
    assert len(calls) == 1
    assert calls[0][0] == int(rep.results["kernel_rank"])


def test_decay_study_evaluates_the_waves_of_every_sample_at_once(monkeypatch):
    # one evaluation of the grid's waves (one n_max), then one for the
    # 3 x 2 x 8 samples of every window exponent and both rays; each is
    # split into calls of at most imaging._WAVE_CHUNK // rank points (today
    # one call each: the 136 cells and the 48 samples)
    calls = []
    waves = harness.imaging._real_wave_gradients
    monkeypatch.setattr(harness.imaging, "_real_wave_gradients",
                        lambda n, k, x, out: calls.append((n, len(x))) or waves(n, k, x, out))
    cfg = cfg_from("study = decay\neta = 0.05\npoints_per_decade = 8\nresolution = 6\n"
                   "rays = 1, 0, 0; 0, 1, 1\ntol_slope = 9\ntol_alpha_pair = 9\n")
    rep = run_study(cfg)
    assert rep.results["kernel_factor"] == "spectral"
    assert "," not in rep.results["kernel_rank"]
    n_max = int(np.sqrt(int(rep.results["kernel_rank"]))) - 1
    step = max(1, harness.imaging._WAVE_CHUNK // (n_max + 1) ** 2)

    def chunks(points):
        return [(n_max, min(step, points - i)) for i in range(0, points, step)]

    n_cells = harness._grid(cfg).n_cells
    assert calls == chunks(n_cells) + chunks(48)


def test_decay_study_falls_back_to_single_maps(monkeypatch):
    # samples on spheres below R = 50 are made to pass N_MAX: each such
    # sphere takes the node factor (quad_order 10, 200 nodes), and every
    # sample of the fitted sweep equals its td_map_iso value
    order = harness.imaging._spectral_order
    monkeypatch.setattr(harness.imaging, "_spectral_order",
                        lambda k, radius, *reach: None if radius < 50.0 else order(k, radius, *reach))
    cfg = cfg_from("study = decay\neta = 0.05\npoints_per_decade = 8\nresolution = 6\n"
                   "quad_order = 10\ntol_slope = 9\ntol_alpha_pair = 9\n")
    rep = run_study(cfg)
    assert rep.results["kernel_factor"] == "nodes,spectral"
    bg = harness.Background.isotropic(1.0, 1.0)
    sys = harness.assemble(harness._grid(cfg), bg)
    contrast, trial = harness._contrast(cfg, bg), harness._trial(cfg, bg)
    assert rep.results["certificate"] == vie.operator_norm(sys, contrast)
    etas = cfg.eta * 10.0 ** (-np.linspace(0.0, 1.0, 8) / (1.0 - cfg.alpha))
    kinds = []
    for etap, (dist, raw, _) in zip(etas, rep.rays[0]):
        tmap = harness.imaging.td_map_iso(sys, contrast, trial, harness._surface(cfg, 1.0 / etap, 0),
                                          np.array([[0.5 + dist, 0.0, 0.0]]))
        kinds.append(tmap.kernel_factor)
        assert raw == pytest.approx(abs(tmap.values[0]), rel=1e-12)
    assert kinds == ["nodes"] * 2 + ["spectral"] * 6


def test_decay_study_needs_8_usable_points(monkeypatch):
    # T vanishing at every sample leaves nothing to fit
    monkeypatch.setattr(harness.imaging, "_contract",
                        lambda sys, contrast, m_z, facs, pts: np.zeros(sum(map(len, pts)), complex))
    cfg = cfg_from("study = decay\neta = 0.05\npoints_per_decade = 8\nresolution = 6\n")
    with pytest.raises(ValueError, match="decay study has fewer than 8 usable points"):
        harness.run_decay_study(cfg)


@pytest.mark.parametrize("key", ["scatterer_a", "trial_a"])
def test_decay_study_rejects_matched_media_before_assembling(monkeypatch, key):
    # a zero contrast makes T vanish at every sample; the run used to
    # assemble and solve before failing on "fewer than 8 usable points"
    cfg = cfg_from(f"study = decay\n{key} = 1.0\nresolution = 8\n")
    problems = harness.validate_config(cfg)
    assert len(problems) == 1 and problems[0].startswith(f"{key} = 1.0")
    calls = []
    assemble = harness.assemble
    monkeypatch.setattr(harness, "assemble", lambda *args: calls.append(args) or assemble(*args))
    with pytest.raises(ValueError, match=re.escape(problems[0])):
        harness.run_decay_study(cfg)
    with pytest.raises(ValueError, match=re.escape(problems[0])):
        run_study(cfg)
    assert calls == []


def test_born_study_small():
    rep = run_study(cfg_from("study = born\nresolution = 8\nborn_q0 = 0.5\nborn_halvings = 2\n"))
    assert rep.status == "PASS"
    assert rep.results["certificate"][0] < 1.0
    # certificate[j] = |q_j| ||R_kappa||, the one R_kappa norm of the run
    assert rep.results["certificate"] == [abs(q) * rep.results["R_norm"] for q in rep.results["q"]]
    assert rep.results["born_error"][0] > 0.2
    # each halving of q roughly halves the Born error
    errors = rep.results["born_error"]
    assert len(errors) == 3
    ratios = rep.results["halving_ratios"]
    assert len(ratios) == 2
    assert all(1.5 <= r <= 3.0 for r in ratios)


def test_born_study_static_incident_field_is_e_z():
    # at kappa = 0 the incident gradient is the constant e_z on every cell;
    # the ellipsoid's short z axis tells it from e_x and e_y
    cfg = cfg_from("study = born\nkappa = 0\nresolution = 8\nborn_q0 = 0.5\nborn_halvings = 2\n"
                   "scatterer_shape = ellipsoid\nscatterer_semi_axes = 0.5, 0.5, 0.3\n")
    rep = harness.run_born_study(cfg)
    bg, grid, contrasts = harness._born_setup(cfg)
    sys = harness.assemble(grid, bg)
    g = np.zeros((grid.n_cells, 3), dtype=complex)
    g[:, 2] = 1.0
    want = []
    for _, contrast in contrasts:
        full = harness.solve_density(sys, contrast, g).values
        born = vie.born_density(contrast, g).values
        want.append(np.linalg.norm(born - full) / np.linalg.norm(full))
    assert rep.results["born_error"] == pytest.approx(want, rel=1e-10)


def test_born_study_solves_every_contrast_in_one_call(monkeypatch):
    # above DIRECT_CAP the halved contrasts share one shifted GMRES solve; the
    # errors agree with the dense path's
    text = "study = born\nresolution = 8\nborn_q0 = 0.5\nborn_halvings = 2\n"
    dense = run_study(cfg_from(text)).results
    calls, solve = [], harness.solve_density
    monkeypatch.setattr(harness, "solve_density",
                        lambda sys, c, g: calls.append(c) or solve(sys, c, g))
    monkeypatch.setattr(vie, "DIRECT_CAP", 1)
    rep = run_study(cfg_from(text))
    assert rep.status == "PASS"
    assert len(calls) == 1 and [c.q for c in calls[0]] == pytest.approx(rep.results["q"])
    np.testing.assert_allclose(rep.results["born_error"], dense["born_error"], rtol=1e-7)


def test_finite_delta_study_small():
    rep = run_study(
        cfg_from(
            """
            study = finite_delta
            resolution = 6
            deltas = 0.2, 0.1
            cells_across = 4
            tol_ratio = 0.5
            """
        )
    )
    assert rep.study == "finite_delta"
    pairs = rep.results["pairs"]
    assert len(pairs) == 2
    assert pairs[0][0] > pairs[1][0]
    assert all(r > 0.0 for _, r in pairs)
    names = [c["name"] for c in rep.checks]
    assert any("monotone" in n for n in names)
    assert any("ratio" in n for n in names)


def test_finite_delta_study_solves_each_system_once(monkeypatch):
    # one solve of the kernel factor's P fields for the scatterer and one per
    # delta; no node data, no certificate, no map
    from tdscope import imaging

    solved = []
    half_pairing = imaging._half_pairing

    def counted(sys, contrast, g):
        solved.append(np.shape(g)[0])
        return half_pairing(sys, contrast, g)

    def refuse(*args, **kwargs):
        raise AssertionError("the finite-size check took the data-side route")

    monkeypatch.setattr(imaging, "_half_pairing", counted)
    for name in ("solve_density", "_scatter_matrix", "radiation_matrix", "harmonics_table",
                 "e_multipliers", "sphere_surface", "td_map_iso", "td_map_aniso_iso",
                 "td_map_general", "operator_norm", "grad_phi"):
        monkeypatch.setattr(imaging, name, refuse)
    rep = run_study(cfg_from(
        "study = finite_delta\nresolution = 6\ndeltas = 0.2, 0.1\ncells_across = 4\n"
        "tol_ratio = 0.5\n"))
    res = rep.results
    assert (res["kernel_factor"], res["kernel_rank"]) == ("spectral", 196)
    assert solved == [res["kernel_rank"]] * 3


@pytest.mark.parametrize("text", [
    SIGN_SMALL,
    "study = decay\neta = 0.05\npoints_per_decade = 8\nresolution = 6\n"
    "tol_slope = 9\ntol_alpha_pair = 9\n",
    "study = born\nresolution = 8\n",
    "study = finite_delta\nresolution = 6\ndeltas = 0.2, 0.1\ncells_across = 4\n",
], ids=["sign", "decay", "born", "finite_delta"])
def test_run_voxelizes_the_scatterer_once(monkeypatch, text):
    # the set-up's grid is the one assembled: the range rows voxelize nothing
    shapes = []
    voxelize = harness.voxelize
    monkeypatch.setattr(harness, "voxelize",
                        lambda shape, h, **kw: shapes.append(shape) or voxelize(shape, h, **kw))
    run_study(cfg_from(text))
    assert shapes == [harness._shape(cfg_from(text))]


CONFIGS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.cfg"))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_validate(path):
    assert validate_config(load_config(path)) == []


def test_report_json_shape(sign_report):
    doc = sign_report.to_json_dict()
    assert "wall_clock_s" not in doc
    assert doc["study"] == "sign"
    assert doc["status"] == "PASS"
    assert doc["seed"] == 0
    assert doc["version"]
    assert doc["config"]["resolution"] == 8
    json.dumps(doc)  # must be serializable as-is


def test_emit_outputs_files(tmp_path, sign_report):
    import os

    out = tmp_path / "res"
    paths = emit_outputs(sign_report, out)
    names = {os.path.basename(p) for p in paths}
    assert "report.json" in names
    assert "tdmap.csv" in names
    assert "timing.txt" in names
    csv = (out / "tdmap.csv").read_text().splitlines()
    assert csv[0] == "x,y,z,T,inside_B"
    assert len(csv) == 1 + 27
    first = csv[1].split(",")
    assert first[4] in ("0", "1")
    # shortest round-trip floats
    assert float(first[3]) == sign_report.tdmap.values[0]
    text = (out / "report.json").read_text()
    assert text.endswith("\n")
    assert json.loads(text)["results"]["sign_tally"] == 1.0


def test_emit_outputs_deterministic_bytes(tmp_path):
    rep1 = run_study(cfg_from(SIGN_SMALL))
    rep2 = run_study(cfg_from(SIGN_SMALL))
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    emit_outputs(rep1, d1)
    emit_outputs(rep2, d2)
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
    assert (d1 / "tdmap.csv").read_bytes() == (d2 / "tdmap.csv").read_bytes()


def test_emit_outputs_wraps_oserror(sign_report, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    with pytest.raises(RuntimeError, match="file"):
        emit_outputs(sign_report, blocker / "sub")


def test_decay_ray_csv(tmp_path):
    rep = run_study(
        cfg_from(
            """
            study = decay
            eta = 0.05
            alpha = 0.5
            alpha_pair = 0.4, 0.6
            points_per_decade = 10
            resolution = 6
            rays = 1,0,0
            tol_slope = 0.9
            tol_alpha_pair = 0.9
            """
        )
    )
    out = tmp_path / "decay"
    emit_outputs(rep, out)
    lines = (out / "decay_ray_0.csv").read_text().splitlines()
    assert lines[0] == "dist,absT,normalized"
    assert len(lines) >= 11
    dist, mag, normed = lines[1].split(",")
    assert float(dist) > 0.0 and float(mag) > 0.0 and float(normed) > 0.0


def test_reciprocity_error_is_one_stacked_solve(monkeypatch):
    # the 10 random source/receiver pairs are 20 fields of one solve
    shapes = []
    solve = harness.solve_density

    def count(sys, contrast, g):
        shapes.append(g.shape)
        return solve(sys, contrast, g)

    monkeypatch.setattr(harness, "solve_density", count)
    cfg = cfg_from("study = oracle\nresolution = 8\n")
    bg = Background.isotropic(a=cfg.background_a, kappa=cfg.kappa)
    sys = harness.assemble(harness._grid(cfg), bg)
    assert harness._reciprocity_error(cfg, sys, harness._contrast(cfg, bg)) < 1e-12
    assert len(shapes) == 1 and shapes[0][0] == 20

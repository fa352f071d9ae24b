"""Command line entry points: run, validate, exit codes, determinism."""

import importlib
import importlib.metadata
import json
import os
import sys
from pathlib import Path

import pytest

from tdscope.cli import _resolve_threads, main

BORN_CFG = """
study = born
resolution = 8
born_q0 = 0.5
born_halvings = 2
"""


@pytest.fixture()
def born_cfg(tmp_path):
    p = tmp_path / "born.cfg"
    p.write_text(BORN_CFG)
    return p


def test_validate_ok(born_cfg, capsys):
    assert main(["validate", str(born_cfg)]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_problems(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("study = decay\neta = 0.5\nsurface_radius = 0.3\n")
    assert main(["validate", str(p)]) == 1
    captured = capsys.readouterr()
    assert "problem:" in captured.err
    assert "2 problem(s)" in captured.out


@pytest.mark.parametrize("text, problem", [
    # 33,552 cells: run would stop at assembly, after validate said "ok"
    ("study = born\nresolution = 40\n", "which exceed the cap 20000; coarsen the grid"),
    ("study = sign\nscatterer_shape = ellipsoid\nscatterer_semi_axes = 0.5, 0.5, 0.05\n"
     "resolution = 4\n", "resolution too coarse"),
    # 33,552 cells in each trial ball: run solved the scatterer, then stopped at the ball
    ("study = finite_delta\ncells_across = 40\n",
     "gives a trial ball 33552 voxels, which exceed the cap 20000; lower cells_across"),
], ids=["over_voxel_cap", "too_coarse", "trial_ball_over_voxel_cap"])
def test_validate_voxelizes_the_scatterer(tmp_path, capsys, text, problem):
    p = tmp_path / "grid.cfg"
    p.write_text(text)
    assert main(["validate", str(p)]) == 1
    assert problem in capsys.readouterr().err


def test_validate_rejects_nan(tmp_path, capsys):
    p = tmp_path / "nan.cfg"
    p.write_text("study = sign\nkappa = nan\n")
    assert main(["validate", str(p)]) == 1
    assert "bad value for kappa" in capsys.readouterr().err


@pytest.mark.parametrize("study", ["decay", "finite_delta"])
def test_validate_rejects_aperture_on_closed_sphere_studies(tmp_path, capsys, study):
    # the decay study would ignore the aperture; finite_delta raised after assembly
    p = tmp_path / "cap.cfg"
    p.write_text(f"study = {study}\naperture = 1.0\n")
    assert main(["validate", str(p)]) == 1
    assert "aperture must be unset" in capsys.readouterr().err
    p.write_text("study = sign\naperture = 1.0\n")
    assert main(["validate", str(p)]) == 0


@pytest.mark.parametrize("study, bad, good, problem", [
    # the sampling cube's corners, sqrt(3) * 3.0 = 5.196, lie outside the radius-5 sphere
    ("sign", "grid_extent = 3.0", "grid_extent = 2.8", "sampling cube's corners reach"),
    # a delta-ball of radius 0.2 at 4.9 crosses the radius-5 sphere
    ("finite_delta", "delta_point = 4.9, 0, 0", "delta_point = 4.7, 0, 0",
     "largest trial ball reaches"),
])
def test_validate_rejects_samples_outside_the_surface(tmp_path, capsys, study, bad, good,
                                                      problem):
    p = tmp_path / "reach.cfg"
    p.write_text(f"study = {study}\n{bad}\n")
    assert main(["validate", str(p)]) == 1
    captured = capsys.readouterr()
    assert problem in captured.err
    assert "1 problem(s)" in captured.out
    p.write_text(f"study = {study}\n{good}\n")
    assert main(["validate", str(p)]) == 0


@pytest.mark.parametrize("halvings", [-1, 0])
def test_validate_rejects_born_without_a_halving(tmp_path, capsys, halvings):
    # -1 left the study no contrast to certify; 0 let it PASS with no halving ratio checked
    p = tmp_path / "halvings.cfg"
    p.write_text(f"study = born\nborn_halvings = {halvings}\n")
    assert main(["validate", str(p)]) == 1
    assert "born_halvings must be >= 1" in capsys.readouterr().err
    p.write_text("study = born\nborn_halvings = 1\n")
    assert main(["validate", str(p)]) == 0


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.cfg")]) == 1
    assert "error:" in capsys.readouterr().err


def test_parse_error_reported(tmp_path, capsys):
    p = tmp_path / "broken.cfg"
    p.write_text("study = sign\nwhatever = 3\n")
    assert main(["validate", str(p)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_bad_usage_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_run_born_study(born_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(born_cfg), "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "[PASS]" in captured
    assert "born: PASS" in captured
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "PASS"
    assert (out / "timing.txt").exists()


def test_run_is_deterministic(born_cfg, tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", str(born_cfg), "--out", str(d1)]) == 0
    assert main(["run", str(born_cfg), "--out", str(d2)]) == 0
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()


def test_run_seed_override(born_cfg, tmp_path):
    out = tmp_path / "seeded"
    assert main(["run", str(born_cfg), "--out", str(out), "--seed", "11"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 11


def test_run_invalid_config_fails_before_work(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("study = born\nborn_q0 = 0\n")
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_memory_error_is_clean(born_cfg, tmp_path, capsys, monkeypatch):
    # a grid above the voxel cap is an error message and exit 1, not a traceback
    from tdscope import vie

    monkeypatch.setattr(vie, "VOXEL_CAP", 10)
    assert main(["run", str(born_cfg), "--out", str(tmp_path / "o")]) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: ") and last.endswith("exceed the cap 10; coarsen the grid")
    assert not (tmp_path / "o").exists()


def test_run_arithmetic_error_is_clean(tmp_path, capsys):
    # kappa R = 5e-6 overflows the L series of the oracle study; an
    # OverflowError is an error message and exit 1, not a traceback
    p = tmp_path / "oracle.cfg"
    p.write_text("study = oracle\nkappa = 1e-6\n")
    assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")
    assert not (tmp_path / "o").exists()


def test_run_warns_when_thread_cap_unavailable(born_cfg, tmp_path, capsys, monkeypatch):
    # the default one-thread cap needs threadpoolctl too, so its absence is reported
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    monkeypatch.delenv("TDSCOPE_THREADS", raising=False)
    assert main(["run", str(born_cfg), "--out", str(tmp_path / "o")]) == 0
    err = capsys.readouterr().err
    assert "warning: threadpoolctl unavailable, thread cap not applied" in err


def test_resolve_threads_precedence(monkeypatch):
    monkeypatch.delenv("TDSCOPE_THREADS", raising=False)
    assert _resolve_threads(None) == 1
    assert _resolve_threads(4) == 4
    assert _resolve_threads(-2) == 1
    monkeypatch.setenv("TDSCOPE_THREADS", "3")
    assert _resolve_threads(None) == 3
    assert _resolve_threads(2) == 2
    monkeypatch.setenv("TDSCOPE_THREADS", "soup")
    assert _resolve_threads(None) == 1


def _has_installed_metadata():
    try:
        importlib.metadata.distribution("tdscope")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def test_console_script_registered():
    # pyproject.toml is the source of truth for the entry point; reading it
    # works in an uninstalled checkout as well as after an install.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    target = scripts.get("tdscope")
    assert target == "tdscope.cli:main"

    module_name, attr = target.split(":")
    assert getattr(importlib.import_module(module_name), attr) is main


@pytest.mark.skipif(
    not _has_installed_metadata(),
    reason="tdscope has no installed package metadata",
)
def test_console_script_installed():
    import importlib.metadata as md

    eps = md.entry_points(group="console_scripts")
    names = {ep.name: ep.value for ep in eps}
    assert names.get("tdscope") == "tdscope.cli:main"

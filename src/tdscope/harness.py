"""Experiment orchestration: configs, verification studies, reports, outputs.

Configurations are flat key = value text files (one experiment per file,
'#' comments).  Each study returns a StudyReport whose checks all carry the
measured value, the tolerance, and the pass flag, so every verdict can be
recomputed from the emitted numbers.  Studies never assert a sign claim
without first recording the norm certificate.

Determinism: a fixed config, seed, and thread count give byte-identical
emitted files.  Wall-clock time is kept out of the report JSON and written
to a separate timing sidecar so reruns stay comparable byte for byte.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .greens import Background, grad_phi, phi
from .materials import IsoContrast, SymTensor3, aniso_contrast, iso_contrast
from .polarization import PolarizationTensor, mz_ellipsoid
from .specfun_quad import Ball, Ellipsoid, sphere_surface, voxelize
from .vie import (
    assemble,
    born_density,
    operator_norm,
    scattered_field,
    solve_density,
)
from . import imaging

__all__ = [
    "ExperimentConfig",
    "StudyReport",
    "parse_config",
    "load_config",
    "validate_config",
    "run_study",
    "run_sign_study",
    "run_decay_study",
    "run_born_study",
    "run_oracle_suite",
    "run_finite_delta_study",
    "emit_outputs",
    "STATUS_EXIT_CODES",
]

STATUS_EXIT_CODES = {"PASS": 0, "NEUTRAL": 0, "FAIL": 2, "INCONCLUSIVE": 3}

_STUDIES = ("sign", "decay", "born", "oracle", "finite_delta")

# key -> (type, default); vec values are comma-separated floats, vecs entries
# are semicolon-separated vec triples
_SCHEMA = {
    "study": ("str", None),
    "kappa": ("float", 1.0),
    "background_a": ("float", 1.0),
    "scatterer_shape": ("str", "ball"),
    "scatterer_radius": ("float", 0.5),
    "scatterer_semi_axes": ("vec3", None),
    "scatterer_center": ("vec3", (0.0, 0.0, 0.0)),
    "scatterer_a": ("float", 2.0),
    "scatterer_A": ("vec", None),
    "resolution": ("int", 16),
    "surface_radius": ("float", 5.0),
    "aperture": ("float", None),
    "quad_order": ("int", None),
    "trial_a": ("float", 2.0),
    "trial_A": ("vec", None),
    "trial_semi_axes": ("vec3", (1.0, 1.0, 1.0)),
    "grid_extent": ("float", 1.0),
    "grid_n": ("int", 9),
    "eta": ("float", 0.01),
    "alpha": ("float", 0.5),
    "alpha_pair": ("vec", (0.3, 0.7)),
    "rays": ("vecs", ((1.0, 0.0, 0.0),)),
    "points_per_decade": ("int", 60),
    "born_q0": ("float", 0.5),
    "born_halvings": ("int", 2),
    "deltas": ("vec", (0.2, 0.1, 0.05)),
    "delta_point": ("vec3", (0.2, 0.05, -0.1)),
    "cells_across": ("int", 8),
    "seed": ("int", 0),
    "out": ("str", ""),
    "tol_slope": ("float", 0.3),
    "tol_alpha_pair": ("float", 0.2),
    "tol_ratio": ("float", 0.1),
    "tol_born": ("float", 0.2),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of one experiment file plus the raw parsed pairs."""

    values: dict

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None

    def echo(self):
        out = {}
        for k, v in sorted(self.values.items()):
            if isinstance(v, tuple):
                v = [list(e) if isinstance(e, tuple) else e for e in v]
            out[k] = v
        return out

    def overrides(self):
        return {
            k: self.values[k]
            for k, (_, default) in _SCHEMA.items()
            if k.startswith("tol_") and self.values[k] != default
        }


def _finite(text):
    # range checks are comparisons, which NaN fails silently
    val = float(text)
    if not np.isfinite(val):
        raise ValueError(f"{text.strip()!r} is not finite")
    return val


def _parse_value(key, text):
    kind, _ = _SCHEMA[key]
    text = text.strip()
    if kind == "str":
        return text
    if kind == "int":
        return int(text)
    if kind == "float":
        return _finite(text)
    if kind == "vec":
        return tuple(_finite(t) for t in text.split(","))
    if kind == "vec3":
        vec = tuple(_finite(t) for t in text.split(","))
        if len(vec) != 3:
            raise ValueError(f"expected 3 components, got {len(vec)}")
        return vec
    if kind == "vecs":
        out = tuple(tuple(_finite(t) for t in part.split(",")) for part in text.split(";"))
        if any(len(v) != 3 for v in out):
            raise ValueError("each entry needs 3 components")
        return out
    raise AssertionError(kind)


def parse_config(text):
    """Parse flat key = value text; unknown keys and bad values are errors."""
    values = {k: d for k, (_, d) in _SCHEMA.items()}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected key = value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ValueError(f"line {ln}: unknown key {key!r}")
        try:
            values[key] = _parse_value(key, val)
        except ValueError as exc:
            raise ValueError(f"line {ln}: bad value for {key}: {exc}") from None
    return ExperimentConfig(values=values)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise RuntimeError(f"cannot read config {path}: {exc}") from exc


def validate_config(cfg):
    """List of problems; empty means the config is runnable."""
    problems = []
    v = cfg.values
    if v["study"] not in _STUDIES:
        problems.append(f"study must be one of {_STUDIES}, got {v['study']!r}")
    if v["kappa"] < 0:
        problems.append("kappa must be >= 0")
    if v["background_a"] <= 0:
        problems.append("background_a must be > 0")
    if v["scatterer_shape"] not in ("ball", "ellipsoid"):
        problems.append("scatterer_shape must be ball or ellipsoid")
    if v["scatterer_shape"] == "ellipsoid" and v["scatterer_semi_axes"] is None:
        problems.append("ellipsoid scatterer needs scatterer_semi_axes")
    if v["resolution"] < 4:
        problems.append("resolution must be >= 4 cells across the diameter")
    shape_ok = v["scatterer_shape"] == "ball" or (
        v["scatterer_shape"] == "ellipsoid" and v["scatterer_semi_axes"] is not None
    )
    if shape_ok:
        shape = _shape(cfg)
        reach = float(np.linalg.norm(shape.center)) + shape.diameter / 2.0
        r = v["surface_radius"]
        if r <= reach:
            problems.append(
                f"surface_radius = {r} does not enclose the scatterer (reach {reach})"
            )
    if v["aperture"] is not None and not 0.0 < v["aperture"] <= np.pi:
        problems.append("aperture must lie in (0, pi]")
    if v["aperture"] is not None and v["study"] in ("decay", "finite_delta"):
        problems.append(f"the {v['study']} study measures on closed spheres; "
                        "aperture must be unset")
    if v["study"] == "decay":
        if not 0.0 < v["eta"] <= 0.1:
            problems.append("eta must lie in (0, 0.1]")
        if len(v["alpha_pair"]) != 2:
            problems.append("alpha_pair needs exactly 2 values")
        for al in (v["alpha"], *v["alpha_pair"]):
            if not 0.0 < al < 1.0:
                problems.append(f"alpha {al} must lie in (0, 1)")
        if v["points_per_decade"] < 8:
            problems.append("points_per_decade must be >= 8")
        if not all(0.0 < np.linalg.norm(ray) < np.inf for ray in v["rays"]):
            problems.append("every ray needs a nonzero finite direction")
    for key in ("scatterer_A", "trial_A"):
        if v[key] is not None and len(v[key]) not in (3, 6):
            problems.append(f"{key} needs 3 (diagonal) or 6 (packed) entries")
    if v["study"] == "born" and not 0.0 < abs(v["born_q0"]) < 1.0:
        problems.append("born_q0 must lie in (-1, 1), nonzero")
    if v["study"] == "finite_delta":
        if any(d <= 0 for d in v["deltas"]):
            problems.append("deltas must be positive")
        if v["cells_across"] < 4:
            problems.append("cells_across must be >= 4")
        reach = float(np.linalg.norm(v["delta_point"])) + max(v["deltas"])
        if not reach < v["surface_radius"]:
            problems.append(f"the largest trial ball reaches {reach} (|delta_point| + "
                            f"max(deltas)); it must lie strictly inside surface_radius = "
                            f"{v['surface_radius']}")
    if v["grid_n"] < 1 or v["grid_extent"] <= 0:
        problems.append("sampling grid needs grid_n >= 1 and grid_extent > 0")
    if v["study"] == "sign" and not np.sqrt(3.0) * v["grid_extent"] < v["surface_radius"]:
        problems.append(f"the sampling cube's corners reach {np.sqrt(3.0) * v['grid_extent']} "
                        f"(sqrt(3) grid_extent); they must lie strictly inside "
                        f"surface_radius = {v['surface_radius']}")
    if v["trial_a"] <= 0:
        problems.append("trial_a must be > 0")
    return problems


# ---------------------------------------------------------------------------
# config -> model objects


def _shape(cfg):
    center = tuple(cfg.scatterer_center)
    if cfg.scatterer_shape == "ellipsoid":
        return Ellipsoid(tuple(cfg.scatterer_semi_axes), center=center)
    return Ball(cfg.scatterer_radius, center=center)


def _tensor_from_vec(vec):
    vec = tuple(vec)
    if len(vec) == 3:
        return SymTensor3.diag(*vec)
    if len(vec) == 6:
        return SymTensor3(packed=vec)
    raise ValueError("tensor values need 3 (diagonal) or 6 (packed) entries")


def _contrast(cfg, bg):
    if cfg.scatterer_A is not None:
        return aniso_contrast(bg.A, _tensor_from_vec(cfg.scatterer_A))
    return iso_contrast(cfg.background_a, cfg.scatterer_a)


def _trial(cfg, bg):
    """IsoContrast for scalar trials, PolarizationTensor for tensor trials."""
    if cfg.trial_A is not None:
        return mz_ellipsoid(bg.A, _tensor_from_vec(cfg.trial_A),
                            tuple(cfg.trial_semi_axes))
    return iso_contrast(cfg.background_a, cfg.trial_a)


def _system(cfg, bg):
    shape = _shape(cfg)
    grid = voxelize(shape, shape.diameter / cfg.resolution)
    return assemble(grid, bg)


def _surface(cfg, order):
    if cfg.quad_order is not None:
        order = cfg.quad_order
    return sphere_surface(cfg.surface_radius, order,
                          aperture=cfg.aperture)


def _sample_points(cfg):
    ax = np.linspace(-cfg.grid_extent, cfg.grid_extent, cfg.grid_n)
    return np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)


# ---------------------------------------------------------------------------
# reports


@dataclass
class StudyReport:
    study: str
    status: str
    checks: list
    results: dict
    config: dict
    tol_overrides: dict
    version: str
    seed: int
    kappa_diam: float
    kappa_R: float
    wall_clock_s: float = 0.0
    tdmap: object = None
    rays: list = field(default_factory=list)

    def to_json_dict(self):
        # wall clock stays out: emitted reports are byte-stable across reruns
        return {
            "study": self.study,
            "status": self.status,
            "checks": self.checks,
            "results": self.results,
            "config": self.config,
            "tol_overrides": self.tol_overrides,
            "version": self.version,
            "seed": self.seed,
            "kappa_diam": self.kappa_diam,
            "kappa_R": self.kappa_R,
        }


def _check(name, value, tol, passed):
    return {"name": name, "value": value, "tol": tol, "pass": bool(passed)}


def _status_from_checks(checks):
    return "PASS" if all(c["pass"] for c in checks) else "FAIL"


def _report(cfg, study, status, checks, results, t0, tdmap=None, rays=None):
    shape = _shape(cfg)
    return StudyReport(
        study=study,
        status=status,
        checks=checks,
        results=results,
        config=cfg.echo(),
        tol_overrides=cfg.overrides(),
        version=__version__,
        seed=cfg.seed,
        kappa_diam=cfg.kappa * shape.diameter,
        kappa_R=cfg.kappa * cfg.surface_radius,
        wall_clock_s=time.monotonic() - t0,
        tdmap=tdmap,
        rays=list(rays or []),
    )


# ---------------------------------------------------------------------------
# studies


def run_sign_study(cfg):
    """Sign heuristic: certificate plus full-map sign tally.

    PASS needs certificate < 1 and every sample matching the predicted sign;
    certificate >= 1 is INCONCLUSIVE (hypothesis unmet, no claim tested);
    zero contrast is NEUTRAL.
    """
    t0 = time.monotonic()
    bg = Background.isotropic(a=cfg.background_a, kappa=cfg.kappa)
    contrast = _contrast(cfg, bg)
    trial = _trial(cfg, bg)
    # + 0.0: matched media predict +0.0, not -0.0
    expected = -_one_sign(contrast, "scatterer") * _one_sign(trial, "trial") + 0.0
    sys = _system(cfg, bg)
    pts = _sample_points(cfg)
    order = imaging.surface_order_hint(
        cfg.kappa, float(np.linalg.norm(pts, axis=1).max()),
        float(np.linalg.norm(sys.grid.centers, axis=1).max()))
    surf = _surface(cfg, order)

    if isinstance(trial, IsoContrast):
        if isinstance(contrast, IsoContrast):
            tmap = imaging.td_map_iso(sys, contrast, trial, surf, pts)
        else:
            tmap = imaging.td_map_aniso_iso(sys, contrast, trial, surf, pts)
    else:
        tmap = imaging.td_map_general(sys, contrast, trial, surf, pts)

    results = {
        "certificate": tmap.certificate,
        "certificate_kind": tmap.certificate_kind,
        "expected_sign": float(expected),
        "imag_residue": tmap.imag_residue,
        "kernel_factor": tmap.kernel_factor,
        "kernel_rank": tmap.kernel_rank,
        "n_samples": int(pts.shape[0]),
        "surface_order": surf.order,
    }
    if expected == 0.0:
        results["sign_tally"] = None
        return _report(cfg, "sign", "NEUTRAL", [], results, t0, tdmap=tmap)
    if tmap.certificate >= 1.0:
        checks = [_check("certificate<1", tmap.certificate, 1.0, False)]
        return _report(cfg, "sign", "INCONCLUSIVE", checks, results, t0, tdmap=tmap)
    tally = float(np.mean(np.sign(tmap.values) == expected))
    results["sign_tally"] = tally
    checks = [
        _check("certificate<1", tmap.certificate, 1.0, tmap.certificate < 1.0),
        _check("sign_tally==1", tally, 1.0, tally == 1.0),
    ]
    return _report(cfg, "sign", _status_from_checks(checks), checks, results, t0,
                   tdmap=tmap)


def _one_sign(medium, label):
    """sign(q) of a scalar contrast (0 for matched media), else the common
    sign of sigma2, or of sigma_z2 for a trial tensor."""
    if isinstance(medium, IsoContrast):
        return float(np.sign(medium.q))
    sigma2 = medium.sigma_z2 if isinstance(medium, PolarizationTensor) else medium.sigma2
    vals = {int(v) for v in np.diagonal(sigma2) if v != 0}
    if len(vals) > 1:
        raise ValueError(f"{label} contrast must be one-signed for the sign study")
    return float(vals.pop()) if vals else 0.0


def run_decay_study(cfg):
    """Log-log decay of |T| under the two-scale window scaling.

    Each sample point sits at dist = eta'^{-(1-alpha)} from the scatterer on
    a sphere of radius 1/eta', with eta' swept down from cfg.eta so the
    distances cover one decade.  Dense sampling averages out the oscillatory
    factor; the least-squares slope is compared against -2 (kappa > 0) or 0
    (static).

    The fitted value is |T| divided by the squared aperture strength of the
    reduced kernel, ((1 + (kappa R)^2) / (12 pi R^2))^2.  For kappa > 0 this
    factor is constant to O((kappa R)^-2), so the slope is the raw one; at
    kappa = 0 it removes the pure R^-4 dilution of a growing non-radiating
    sphere, leaving the distance dependence the study is after.
    """
    t0 = time.monotonic()
    bg = Background.isotropic(a=cfg.background_a, kappa=cfg.kappa)
    sys = _system(cfg, bg)
    contrast = _contrast(cfg, bg)
    trial = _trial(cfg, bg)
    if not hasattr(contrast, "q") or not hasattr(trial, "q"):
        raise ValueError("the decay study uses scalar contrasts")
    cert = operator_norm(sys, which="qR_kappa", contrast=contrast)
    shape = _shape(cfg)
    center = np.asarray(shape.center)
    reach = shape.diameter / 2.0
    factors, ranks = set(), set()

    def slope_for(alpha):
        etas = cfg.eta * 10.0 ** (-np.linspace(0.0, 1.0, cfg.points_per_decade)
                                  / (1.0 - alpha))
        dists = shape.diameter * etas ** (-(1.0 - alpha))
        per_ray = []
        for ray in cfg.rays:
            ray = np.asarray(ray, dtype=float)
            ray = ray / np.linalg.norm(ray)
            rows = []
            for etap, dist in zip(etas, dists):
                radius = shape.diameter / etap
                order = imaging.surface_order_hint(cfg.kappa, dist + reach, reach)
                if cfg.quad_order is not None:
                    order = cfg.quad_order
                surf = sphere_surface(radius, order)
                z = center + (reach + dist) * ray
                tmap = imaging.td_map_iso(sys, contrast, trial, surf, z[None, :],
                                          certificate=cert)
                factors.add(tmap.kernel_factor)
                ranks.add(tmap.kernel_rank)
                scale = ((1.0 + (cfg.kappa * radius) ** 2)
                         / (12.0 * np.pi * radius**2)) ** 2
                raw = float(abs(tmap.values[0]))
                rows.append((float(dist), raw, raw / scale))
            per_ray.append(rows)
        usable = [(d, v) for rows in per_ray for d, _, v in rows if v > 0.0]
        if len(usable) < 8:
            raise ValueError("decay study has fewer than 8 usable points")
        logd = np.log([d for d, _ in usable])
        logv = np.log([v for _, v in usable])
        (slope, _), cov = np.polyfit(logd, logv, 1, cov=True)
        return float(slope), float(np.sqrt(cov[0, 0])), per_ray

    slope, stderr, per_ray = slope_for(cfg.alpha)
    expected = -2.0 if cfg.kappa > 0 else 0.0
    checks = [_check(f"slope in {expected}+-{cfg.tol_slope}", slope, cfg.tol_slope,
                     abs(slope - expected) <= cfg.tol_slope)]
    results = {
        "certificate": cert,
        "alpha": cfg.alpha,
        "eta": cfg.eta,
        "slope": slope,
        "slope_stderr": stderr,
        "expected_slope": expected,
    }
    pair = []
    for al in cfg.alpha_pair:
        s, _, _ = slope_for(al)
        pair.append({"alpha": al, "slope": s})
    results["kernel_factor"] = ",".join(sorted(factors))
    results["kernel_rank"] = ",".join(str(r) for r in sorted(ranks))
    if len(pair) >= 2:
        gap = abs(pair[0]["slope"] - pair[1]["slope"])
        results["alpha_pair"] = pair
        results["alpha_pair_gap"] = gap
        checks.append(_check("alpha_pair_gap", gap, cfg.tol_alpha_pair,
                             gap <= cfg.tol_alpha_pair))
    return _report(cfg, "decay", _status_from_checks(checks), checks, results, t0,
                   rays=per_ray)


def run_born_study(cfg):
    """Single-pass density error against the full solve over halved contrasts.

    Shows the moderate regime is wider than the weak one: some contrast with
    certificate < 1 leaves the Born error above tol_born, while halving q
    shrinks the error by a factor in [1.5, 3].
    """
    t0 = time.monotonic()
    bg = Background.isotropic(a=cfg.background_a, kappa=cfg.kappa)
    sys = _system(cfg, bg)
    r_norm = operator_norm(sys, which="R_kappa")
    centers = sys.grid.centers
    if cfg.kappa > 0:
        d = np.array([0.0, 0.0, 1.0])
        g = (1j * cfg.kappa * np.exp(1j * cfg.kappa * centers @ d))[:, None] * d
    else:
        g = np.tile(np.array([0.0, 0.0, 1.0]), (centers.shape[0], 1)).astype(complex)
    qs, errors, certs = [], [], []
    q = cfg.born_q0
    for _ in range(cfg.born_halvings + 1):
        beta = 2.0 * q / (1.0 - q)
        contrast = iso_contrast(cfg.background_a, cfg.background_a * (1.0 + beta))
        full = solve_density(sys, contrast, g)
        born = born_density(contrast, g, grid=sys.grid)
        err = float(np.linalg.norm(born.values - full.values)
                    / np.linalg.norm(full.values))
        qs.append(q)
        errors.append(err)
        certs.append(abs(q) * r_norm)
        q /= 2.0
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    checks = [
        _check("certificate<1 at q0", certs[0], 1.0, certs[0] < 1.0),
        _check("born_error>tol at q0", errors[0], cfg.tol_born,
               errors[0] > cfg.tol_born),
    ]
    for i, r in enumerate(ratios):
        checks.append(_check(f"halving_ratio_{i} in [1.5,3]", r, (1.5, 3.0),
                             1.5 <= r <= 3.0))
    results = {
        "q": qs,
        "born_error": errors,
        "certificate": certs,
        "halving_ratios": ratios,
        "R_norm": r_norm,
    }
    return _report(cfg, "born", _status_from_checks(checks), checks, results, t0)


def run_oracle_suite(cfg):
    """Cross-checks of every kernel route, the E operator, and reciprocity."""
    t0 = time.monotonic()
    kappa = cfg.kappa if cfg.kappa > 0 else 1.0
    bg = Background.isotropic(a=1.0, kappa=kappa)
    R = cfg.surface_radius
    base_order = cfg.quad_order if cfg.quad_order is not None else 30
    scale = min(1.0 / kappa, R / 4.0)
    z = np.array([1.5, -1.0, 2.0]) * scale
    y = np.array([-2.0, 0.4, 0.8]) * scale
    checks = []

    surf = sphere_surface(R, base_order)
    g_quad = imaging.kernel_G(surf, bg, z, y)
    val = float(np.abs(g_quad.imag).max() / np.linalg.norm(g_quad))
    checks.append(_check("G_real_closed_sphere", val, 1e-8, val < 1e-8))

    l_quad = imaging.kernel_L(surf, bg, z, y)
    l_series = imaging.kernel_L_series(R, kappa, z, y)
    val = float(abs(l_series - l_quad) / abs(l_quad))
    checks.append(_check("L_series_vs_quadrature", val, 1e-6, val < 1e-6))
    val = float(abs(imaging.kernel_L_series(R, kappa, (0, 0, 0), (0, 0, 0))
                    - 1.0 / (4.0 * np.pi)))
    checks.append(_check("L_origin_value", val, 1e-8, val < 1e-8))

    g_fd = imaging.kernel_G_from_L(R, kappa, z, y)
    val = float(np.abs(g_fd - g_quad).max())
    checks.append(_check("G_from_L_vs_quadrature", val, 1e-4, val < 1e-4))

    rz = float(np.linalg.norm(z))
    ry = float(np.linalg.norm(y))
    ff_order = cfg.quad_order
    if ff_order is None:
        ff_order = imaging.surface_order_hint(kappa, rz, ry) + 20
    surf_far = sphere_surface(500.0 / kappa, ff_order)
    g_far_q = imaging.kernel_G(surf_far, bg, z, y)
    g_far = imaging.kernel_G_farfield(kappa, z, y)
    val = float(np.linalg.norm(g_far_q - g_far) / np.linalg.norm(g_far))
    checks.append(_check("farfield_overlap", val, 1e-2, val < 1e-2))

    eta, alpha = 0.01, cfg.alpha
    r_asym = float(np.linalg.norm(y - z)) / eta
    surf_asym = sphere_surface(r_asym, ff_order)
    g_asym_q = imaging.kernel_G(surf_asym, bg, z, y)
    g_asym = imaging.kernel_G_asymptotic(r_asym, kappa, z, y)
    tol = 5.0 * eta**alpha
    val = float(np.linalg.norm(g_asym_q - g_asym) / np.linalg.norm(g_asym_q))
    checks.append(_check("asymptotic_overlap", val, tol, val < tol))

    en = imaging.e_multipliers(kappa, R, 40)
    val = float(np.abs(np.abs(en) - 1.0).max())
    checks.append(_check("E_unimodular", val, 1e-12, val < 1e-12))
    vals = (4.0 * np.pi / (1j * kappa)) * phi(bg, surf.nodes - z[None, :])
    tr = imaging.harmonic_trace(surf, vals, n_max=min(surf.order - 1, 25))
    etr = imaging.e_apply(tr, surf, kappa)
    scale = float(np.abs(tr.coeffs).max())
    val = float(np.abs(etr.coeffs + tr.coeffs.conj()).max() / scale)
    checks.append(_check("E_minus_conj_identity", val, 1e-6, val < 1e-6))

    cap = sphere_surface(R, base_order, aperture=np.pi)
    g_cap = imaging.kernel_G(cap, bg, z, y)
    val = float(np.abs(g_cap - g_quad).max() / np.abs(g_quad).max())
    checks.append(_check("aperture_pi_closed_identity", val, 1e-12, val <= 1e-12))

    val = _reciprocity_error(cfg, bg)
    checks.append(_check("reciprocity_random_pairs", val, 1e-3, val < 1e-3))

    results = {c["name"]: c["value"] for c in checks}
    results["base_order"] = base_order
    return _report(cfg, "oracle", _status_from_checks(checks), checks, results, t0)


def _reciprocity_error(cfg, bg):
    """Max relative asymmetry of source/receiver swaps over random pairs."""
    sys = _system(cfg, bg)
    contrast = _contrast(cfg, bg)
    rng = np.random.default_rng(cfg.seed)
    shape = _shape(cfg)
    center = np.asarray(shape.center)
    rad = 2.0 * shape.diameter
    worst = 0.0
    for _ in range(10):
        u = rng.normal(size=(2, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        x1, x2 = center + rad * u[0], center + rad * u[1]
        h12 = solve_density(sys, contrast, grad_phi(bg, sys.grid.centers - x2))
        h21 = solve_density(sys, contrast, grad_phi(bg, sys.grid.centers - x1))
        u12 = scattered_field(sys, h12, x1[None, :])[0]
        u21 = scattered_field(sys, h21, x2[None, :])[0]
        denom = max(abs(u12), abs(u21))
        if denom > 0:
            worst = max(worst, abs(u12 - u21) / denom)
    return float(worst)


def run_finite_delta_study(cfg):
    """Finite-size misfit increments against delta^3 T(z)."""
    t0 = time.monotonic()
    bg = Background.isotropic(a=cfg.background_a, kappa=cfg.kappa)
    sys = _system(cfg, bg)
    contrast = _contrast(cfg, bg)
    trial = _trial(cfg, bg)
    if not hasattr(trial, "q"):
        raise ValueError("the finite-size study uses a scalar trial")
    order = imaging.surface_order_hint(cfg.kappa, 1.0, 1.0)
    surf = _surface(cfg, order)
    deltas = sorted(cfg.deltas, reverse=True)
    check = imaging.td_finite_delta_check(sys, contrast, trial, surf,
                                          np.asarray(cfg.delta_point), deltas,
                                          cells_across=cfg.cells_across)
    pairs = check.pairs
    ratios = [r for _, r in pairs]
    gaps = np.diff(ratios)
    monotone = bool(np.all(gaps >= -1e-9) or np.all(gaps <= 1e-9))
    final = ratios[-1]
    checks = [
        _check("ratio_at_smallest_delta", final, cfg.tol_ratio,
               abs(final - 1.0) <= cfg.tol_ratio),
        _check("ratio_monotone", ratios, None, monotone),
    ]
    results = {
        "kernel_factor": check.kernel_factor,
        "kernel_rank": check.kernel_rank,
        "pairs": [[d, r] for d, r in pairs],
    }
    return _report(cfg, "finite_delta", _status_from_checks(checks), checks,
                   results, t0)


_RUNNERS = {
    "sign": run_sign_study,
    "decay": run_decay_study,
    "born": run_born_study,
    "oracle": run_oracle_suite,
    "finite_delta": run_finite_delta_study,
}


def run_study(cfg):
    problems = validate_config(cfg)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    return _RUNNERS[cfg.study](cfg)


# ---------------------------------------------------------------------------
# outputs


def _fmt(x):
    return repr(float(x))


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def emit_outputs(report, out_dir):
    """Write report.json, any TD map CSV, decay ray CSVs, and the timing sidecar.

    Returns the list of paths written.  Everything except timing.txt is
    byte-identical across reruns with the same config, seed, and threads.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory {out_dir}: {exc}") from exc
    paths = []

    path = os.path.join(out_dir, "report.json")
    _write(path, json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n")
    paths.append(path)

    if report.tdmap is not None:
        m = report.tdmap
        lines = ["x,y,z,T,inside_B"]
        for p, v, ins in zip(m.points, m.values, m.inside_B):
            lines.append(",".join([_fmt(p[0]), _fmt(p[1]), _fmt(p[2]), _fmt(v),
                                   str(int(ins))]))
        path = os.path.join(out_dir, "tdmap.csv")
        _write(path, "\n".join(lines) + "\n")
        paths.append(path)

    for i, rows in enumerate(report.rays):
        lines = ["dist,absT,normalized"]
        for dist, abs_t, normed in rows:
            lines.append(f"{_fmt(dist)},{_fmt(abs_t)},{_fmt(normed)}")
        path = os.path.join(out_dir, f"decay_ray_{i}.csv")
        _write(path, "\n".join(lines) + "\n")
        paths.append(path)

    path = os.path.join(out_dir, "timing.txt")
    _write(path, f"wall_clock_s = {report.wall_clock_s:.3f}\n")
    paths.append(path)
    return paths

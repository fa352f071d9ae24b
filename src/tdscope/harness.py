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
import math
import os
import time
from contextlib import contextmanager
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
from . import imaging, vie

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


def _reach(c):
    """|scatterer_center| + the largest semi-axis, -inf for invalid shape keys."""
    half = {"ball": (c.scatterer_radius,), "ellipsoid": c.scatterer_semi_axes}
    half = half.get(c.scatterer_shape) or (0.0,)
    return float(np.linalg.norm(c.scatterer_center)) + max(half) if min(half) > 0 else -np.inf


# Range checks on the parsed values alone: each row gives its problem or a
# false value.  What needs a model object (contrasts, grids, sample spheres,
# trial balls) is checked by the study's set-up once every row passes.
_RANGES = (
    lambda c: c.study not in _STUDY and f"study must be one of {tuple(_STUDY)}, got {c.study!r}",
    lambda c: c.kappa < 0 and "kappa must be >= 0",
    lambda c: c.background_a <= 0 and "background_a must be > 0",
    lambda c: c.scatterer_shape == "ball" and c.scatterer_radius <= 0
        and "scatterer_radius must be > 0",
    lambda c: c.scatterer_shape == "ellipsoid" and c.scatterer_semi_axes is None
        and "ellipsoid scatterer needs scatterer_semi_axes",
    lambda c: c.scatterer_shape == "ellipsoid" and min(c.scatterer_semi_axes or [1]) <= 0
        and "scatterer_semi_axes must be positive",
    lambda c: c.scatterer_shape not in ("ball", "ellipsoid")
        and "scatterer_shape must be ball or ellipsoid",
    lambda c: c.resolution < 4 and "resolution must be >= 4 cells across the diameter",
    lambda c: not c.surface_radius > _reach(c)
        and f"surface_radius = {c.surface_radius} does not enclose the scatterer "
            f"(reach {_reach(c)})",
    lambda c: c.quad_order is not None and c.quad_order < 1 and "quad_order must be >= 1",
    lambda c: c.aperture is not None and not 0.0 < c.aperture <= np.pi
        and "aperture must lie in (0, pi]",
    lambda c: c.aperture is not None and c.study in ("decay", "finite_delta")
        and f"the {c.study} study measures on closed spheres; aperture must be unset",
    lambda c: c.study == "decay" and not 0.0 < c.eta <= 0.1 and "eta must lie in (0, 0.1]",
    lambda c: c.study == "decay" and len(c.alpha_pair) != 2
        and "alpha_pair needs exactly 2 values",
    lambda c: c.study == "decay" and not all(0.0 < al < 1.0 for al in (c.alpha, *c.alpha_pair))
        and "alpha and each alpha_pair value must lie in (0, 1)",
    lambda c: c.study == "decay" and c.points_per_decade < 8 and "points_per_decade must be >= 8",
    lambda c: c.study == "decay" and not all(0.0 < np.linalg.norm(r) < np.inf for r in c.rays)
        and "every ray needs a nonzero finite direction",
    lambda c: c.trial_A is not None and min(c.trial_semi_axes) <= 0
        and "trial_semi_axes must be positive",
    lambda c: c.study == "born" and not 0.0 < abs(c.born_q0) < 1.0
        and "born_q0 must lie in (-1, 1), nonzero",
    lambda c: c.study == "born" and c.born_halvings < 1
        and "born_halvings must be >= 1: the study checks at least one halving ratio",
    # the Born error at the smallest q is about q: 1e-6 keeps it two decades
    # above the 1e-8 residual bound of a GMRES solve
    lambda c: c.study == "born" and c.born_halvings >= 1 and c.born_q0 != 0.0
        and math.ldexp(abs(c.born_q0), -c.born_halvings) < 1e-6
        and f"born_halvings = {c.born_halvings} halves born_q0 = {c.born_q0} below 1e-6 in "
            f"magnitude, where roundoff swamps the Born error",
    lambda c: c.study == "finite_delta" and min(c.deltas) <= 0 and "deltas must be positive",
    lambda c: c.study == "finite_delta" and c.cells_across < 4 and "cells_across must be >= 4",
    lambda c: c.study == "finite_delta"
        and not (reach := float(np.linalg.norm(c.delta_point)) + max(c.deltas)) < c.surface_radius
        and f"the largest trial ball reaches {reach} (|delta_point| + max(deltas)); it must lie "
            f"strictly inside surface_radius = {c.surface_radius}",
    lambda c: (c.grid_n < 1 or c.grid_extent <= 0)
        and "sampling grid needs grid_n >= 1 and grid_extent > 0",
    lambda c: c.study == "sign"
        and not (reach := np.sqrt(3.0) * c.grid_extent) < c.surface_radius
        and f"the sampling cube's corners reach {reach} (sqrt(3) grid_extent); they must lie "
            f"strictly inside surface_radius = {c.surface_radius}",
)


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
    """List of problems; empty means the config is runnable.

    Once every row of _RANGES passes, the study's set-up, the one its runner
    starts with, adds its error as the last problem: a config passes exactly
    when its run reaches the first assembly or kernel evaluation.
    """
    problems = [p for p in (row(cfg) for row in _RANGES) if p]
    if not problems:
        try:
            _STUDY[cfg.study][0](cfg)
        except (ValueError, MemoryError) as exc:
            problems.append(str(exc))
    return problems


# ---------------------------------------------------------------------------
# config -> model objects


@contextmanager
def _building(cfg, *keys):
    """Build model objects from the values of keys: a ValueError, or a number
    out of floating-point range, becomes a ValueError that names them."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (ValueError, ArithmeticError) as exc:
        why = exc if isinstance(exc, ValueError) else "out of floating-point range"
        named = ", ".join(f"{key} = {cfg.values[key]}" for key in keys)
        raise ValueError(f"{named}: {why}") from None


def _shape(cfg):
    center = tuple(cfg.scatterer_center)
    if cfg.scatterer_shape == "ellipsoid":
        return Ellipsoid(tuple(cfg.scatterer_semi_axes), center=center)
    return Ball(cfg.scatterer_radius, center=center)


def _tensor_from_vec(vec):
    if len(vec) not in (3, 6):
        raise ValueError("tensor values need 3 (diagonal) or 6 (packed) entries")
    return SymTensor3.diag(*vec) if len(vec) == 3 else SymTensor3(packed=tuple(vec))


def _contrast(cfg, bg):
    if cfg.scatterer_A is not None:
        with _building(cfg, "scatterer_A"):
            return aniso_contrast(bg.A, _tensor_from_vec(cfg.scatterer_A))
    with _building(cfg, "scatterer_a", "background_a"):
        return iso_contrast(cfg.background_a, cfg.scatterer_a)


def _trial(cfg, bg):
    """IsoContrast for scalar trials, PolarizationTensor for tensor trials."""
    if cfg.trial_A is not None:
        with _building(cfg, "trial_A", "trial_semi_axes"):
            return mz_ellipsoid(bg.A, _tensor_from_vec(cfg.trial_A), tuple(cfg.trial_semi_axes))
    with _building(cfg, "trial_a", "background_a"):
        return iso_contrast(cfg.background_a, cfg.trial_a)


def _media(cfg):
    """The background, the scatterer's contrast and the trial."""
    with _building(cfg, "background_a", "kappa"):
        bg = Background.isotropic(a=cfg.background_a, kappa=cfg.kappa)
    return bg, _contrast(cfg, bg), _trial(cfg, bg)


def _grid(cfg):
    """The scatterer's voxel grid; MemoryError past vie.VOXEL_CAP cells."""
    shape = _shape(cfg)
    size = "scatterer_radius" if cfg.scatterer_shape == "ball" else "scatterer_semi_axes"
    with _building(cfg, size, "scatterer_center", "resolution"):
        try:
            grid = voxelize(shape, shape.diameter / cfg.resolution, cap=vie.VOXEL_CAP)
        except MemoryError as exc:
            raise MemoryError(f"resolution = {cfg.resolution}: {exc}; coarsen the grid") from None
    if grid.n_cells > vie.VOXEL_CAP:
        raise MemoryError(f"resolution = {cfg.resolution} gives {grid.n_cells} voxels, "
                          f"which exceed the cap {vie.VOXEL_CAP}; coarsen the grid")
    return grid


def _quad_order(cfg, order):
    """quad_order if set, else order; MemoryError naming quad_order past the
    node factor's cap imaging._NODE_CAP, raised before any rule is built."""
    if cfg.quad_order is None:
        return order
    if 2 * cfg.quad_order**2 > imaging._NODE_CAP:
        raise MemoryError(f"quad_order = {cfg.quad_order} asks for {2 * cfg.quad_order**2} "
                          f"nodes per surface, above the cap {imaging._NODE_CAP}; lower it")
    return cfg.quad_order


def _surface(cfg, radius, order):
    """The measurement sphere of the given radius; quad_order overrides order."""
    return sphere_surface(radius, _quad_order(cfg, order), aperture=cfg.aperture)


def _sample_points(cfg):
    # one point per axis is the cube's centre, not its corner
    extent = cfg.grid_extent if cfg.grid_n > 1 else 0.0
    ax = np.linspace(-extent, extent, cfg.grid_n)
    return np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)


def _one_sign(medium, key):
    """sign(q) of a scalar contrast (0 for matched media), else the common
    sign of sigma2, or of sigma_z2 for a trial tensor; key names the tensor."""
    if isinstance(medium, IsoContrast):
        return float(np.sign(medium.q))
    sigma2 = medium.sigma_z2 if isinstance(medium, PolarizationTensor) else medium.sigma2
    vals = {int(v) for v in np.diagonal(sigma2) if v != 0}
    if len(vals) > 1:
        raise ValueError(f"{key} gives a mixed-sign contrast: the {key.split('_')[0]} "
                         "contrast must be one-signed for the sign study")
    return float(vals.pop()) if vals else 0.0


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
        return {k: v for k, v in vars(self).items()
                if k not in ("wall_clock_s", "tdmap", "rays")}


def _check(name, value, tol, passed):
    return {"name": name, "value": value, "tol": tol, "pass": bool(passed)}


def _status_from_checks(checks):
    return "PASS" if all(c["pass"] for c in checks) else "FAIL"


def _report(cfg, study, status, checks, results, t0, tdmap=None, rays=None):
    return StudyReport(
        study=study, status=status, checks=checks, results=results, config=cfg.echo(),
        tol_overrides=cfg.overrides(), version=__version__, seed=cfg.seed,
        kappa_diam=cfg.kappa * _shape(cfg).diameter, kappa_R=cfg.kappa * cfg.surface_radius,
        wall_clock_s=time.monotonic() - t0, tdmap=tdmap, rays=list(rays or []))


# ---------------------------------------------------------------------------
# studies: each runner starts with its set-up, which validate_config runs too.
# A set-up builds the run's cheap objects, with no assembly and no solve, and
# raises ValueError or MemoryError on the first problem.  A set-up whose run
# maps picks its kernel factors too, which refuses a node factor past the cap.


def _sign_setup(cfg):
    """Media, predicted sign, grid, sample points and surface."""
    bg, contrast, trial = _media(cfg)
    # + 0.0: matched media predict +0.0, not -0.0
    expected = -_one_sign(contrast, "scatterer_A") * _one_sign(trial, "trial_A") + 0.0
    grid = _grid(cfg)
    with _building(cfg, "kappa", "grid_extent"):
        pts = _sample_points(cfg)
        order = imaging.surface_order_hint(
            cfg.kappa, float(np.linalg.norm(pts, axis=1).max()),
            float(np.linalg.norm(grid.centers, axis=1).max()))
        surf = _surface(cfg, cfg.surface_radius, order)
        imaging._kernel_factors(bg, [(surf, pts)], grid.centers)
    return bg, contrast, trial, expected, grid, pts, surf


def run_sign_study(cfg):
    """Sign heuristic: certificate plus full-map sign tally.

    PASS needs certificate < 1 and every sample matching the predicted sign;
    certificate >= 1 is INCONCLUSIVE (hypothesis unmet, no claim tested);
    zero contrast is NEUTRAL.
    """
    t0 = time.monotonic()
    bg, contrast, trial, expected, grid, pts, surf = _sign_setup(cfg)
    sys = assemble(grid, bg)

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


def _decay_setup(cfg):
    """Media, grid, and per window exponent in (alpha, *alpha_pair) the sample
    distances, their aperture scales, and per distance its sphere's kernel
    factor and its points, one per ray."""
    for key in ("scatterer_A", "trial_A"):
        if cfg.values[key] is not None:
            raise ValueError(f"{key} must be unset: the decay study uses scalar contrasts")
    bg, contrast, trial = _media(cfg)
    for key, medium in (("scatterer_a", contrast), ("trial_a", trial)):
        if medium.q == 0.0:
            # T vanishes at every sample: nothing to fit
            raise ValueError(f"{key} = {cfg.values[key]} equals background_a: the decay study "
                             f"needs a nonzero {key.split('_')[0]} contrast")
    grid = _grid(cfg)
    shape = _shape(cfg)
    center, reach = np.asarray(shape.center), shape.diameter / 2.0
    rays = np.array([ray / np.linalg.norm(ray) for ray in np.asarray(cfg.rays, dtype=float)])
    sweeps = []
    for key, alpha in [("alpha", cfg.alpha)] + [("alpha_pair", al) for al in cfg.alpha_pair]:
        with _building(cfg, key, "eta", "kappa"):
            etas = cfg.eta * 10.0 ** (-np.linspace(0.0, 1.0, cfg.points_per_decade)
                                      / (1.0 - alpha))
            dists = shape.diameter * etas ** (-(1.0 - alpha))
            radii = shape.diameter / etas
            scale = ((1.0 + (cfg.kappa * radii) ** 2) / (12.0 * np.pi * radii**2)) ** 2
            surfs = [_surface(cfg, r, imaging.surface_order_hint(cfg.kappa, d + reach, reach))
                     for r, d in zip(radii, dists)]
            zs = center + (reach + dists)[None, :, None] * rays[:, None, :]
            pts = [zs[:, j] for j in range(len(surfs))]
            facs = imaging._kernel_factors(bg, list(zip(surfs, pts)), grid.centers)
        sweeps.append((dists, scale, facs, pts))
    return bg, contrast, trial, grid, sweeps


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

    All samples of one window exponent are mapped by one call of
    imaging._contract, which pairs the one solved wave response of the
    scatterer against the waves of every sample at once.
    """
    t0 = time.monotonic()
    bg, contrast, trial, grid, sweeps = _decay_setup(cfg)
    sys = assemble(grid, bg)
    cert = operator_norm(sys, which="qR_kappa", contrast=contrast)
    m_z = imaging._ball_trial_mz(sys, trial, contrast)
    factors, ranks = set(), set()

    def slope_for(dists, scale, facs, pts):
        values = imaging._contract(sys, contrast, m_z, facs, pts)
        factors.update(fac.kind for fac in facs)
        ranks.update(fac.rank for fac in facs)
        per_ray = [[(float(dist), float(raw), float(raw / sc))
                    for dist, raw, sc in zip(dists, row, scale)]
                   for row in np.abs(values.real).reshape(len(pts), -1).T]
        usable = [(d, v) for rows in per_ray for d, _, v in rows if v > 0.0]
        if len(usable) < 8:
            raise ValueError("decay study has fewer than 8 usable points")
        logd = np.log([d for d, _ in usable])
        logv = np.log([v for _, v in usable])
        (slope, _), cov = np.polyfit(logd, logv, 1, cov=True)
        return float(slope), float(np.sqrt(cov[0, 0])), per_ray

    slope, stderr, per_ray = slope_for(*sweeps[0])
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
    pair = [{"alpha": al, "slope": slope_for(*sweep)[0]}
            for al, sweep in zip(cfg.alpha_pair, sweeps[1:])]
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


def _born_setup(cfg):
    """Background, grid and (q, contrast) per halving of q."""
    grid = _grid(cfg)
    a, contrasts, q = cfg.background_a, [], cfg.born_q0
    with _building(cfg, "born_q0", "background_a", "kappa"):
        bg = Background.isotropic(a=a, kappa=cfg.kappa)
        for _ in range(cfg.born_halvings + 1):
            contrasts.append((q, iso_contrast(a, a * (1.0 + 2.0 * q / (1.0 - q)))))
            q /= 2.0
    return bg, grid, contrasts


def run_born_study(cfg):
    """Single-pass density error against the full solve over halved contrasts.

    Shows the moderate regime is wider than the weak one: some contrast with
    certificate < 1 leaves the Born error above tol_born, while halving q
    shrinks the error by a factor in [1.5, 3].
    """
    t0 = time.monotonic()
    bg, grid, contrasts = _born_setup(cfg)
    sys = assemble(grid, bg)
    r_norm = operator_norm(sys, which="R_kappa")
    centers = sys.grid.centers
    if cfg.kappa > 0:
        d = np.array([0.0, 0.0, 1.0])
        g = (1j * cfg.kappa * np.exp(1j * cfg.kappa * centers @ d))[:, None] * d
    else:
        g = np.tile(np.array([0.0, 0.0, 1.0]), (centers.shape[0], 1)).astype(complex)
    errors = []
    for _, contrast in contrasts:
        full = solve_density(sys, contrast, g)
        born = born_density(contrast, g, grid=sys.grid)
        errors.append(float(np.linalg.norm(born.values - full.values)
                            / np.linalg.norm(full.values)))
    qs = [q for q, _ in contrasts]
    certs = [abs(q) * r_norm for q in qs]
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    checks = [
        _check("certificate<1 at q0", certs[0], 1.0, certs[0] < 1.0),
        _check("born_error>tol at q0", errors[0], cfg.tol_born, errors[0] > cfg.tol_born),
    ] + [_check(f"halving_ratio_{i} in [1.5,3]", r, (1.5, 3.0), 1.5 <= r <= 3.0)
         for i, r in enumerate(ratios)]
    results = {
        "q": qs,
        "born_error": errors,
        "certificate": certs,
        "halving_ratios": ratios,
        "R_norm": r_norm,
    }
    return _report(cfg, "born", _status_from_checks(checks), checks, results, t0)


def _oracle_setup(cfg):
    """Background and base quadrature order of the kernel checks; grid and
    contrast of the reciprocity check.  The run builds the spheres: the first
    one, which the first kernel_G call uses, is valid once the rows of _RANGES
    pass."""
    with _building(cfg, "kappa"):
        bg = Background.isotropic(a=1.0, kappa=cfg.kappa if cfg.kappa > 0 else 1.0)
    return bg, _quad_order(cfg, 30), _grid(cfg), _contrast(cfg, bg)


def run_oracle_suite(cfg):
    """Cross-checks of every kernel route, the E operator, and reciprocity."""
    t0 = time.monotonic()
    bg, base_order, grid, contrast = _oracle_setup(cfg)
    kappa, R = bg.kappa, cfg.surface_radius
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
    ff_order = _quad_order(cfg, imaging.surface_order_hint(kappa, rz, ry) + 20)
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

    val = _reciprocity_error(cfg, assemble(grid, bg), contrast)
    checks.append(_check("reciprocity_random_pairs", val, 1e-3, val < 1e-3))

    results = {c["name"]: c["value"] for c in checks}
    results["base_order"] = base_order
    return _report(cfg, "oracle", _status_from_checks(checks), checks, results, t0)


def _reciprocity_error(cfg, sys, contrast):
    """Max relative asymmetry of source/receiver swaps over random pairs."""
    rng = np.random.default_rng(cfg.seed)
    shape = _shape(cfg)
    center = np.asarray(shape.center)
    u = rng.normal(size=(10, 2, 3))
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    x = center + 2.0 * shape.diameter * u
    # fields 2p and 2p + 1 are the point sources at x[p, 1] and x[p, 0]
    g = grad_phi(sys.bg, sys.grid.centers - x[:, ::-1].reshape(-1, 1, 3))
    h = solve_density(sys, contrast, g).values
    worst = 0.0
    for p in range(10):
        u12 = scattered_field(sys, h[2 * p], x[p, 0])
        u21 = scattered_field(sys, h[2 * p + 1], x[p, 1])
        denom = max(abs(u12), abs(u21))
        if denom > 0:
            worst = max(worst, abs(u12 - u21) / denom)
    return float(worst)


def _finite_delta_setup(cfg):
    """Media, grid and surface; the trial balls are voxelized only to hold
    them to vie.VOXEL_CAP and to pick the check's kernel factor."""
    if cfg.trial_A is not None:
        raise ValueError("trial_A must be unset: the finite-size study uses a scalar trial")
    bg, contrast, trial = _media(cfg)
    grid = _grid(cfg)
    with _building(cfg, "kappa"):
        surf = _surface(cfg, cfg.surface_radius, imaging.surface_order_hint(cfg.kappa, 1.0, 1.0))
    with _building(cfg, "deltas", "delta_point", "cells_across"):
        balls = imaging._trial_balls(cfg.delta_point, cfg.deltas, cfg.cells_across)
        pts = np.vstack([cfg.delta_point, *(g.centers for g in balls)])
        imaging._kernel_factors(bg, [(surf, pts)], grid.centers)
    return bg, contrast, trial, grid, surf


def run_finite_delta_study(cfg):
    """Finite-size misfit increments against delta^3 T(z)."""
    t0 = time.monotonic()
    bg, contrast, trial, grid, surf = _finite_delta_setup(cfg)
    sys = assemble(grid, bg)
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


# study -> (set-up, runner)
_STUDY = {
    "sign": (_sign_setup, run_sign_study),
    "decay": (_decay_setup, run_decay_study),
    "born": (_born_setup, run_born_study),
    "oracle": (_oracle_setup, run_oracle_suite),
    "finite_delta": (_finite_delta_setup, run_finite_delta_study),
}


def run_study(cfg):
    """The rows of _RANGES, then the study's runner, whose set-up is the rest
    of validate_config."""
    problems = [p for p in (row(cfg) for row in _RANGES) if p]
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    return _STUDY[cfg.study][1](cfg)


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

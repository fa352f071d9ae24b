"""Topological-derivative imaging of penetrable scatterers.

Near-field time-harmonic scattering: sources and measurements on a sphere,
penetrable (possibly anisotropic) inhomogeneity solved by a volume integral
equation, and a topological-derivative indicator map with sign and decay
guarantees under a computable moderate-contrast certificate.
"""

__version__ = "0.1.0"

import types as _types

from .materials import (
    SymTensor3,
    IsoContrast,
    AnisoContrast,
    iso_contrast,
    aniso_contrast,
    factor_Q,
)
from .specfun_quad import (
    SphereSurface,
    ScattererGrid,
    Ball,
    Ellipsoid,
    Union,
    sph_bessel_j,
    sph_hankel1,
    legendre_p,
    harmonics_table,
    regular_wave_gradients,
    real_spherical_harmonics,
    complex_spherical_harmonics,
    sphere_quadrature,
    sphere_surface,
    voxelize,
)
from .greens import (
    Background,
    phi,
    grad_phi,
    hess_phi,
    pde_residual,
    depolarization_factors,
    eshelby_tensor,
    cell_self_term,
)
from .vie import (
    VieSystem,
    DensityField,
    assemble,
    solve_density,
    born_density,
    scattered_field,
    radiation_matrix,
    resolvent_solve,
    operator_norm,
)
from .polarization import (
    PolarizationTensor,
    mz_ball_iso,
    mz_ellipsoid,
    mz_general,
)
from .imaging import (
    KernelG,
    TdMap,
    HarmonicTrace,
    kernel_G,
    kernel_G_farfield,
    kernel_G_asymptotic,
    kernel_L,
    kernel_L_series,
    kernel_G_from_L,
    truncation_order,
    surface_order_hint,
    harmonic_trace,
    synthesize_trace,
    e_multipliers,
    e_apply,
    td_map_iso,
    td_map_aniso_iso,
    td_map_general,
    td_finite_delta_check,
    FiniteDeltaCheck,
)
from .harness import (
    STATUS_EXIT_CODES,
    ExperimentConfig,
    StudyReport,
    parse_config,
    load_config,
    validate_config,
    run_study,
    run_sign_study,
    run_decay_study,
    run_born_study,
    run_oracle_suite,
    run_finite_delta_study,
    emit_outputs,
)

# the public surface: every name re-exported above
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)

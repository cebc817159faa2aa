"""Quasi-1D tube-bundle waterflooding model.

Forward map: tube-length measure -> displacement characteristic (produced
water vs total produced volume).  Inverse map: displacement characteristic
plus its support bound -> recovered water profile, harmonic cumulative and
density, via the fixed-point equation V = G(h + TV), solved exactly by
back-substitution with a closed-form operator matrix.

The package is pure Python on NumPy; BACKEND names that one implementation.
"""

from .analysis import (
    AmbiguityPair,
    SensitivityRecord,
    StabilityReport,
    ambiguity_pair,
    ambiguity_series_estimate,
    curve_gap,
    run_mc,
    sensitivity_constant,
    sinusoidal_perturbation,
    stability_bound,
    stability_experiment,
    summarize_mc,
)
from .errors import (
    ArgumentError,
    ConvergenceError,
    InternalConsistencyError,
)
from .forward import (
    DisplacementCurve,
    build_curve,
    curve_readoff,
    endpoint_data,
    harmonic_cdf_samples,
)
from .inverse import (
    RecoveryConfig,
    RecoveryResult,
    apply_T,
    h_of_alpha,
    kernel_K,
    recover,
    recover_cdf,
    recover_density,
    solve_fixed_point,
)
from .measures import (
    Measure,
    moment,
    random_atoms,
    scale,
    tail_kernel_integral,
)
from .tubes import (
    PumpHistory,
    TubeSimResult,
    TubeSystem,
    breakthrough_threshold,
    interface_position,
    reparam_xi,
    simulate,
)

BACKEND = "numpy"
__version__ = "0.1.0"

"""Quasi-1D tube-bundle waterflooding model.

Forward map: tube-length measure -> displacement characteristic (produced
water vs total produced volume).  Inverse map: displacement characteristic
plus its support bound -> recovered water profile, harmonic cumulative and
density, via the fixed-point equation V = G(h + TV), solved exactly by
back-substitution with a closed-form operator matrix.

The package root exports the API that README's "Key objects" lists; every
other function stays importable from its module (tubeflood.forward,
tubeflood.inverse, ...).  The package is pure Python on NumPy; BACKEND
names that one implementation.
"""

from .analysis import ambiguity_pair, curve_gap, run_mc, stability_experiment
from .errors import ArgumentError, InternalConsistencyError
from .forward import DisplacementCurve, build_curve
from .inverse import RecoveryConfig, RecoveryResult, recover, solve_fixed_point
from .measures import Measure
from .tubes import PumpHistory, TubeSystem, simulate

BACKEND = "numpy"
__version__ = "0.1.0"

"""Steady-state photon-blockade simulator for a driven Kerr cavity with an OPA.

The package solves the Lindblad master equation of a single damped cavity
mode subject to a coherent drive, a Kerr nonlinearity and a degenerate
parametric amplifier, evaluates the mean photon number and the equal-time
second-order correlation g2(0), and exposes the weak-drive two-photon
analytics (truncated amplitudes, destructive-interference conditions and
the optimal parametric gain) together with parameter-sweep presets.
"""

import types

from .model import SystemParams, FockSpace, build_h_eff, energy_levels
from .steady import (
    DensityMatrix,
    Observables,
    SteadyStateError,
    ConvergenceError,
    liouvillian,
    steady_state,
    observables,
    converged_steady_state,
)
from .analytic import (
    AmplitudeSet,
    DegenerateParametersError,
    SingularParametersError,
    amplitudes_closed_form,
    amplitudes_linear_solve,
    interference_residual,
    optimal_g,
    g2_analytic,
)
from .sweep import GridAxis, SweepRow, SweepResult, run_sweep, preset

# every name imported above, and none of the submodules
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]

__version__ = "0.1.0"

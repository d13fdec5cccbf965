"""The names the package exports, and the modules it no longer has."""

import importlib

import pytest

import blockade

PUBLIC_NAMES = [
    "AmplitudeSet",
    "ConvergenceError",
    "DegenerateParametersError",
    "DensityMatrix",
    "GridAxis",
    "Observables",
    "SingularParametersError",
    "SteadyStateError",
    "SweepResult",
    "SweepRow",
    "SystemParams",
    "amplitudes_closed_form",
    "build_h_eff",
    "converged_steady_state",
    "energy_levels",
    "g2_analytic",
    "interference_residual",
    "liouvillian",
    "observables",
    "optimal_g",
    "preset",
    "run_sweep",
    "steady_state",
]


def test_all_is_pinned_and_resolves():
    assert sorted(blockade.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(blockade, name), name


def test_public_surface_has_23_names():
    # the truncation is a plain int, so no name exports a Fock-space type
    assert len(PUBLIC_NAMES) == 23


def test_fock_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("blockade.fock")

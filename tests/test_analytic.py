import cmath
import math

import numpy as np
import pytest

from helpers import amplitudes_linear_solve

from blockade.analytic import (
    AmplitudeSet,
    DegenerateParametersError,
    SingularParametersError,
    amplitudes_closed_form,
    g2_analytic,
    interference_residual,
    optimal_g,
)
from blockade.model import SystemParams

# exact destructive-interference point: 2F^2 e^{2i phi} = G kappa + 2i delta G
CANCELLATION = SystemParams(delta=0.5, u=0.0, g=math.sqrt(2) * 0.01, f=0.1, phi=math.pi / 8)


def random_params(rng):
    return SystemParams(
        delta=float(rng.uniform(-2, 2)),
        u=float(rng.uniform(0, 3)),
        g=float(rng.uniform(-0.5, 0.5)),
        f=float(rng.uniform(0, 0.5)),
        phi=float(rng.uniform(0, 2 * math.pi)),
        kappa=float(rng.uniform(0.5, 2)),
    )


class TestAmplitudeSet:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            AmplitudeSet(c1=complex(math.inf, 0), c2=0.0)


class TestClosedForm:
    def test_no_excitation_channels(self):
        amps = amplitudes_closed_form(SystemParams(delta=0.7, u=1.2))
        assert amps.c1 == 0.0
        assert amps.c2 == 0.0

    def test_two_photon_amplitude_vanishes_at_cancellation(self):
        amps = amplitudes_closed_form(CANCELLATION)
        assert abs(amps.c2) <= 1e-15

    def test_matches_linear_solve_on_thousand_draws(self):
        rng = np.random.default_rng(73)
        worst = 0.0
        for _ in range(1000):
            p = random_params(rng)
            a = amplitudes_closed_form(p)
            b = amplitudes_linear_solve(p)
            scale = max(abs(a.c1), abs(a.c2), 1.0)
            worst = max(worst, abs(a.c1 - b.c1) / scale, abs(a.c2 - b.c2) / scale)
        assert worst <= 1e-12

    def test_degenerate_denominator_raises(self):
        # kappa small enough drives |den| = 4F^2 + kappa^2 under the floor
        with pytest.raises(DegenerateParametersError):
            amplitudes_closed_form(SystemParams(kappa=1e-8))


class TestLinearSolve:
    def test_no_excitation_channels(self):
        amps = amplitudes_linear_solve(SystemParams(delta=-0.4, u=0.3))
        assert amps.c1 == 0.0 and amps.c2 == 0.0

    def test_one_photon_weight_matches_coherent_state(self):
        # at G=0, delta=0, U=0 the cavity is linear and N = |alpha|^2 with
        # alpha = -F e^{i phi}/(delta - i kappa/2); |C1|^2 must agree to
        # leading order in F^2
        f = 0.01
        amps = amplitudes_linear_solve(SystemParams(f=f, phi=0.3))
        n_coherent = f**2 / 0.25
        assert abs(amps.c1) ** 2 == pytest.approx(n_coherent, rel=1e-3)

    def test_singular_system_raises(self):
        with pytest.raises(DegenerateParametersError):
            amplitudes_linear_solve(SystemParams(kappa=1e-8))


class TestInterferenceResidual:
    def test_cancellation_point(self):
        assert abs(interference_residual(CANCELLATION)) <= 1e-16

    def test_zero_without_channels(self):
        assert interference_residual(SystemParams(delta=1.0, u=2.0)) == 0.0

    def test_two_photon_amplitude_proportional_to_residual(self):
        # the closed-form denominator does not depend on phi, so sweeping phi
        # at fixed everything-else must keep |C2| / |R| constant
        ratios = []
        for phi in np.linspace(0.0, 2 * math.pi, 17):
            p = SystemParams(delta=0.4, u=0.8, g=0.03, f=0.2, phi=float(phi))
            r = interference_residual(p)
            if abs(r) < 1e-12:
                continue
            ratios.append(abs(amplitudes_closed_form(p).c2) / abs(r))
        assert np.ptp(ratios) <= 1e-12 * ratios[0]

    @pytest.mark.parametrize(
        "p",
        [SystemParams(f=1e300), SystemParams(g=1e300, delta=1e300)],
        ids=["f_squared_overflows", "delta_g_overflows"],
    )
    def test_overflow_raises(self, p):
        with pytest.raises(DegenerateParametersError, match="residual overflows"):
            interference_residual(p)


class TestBlockadeConditions:
    def test_cancellation_point(self):
        residual = interference_residual(CANCELLATION)
        assert abs(residual.real) <= 1e-16
        assert abs(residual.imag) <= 1e-16

    def test_zero_phase_on_resonance(self):
        f = 0.13
        p = SystemParams(g=2 * f**2, f=f)
        residual = interference_residual(p)
        assert residual.real == pytest.approx(0.0, abs=1e-16)
        assert residual.imag == 0.0

    def test_pair_matches_paper_conditions(self):
        # the two conditions as the paper writes them, with phases well
        # outside one period and gains of either sign
        rng = np.random.default_rng(79)
        for _ in range(1000):
            p = random_params(rng).replace(phi=float(rng.uniform(-7, 7)))
            residual = interference_residual(p)
            assert (residual.real, residual.imag) == (
                2 * p.f**2 * math.cos(2 * p.phi) - p.g * p.kappa,
                2 * p.f**2 * math.sin(2 * p.phi) - 2 * p.delta * p.g,
            )


class TestOptimalGain:
    def test_reference_value(self):
        assert optimal_g(0.1, math.pi / 12, 0.0, 1.0) == pytest.approx(0.0273205, abs=1e-7)

    def test_negative_branch_at_half_pi(self):
        assert optimal_g(0.1, math.pi / 2, 0.0, 1.0) == pytest.approx(-0.02, abs=1e-12)

    def test_zero_coefficient_phase(self):
        assert optimal_g(0.37, 3 * math.pi / 8, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_pole_raises(self):
        with pytest.raises(SingularParametersError):
            optimal_g(0.1, 1.0, -0.5, 1.0)

    def test_zeroes_sum_of_conditions(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            f = float(rng.uniform(0, 0.5))
            phi = float(rng.uniform(0, 2 * math.pi))
            delta = float(rng.uniform(-2, 2))
            kappa = float(rng.uniform(0.5, 2))
            if abs(kappa + 2 * delta) < 1e-3:
                continue
            g_star = optimal_g(f, phi, delta, kappa)
            p = SystemParams(delta=delta, g=g_star, f=f, phi=phi, kappa=kappa)
            residual = interference_residual(p)
            assert abs(residual.real + residual.imag) <= 1e-15


class TestG2Analytic:
    def test_blocked_two_photon(self):
        assert g2_analytic(AmplitudeSet(c1=0.1, c2=0.0)) == 0.0

    def test_pure_two_photon(self):
        c2 = 0.05 + 0.02j
        expected = 1.0 / (2.0 * abs(c2) ** 2)
        assert g2_analytic(AmplitudeSet(c1=0.0, c2=c2)) == pytest.approx(expected, rel=1e-12)

    def test_vanishing_excitation_flagged(self):
        assert g2_analytic(AmplitudeSet(c1=0.0, c2=0.0)) is None

    def test_decreases_along_gain_path_to_cancellation(self):
        # phi = 0, delta = 0: the residual 2F^2 - G kappa is real and hits
        # zero at G = 2F^2; g2 must fall monotonically along that path
        f = 0.1
        gains = np.linspace(0.0, 2 * f**2, 9)
        values = []
        for g in gains:
            p = SystemParams(g=float(g), f=f)
            values.append(g2_analytic(amplitudes_closed_form(p)))
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] <= 1e-25

    def test_decreases_along_gain_path_with_detuning(self):
        # same monotone approach along G toward the detuned cancellation point
        target = CANCELLATION.g
        values = []
        for g in np.linspace(0.0, target, 9):
            p = CANCELLATION.replace(g=float(g))
            values.append(g2_analytic(amplitudes_closed_form(p)))
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_amplitude_hierarchy_at_weak_drive(self):
        # weak drive with blockade-scale gain: |C0| >> |C1| >> |C2|
        rng = np.random.default_rng(89)
        for _ in range(200):
            f = float(rng.uniform(0.005, 0.05))
            p = SystemParams(
                delta=float(rng.uniform(-2, 2)),
                u=float(rng.uniform(0, 3)),
                g=float(rng.uniform(-2 * f**2, 2 * f**2)),
                f=f,
                phi=float(rng.uniform(0, 2 * math.pi)),
            )
            amps = amplitudes_closed_form(p)
            assert abs(amps.c1) < 0.3
            assert abs(amps.c2) < abs(amps.c1)

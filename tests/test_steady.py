import math

import numpy as np
import pytest

from helpers import force_unphysical, rk4_steady, weak_drive_draw

from blockade.analytic import optimal_g
from blockade.fock import FockSpace, annihilation, expectation
from blockade.model import SystemParams
from blockade.steady import (
    ConvergenceError,
    DensityMatrix,
    SteadyStateError,
    converged_steady_state,
    liouvillian,
    observables,
    steady_state,
)


def vec(rho):
    return rho.flatten(order="F")


def ketbra(dim, n):
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return rho


def random_params(rng, u_min=0.1):
    return SystemParams(
        delta=float(rng.uniform(-5, 5)),
        u=float(rng.uniform(u_min, 5)),
        g=float(rng.uniform(-0.5, 0.5)),
        f=float(rng.uniform(0, 0.5)),
        phi=float(rng.uniform(0, 2 * math.pi)),
    )


class TestLiouvillian:
    def test_vacuum_stationary_without_couplings(self):
        gen = liouvillian(SystemParams(), FockSpace(4))
        out = gen @ vec(ketbra(4, 0))
        assert np.max(np.abs(out)) < 1e-15

    @pytest.mark.parametrize("kappa", [1.0, 1.7])
    def test_single_photon_decays_at_kappa(self, kappa):
        gen = liouvillian(SystemParams(kappa=kappa), FockSpace(4))
        out = gen @ vec(ketbra(4, 1))
        expected = kappa * (vec(ketbra(4, 0)) - vec(ketbra(4, 1)))
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_trace_preserved_on_random_states(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            p = random_params(rng)
            gen = liouvillian(p, FockSpace(6))
            m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            rho = m + m.conj().T
            rho = rho / np.trace(rho).real
            drho = (gen @ vec(rho)).reshape((6, 6), order="F")
            assert abs(np.trace(drho)) < 1e-11 * np.linalg.norm(gen, np.inf)

    def test_trace_functional_is_left_null_vector(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            p = random_params(rng)
            gen = liouvillian(p, FockSpace(8))
            tr_vec = vec(np.eye(8, dtype=complex))
            assert np.max(np.abs(tr_vec @ gen)) <= 1e-10 * np.linalg.norm(gen, np.inf)


class TestSteadyState:
    def test_undriven_decays_to_vacuum(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            p = SystemParams(delta=float(rng.uniform(-3, 3)), u=float(rng.uniform(0, 3)))
            rho = steady_state(p, FockSpace(8))
            assert np.max(np.abs(rho.entries - ketbra(8, 0))) < 1e-12
            assert observables(rho).mean_photon < 1e-14

    def test_coherent_state_limit(self):
        # linear driven-damped cavity: steady state is coherent with
        # alpha = -F e^{i phi} / (delta - i kappa/2)
        p = SystemParams(f=0.1)
        rho = steady_state(p, FockSpace(20))
        obs = observables(rho)
        assert obs.mean_photon == pytest.approx(0.04, abs=1e-9)
        assert obs.g2 == pytest.approx(1.0, abs=1e-3)
        alpha = -p.f / (p.delta - 0.5j * p.kappa)
        a = annihilation(FockSpace(20))
        assert expectation(a, rho.entries) == pytest.approx(alpha, abs=1e-9)

    def test_coherent_amplitude_with_phase_and_detuning(self):
        p = SystemParams(delta=0.4, f=0.08, phi=1.1)
        rho = steady_state(p, FockSpace(20))
        alpha = -p.f * np.exp(1j * p.phi) / (p.delta - 0.5j * p.kappa)
        a = annihilation(FockSpace(20))
        assert expectation(a, rho.entries) == pytest.approx(alpha, abs=1e-9)
        assert observables(rho).mean_photon == pytest.approx(abs(alpha) ** 2, abs=1e-9)

    def test_blockade_point_is_sub_poissonian(self):
        p = SystemParams(delta=0.0, u=0.5, g=0.0273, f=0.1, phi=math.pi / 12)
        obs = observables(steady_state(p, FockSpace(18)))
        assert obs.g2 is not None and obs.g2 < 1.0

    def test_unphysical_solution_is_solver_failure(self, monkeypatch):
        force_unphysical(monkeypatch)
        with pytest.raises(SteadyStateError, match="forced") as excinfo:
            steady_state(SystemParams(f=0.1), FockSpace(12))
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_rejects_small_truncation(self):
        with pytest.raises(ValueError):
            steady_state(SystemParams(f=0.1), FockSpace(2))

    def test_physicality_on_random_draws(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            rho = steady_state(random_params(rng), FockSpace(16)).entries
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
            assert abs(np.trace(rho) - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(rho)[0] >= -1e-8

    def test_observables_invariant_under_full_phase_turn(self):
        p = SystemParams(delta=0.3, u=0.7, g=0.04, f=0.12, phi=0.9)
        obs_a = observables(steady_state(p, FockSpace(14)))
        obs_b = observables(steady_state(p.replace(phi=p.phi + 2 * math.pi), FockSpace(14)))
        assert obs_a.mean_photon == pytest.approx(obs_b.mean_photon, abs=1e-12)
        assert obs_a.g2 == pytest.approx(obs_b.g2, abs=1e-12)
        np.testing.assert_allclose(obs_a.populations, obs_b.populations, atol=1e-12)

    def test_mean_photon_has_period_pi(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            p = SystemParams(
                delta=float(rng.uniform(-1, 1)),
                u=float(rng.uniform(0, 2)),
                g=float(rng.uniform(-0.2, 0.2)),
                f=float(rng.uniform(0.05, 0.2)),
                phi=float(rng.uniform(0, 2 * math.pi)),
            )
            n_a = observables(steady_state(p, FockSpace(14))).mean_photon
            n_b = observables(steady_state(p.replace(phi=p.phi + math.pi), FockSpace(14))).mean_photon
            assert n_a == pytest.approx(n_b, abs=1e-9)

    def test_blockade_survives_around_optimal_curve(self):
        # finite neighborhood of the optimal-gain curve at phi = pi/12,
        # U = 0.5, delta = 0 stays sub-Poissonian
        for f in (0.05, 0.1, 0.15):
            g_star = optimal_g(f, math.pi / 12, 0.0, 1.0)
            for scale in (0.8, 1.0, 1.2):
                p = SystemParams(delta=0.0, u=0.5, g=g_star * scale, f=f, phi=math.pi / 12)
                _, obs, _ = converged_steady_state(p)
                assert obs.g2 is not None and obs.g2 < 1.0


class TestObservables:
    def test_single_photon_state(self):
        obs = observables(DensityMatrix(dim=4, entries=ketbra(4, 1)))
        assert obs.mean_photon == pytest.approx(1.0)
        assert obs.g2 == pytest.approx(0.0)
        assert obs.lg_g2 is None  # log of zero is undefined

    def test_two_photon_state(self):
        obs = observables(DensityMatrix(dim=4, entries=ketbra(4, 2)))
        assert obs.mean_photon == pytest.approx(2.0)
        assert obs.g2 == pytest.approx(0.5)

    def test_vacuum_flags_undefined(self):
        obs = observables(DensityMatrix(dim=3, entries=ketbra(3, 0)))
        assert obs.mean_photon == 0.0
        assert obs.g2 is None and obs.lg_n is None and obs.lg_g2 is None
        assert obs.populations[0] == pytest.approx(1.0)

    def test_populations_sum_to_one(self):
        rho = steady_state(SystemParams(f=0.2, u=0.3), FockSpace(14))
        obs = observables(rho)
        assert sum(obs.populations) == pytest.approx(1.0, abs=1e-9)
        assert obs.mean_photon == pytest.approx(
            sum(n * pn for n, pn in enumerate(obs.populations)), abs=1e-12
        )


class TestConvergedSteadyState:
    def test_weak_drive_converges_by_eighteen(self):
        rng = np.random.default_rng(67)
        for _ in range(5):
            p = SystemParams(
                delta=float(rng.uniform(-1, 1)),
                u=float(rng.uniform(0, 1)),
                g=float(rng.uniform(-0.1, 0.1)),
                f=0.1,
                phi=float(rng.uniform(0, 2 * math.pi)),
            )
            _, _, dim = converged_steady_state(p)
            assert dim <= 18

    def test_undriven_returns_at_first_dimension(self):
        rho, obs, dim = converged_steady_state(SystemParams(u=0.4, delta=-1.0))
        assert dim == 12
        assert obs.mean_photon == 0.0

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(ConvergenceError) as excinfo:
            converged_steady_state(SystemParams(f=0.1, u=0.5), tol=0.0, max_dim=24)
        err = excinfo.value
        assert err.previous is not None and err.last is not None
        assert err.previous.mean_photon == pytest.approx(err.last.mean_photon, rel=1e-3)

    def test_convergence_error_is_solver_failure(self):
        assert issubclass(ConvergenceError, SteadyStateError)

    def test_rejects_max_dim_below_start(self):
        with pytest.raises(ValueError):
            converged_steady_state(SystemParams(f=0.1), max_dim=6)


class TestEvolutionOracle:
    def test_solver_matches_explicit_time_evolution(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            p = weak_drive_draw(rng)
            dim = 12
            rho_evolved = DensityMatrix(dim=dim, entries=rk4_steady(p, dim))
            obs_t = observables(rho_evolved)
            obs_s = observables(steady_state(p, FockSpace(dim)))
            assert obs_t.mean_photon == pytest.approx(obs_s.mean_photon, abs=1e-6)
            assert obs_t.g2 == pytest.approx(obs_s.g2, abs=1e-6)
            np.testing.assert_allclose(obs_t.populations, obs_s.populations, atol=1e-6)

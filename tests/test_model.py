import math

import numpy as np
import pytest

from helpers import ladder

from blockade.model import SystemParams, build_h_eff, energy_levels


def random_params(rng):
    return SystemParams(
        delta=float(rng.uniform(-3, 3)),
        u=float(rng.uniform(0, 3)),
        g=float(rng.uniform(-0.5, 0.5)),
        f=float(rng.uniform(0, 0.5)),
        phi=float(rng.uniform(0, 2 * math.pi)),
        kappa=float(rng.uniform(0.5, 2)),
    )


class TestSystemParams:
    def test_defaults(self):
        p = SystemParams()
        assert (p.delta, p.u, p.g, p.f, p.phi, p.kappa) == (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            SystemParams(kappa=0.0)
        with pytest.raises(ValueError):
            SystemParams(kappa=-1.0)

    def test_rejects_negative_drive(self):
        with pytest.raises(ValueError):
            SystemParams(f=-0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SystemParams(delta=math.inf)
        with pytest.raises(ValueError):
            SystemParams(u=math.nan)

    def test_negative_opa_gain_allowed(self):
        assert SystemParams(g=-0.02).g == -0.02

    def test_phase_not_canonicalized(self):
        assert SystemParams(phi=7.5).phi == 7.5

    def test_replace(self):
        p = SystemParams(f=0.1, u=0.5)
        q = p.replace(g=0.02)
        assert q.g == 0.02 and q.f == 0.1 and q.u == 0.5
        assert p.g == 0.0


class TestHamiltonian:
    def test_number_operator_limit(self):
        p = SystemParams(delta=1.0)
        h = build_h_eff(p, 5)
        np.testing.assert_allclose(h, np.diag([0.0, 1, 2, 3, 4]).astype(complex), atol=1e-14)

    def test_kerr_diagonal(self):
        p = SystemParams(u=0.5)
        h = build_h_eff(p, 4)
        np.testing.assert_allclose(h, np.diag([0.0, 0.0, 1.0, 3.0]).astype(complex), atol=1e-14)

    def test_opa_matrix_element(self):
        p = SystemParams(g=0.1)
        h = build_h_eff(p, 3)
        assert h[2, 0] == pytest.approx(1j * 0.1 * math.sqrt(2), abs=1e-15)
        assert h[0, 2] == pytest.approx(-1j * 0.1 * math.sqrt(2), abs=1e-15)

    def test_hermitian_on_random_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            h = build_h_eff(random_params(rng), 8)
            assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3, 6])
    def test_matches_ladder_operator_products(self, dim):
        # H as written in the docstring, from products of a and a'
        a = ladder(dim)
        ad = a.conj().T
        rng = np.random.default_rng(dim)
        for _ in range(5):
            p = random_params(rng)
            drive = p.f * np.exp(1j * p.phi)
            expected = (
                p.delta * (ad @ a)
                + p.u * (ad @ ad @ a @ a)
                + 1j * p.g * (ad @ ad - a @ a)
                + drive * ad
                + np.conj(drive) * a
            )
            h = build_h_eff(p, dim)
            assert h.shape == (dim, dim)
            np.testing.assert_allclose(h, expected, rtol=0, atol=1e-14 * max(1.0, np.abs(expected).max()))

    def test_drive_couples_adjacent_states_only(self):
        p = SystemParams(f=0.3, phi=0.7)
        h = build_h_eff(p, 6)
        off = h - np.diag(np.diag(h))
        mask = np.abs(off) > 0
        rows, cols = np.nonzero(mask)
        assert np.all(np.abs(rows - cols) == 1)

    def test_opa_couples_two_apart_only(self):
        p = SystemParams(g=0.2)
        h = build_h_eff(p, 6)
        off = h - np.diag(np.diag(h))
        rows, cols = np.nonzero(np.abs(off) > 0)
        assert np.all(np.abs(rows - cols) == 2)


class TestSpectrum:
    def test_harmonic_ladder(self):
        levels = energy_levels(1.0, 0.0, 3)
        assert levels == [0.0, 1.0, 2.0, 3.0]

    def test_kerr_shift(self):
        levels = energy_levels(1.0, 0.5, 2)
        assert levels[2] == pytest.approx(3.0)

    def test_ground_level_always_zero(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            levels = energy_levels(float(rng.normal()), float(rng.normal()), 4)
            assert levels[0] == 0.0

    def test_anharmonicity_is_twice_kerr(self):
        # dyadic draws keep every term exactly representable, so the level
        # mismatch E2 - 2*E1 == 2u holds with no floating-point slack
        rng = np.random.default_rng(41)
        for _ in range(20):
            omega = float(rng.integers(-32, 32)) / 8.0
            u = float(rng.integers(-32, 32)) / 8.0
            levels = energy_levels(omega, u, 2)
            assert levels[2] - 2 * levels[1] == 2 * u

    def test_rejects_negative_n_max(self):
        with pytest.raises(ValueError):
            energy_levels(1.0, 0.0, -1)

import contextlib
import ctypes
import gc
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csc_array, diags_array
from scipy.sparse.linalg import LinearOperator, onenormest, splu
from scipy.sparse.linalg._dsolve import _superlu

from helpers import (
    dense_liouvillian,
    exact_kerr_moments,
    fail_at,
    force_unphysical,
    force_unphysical_observables,
    ladder,
    never_solve,
    reference_ladder,
    reference_observables,
    weak_drive_params,
)

import blockade.steady
from blockade.analytic import optimal_g
from blockade.model import SystemParams, build_h_eff
from blockade.sweep import GridAxis, preset, run_sweep
from blockade.steady import (
    DEFAULT_MAX_DIM,
    DEFAULT_TOL,
    ConvergenceError,
    DensityMatrix,
    Observables,
    SteadyStateError,
    converged_steady_state,
    liouvillian,
    observables,
    steady_state,
)


# rates drawn log-uniformly over sixteen decades
RATES = st.floats(-8.0, 8.0).map(lambda e: 10.0**e)


def vec(rho):
    return rho.flatten(order="F")


def openblas_controls(lib):
    """(get, set) thread-count functions that lib resolves, under any of
    the four OpenBLAS spellings, or None."""
    for prefix, suffix in (("scipy_", ""), ("scipy_", "64_"), ("", ""), ("", "64_")):
        get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            return get, set_
    return None


def address(function):
    return ctypes.cast(function, ctypes.c_void_p).value


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


def steady_state_factor(monkeypatch, p, dim):
    """The system steady_state factors for p at truncation dim, with its splu
    keywords and its SuperLU factor."""
    factors = []

    def recording_splu(matrix, **kwargs):
        factors.append((matrix, kwargs, splu(matrix, **kwargs)))
        return factors[-1][2]

    monkeypatch.setattr(blockade.steady, "splu", recording_splu)
    with contextlib.suppress(SteadyStateError):
        steady_state(p, dim)
    return factors[-1]


def onenormest_oracle(lu, n):
    """scipy's onenormest(t=1) on A^-1, applied through the factor."""
    inverse = LinearOperator(
        (n, n), matvec=lu.solve, rmatvec=lambda x: lu.solve(x, trans="H"), dtype=complex
    )
    return float(onenormest(inverse, t=1))


class RecordingFactor:
    """Passes solves through to a factor, recording their kind and result."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = []

    def solve(self, rhs, trans="N"):
        out = self.lu.solve(rhs, trans=trans)
        self.solves.append((trans, out))
        return out


def exit_taken(solves, est):
    """Which exit of the estimator's loop returned est, read off its solves."""
    if solves[-1][0] == "H":
        return "no better unit vector"
    sums = [np.abs(y).sum() for trans, y in solves if trans == "N"]
    if len(sums) > 1 and sums[-1] <= sums[-2]:
        assert est == sums[-2]
        return "estimate stalled"
    assert est == sums[-1]
    return "iteration limit" if len(sums) == 6 else "signs repeat"


class TestLiouvillian:
    def test_vacuum_stationary_without_couplings(self):
        gen = liouvillian(SystemParams(), 4)
        out = gen @ vec(ketbra(4, 0))
        assert np.max(np.abs(out)) < 1e-15

    @pytest.mark.parametrize("kappa", [1.0, 1.7])
    def test_single_photon_decays_at_kappa(self, kappa):
        gen = liouvillian(SystemParams(kappa=kappa), 4)
        out = gen @ vec(ketbra(4, 1))
        expected = kappa * (vec(ketbra(4, 0)) - vec(ketbra(4, 1)))
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_trace_preserved_on_random_states(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            p = random_params(rng)
            gen = liouvillian(p, 6).toarray()
            m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            rho = m + m.conj().T
            rho = rho / np.trace(rho).real
            drho = (gen @ vec(rho)).reshape((6, 6), order="F")
            assert abs(np.trace(drho)) < 1e-11 * np.linalg.norm(gen, np.inf)

    def test_trace_functional_is_left_null_vector(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            p = random_params(rng)
            gen = liouvillian(p, 8).toarray()
            tr_vec = vec(np.eye(8, dtype=complex))
            assert np.max(np.abs(tr_vec @ gen)) <= 1e-10 * np.linalg.norm(gen, np.inf)

    @pytest.mark.parametrize("dim", [3, 4, 7, 12])
    def test_matches_dense_oracle(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            p = random_params(rng, u_min=0.0).replace(kappa=float(rng.uniform(0.5, 2)))
            dense = dense_liouvillian(p, dim)
            gen = liouvillian(p, dim)
            assert gen.shape == dense.shape
            err = np.max(np.abs(gen.toarray() - dense))
            assert err <= 1e-14 * np.linalg.norm(dense, np.inf)

    def test_pattern_shared_per_dim(self):
        # one pattern per truncation and gain band
        gained = [liouvillian(SystemParams(f=0.3, g=0.1), 9), liouvillian(SystemParams(u=1.0, g=-0.2), 9)]
        gain_free = [liouvillian(SystemParams(f=0.3), 9), liouvillian(SystemParams(u=1.0, delta=-0.5), 9)]
        for first, second in (gained, gain_free):
            assert np.shares_memory(first.indices, second.indices)
            assert np.shares_memory(first.indptr, second.indptr)
            assert not first.indices.flags.writeable
        assert not np.shares_memory(gained[0].indices, gain_free[0].indices)
        assert gain_free[0].nnz < gained[0].nnz

    def test_gain_free_pattern_leaves_out_the_gain_band(self, monkeypatch):
        # the a'a', aa band of a g == 0 point is zero: L stores none of it,
        # and its factor is smaller than, with the same state as, the same
        # system on the full pattern
        p = SystemParams(delta=0.1, u=0.02, f=2.0, phi=0.3)
        dim = 36
        gen = liouvillian(p, dim)
        rows = np.repeat(np.arange(dim * dim), np.diff(gen.indptr))
        # number-state distance of each stored entry, on each side of rho
        apart = np.maximum(abs(rows % dim - gen.indices % dim), abs(rows // dim - gen.indices // dim))
        assert apart.max() == 1
        full = blockade.steady._layout(dim, True)
        assert full[0].size > gen.nnz  # the full pattern does hold the band

        factors = []

        def recording_splu(matrix, **kwargs):
            factors.append(splu(matrix, **kwargs))
            return factors[-1]

        monkeypatch.setattr(blockade.steady, "splu", recording_splu)
        states, fill = [], []
        layout = blockade.steady._layout
        for on_full_pattern in (False, True):
            if on_full_pattern:
                monkeypatch.setattr(blockade.steady, "_layout", lambda d, gain: layout(d, True))
            states.append(steady_state(p, dim).entries)
            fill.append(factors[-1].L.nnz + factors[-1].U.nnz)
        assert fill[0] <= 0.8 * fill[1]
        assert np.max(np.abs(states[0] - states[1])) <= 1e-13


class TestSteadyState:
    def test_undriven_decays_to_vacuum(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            p = SystemParams(delta=float(rng.uniform(-3, 3)), u=float(rng.uniform(0, 3)))
            rho = steady_state(p, 8)
            assert np.max(np.abs(rho.entries - ketbra(8, 0))) < 1e-12
            assert observables(rho).mean_photon < 1e-14

    def test_coherent_state_limit(self):
        # linear driven-damped cavity: steady state is coherent with
        # alpha = -F e^{i phi} / (delta - i kappa/2)
        p = SystemParams(f=0.1)
        rho = steady_state(p, 20)
        obs = observables(rho)
        assert obs.mean_photon == pytest.approx(0.04, abs=1e-9)
        assert obs.g2 == pytest.approx(1.0, abs=1e-3)
        alpha = -p.f / (p.delta - 0.5j * p.kappa)
        a = ladder(20)
        assert np.trace(rho.entries @ a) == pytest.approx(alpha, abs=1e-9)

    def test_coherent_amplitude_with_phase_and_detuning(self):
        p = SystemParams(delta=0.4, f=0.08, phi=1.1)
        rho = steady_state(p, 20)
        alpha = -p.f * np.exp(1j * p.phi) / (p.delta - 0.5j * p.kappa)
        a = ladder(20)
        assert np.trace(rho.entries @ a) == pytest.approx(alpha, abs=1e-9)
        assert observables(rho).mean_photon == pytest.approx(abs(alpha) ** 2, abs=1e-9)

    def test_far_detuned_coherent_state_keeps_g2_digits(self):
        # N ~ 1e-3, so g2 = <n(n-1)>/N^2 needs P(2) ~ 6e-7 to full relative
        # precision; a solve that is only backward stable in norm loses it
        for delta in (-3.0, 3.0):
            p = SystemParams(delta=delta, f=0.1)
            obs = observables(steady_state(p, 18))
            assert obs.mean_photon == pytest.approx(p.f**2 / (delta**2 + 0.25), rel=1e-13)
            assert abs(obs.g2 - 1.0) < 1e-12

    def test_blockade_point_is_sub_poissonian(self):
        p = SystemParams(delta=0.0, u=0.5, g=0.0273, f=0.1, phi=math.pi / 12)
        obs = observables(steady_state(p, 18))
        assert obs.g2 is not None and obs.g2 < 1.0

    def test_unphysical_solution_is_solver_failure(self, monkeypatch):
        force_unphysical(monkeypatch)
        with pytest.raises(SteadyStateError, match="forced") as excinfo:
            steady_state(SystemParams(f=0.1), 12)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_ill_conditioned_system_is_solver_failure(self, monkeypatch):
        monkeypatch.setattr(blockade.steady, "RCOND_FLOOR", 1.0)
        with pytest.raises(SteadyStateError, match="ill-conditioned"):
            steady_state(SystemParams(f=0.1), 12)

    def test_singular_factor_is_solver_failure(self, monkeypatch):
        # an all-zero generator leaves only the trace row: exactly singular
        build = blockade.steady._liouvillian_data

        def zero_generator(*args):
            return np.zeros_like(build(*args))

        monkeypatch.setattr(blockade.steady, "_liouvillian_data", zero_generator)
        with pytest.raises(SteadyStateError, match="singular") as excinfo:
            steady_state(SystemParams(f=0.1), 12)
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_subnormal_solve_entries_raise_no_warning(self):
        # a gain this small leaves subnormal entries in the condition
        # estimator's solves, where onenormest's sign rounding y / |y|
        # overflows to NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = steady_state(SystemParams(g=5.4e-308), 12)
        np.testing.assert_allclose(rho.entries, ketbra(12, 0), atol=1e-15)

    def test_off_ladder_dim_matches_dense_kernel(self):
        p = SystemParams(delta=0.3, u=0.7, g=0.2, f=0.4, phi=0.9)
        dim = 7
        _, _, vh = np.linalg.svd(dense_liouvillian(p, dim))
        kernel = vh[-1].conj().reshape((dim, dim), order="F")
        kernel = kernel / np.trace(kernel)
        rho = steady_state(p, dim).entries
        assert np.max(np.abs(rho - kernel)) < 1e-12

    def test_factors_and_solves_on_one_blas_thread(self, monkeypatch):
        # every OpenBLAS mapped into the process, each with its own controls,
        # read independently of the solver's lookup
        try:
            with open("/proc/self/maps", encoding="utf-8") as maps:
                mapped = {line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]}
        except OSError:
            pytest.skip("no /proc/self/maps to list the mapped OpenBLAS copies")
        copies = {path: openblas_controls(ctypes.CDLL(path)) for path in sorted(mapped)}
        copies = {path: pair for path, pair in copies.items() if pair is not None}
        # the copy SuperLU links: its extension's handle resolves its symbols
        linked = openblas_controls(ctypes.CDLL(_superlu.__file__))
        if linked is None:
            # a scipy wheel's SuperLU links its bundled libscipy_openblas, so
            # finding no controls there means the solver holds nothing
            assert not any(os.path.basename(path).startswith("libscipy_openblas") for path in mapped)
            pytest.skip("SuperLU links no OpenBLAS")
        held = [path for path, (get, _) in copies.items() if address(get) == address(linked[0])]
        assert len(held) == 1

        def read():
            return {path: get() for path, (get, _) in copies.items()}

        counts, seen = read(), []

        def recording_splu(matrix, **kwargs):
            seen.append(read())
            return splu(matrix, **kwargs)

        def singular_splu(matrix, **kwargs):
            seen.append(read())
            raise RuntimeError("Factor is exactly singular")

        try:
            for _, set_ in copies.values():
                set_(2)
            monkeypatch.setattr(blockade.steady, "splu", recording_splu)
            blockade.steady._layout.cache_clear()  # the layout probe is factored too
            steady_state(SystemParams(f=0.1), 12)
            assert len(seen) == 2
            assert read() == dict.fromkeys(copies, 2)
            monkeypatch.setattr(blockade.steady, "splu", singular_splu)
            with pytest.raises(SteadyStateError, match="singular"):
                steady_state(SystemParams(f=0.1), 12)
            assert read() == dict.fromkeys(copies, 2)
            # SuperLU's copy reads 1 during each factor, every other copy keeps 2
            assert seen == [{path: 1 if path in held else 2 for path in copies}] * 3
        finally:
            for path, (_, set_) in copies.items():
                set_(counts[path])

    def test_pattern_cache_is_bounded(self):
        cache = blockade.steady._layout
        for dim in range(3, 3 + cache.cache_info().maxsize + 4):
            steady_state(SystemParams(f=0.1), dim)
        assert cache.cache_info().currsize <= cache.cache_info().maxsize
        # liouvillian and steady_state share one entry per truncation
        cache.cache_clear()
        liouvillian(SystemParams(f=0.1), 5)
        steady_state(SystemParams(f=0.1), 5)
        assert cache.cache_info().currsize == 1

    @pytest.mark.parametrize("dim", [4, 7])
    def test_system_layout_matches_dense_oracle(self, dim):
        for g in (0.2, 0.0):  # each gain band's layout
            p = SystemParams(delta=0.3, u=0.7, g=g, f=0.4, phi=0.9)
            dense = dense_liouvillian(p, dim)
            data = liouvillian(p, dim).data
            size = dim * dim
            *_, order, take, indices, indptr, rhs = blockade.steady._layout(dim, g != 0.0)
            assert sorted(order) == list(range(size))
            expected = dense.copy()
            expected[0] = vec(np.eye(dim, dtype=complex))  # the trace row replaces rho_00's
            expected = expected[order][:, order]
            gathered = csc_array((np.append(data, 1.0)[take], indices, indptr), shape=(size, size))
            assert gathered.has_canonical_format
            assert np.max(np.abs(gathered.toarray() - expected)) <= 1e-14 * np.linalg.norm(dense, np.inf)
            assert not take.flags.writeable and not order.flags.writeable
            assert np.array_equal(rhs, np.eye(size)[0][order])  # P e_0: the trace row's 1
            assert not rhs.flags.writeable

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        dim=st.integers(4, 30),
        kappa=RATES,
        rates=st.tuples(*[st.one_of(st.just(0.0), RATES) for _ in range(4)]),
        signs=st.tuples(*[st.sampled_from((1.0, -1.0)) for _ in range(3)]),
        phi=st.floats(-1e6, 1e6),
    )
    def test_trace_row_has_smallest_sup_norm(self, dim, kappa, rates, signs, phi):
        # why steady_state always swaps row 0 for the trace row: its sup norm
        # max(kappa, F, sqrt(2)|G|) is reached by every other row's jump or
        # diagonal, drive and gain entries, and argmin breaks a tie towards 0
        delta, u, g, f = rates
        p = SystemParams(
            delta=signs[0] * delta, u=signs[1] * u, g=signs[2] * g, f=f, phi=phi, kappa=kappa
        )
        gen = liouvillian(p, dim)
        sup = np.maximum.reduceat(np.abs(gen.data), gen.indptr[:-1])
        assert np.argmin(sup) == 0

    def test_result_does_not_depend_on_solve_order(self):
        target = SystemParams(delta=-0.4, u=0.3, g=0.05, f=0.3, phi=0.7)
        other = SystemParams(delta=1.5, u=0.0, g=0.1, f=0.0)  # zero H entries in the pattern
        blockade.steady._layout.cache_clear()
        cold = steady_state(target, 18).entries
        blockade.steady._layout.cache_clear()
        steady_state(other, 18)
        warm = steady_state(target, 18).entries
        assert np.array_equal(cold, warm)

    def test_cached_ordering_cuts_fill(self, monkeypatch):
        # the system at D=36 against SuperLU's default (per-call COLAMD,
        # partial pivoting) on the unpermuted system: 89,950 vs 139,154
        p = SystemParams(delta=0.1, u=0.02, g=0.1, f=2, phi=0.3)
        factors = []

        def recording_splu(matrix, **kwargs):
            factors.append(splu(matrix, **kwargs))
            return factors[-1]

        monkeypatch.setattr(blockade.steady, "splu", recording_splu)
        steady_state(p, 36)
        cached = factors[-1].L.nnz + factors[-1].U.nnz

        unpermuted = liouvillian(p, 36).tolil()
        unpermuted[0, :] = 0.0
        unpermuted[0, np.arange(36) * 37] = 1.0
        default = splu(csc_array(unpermuted))
        assert cached <= 0.75 * (default.L.nnz + default.U.nnz)

    def test_rejects_small_truncation(self):
        with pytest.raises(ValueError):
            steady_state(SystemParams(f=0.1), 2)

    @pytest.mark.parametrize("solved_first", [False, True])
    def test_every_entry_point_checks_the_truncation_type(self, solved_first):
        # one check ahead of _layout's cache, which 12.0 and np.int64(12)
        # would hit for 12's entry
        p = SystemParams(f=0.1)
        blockade.steady._layout.cache_clear()
        if solved_first:
            steady_state(p, 12)
        for entry in (steady_state, liouvillian, build_h_eff):
            for dim in (12.0, np.int64(12), True):
                with pytest.raises(TypeError, match="truncation dimension must be an integer"):
                    entry(p, dim)
        assert blockade.steady._layout.cache_info().currsize == int(solved_first)

    def test_unphysical_observables_fail_the_solve(self, monkeypatch):
        # populations that Observables rejects fail steady_state itself, as
        # they fail every rung of converged_steady_state
        force_unphysical_observables(monkeypatch)
        with pytest.raises(SteadyStateError, match="unphysical observables at dim=12") as excinfo:
            steady_state(SystemParams(f=0.1), 12)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_liouvillian_rejects_empty_truncation(self):
        with pytest.raises(ValueError, match="must be positive"):
            liouvillian(SystemParams(f=0.1), 0)

    def test_physicality_on_random_draws(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            rho = steady_state(random_params(rng), 16).entries
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
            assert abs(np.trace(rho) - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(rho)[0] >= -1e-8

    def test_observables_invariant_under_full_phase_turn(self):
        p = SystemParams(delta=0.3, u=0.7, g=0.04, f=0.12, phi=0.9)
        obs_a = observables(steady_state(p, 14))
        obs_b = observables(steady_state(p.replace(phi=p.phi + 2 * math.pi), 14))
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
            n_a = observables(steady_state(p, 14)).mean_photon
            n_b = observables(steady_state(p.replace(phi=p.phi + math.pi), 14)).mean_photon
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


class TestInverseNormEstimate:
    def check(self, lu, n):
        """The estimate through the factor equals onenormest's bit for bit;
        returns the exit it took."""
        recording = RecordingFactor(lu)
        est = blockade.steady._inverse_norm_estimate(recording, n)
        assert est == onenormest_oracle(lu, n)
        return exit_taken(recording.solves, est)

    def test_matches_onenormest_bit_for_bit(self, monkeypatch):
        exits = set()
        for dim in (3, 4, 7, 12, 36):
            rng = np.random.default_rng(200 + dim)
            for _ in range(2 if dim == 36 else 6):
                p = random_params(rng, u_min=0.0)
                _, _, lu = steady_state_factor(monkeypatch, p, dim)
                exits.add(self.check(lu, dim * dim))

        # a strong-drive point whose estimate still grows when the iteration
        # limit stops it
        p = SystemParams(
            delta=-0.6491302575530176, u=0.05443379677682292, g=-0.2977513740307973,
            f=1.2857546075151336, phi=5.573027511777102,
        )
        _, _, lu = steady_state_factor(monkeypatch, p, 12)
        exits.add(self.check(lu, 144))

        # forced ill-conditioned: one column of a stock system scaled by 1e-16
        system, kwargs, _ = steady_state_factor(monkeypatch, SystemParams(f=0.1), 12)
        system = system.copy()
        system.data[system.indptr[5] : system.indptr[6]] *= 1e-16
        lu = splu(system, **kwargs)
        exits.add(self.check(lu, 144))
        anorm = np.max(np.add.reduceat(np.abs(system.data), system.indptr[:-1]))
        assert 1.0 / (anorm * blockade.steady._inverse_norm_estimate(lu, 144)) < blockade.steady.RCOND_FLOOR

        # real-valued and stored as complex: an M-matrix has a positive
        # inverse, so every sign is +1 and the second step repeats the first
        m_matrix = diags_array([-np.ones(9), 4.0 * np.ones(10), -np.ones(9)], offsets=[-1, 0, 1])
        exits.add(self.check(splu(csc_array(m_matrix, dtype=complex)), 10))

        # every column of I has 1-norm 1, exactly the first estimate at n = 8
        exits.add(self.check(splu(csc_array(np.eye(8, dtype=complex))), 8))

        assert exits == {"no better unit vector", "estimate stalled", "iteration limit", "signs repeat"}


def random_density_matrix(rng, dim):
    """G G' / Tr(G G') for a complex Gaussian G whose row n is scaled by
    0.3^n, so the populations fall off like a weakly driven cavity's."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    g *= (0.3 ** np.arange(dim))[:, None]
    rho = g @ g.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(dim=dim, entries=rho / np.trace(rho).real)


class TestObservables:
    def test_bit_identical_to_reference_arithmetic(self):
        rng = np.random.default_rng(43)
        states = [random_density_matrix(rng, dim) for dim in (3, 12, 18) for _ in range(100)]
        states += [DensityMatrix(dim=3, entries=ketbra(3, 0)), DensityMatrix(dim=4, entries=ketbra(4, 1))]
        for rho in states:
            obs = observables(rho)
            assert (obs.mean_photon, obs.g2, obs.lg_n, obs.lg_g2, obs.populations) == (
                reference_observables(rho)
            )
        vacuum, one_photon = (observables(rho) for rho in states[-2:])
        assert vacuum.mean_photon < 1e-12 and vacuum.g2 is None
        assert one_photon.g2 == 0.0 and one_photon.lg_g2 is None

    def test_built_from_a_sequence_of_populations(self):
        obs = Observables([0.25, 0.5, 0.25])
        assert obs.populations == (0.25, 0.5, 0.25)
        assert obs.mean_photon == 1.0 and obs.g2 == 0.5
        assert obs.lg_n == 0.0 and obs.lg_g2 == math.log10(0.5)

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

    @pytest.mark.parametrize("dim", [3.0, True, np.int64(3)])
    def test_density_matrix_rejects_non_int_dim(self, dim):
        with pytest.raises(TypeError, match="truncation dimension must be an integer"):
            DensityMatrix(dim=dim, entries=np.eye(int(dim)) / int(dim))

    def test_population_below_tolerance_is_rejected(self):
        # DensityMatrix admits this eigenvalue; observables() still raises
        rho = DensityMatrix(dim=3, entries=np.diag([1 + 5e-9, 0.0, -5e-9]))
        with pytest.raises(ValueError, match="populations"):
            observables(rho)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_population_is_rejected(self, bad):
        with pytest.raises(ValueError, match="populations outside"):
            Observables([bad, 0.5])
        with pytest.raises(ValueError, match="populations outside"):
            Observables([0.5, 0.5, bad])

    def test_populations_sum_to_one(self):
        rho = steady_state(SystemParams(f=0.2, u=0.3), 14)
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
            converged_steady_state(SystemParams(f=0.1, u=0.5), tol=0.0, max_dim=29)
        err = excinfo.value
        # the ladder stops at 24, the last rung at or below max_dim
        assert "at dim=24" in str(err)
        assert err.previous is not None and err.last is not None
        assert err.previous.mean_photon == pytest.approx(err.last.mean_photon, rel=1e-3)

    def test_unstable_point_rejected_before_solving(self, monkeypatch):
        never_solve(monkeypatch)
        # 2|g| above sqrt(delta^2 + kappa^2/4), then exactly on it: both
        # sides are 0.5 in the last two
        for p in (
            SystemParams(g=0.3, f=0.1),
            SystemParams(g=-0.25),
            SystemParams(delta=0.3, g=0.25, f=1.0, phi=0.4, kappa=0.8),
        ):
            with pytest.raises(ConvergenceError, match="threshold") as excinfo:
                converged_steady_state(p)
            assert excinfo.value.previous is None and excinfo.value.last is None

    def test_point_below_gain_threshold_converges(self):
        p = SystemParams(g=0.22)  # 0.88 of the threshold g = 0.25
        _, obs, _ = converged_steady_state(p)
        squeezed_vacuum = 8 * p.g**2 / (p.kappa**2 - 16 * p.g**2)
        assert obs.mean_photon == pytest.approx(squeezed_vacuum, rel=1e-3)

    def test_kerr_point_above_gain_threshold_solves(self):
        _, obs, dim = converged_steady_state(SystemParams(u=0.02, g=0.3, f=0.1))
        assert dim <= DEFAULT_MAX_DIM and obs.mean_photon > 1.0

    def test_unphysical_observables_are_solver_failure(self, monkeypatch):
        force_unphysical_observables(monkeypatch)
        with pytest.raises(SteadyStateError, match="unphysical observables at dim=12") as excinfo:
            converged_steady_state(SystemParams(f=0.1))
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_convergence_error_is_solver_failure(self):
        assert issubclass(ConvergenceError, SteadyStateError)

    def test_rejects_max_dim_below_start(self, monkeypatch):
        # and, ahead of any solve, a max_dim that is no int, on every entry
        # point of the ladder
        never_solve(monkeypatch)
        p = SystemParams(f=0.1)
        entries = (
            lambda max_dim: converged_steady_state(p, max_dim=max_dim),
            lambda max_dim: blockade.steady.converge_batch([p], max_dim=max_dim),
            lambda max_dim: run_sweep(p, [GridAxis.linear("f", 0.1, 0.2, 2)], max_dim=max_dim, workers=1),
        )
        for entry in entries:
            with pytest.raises(ValueError, match="below the starting dimension 12"):
                entry(6)
            for max_dim in (24.0, True, np.int64(24)):
                with pytest.raises(TypeError, match="truncation dimension must be an integer"):
                    entry(max_dim)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf])
    def test_rejects_nan_or_negative_tol_before_solving(self, tol, monkeypatch):
        never_solve(monkeypatch)
        with pytest.raises(ValueError, match="tol"):
            converged_steady_state(SystemParams(f=0.1), tol=tol)

    def test_rejects_a_tol_that_is_no_real_number_before_solving(self, monkeypatch):
        # True would run as tol = 1; a string or None would fail only at the
        # comparison, with an error that does not name tol
        never_solve(monkeypatch)
        p = SystemParams(f=0.1)
        entries = (
            lambda tol: converged_steady_state(p, tol),
            lambda tol: blockade.steady.converge_batch([p], tol),
            lambda tol: run_sweep(p, [GridAxis.linear("f", 0.1, 0.2, 2)], tol, workers=1),
        )
        for entry in entries:
            for tol in (True, "0.1", None):
                with pytest.raises(TypeError, match="tol must be a real number"):
                    entry(tol)


def ladder_outcome(solve, p, tol, max_dim):
    """(dim, N, g2) of a converged solve, or the exception's type and message
    (and, for ConvergenceError, the N and g2 of the two observable sets it
    carries)."""
    try:
        _, obs, dim = solve(p, tol, max_dim=max_dim)
    except Exception as exc:
        carried = ()
        if isinstance(exc, ConvergenceError):
            carried = tuple(None if o is None else (o.mean_photon, o.g2) for o in (exc.previous, exc.last))
        return type(exc), str(exc), carried
    return dim, obs.mean_photon, obs.g2


def record_solves(monkeypatch):
    """Dims of every later batched rung, in order."""
    dims = []
    solve = blockade.steady._rung

    def recording(points, dim):
        dims.append(dim)
        return solve(points, dim)

    monkeypatch.setattr(blockade.steady, "_rung", recording)
    return dims


class TestOneRungRule:
    """converged_steady_state has the plain ladder's outcome, bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        delta=st.floats(-3.0, 3.0),
        u=st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
        gain=st.floats(-2.0, 2.0),
        f=st.one_of(st.just(0.0), st.floats(0.01, 3.2)),
        phi=st.floats(0.0, 2 * math.pi),
        tol=st.sampled_from([0.05, 1e-3, 1e-6, 1e-9]),
        max_dim=st.sampled_from([12, 17, 18, 24, DEFAULT_MAX_DIM]),
    )
    def test_matches_reference_ladder(self, delta, u, gain, f, phi, tol, max_dim):
        self.check(delta, u, gain, f, phi, tol, max_dim)

    def test_matches_reference_ladder_on_uniform_draws(self):
        # hypothesis favours the ends of each range; uniform draws also reach
        # the interior, where strong drive makes the ladder climb past 18
        rng = np.random.default_rng(2500)
        for _ in range(200):
            self.check(
                delta=rng.uniform(-3.0, 3.0),
                u=0.0 if rng.random() < 0.1 else rng.uniform(0.01, 5.0),
                gain=rng.uniform(-2.0, 2.0),
                f=0.0 if rng.random() < 0.1 else rng.uniform(0.01, 3.2),
                phi=rng.uniform(0.0, 2 * math.pi),
                tol=rng.choice([0.05, 1e-3, 1e-6, 1e-9]),
                max_dim=DEFAULT_MAX_DIM,
            )

    @staticmethod
    def check(delta, u, gain, f, phi, tol, max_dim):
        # gain is g in units of the Kerr-free threshold |g| = sqrt(delta^2 + kappa^2/4) / 2
        p = SystemParams(delta=delta, u=u, g=gain * 0.5 * math.hypot(delta, 0.5), f=f, phi=phi)
        assert ladder_outcome(converged_steady_state, p, tol, max_dim) == ladder_outcome(
            reference_ladder, p, tol, max_dim
        )

    @pytest.mark.parametrize(
        "p, tol, max_dim, solves",
        [
            # a fig1a map point: D=18 alone
            (SystemParams(u=0.5, f=0.1, phi=math.pi / 12), DEFAULT_TOL, DEFAULT_MAX_DIM, [18]),
            # undriven: N is below the floor, so the ladder returns at 12
            (SystemParams(u=0.4, delta=-1.0), DEFAULT_TOL, DEFAULT_MAX_DIM, [18, 12]),
            # strong drive: the tail share is about 8e-3, so the ladder climbs
            (SystemParams(f=1.0), DEFAULT_TOL, DEFAULT_MAX_DIM, [18, 12, 24]),
            # tol = 0 never accepts the one rung, and the ladder never settles
            (SystemParams(f=0.1, u=0.5), 0.0, 29, [18, 12, 24]),
            # below D=18 there is nothing to solve ahead
            (SystemParams(f=0.1, u=0.5), DEFAULT_TOL, 17, [12]),
        ],
    )
    def test_solves_and_outcome(self, monkeypatch, p, tol, max_dim, solves):
        expected = ladder_outcome(reference_ladder, p, tol, max_dim)
        dims = record_solves(monkeypatch)
        assert ladder_outcome(converged_steady_state, p, tol, max_dim) == expected
        assert dims == solves

    def test_failed_look_ahead_is_not_solved_again(self, monkeypatch):
        # D=18 fails ahead, and that failure is raised at the ladder's D=18 rung;
        # the failure is forced, as no point found fails at D=18 and solves at 12
        fail_at(monkeypatch, 18)
        p = SystemParams(f=0.1, u=0.5)
        expected = ladder_outcome(reference_ladder, p, DEFAULT_TOL, 24)
        assert expected[0] is SteadyStateError
        dims = record_solves(monkeypatch)
        assert ladder_outcome(converged_steady_state, p, DEFAULT_TOL, 24) == expected
        assert dims == [18, 12]

    def test_failed_rung_leaves_no_reference_cycle(self, monkeypatch):
        # an exception kept past its raise cycles through its traceback's
        # frames, which would hold a failed rung's factor until a collection
        fail_at(monkeypatch, 18)
        gc.collect()
        gc.disable()
        try:
            try:
                converged_steady_state(SystemParams(f=0.1, u=0.5), max_dim=24)
            except SteadyStateError:
                pass
            else:
                pytest.fail("the forced D=18 failure was not raised")
            assert gc.collect() == 0
            # and a batch whose every point fails, at D=18 ahead and then for good
            axes = [GridAxis("f", (0.05, 0.1, 0.2)), GridAxis("g", (0.0, 0.02, 0.03))]
            result = run_sweep(SystemParams(u=0.5), axes, max_dim=24, workers=1)
            assert [row.status for row in result.rows] == ["FAIL"] * 9
            del result
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_unphysical_observables_at_first_rung(self, monkeypatch):
        force_unphysical_observables(monkeypatch)
        p = SystemParams(f=0.1)
        expected = ladder_outcome(reference_ladder, p, DEFAULT_TOL, DEFAULT_MAX_DIM)
        assert expected[0] is SteadyStateError
        assert expected[1].startswith("unphysical observables at dim=12")
        dims = record_solves(monkeypatch)
        assert ladder_outcome(converged_steady_state, p, DEFAULT_TOL, DEFAULT_MAX_DIM) == expected
        assert dims == [18, 12]


def symmetric_partners(p):
    """Three maps of the parameters that preserve photon number, so each
    leaves the populations unchanged at every truncation: a -> -a,
    a -> i a, and complex conjugation with H -> -H*."""
    return [
        p.replace(phi=p.phi + math.pi),
        p.replace(g=-p.g, phi=p.phi - math.pi / 2),
        p.replace(delta=-p.delta, u=-p.u, phi=math.pi - p.phi),
    ]


def converged_outcome(p):
    """(dim, N, g2) of converged_steady_state, or the exception type."""
    try:
        _, obs, dim = converged_steady_state(p)
    except SteadyStateError as exc:
        return type(exc)
    return dim, obs.mean_photon, obs.g2


def assert_unit_free(p, s):
    """Scaling every rate by s is a change of time unit (L -> s L keeps its
    kernel), so the converged dim, N and g2 must not move."""
    _, reference, dim = converged_steady_state(p)
    scaled = p.replace(kappa=s * p.kappa, delta=s * p.delta, u=s * p.u, g=s * p.g, f=s * p.f)
    _, obs, scaled_dim = converged_steady_state(scaled)
    assert scaled_dim == dim
    assert obs.mean_photon == pytest.approx(reference.mean_photon, rel=1e-12)
    assert obs.g2 == pytest.approx(reference.g2, rel=1e-12)


class TestExactSymmetries:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(p=weak_drive_params, dim=st.integers(3, 24))
    def test_populations_invariant_at_fixed_truncation(self, p, dim):
        # to 1e-12 of the unit trace: the far tail sits at solver noise
        reference = observables(steady_state(p, dim)).populations
        for partner in symmetric_partners(p):
            populations = observables(steady_state(partner, dim)).populations
            np.testing.assert_allclose(populations, reference, rtol=1e-12, atol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(p=weak_drive_params)
    def test_converged_outcome_invariant(self, p):
        reference = converged_outcome(p)
        for partner in symmetric_partners(p):
            outcome = converged_outcome(partner)
            if isinstance(reference, type):
                assert outcome is reference
                continue
            assert outcome[0] == reference[0]
            assert outcome[1] == pytest.approx(reference[1], rel=1e-12)
            assert (outcome[2] is None) == (reference[2] is None)
            if reference[2] is not None:
                assert outcome[2] == pytest.approx(reference[2], rel=1e-12)

    @pytest.mark.parametrize("s", [1e-8, 1e4, 1e8, 1e12])
    def test_converged_outcome_invariant_under_a_change_of_units(self, s):
        for p in (SystemParams(u=0.5, f=0.1), SystemParams(delta=0.3, u=0.5, g=0.05, f=0.1, phi=0.7)):
            assert_unit_free(p, s)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(p=weak_drive_params, s=st.sampled_from([1e-8, 1e12]))
    def test_weak_drive_outcome_invariant_under_a_change_of_units(self, p, s):
        assert_unit_free(p, s)


def g0_slice(name):
    """The G = 0 points of a preset: fig2d's detuning scans, or the fig4x
    map's drive axis."""
    base, axes = preset(name)
    if name == "fig2d":
        return [base.replace(u=u, delta=d) for u in axes[0].values for d in axes[1].values]
    return [base.replace(g=0.0, f=f) for f in axes[0].values]


def true_lg_error(p, obs):
    n1, n2 = exact_kerr_moments(p)
    return max(abs(obs.lg_n - math.log10(n1)), abs(obs.lg_g2 - math.log10(n2 / n1**2)))


class TestExactKerrOracle:
    @pytest.mark.parametrize(
        "u, delta, f",
        [(0.1, -2.0, 0.1), (0.5, -1.0, 1.0), (2.0, 0.3, 0.1), (1.0, -0.5, 1.0), (0.3, -2.0, 1.0)],
    )
    def test_matches_solver_at_large_truncation(self, u, delta, f):
        p = SystemParams(u=u, delta=delta, f=f, phi=0.7)
        n1, n2 = exact_kerr_moments(p)
        obs = observables(steady_state(p, 48))
        assert obs.mean_photon == pytest.approx(n1, rel=1e-12)
        assert obs.g2 == pytest.approx(n2 / n1**2, rel=1e-12)

    @pytest.mark.parametrize("name", ["fig2d", "fig4a", "fig4b", "fig4c", "fig4d"])
    def test_converged_answer_within_tol_on_presets(self, name):
        worst = max(true_lg_error(p, converged_steady_state(p)[1]) for p in g0_slice(name))
        assert worst <= DEFAULT_TOL

    def test_graded_weak_drive_states_to_machine_precision(self):
        # at U = 5 and weak drive, P(2) falls to ~1e-9 of P(0), so g2 rests on
        # the solve's smallest digits; a trace row weighted by mean |L_ij|
        # instead of kappa put g2 4e-7 off here
        for p in g0_slice("fig4d"):
            _, obs, _ = converged_steady_state(p)
            n1, n2 = exact_kerr_moments(p)
            assert obs.mean_photon == pytest.approx(n1, rel=1e-13)
            assert obs.g2 == pytest.approx(n2 / n1**2, rel=1e-13)

    def test_converged_answer_within_tol_under_strong_drive(self):
        # photon numbers up to ~14, where the ladder climbs to D=24-36
        for u in (0.1, 0.5):
            for delta in (-2.0, 0.0, 1.0):
                for f in (1.0, 2.0, 3.2):
                    p = SystemParams(u=u, delta=delta, f=f)
                    assert true_lg_error(p, converged_steady_state(p)[1]) <= DEFAULT_TOL

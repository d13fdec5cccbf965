import math
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from helpers import force_unphysical, force_unphysical_observables, never_solve

from blockade import sweep
from blockade.analytic import optimal_g
from blockade.model import SystemParams
from blockade.steady import BATCH
from blockade.sweep import GridAxis, preset, run_sweep

PI = math.pi
BATCHES_PER_WORKER = sweep._BATCHES_PER_WORKER
FIG1A_AXES = [("f", 0.01, 0.3, 101, None), ("g", -0.05, 0.2, 101, None)]

# Every preset as (base parameters, axes as (param, min, max, count, values)),
# with values None for a linear axis.
PRESET_GOLDEN = {
    "fig1a": (SystemParams(delta=0.0, u=0.5, phi=PI / 12), FIG1A_AXES),
    "fig1b": (
        SystemParams(delta=0.0, u=0.5, f=0.1),
        [("g", -0.05, 0.05, 101, None), ("phi", 0.0, 2.0 * PI, 101, None)],
    ),
    "fig2a": (
        SystemParams(u=0.0, g=0.0, phi=0.0),
        [("f", 0.1, 0.3, 3, (0.1, 0.2, 0.3)), ("delta", -3.0, 3.0, 201, None)],
    ),
    "fig2b": (
        SystemParams(delta=0.0, u=0.5, f=0.1),
        [("g", 0.05, 0.2, 3, (0.05, 0.1, 0.2)), ("phi", -PI, PI, 201, None)],
    ),
    "fig2c": (
        SystemParams(u=0.5, f=0.1, phi=0.0),
        [("g", 0.05, 0.4, 3, (0.05, 0.2, 0.4)), ("delta", -3.0, 3.0, 201, None)],
    ),
    "fig2d": (
        SystemParams(g=0.0, f=0.1, phi=0.0),
        [("u", 0.1, 2.0, 4, (0.1, 0.5, 1.0, 2.0)), ("delta", -3.0, 3.0, 201, None)],
    ),
    "fig3a": (SystemParams(delta=0.0, u=0.5, phi=PI / 12), FIG1A_AXES),
    "fig3b": (SystemParams(delta=0.0, u=0.5, phi=PI / 6), FIG1A_AXES),
    "fig3c": (SystemParams(delta=0.0, u=0.5, phi=PI / 4), FIG1A_AXES),
    "fig3d": (SystemParams(delta=0.0, u=0.5, phi=PI / 3), FIG1A_AXES),
    "fig3e": (SystemParams(delta=0.0, u=0.5, phi=5 * PI / 12), FIG1A_AXES),
    "fig3f": (SystemParams(delta=0.0, u=0.5, phi=PI / 2), FIG1A_AXES),
    "fig4a": (SystemParams(delta=0.0, u=0.1, phi=PI / 12), FIG1A_AXES),
    "fig4b": (SystemParams(delta=0.0, u=1.0, phi=PI / 12), FIG1A_AXES),
    "fig4c": (SystemParams(delta=0.0, u=2.0, phi=PI / 12), FIG1A_AXES),
    "fig4d": (SystemParams(delta=0.0, u=5.0, phi=PI / 12), FIG1A_AXES),
}


class TestGridAxis:
    def test_linear_points(self):
        axis = GridAxis.linear("f", 0.0, 1.0, 5)
        np.testing.assert_allclose(axis.points(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_linear_is_its_points(self):
        assert GridAxis.linear("f", 0, 1, 3) == GridAxis("f", (0.0, 0.5, 1.0))

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            GridAxis.linear("f", 0.0, 1.0, 1)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            GridAxis.linear("g", 0.2, -0.05, 11)

    def test_rejects_linear_span_that_overflows(self):
        with pytest.raises(ValueError, match="overflows"):
            GridAxis.linear("delta", -1e308, 1e308, 3)
        explicit = GridAxis("delta", (-1e308, 0.0, 1e308))  # no step to compute
        np.testing.assert_array_equal(explicit.points(), [-1e308, 0.0, 1e308])

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            GridAxis.linear("kappa", 0.5, 2.0, 5)

    def test_explicit_values(self):
        axis = GridAxis("g", (0.05, 0.1, 0.2))
        assert axis.count == 3
        assert axis.min == 0.05 and axis.max == 0.2
        np.testing.assert_array_equal(axis.points(), [0.05, 0.1, 0.2])

    def test_explicit_values_must_increase(self):
        with pytest.raises(ValueError):
            GridAxis("g", (0.2, 0.1))
        with pytest.raises(ValueError):
            GridAxis("f", (0.0, math.nan, 1.0))


def unstable_axis(count):
    """A g axis wholly above the Kerr-free gain threshold 0.25: every point
    fails without a solve, so a grid of many batches costs next to nothing."""
    return GridAxis.linear("g", 0.3, 0.5, count)


@pytest.fixture
def recorded_pools(monkeypatch):
    """The size of every pool run_sweep starts.  A stand-in executor records
    it and maps in-process, so no worker process is ever started."""
    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            assert chunksize >= 1
            return map(fn, iterable)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingExecutor)
    return sizes


class TestRunSweep:
    def test_zero_drive_rows_flag_undefined_g2(self):
        base = SystemParams()
        axes = [GridAxis.linear("f", 0.0, 0.1, 2), GridAxis.linear("g", 0.0, 0.01, 2)]
        result = run_sweep(base, axes, workers=1)
        assert len(result.rows) == 4
        f0_rows = [r for r in result.rows if r.params.f == 0.0 and r.params.g == 0.0]
        assert len(f0_rows) == 1
        assert f0_rows[0].n_mean == 0.0
        assert f0_rows[0].g2 is None
        assert f0_rows[0].status == "OK"

    def test_rows_are_row_major(self):
        base = SystemParams(u=0.5)
        axes = [GridAxis.linear("f", 0.1, 0.2, 2), GridAxis.linear("g", 0.0, 0.02, 3)]
        result = run_sweep(base, axes, workers=1)
        seen = [(r.params.f, r.params.g) for r in result.rows]
        expected = [(f, g) for f in (0.1, 0.2) for g in (0.0, 0.01, 0.02)]
        assert seen == pytest.approx(expected)
        assert all(r.params.u == 0.5 for r in result.rows)

    def test_single_axis_sweep(self):
        result = run_sweep(SystemParams(f=0.1), [GridAxis.linear("delta", -1.0, 1.0, 5)], workers=1)
        assert len(result.rows) == 5
        assert [r.params.delta for r in result.rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert all(r.params.f == 0.1 for r in result.rows)

    def test_deterministic_rows(self):
        base = SystemParams(u=0.5, phi=math.pi / 12)
        axes = [GridAxis.linear("f", 0.05, 0.15, 3), GridAxis.linear("g", 0.0, 0.03, 3)]
        rows_a = run_sweep(base, axes, workers=1).rows
        rows_b = run_sweep(base, axes, workers=1).rows
        assert rows_a == rows_b

    def test_parallel_serial_equivalence(self, monkeypatch):
        base = SystemParams(u=0.5, phi=math.pi / 12)
        # the smallest grid a pool of 2 takes: 2 * _BATCHES_PER_WORKER batches
        axes = [
            GridAxis.linear("f", 0.05, 0.15, 2 * BATCH),
            GridAxis.linear("g", 0.0, 0.03, BATCHES_PER_WORKER),
        ]
        rows_serial = run_sweep(base, axes, workers=1).rows
        pools = []

        def recorded_pool(max_workers):
            pools.append(max_workers)
            return ProcessPoolExecutor(max_workers=max_workers)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", recorded_pool)
        monkeypatch.setattr(sweep, "_cpu_count", lambda: 2)  # a pool of 2 on any host
        rows_parallel = run_sweep(base, axes, workers=2).rows
        assert pools == [2]
        assert rows_serial == rows_parallel

    def test_env_var_caps_workers(self, monkeypatch):
        monkeypatch.setenv("BLOCKADE_THREADS", "1")
        result = run_sweep(SystemParams(f=0.1), [GridAxis.linear("delta", 0.0, 1.0, 2)])
        assert len(result.rows) == 2
        monkeypatch.setenv("BLOCKADE_THREADS", "zero")
        with pytest.raises(ValueError):
            run_sweep(SystemParams(f=0.1), [GridAxis.linear("delta", 0.0, 1.0, 2)])

    @pytest.mark.parametrize("workers", [1.5, 2.5, True, pytest.param(np.int64(2), id="int64")])
    def test_non_int_workers_rejected_before_solving(self, monkeypatch, workers):
        # on a grid too small to pool, where the count was never used
        never_solve(monkeypatch)
        with pytest.raises(TypeError, match="worker count must be an integer"):
            run_sweep(SystemParams(f=0.1), [GridAxis.linear("delta", 0.0, 1.0, 2)], workers=workers)

    @pytest.mark.parametrize("cpus, expected", [(64, 5), (3, 3)])
    def test_pool_capped_by_cpus_and_points(self, recorded_pools, monkeypatch, cpus, expected):
        # 5 * _BATCHES_PER_WORKER batches feed at most 5 workers
        monkeypatch.setattr(sweep, "_cpu_count", lambda: cpus)
        monkeypatch.setenv("BLOCKADE_THREADS", "500")
        result = run_sweep(SystemParams(f=0.1), [unstable_axis(5 * BATCHES_PER_WORKER * BATCH)])
        assert recorded_pools == [expected]
        assert len(result.rows) == 5 * BATCHES_PER_WORKER * BATCH

    def test_small_grid_starts_no_pool(self, recorded_pools, monkeypatch):
        # below _BATCHES_PER_WORKER batches for each of 2 workers the sweep
        # runs in this process; at that many it pools
        monkeypatch.setattr(sweep, "_cpu_count", lambda: 2)
        for batches, pools in ((2 * BATCHES_PER_WORKER - 1, []), (2 * BATCHES_PER_WORKER, [2])):
            result = run_sweep(SystemParams(f=0.1), [unstable_axis(batches * BATCH)], workers=2)
            assert recorded_pools == pools
            assert len(result.rows) == batches * BATCH

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this OS")
    def test_one_cpu_affinity_starts_no_pool(self):
        # a child process narrows its own affinity to one CPU, as taskset or a
        # cpuset would; os.cpu_count() still counts every CPU of the machine
        code = textwrap.dedent(
            """
            import os
            from blockade import sweep
            from blockade.model import SystemParams

            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

            def no_pool(max_workers):
                raise AssertionError(f"a pool of {max_workers} was started")

            sweep.ProcessPoolExecutor = no_pool
            # a grid that 2 CPUs would pool
            points = 2 * sweep._BATCHES_PER_WORKER * sweep.BATCH
            axes = [sweep.GridAxis.linear("delta", 0.0, 1.0, points)]
            for workers in (None, 2):
                rows = sweep.run_sweep(SystemParams(f=0.1), axes, workers=workers).rows
                assert [row.status for row in rows] == ["OK"] * points
            print(sweep._cpu_count())
            """
        )
        env = {name: value for name, value in os.environ.items() if name != "BLOCKADE_THREADS"}
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1\n"

    def test_rejects_duplicate_parameters(self):
        axes = [GridAxis.linear("f", 0.0, 0.1, 2), GridAxis.linear("f", 0.0, 0.2, 2)]
        with pytest.raises(ValueError):
            run_sweep(SystemParams(), axes, workers=1)

    @pytest.mark.parametrize(
        "axes, error, message",
        [
            ([], ValueError, "one or two axes, got 0"),
            ([GridAxis.linear("f", 0.0, 0.1, 2)] * 3, ValueError, "one or two axes, got 3"),
            (["f:0:0.1:2"], TypeError, "GridAxis instances"),
            ([GridAxis.linear("f", -0.1, 0.1, 3)], ValueError, "f must be non-negative, got -0.1"),
        ],
    )
    def test_check_grid_rejects_before_solving(self, monkeypatch, axes, error, message):
        never_solve(monkeypatch)
        with pytest.raises(error, match=message):
            sweep.check_grid(SystemParams(), axes)
        with pytest.raises(error, match=message):
            run_sweep(SystemParams(), axes, workers=1)

    def test_per_point_failures_do_not_abort(self):
        # tol = 0 is unreachable, so every point fails and is marked FAIL
        axes = [GridAxis.linear("f", 0.1, 0.2, 2), GridAxis.linear("g", 0.0, 0.02, 2)]
        result = run_sweep(SystemParams(u=0.5), axes, tol=0.0, max_dim=24, workers=1)
        assert len(result.rows) == 4
        assert all(r.status == "FAIL" for r in result.rows)
        assert all(r.n_mean is None and r.dim is None for r in result.rows)

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_nan_or_negative_tol_rejected_before_solving(self, tol, monkeypatch):
        never_solve(monkeypatch)
        with pytest.raises(ValueError, match="tol"):
            run_sweep(SystemParams(f=0.1), [GridAxis.linear("f", 0.1, 0.2, 2)], tol=tol, workers=1)

    def test_unphysical_point_becomes_fail_row(self, monkeypatch):
        force_unphysical(monkeypatch)
        axes = [GridAxis.linear("f", 0.1, 0.2, 2), GridAxis.linear("g", 0.0, 0.02, 2)]
        result = run_sweep(SystemParams(u=0.5), axes, workers=1)
        assert [r.status for r in result.rows] == ["FAIL"] * 4
        assert all(r.n_mean is None and r.dim is None for r in result.rows)

    def test_unphysical_observables_become_fail_rows(self, monkeypatch):
        force_unphysical_observables(monkeypatch)
        result = run_sweep(SystemParams(f=0.1), [GridAxis.linear("delta", 0.0, 1.0, 2)], workers=1)
        assert [r.status for r in result.rows] == ["FAIL", "FAIL"]

    def test_unstable_point_becomes_fail_row(self):
        # without Kerr, g = 0.3 is above the gain threshold 0.25
        result = run_sweep(SystemParams(f=0.1), [GridAxis.linear("g", 0.0, 0.3, 2)], workers=1)
        assert [r.status for r in result.rows] == ["OK", "FAIL"]
        assert result.rows[1].dim is None and result.rows[1].n_mean is None

    def test_spawned_pool_matches_serial(self, monkeypatch):
        base = SystemParams(u=0.5, phi=0.3)
        axes = [
            GridAxis.linear("f", 0.05, 0.15, 2 * BATCH),
            GridAxis.linear("g", 0.0, 0.02, BATCHES_PER_WORKER),
        ]
        serial = run_sweep(base, axes, workers=1)

        spawn = multiprocessing.get_context("spawn")
        pools = []

        def spawned_pool(max_workers):
            pools.append(max_workers)
            return ProcessPoolExecutor(max_workers=max_workers, mp_context=spawn)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", spawned_pool)
        monkeypatch.setattr(sweep, "_cpu_count", lambda: 2)  # a pool of 2 on any host
        pooled = run_sweep(base, axes, workers=2)
        assert pools == [2]
        assert pooled.rows == serial.rows

    def test_metadata_reports_dims(self):
        result = run_sweep(SystemParams(f=0.1), [GridAxis.linear("delta", 0.0, 1.0, 2)], workers=1)
        assert result.metadata["dims_used"] == [18]
        assert all(row.dim == 18 for row in result.rows)


class TestPresets:
    def test_fig3c_phase(self):
        base, axes = preset("fig3c")
        assert base.phi == pytest.approx(math.pi / 4)
        assert base.u == 0.5
        assert [a.param for a in axes] == ["f", "g"]

    def test_fig4d_kerr(self):
        base, _ = preset("fig4d")
        assert base.u == 5.0
        assert base.phi == pytest.approx(math.pi / 12)

    def test_fig1b_fixed_parameters(self):
        base, axes = preset("fig1b")
        assert base.f == 0.1
        assert base.u == 0.5
        assert [a.param for a in axes] == ["g", "phi"]
        assert axes[1].min == 0.0 and axes[1].max == pytest.approx(2 * math.pi)

    def test_fig1a_grid_shape(self):
        _, axes = preset("fig1a")
        assert [a.count for a in axes] == [101, 101]
        assert axes[0].min == 0.01 and axes[0].max == 0.3
        assert axes[1].min == -0.05 and axes[1].max == 0.2

    def test_fig2_families_are_explicit(self):
        _, axes = preset("fig2b")
        assert axes[0].values == (0.05, 0.1, 0.2)
        _, axes = preset("fig2c")
        assert axes[0].values == (0.05, 0.2, 0.4)
        _, axes = preset("fig2d")
        assert axes[0].values == (0.1, 0.5, 1.0, 2.0)
        _, axes = preset("fig2a")
        assert axes[0].values == (0.1, 0.2, 0.3)
        assert axes[1].count == 201

    @pytest.mark.parametrize("name", sorted(PRESET_GOLDEN))
    def test_golden(self, name):
        base, axes = preset(name)
        expected_base, expected_axes = PRESET_GOLDEN[name]
        assert base == expected_base
        assert isinstance(axes, list)
        assert [(a.param, a.min, a.max, a.count) for a in axes] == [e[:4] for e in expected_axes]
        for axis, (*_, values) in zip(axes, expected_axes):
            if values is not None:
                assert axis.values == values
        axes.clear()
        assert len(preset(name)[1]) == len(expected_axes)

    @pytest.mark.parametrize("name, g_stride", [("fig1b", 50), ("fig2b", 2)])
    def test_half_turn_of_phi_is_the_same_physics(self, name, g_stride):
        # phi -> phi + pi maps a -> -a; on a cut of the gain axis (fig1b:
        # -0.05, 0, 0.05; fig2b: 0.05, 0.2), phi rows k and k + half_turn of
        # the full turn 0..2 pi or -pi..pi must agree
        base, (g_axis, phi_axis) = preset(name)
        cut = GridAxis("g", g_axis.values[::g_stride])
        rows = run_sweep(base, [cut, phi_axis], workers=1).rows
        half_turn = (phi_axis.count - 1) // 2
        for start in range(0, len(rows), phi_axis.count):
            for k in range(half_turn + 1):
                a, b = rows[start + k], rows[start + k + half_turn]
                assert a.dim == b.dim
                assert a.n_mean == pytest.approx(b.n_mean, rel=1e-12)
                assert a.g2 == pytest.approx(b.g2, rel=1e-12)

    def test_unknown_preset_lists_valid_ids(self):
        valid = ", ".join(PRESET_GOLDEN)
        with pytest.raises(ValueError, match=re.escape(f"unknown preset 'fig9z'; valid ids: {valid}")):
            preset("fig9z")

    def test_valley_tracks_optimal_curve_on_coarse_map(self):
        # reduced-resolution slices of the drive/gain map: at weak drive the
        # darkest lg g2 cell sits on the optimal-gain parabola to within two
        # grid steps (the curve is a weak-drive result; measured dips depart
        # from it once F grows past ~0.1), and states on the curve stay
        # sub-Poissonian through moderate drive
        base, _ = preset("fig1a")
        g_axis = GridAxis.linear("g", -0.05, 0.2, 26)
        g_points = g_axis.points()
        step = g_points[1] - g_points[0]
        for f in (0.05, 0.1):
            result = run_sweep(base.replace(f=f), [g_axis], workers=1)
            lg = np.array([r.lg_g2 if r.lg_g2 is not None else np.inf for r in result.rows])
            g_dark = g_points[int(np.argmin(lg))]
            g_star = optimal_g(f, base.phi, base.delta, base.kappa)
            assert abs(g_dark - g_star) <= 2 * step
        from blockade.steady import converged_steady_state

        for f in (0.05, 0.1, 0.15, 0.2):
            g_star = optimal_g(f, base.phi, base.delta, base.kappa)
            _, obs, _ = converged_steady_state(base.replace(f=f, g=g_star))
            assert obs.g2 is not None and obs.g2 < 1.0


class TestOptimalCurve:
    def test_parabola_coefficient(self):
        coeff = math.cos(math.pi / 6) + math.sin(math.pi / 6)
        for f in np.linspace(0.0, 0.3, 4).tolist():
            assert optimal_g(f, math.pi / 12, 0.0, 1.0) == pytest.approx(2 * f**2 * coeff, abs=1e-15)

    def test_zero_coefficient_phase(self):
        for f in np.linspace(0.0, 0.3, 5).tolist():
            assert abs(optimal_g(f, 3 * math.pi / 8, 0.0, 1.0)) <= 1e-15

    def test_half_pi_branch_is_non_positive(self):
        for f in np.linspace(0.0, 0.3, 5).tolist():
            assert optimal_g(f, math.pi / 2, 0.0, 1.0) <= 0

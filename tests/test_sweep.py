import math
import multiprocessing
import os
import re
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from helpers import force_unphysical, force_unphysical_observables, never_solve

from blockade import sweep
from blockade.model import SystemParams
from blockade.sweep import GridAxis, optimal_curve, preset, run_sweep

PI = math.pi
FIG1A_AXES = [("f", 0.01, 0.3, 101, None), ("g", -0.05, 0.2, 101, None)]

# Every preset as (base parameters, axes as (param, min, max, count, values)).
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

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            GridAxis.linear("f", 0.0, 1.0, 1)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            GridAxis.linear("g", 0.2, -0.05, 11)

    def test_rejects_linear_span_that_overflows(self):
        with pytest.raises(ValueError, match="overflows"):
            GridAxis.linear("delta", -1e308, 1e308, 3)
        explicit = GridAxis.explicit("delta", (-1e308, 0.0, 1e308))  # no step to compute
        np.testing.assert_array_equal(explicit.points(), [-1e308, 0.0, 1e308])

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            GridAxis.linear("kappa", 0.5, 2.0, 5)

    def test_explicit_values(self):
        axis = GridAxis.explicit("g", (0.05, 0.1, 0.2))
        assert axis.count == 3
        assert axis.min == 0.05 and axis.max == 0.2
        np.testing.assert_array_equal(axis.points(), [0.05, 0.1, 0.2])

    def test_explicit_values_must_increase(self):
        with pytest.raises(ValueError):
            GridAxis.explicit("g", (0.2, 0.1))
        with pytest.raises(ValueError):
            GridAxis.explicit("f", (0.0, math.nan, 1.0))


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

    def test_parallel_serial_equivalence(self):
        base = SystemParams(u=0.5, phi=math.pi / 12)
        axes = [GridAxis.linear("f", 0.05, 0.15, 3), GridAxis.linear("g", 0.0, 0.03, 3)]
        rows_serial = run_sweep(base, axes, workers=1).rows
        rows_parallel = run_sweep(base, axes, workers=2).rows
        assert rows_serial == rows_parallel

    def test_env_var_caps_workers(self, monkeypatch):
        monkeypatch.setenv("BLOCKADE_THREADS", "1")
        result = run_sweep(SystemParams(f=0.1), [GridAxis.linear("delta", 0.0, 1.0, 2)])
        assert len(result.rows) == 2
        monkeypatch.setenv("BLOCKADE_THREADS", "zero")
        with pytest.raises(ValueError):
            run_sweep(SystemParams(f=0.1), [GridAxis.linear("delta", 0.0, 1.0, 2)])

    @pytest.mark.parametrize("cpus, expected", [(64, 5), (3, 3)])
    def test_pool_capped_by_cpus_and_points(self, monkeypatch, cpus, expected):
        # A stand-in executor records the pool size and maps in-process, so
        # no worker process is ever started.
        sizes = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setenv("BLOCKADE_THREADS", "500")
        result = run_sweep(SystemParams(f=0.1), [GridAxis.linear("delta", 0.0, 1.0, 5)])
        assert sizes == [expected]
        assert len(result.rows) == 5

    def test_rejects_duplicate_parameters(self):
        axes = [GridAxis.linear("f", 0.0, 0.1, 2), GridAxis.linear("f", 0.0, 0.2, 2)]
        with pytest.raises(ValueError):
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
        axes = [GridAxis.linear("f", 0.05, 0.15, 2), GridAxis.linear("g", 0.0, 0.02, 2)]
        serial = run_sweep(base, axes, workers=1)

        spawn = multiprocessing.get_context("spawn")
        pools = []

        def spawned_pool(max_workers):
            pools.append(max_workers)
            return ProcessPoolExecutor(max_workers=max_workers, mp_context=spawn)

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", spawned_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool of 2 on any host
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
        assert [(a.param, a.min, a.max, a.count, a.values) for a in axes] == expected_axes
        axes.clear()
        assert len(preset(name)[1]) == len(expected_axes)

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
        from blockade.analytic import optimal_g

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
        axis = GridAxis.linear("f", 0.0, 0.3, 4)
        curve = optimal_curve(axis, math.pi / 12, 0.0, 1.0)
        coeff = math.cos(math.pi / 6) + math.sin(math.pi / 6)
        for f, g in curve:
            assert g == pytest.approx(2 * f**2 * coeff, abs=1e-15)

    def test_zero_coefficient_phase(self):
        curve = optimal_curve(GridAxis.linear("f", 0.0, 0.3, 5), 3 * math.pi / 8, 0.0, 1.0)
        assert all(abs(g) <= 1e-15 for _, g in curve)

    def test_half_pi_branch_is_non_positive(self):
        curve = optimal_curve(GridAxis.linear("f", 0.0, 0.3, 5), math.pi / 2, 0.0, 1.0)
        assert all(g <= 0 for _, g in curve)

    def test_requires_drive_axis(self):
        with pytest.raises(ValueError):
            optimal_curve(GridAxis.linear("g", 0.0, 0.1, 5), 0.0, 0.0, 1.0)

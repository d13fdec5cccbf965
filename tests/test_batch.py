"""The batch engine: a sweep's rows are the single-point outcomes, bit for bit.

run_sweep feeds its grid through steady.converge_batch in batches of at
most steady.BATCH points, and converged_steady_state is the one-point
batch, so every row must equal that point's own converged_steady_state
outcome, whatever else shares its batch.
"""

import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fail_at, record_rungs

import blockade.steady
from blockade.model import SystemParams
from blockade.steady import BATCH, ConvergenceError, SteadyStateError, converge_batch, converged_steady_state
from blockade.sweep import GridAxis, run_sweep


def single_point_row(p, tol, max_dim):
    """(params, dim, N, g2, status) from converged_steady_state alone."""
    try:
        _, obs, dim = converged_steady_state(p, tol, max_dim=max_dim)
    except SteadyStateError:
        return p, None, None, None, "FAIL"
    return p, dim, obs.mean_photon, obs.g2, "OK"


def row_fields(rows):
    return [(row.params, row.dim, row.n_mean, row.g2, row.status) for row in rows]


def explicit_axis(param, values):
    return GridAxis(param, sorted(set(values)))


# Drive strengths from none (the vacuum) through weak drive to drives that
# decline the one-rung rule and climb; gains either side of the Kerr-free
# threshold |g| = 0.25 at delta = 0.
drives = st.lists(
    st.one_of(st.just(0.0), st.floats(0.01, 0.3), st.floats(0.3, 2.0)), min_size=2, max_size=5, unique=True
)
gains = st.lists(st.one_of(st.just(0.0), st.floats(-0.4, 0.4)), min_size=2, max_size=4, unique=True)


class TestBatchEngine:
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        f=drives,
        g=gains,
        u=st.one_of(st.just(0.0), st.floats(0.05, 2.0)),
        delta=st.floats(-1.0, 1.0),
        phi=st.floats(0.0, 2 * math.pi),
        tol=st.sampled_from([0.05, 1e-3, 1e-6]),
        max_dim=st.sampled_from([12, 18, 30]),
    )
    def test_rows_are_the_single_point_outcomes(self, f, g, u, delta, phi, tol, max_dim):
        axes = [explicit_axis("f", f), explicit_axis("g", g)]
        base = SystemParams(delta=delta, u=u, phi=phi)
        with pytest.MonkeyPatch.context() as monkeypatch:
            _, batches = record_rungs(monkeypatch)
            result = run_sweep(base, axes, tol, max_dim=max_dim, workers=1)
        assert batches and max(size for _, size in batches) <= BATCH
        expected = [single_point_row(row.params, tol, max_dim) for row in result.rows]
        assert row_fields(result.rows) == expected

    def test_grid_past_one_batch_mixes_every_kind_of_point(self, monkeypatch):
        # 3 x 7 = 21 points, not a multiple of BATCH: vacuum (f = 0, g = 0),
        # Kerr-free points above the gain threshold (g = 0.3 > 0.25), weak
        # drive, and strong drive that declines the one-rung rule
        axes = [GridAxis("u", (0.0, 0.5, 2.0)), GridAxis("g", (-0.3, 0.0, 0.02, 0.1, 0.2, 0.24, 0.3))]
        for f in (0.0, 0.1, 1.5):
            rungs, batches = record_rungs(monkeypatch)
            result = run_sweep(SystemParams(f=f), axes, workers=1)
            assert len(result.rows) % BATCH != 0
            assert max(size for _, size in batches) <= BATCH
            assert row_fields(result.rows) == [
                single_point_row(row.params, blockade.steady.DEFAULT_TOL, blockade.steady.DEFAULT_MAX_DIM)
                for row in result.rows
            ]
            statuses = {row.status for row in result.rows}
            assert "FAIL" in statuses and "OK" in statuses  # u = 0, |g| = 0.3
            if f == 1.5:
                assert any(len(rungs[row.params]) > 2 for row in result.rows)

    def test_one_batch_walks_the_ladder_once(self, monkeypatch):
        # the vacuum stops at 12, a weak drive is certified at 18, two bright
        # drives climb to 24 and 36, and a Kerr-free point above the gain
        # threshold is never solved
        points = [
            SystemParams(u=0.4, delta=-1.0),
            SystemParams(u=0.5, f=0.1),
            SystemParams(f=1.0),
            SystemParams(f=2.0, delta=0.3),
            SystemParams(g=0.3, f=0.1),
        ]
        rungs, batches = record_rungs(monkeypatch)
        outcomes = converge_batch(points)
        dims = [dim for dim, _ in batches]
        sizes = [size for _, size in batches]
        assert len(set(dims)) == len(dims)  # no truncation is solved twice
        assert sizes == sorted(sizes, reverse=True)  # points only ever leave
        assert [outcome[2] for outcome in outcomes[:4]] == [12, 18, 24, 36]
        assert isinstance(outcomes[4], ConvergenceError) and points[4] not in rungs
        assert batches == [(18, 4), (12, 3), (24, 2), (30, 1), (36, 1)]
        assert rungs[points[3]] == [18, 12, 24, 30, 36]

    @pytest.mark.parametrize("victim_index, dim", [(3, 18), (6, 24)])
    def test_failure_at_one_rung_leaves_its_batch_mates_unchanged(self, monkeypatch, victim_index, dim):
        # 5 x 2 points in row-major order; without Kerr, f = 1.0, 1.2 and 1.5
        # decline the one-rung rule and climb through D=24.  The first batch
        # (indices 0-7) walks its g = 0 and g = 0.02 points as two
        # sub-batches, and each victim has batch mates of its own gain band:
        # index 3 (g = 0.02) at D=18, index 6 (g = 0, f = 1.2) at D=24 with
        # index 4 (g = 0, f = 1.0)
        axes = [GridAxis("f", (0.05, 0.1, 1.0, 1.2, 1.5)), GridAxis("g", (0.0, 0.02))]
        base = SystemParams(phi=math.pi / 12)
        clean = run_sweep(base, axes, workers=1).rows
        victim = clean[victim_index].params
        solved = []  # (dim, points) of every batched rung
        solve = blockade.steady._rung
        monkeypatch.setattr(blockade.steady, "_rung", lambda points, d: solved.append((d, points)) or solve(points, d))
        fail_at(monkeypatch, dim, victims={victim})
        forced = run_sweep(base, axes, workers=1).rows
        assert any(d == dim and victim in points and len(points) > 1 for d, points in solved)  # the victim had batch mates
        assert forced[victim_index].status == "FAIL"
        assert forced[:victim_index] + forced[victim_index + 1 :] == clean[:victim_index] + clean[victim_index + 1 :]
        assert row_fields([forced[victim_index]]) == [single_point_row(victim, 1e-3, 60)]


class TestNoReferenceCycles:
    def zero_generator(self, monkeypatch):
        build = blockade.steady._liouvillian_data
        monkeypatch.setattr(blockade.steady, "_liouvillian_data", lambda *args: 0.0 * build(*args))

    @pytest.mark.parametrize("failure", ["ill-conditioned", "singular"])
    def test_failed_batch_leaves_no_reference_cycle(self, monkeypatch, failure):
        # the solver's own rejections, one with a cause (SuperLU's RuntimeError)
        if failure == "singular":
            self.zero_generator(monkeypatch)
        else:
            monkeypatch.setattr(blockade.steady, "RCOND_FLOOR", 1.0)
        points = [SystemParams(u=0.5, f=0.02 * (k + 1)) for k in range(BATCH)]
        gc.collect()
        gc.disable()
        try:
            outcomes = converge_batch(points, max_dim=24)
            assert all(isinstance(o, SteadyStateError) and failure in str(o) for o in outcomes)
            for error in outcomes:
                assert error.__traceback__ is None
                assert error.__cause__ is None or error.__cause__.__traceback__ is None
            del outcomes, error
            assert gc.collect() == 0
        finally:
            gc.enable()

"""Parameter-grid evaluation with figure presets.

A sweep evaluates converged steady-state observables over a 1-D or 2-D
linear grid, one row per grid point in row-major order over (axis1, axis2).
Per-point solver failures are recorded in the row status and never abort
the sweep.  Presets bundle the fixed parameters and axes used by the
standard survey figures; ranges the source figures leave unstated are
documented defaults here and remain overridable by the caller.

The grid's points go through the batch engine (steady.converge_batch) in
consecutive batches of steady.BATCH points; a point's row does not depend
on which batch holds it.  The batches are independent, so a process pool
can share them out.  Its size is the one requested (BLOCKADE_THREADS,
default: the CPUs this process may run on, its affinity set where the OS
has one), capped by those CPUs and by one worker per _BATCHES_PER_WORKER
batches, so a grid too small for 2 workers runs in this process.  Rows are
assembled in grid order, so output does not depend on the pool.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial

import numpy as np

# amplitudes_closed_form is not called here; bench/tracing.py looks it up on this module.
from .analytic import amplitudes_closed_form  # noqa: F401
from .model import SystemParams
from .steady import BATCH, DEFAULT_MAX_DIM, DEFAULT_TOL, SteadyStateError, check_ladder, converge_batch
# converged_steady_state is not called here either; bench/tracing.py looks it up on this module.
from .steady import converged_steady_state  # noqa: F401

SWEEPABLE_PARAMS = ("delta", "u", "g", "f", "phi")

# Fewest batches per pool worker: with fewer, starting and feeding 2 workers
# cost more than they saved on fig1a grids (measured pairs in CHANGES.md).
_BATCHES_PER_WORKER = 16


@dataclass(frozen=True)
class GridAxis:
    """One swept parameter and its grid points, finite and strictly increasing."""

    param: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.param not in SWEEPABLE_PARAMS:
            raise ValueError(
                f"unknown sweep parameter {self.param!r}; expected one of {SWEEPABLE_PARAMS}"
            )
        values = tuple(float(v) for v in self.values)
        if len(values) < 2:
            raise ValueError(f"an axis needs at least 2 points, got {len(values)}")
        if not (all(map(math.isfinite, values)) and all(a < b for a, b in zip(values, values[1:]))):
            raise ValueError("axis points must be finite and strictly increasing")
        object.__setattr__(self, "values", values)

    @classmethod
    def linear(cls, param: str, lo: float, hi: float, count: int) -> "GridAxis":
        """count evenly spaced points from lo to hi, checked first so that numpy never warns."""
        if not isinstance(count, int) or isinstance(count, bool):
            raise TypeError(f"count must be an integer, got {count!r}")
        if count < 2:
            raise ValueError(f"count must be at least 2, got {count}")
        lo, hi = float(lo), float(hi)
        if not lo < hi:
            raise ValueError(f"min must be below max, got [{lo}, {hi}]")
        if not math.isfinite(hi - lo):  # an infinite bound, or bounds too far apart
            raise ValueError(f"axis span [{lo}, {hi}] overflows double precision")
        return cls(param, np.linspace(lo, hi, count))

    @property
    def min(self) -> float:
        return self.values[0]

    @property
    def max(self) -> float:
        return self.values[-1]

    @property
    def count(self) -> int:
        return len(self.values)

    def points(self) -> np.ndarray:
        return np.array(self.values)


@dataclass(frozen=True)
class SweepRow:
    """Observables at one grid point; dim None marks a per-point solver failure."""

    params: SystemParams
    dim: int | None
    n_mean: float | None
    g2: float | None
    lg_n: float | None
    lg_g2: float | None

    @property
    def status(self) -> str:
        return "FAIL" if self.dim is None else "OK"


@dataclass(frozen=True)
class SweepResult:
    """All rows of a grid evaluation, row-major over (axis1, axis2)."""

    axes: tuple[GridAxis, ...]
    rows: tuple[SweepRow, ...]
    metadata: dict = field(compare=False)

    def __post_init__(self):
        expected = math.prod(axis.count for axis in self.axes)
        if len(self.rows) != expected:
            raise ValueError(f"expected {expected} rows, got {len(self.rows)}")


def _evaluate_batch(points, tol: float, max_dim: int) -> list[SweepRow]:
    rows = []
    for p, outcome in zip(points, converge_batch(points, tol, max_dim=max_dim)):
        if isinstance(outcome, SteadyStateError):
            rows.append(SweepRow(p, None, None, None, None, None))
        else:
            _, obs, dim = outcome
            rows.append(SweepRow(p, dim, obs.mean_photon, obs.g2, obs.lg_n, obs.lg_g2))
    return rows


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        env = os.environ.get("BLOCKADE_THREADS", "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(f"BLOCKADE_THREADS must be an integer, got {env!r}") from None
        else:
            workers = _cpu_count()
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    return workers


def check_grid(base: SystemParams, axes) -> None:
    """Reject a grid run_sweep cannot evaluate: other than one or two
    GridAxis, two axes on one parameter, or a grid point that is no valid
    SystemParams (each parameter's valid set is an interval, so an axis's
    ends decide)."""
    if not 1 <= len(axes) <= 2:
        raise ValueError(f"expected one or two axes, got {len(axes)}")
    if any(not isinstance(axis, GridAxis) for axis in axes):
        raise TypeError("axes must be GridAxis instances")
    if len(axes) == 2 and axes[0].param == axes[1].param:
        raise ValueError(f"axes must sweep distinct parameters, both are {axes[0].param!r}")
    for axis in axes:
        for value in (axis.min, axis.max):
            base.replace(**{axis.param: value})


def run_sweep(
    base: SystemParams,
    axes,
    tol: float = DEFAULT_TOL,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
    workers: int | None = None,
) -> SweepResult:
    """Evaluate converged steady-state observables over a 1-D or 2-D grid.

    Each grid point overrides base with the axis values and solves at
    growing truncation; rows where the solver fails are marked FAIL instead
    of aborting the sweep.  Rows come back in row-major (axis1, axis2)
    order regardless of worker count; the CLI adds the metadata's preset id.
    """
    axes = tuple(axes)
    # a bad range, e.g. a negative drive strength, fails here instead of
    # emitting thousands of FAIL rows
    check_grid(base, axes)
    points = [
        base.replace(**{axis.param: float(v) for axis, v in zip(axes, values)})
        for values in itertools.product(*(axis.points() for axis in axes))
    ]
    check_ladder(tol, max_dim)
    evaluate = partial(_evaluate_batch, tol=tol, max_dim=max_dim)

    batches = [points[i : i + BATCH] for i in range(0, len(points), BATCH)]
    n_workers = min(_resolve_workers(workers), _cpu_count(), len(batches) // _BATCHES_PER_WORKER)
    if n_workers > 1:
        chunk = len(batches) // (_BATCHES_PER_WORKER * n_workers)
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            solved = list(pool.map(evaluate, batches, chunksize=chunk))
    else:
        solved = map(evaluate, batches)
    rows = tuple(itertools.chain.from_iterable(solved))

    dims_used = sorted({row.dim for row in rows if row.dim is not None})
    metadata = {
        "tol": tol,
        "max_dim": max_dim,
        "dims_used": dims_used,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    return SweepResult(axes=axes, rows=rows, metadata=metadata)


_PI = math.pi
_FIG1A_AXES = (GridAxis.linear("f", 0.01, 0.3, 101), GridAxis.linear("g", -0.05, 0.2, 101))

# Preset id -> (base parameters, axes).  fig3x is the fig1a map at other
# drive phases, fig4x the fig1a map at other Kerr strengths.
_PRESETS = {
    "fig1a": (SystemParams(delta=0.0, u=0.5, phi=_PI / 12), _FIG1A_AXES),
    "fig1b": (
        SystemParams(delta=0.0, u=0.5, f=0.1),
        (GridAxis.linear("g", -0.05, 0.05, 101), GridAxis.linear("phi", 0.0, 2.0 * _PI, 101)),
    ),
    # Linear-cavity base: with any Kerr present the resonance peak is
    # measurably pulled off zero detuning at the stronger drives, which
    # contradicts the claim this preset exists to reproduce.
    "fig2a": (
        SystemParams(u=0.0, g=0.0, phi=0.0),
        (GridAxis("f", (0.1, 0.2, 0.3)), GridAxis.linear("delta", -3.0, 3.0, 201)),
    ),
    "fig2b": (
        SystemParams(delta=0.0, u=0.5, f=0.1),
        (GridAxis("g", (0.05, 0.1, 0.2)), GridAxis.linear("phi", -_PI, _PI, 201)),
    ),
    "fig2c": (
        SystemParams(u=0.5, f=0.1, phi=0.0),
        (GridAxis("g", (0.05, 0.2, 0.4)), GridAxis.linear("delta", -3.0, 3.0, 201)),
    ),
    "fig2d": (
        SystemParams(g=0.0, f=0.1, phi=0.0),
        (GridAxis("u", (0.1, 0.5, 1.0, 2.0)), GridAxis.linear("delta", -3.0, 3.0, 201)),
    ),
    **{
        f"fig3{tag}": (SystemParams(delta=0.0, u=0.5, phi=phi), _FIG1A_AXES)
        for tag, phi in zip("abcdef", (_PI / 12, _PI / 6, _PI / 4, _PI / 3, 5 * _PI / 12, _PI / 2))
    },
    **{
        f"fig4{tag}": (SystemParams(delta=0.0, u=u, phi=_PI / 12), _FIG1A_AXES)
        for tag, u in zip("abcd", (0.1, 1.0, 2.0, 5.0))
    },
}


def preset(name: str) -> tuple[SystemParams, list[GridAxis]]:
    """Fixed parameters and axes of the standard survey figures.

    Stated fixed parameters follow the source figures; ranges and bases the
    figures leave unstated are documented defaults chosen to bracket the
    optimal-gain curve (2-D maps) or the resonance (detuning scans).  All of
    them can be overridden via run_sweep by passing modified axes or base.
    """
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; valid ids: {', '.join(_PRESETS)}")
    base, axes = _PRESETS[name]
    return base, list(axes)


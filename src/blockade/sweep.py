"""Parameter-grid evaluation with figure presets.

A sweep evaluates converged steady-state observables over a 1-D or 2-D
linear grid, one row per grid point in row-major order over (axis1, axis2).
Per-point solver failures are recorded in the row status and never abort
the sweep.  Presets bundle the fixed parameters and axes used by the
standard survey figures; ranges the source figures leave unstated are
documented defaults here and remain overridable by the caller.

Grid points are independent solves, so the engine can fan them out over a
process pool; results are always assembled in grid order, making output
independent of the degree of parallelism.  The BLOCKADE_THREADS environment
variable sets the requested pool size (default: machine CPU count); the pool
never holds more processes than the machine has CPUs or the grid has points.
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
from .analytic import amplitudes_closed_form, optimal_g  # noqa: F401
from .model import SystemParams
from .steady import DEFAULT_MAX_DIM, DEFAULT_TOL, SteadyStateError, converged_steady_state

SWEEPABLE_PARAMS = ("delta", "u", "g", "f", "phi")


@dataclass(frozen=True)
class GridAxis:
    """One swept parameter: linearly spaced by default, or explicit values.

    min/max/count always describe the grid; when values is set, the points
    are taken verbatim from it (used by presets whose stepped values are not
    evenly spaced).
    """

    param: str
    min: float
    max: float
    count: int
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.param not in SWEEPABLE_PARAMS:
            raise ValueError(
                f"unknown sweep parameter {self.param!r}; expected one of {SWEEPABLE_PARAMS}"
            )
        if not isinstance(self.count, int) or isinstance(self.count, bool):
            raise TypeError(f"count must be an integer, got {self.count!r}")
        if self.count < 2:
            raise ValueError(f"count must be at least 2, got {self.count}")
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError("axis bounds must be finite")
        if not self.min < self.max:
            raise ValueError(f"min must be below max, got [{self.min}, {self.max}]")
        if self.values is None and not math.isfinite(self.max - self.min):
            raise ValueError(f"axis span [{self.min}, {self.max}] overflows double precision")
        if self.values is not None:
            values = tuple(float(v) for v in self.values)
            if len(values) != self.count:
                raise ValueError("explicit values must match count")
            if not all(a < b for a, b in zip(values, values[1:])):
                raise ValueError("explicit values must be strictly increasing")
            if values[0] != self.min or values[-1] != self.max:
                raise ValueError("explicit values must span [min, max]")
            object.__setattr__(self, "values", values)

    @classmethod
    def linear(cls, param: str, lo: float, hi: float, count: int) -> "GridAxis":
        return cls(param=param, min=float(lo), max=float(hi), count=count)

    @classmethod
    def explicit(cls, param: str, values) -> "GridAxis":
        values = tuple(float(v) for v in values)
        if len(values) < 2:
            raise ValueError("explicit axis needs at least 2 values")
        return cls(param=param, min=values[0], max=values[-1], count=len(values), values=values)

    def points(self) -> np.ndarray:
        if self.values is not None:
            return np.array(self.values, dtype=float)
        return np.linspace(self.min, self.max, self.count)


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
        expected = 1
        for axis in self.axes:
            expected *= axis.count
        if len(self.rows) != expected:
            raise ValueError(f"expected {expected} rows, got {len(self.rows)}")


def _evaluate_point(params: SystemParams, tol: float, max_dim: int) -> SweepRow:
    try:
        _, obs, dim = converged_steady_state(params, tol, max_dim=max_dim)
    except SteadyStateError:
        return SweepRow(params, None, None, None, None, None)
    return SweepRow(params, dim, obs.mean_photon, obs.g2, obs.lg_n, obs.lg_g2)


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        env = os.environ.get("BLOCKADE_THREADS", "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(f"BLOCKADE_THREADS must be an integer, got {env!r}") from None
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    return workers


def run_sweep(
    base: SystemParams,
    axes,
    tol: float = DEFAULT_TOL,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
    workers: int | None = None,
    preset_name: str | None = None,
) -> SweepResult:
    """Evaluate converged steady-state observables over a 1-D or 2-D grid.

    Each grid point overrides base with the axis values and solves at
    growing truncation; rows where the solver fails are marked FAIL instead
    of aborting the sweep.  Rows come back in row-major (axis1, axis2)
    order regardless of worker count.
    """
    axes = tuple(axes)
    if not 1 <= len(axes) <= 2:
        raise ValueError(f"expected one or two axes, got {len(axes)}")
    if any(not isinstance(axis, GridAxis) for axis in axes):
        raise TypeError("axes must be GridAxis instances")
    if len(axes) == 2 and axes[0].param == axes[1].param:
        raise ValueError(f"axes must sweep distinct parameters, both are {axes[0].param!r}")

    # Grid parameters are constructed (and validated) up front so that a bad
    # range, e.g. a negative drive strength, fails fast instead of emitting
    # thousands of FAIL rows.
    points = [
        base.replace(**{axis.param: float(v) for axis, v in zip(axes, values)})
        for values in itertools.product(*(axis.points() for axis in axes))
    ]
    evaluate = partial(_evaluate_point, tol=tol, max_dim=max_dim)

    n_workers = min(_resolve_workers(workers), os.cpu_count() or 1, len(points))
    if n_workers == 1 or len(points) < 4:
        rows = tuple(map(evaluate, points))
    else:
        chunk = max(1, len(points) // (8 * n_workers))
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            rows = tuple(pool.map(evaluate, points, chunksize=chunk))

    dims_used = sorted({row.dim for row in rows if row.dim is not None})
    metadata = {
        "preset": preset_name,
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
        (GridAxis.explicit("f", (0.1, 0.2, 0.3)), GridAxis.linear("delta", -3.0, 3.0, 201)),
    ),
    "fig2b": (
        SystemParams(delta=0.0, u=0.5, f=0.1),
        (GridAxis.explicit("g", (0.05, 0.1, 0.2)), GridAxis.linear("phi", -_PI, _PI, 201)),
    ),
    "fig2c": (
        SystemParams(u=0.5, f=0.1, phi=0.0),
        (GridAxis.explicit("g", (0.05, 0.2, 0.4)), GridAxis.linear("delta", -3.0, 3.0, 201)),
    ),
    "fig2d": (
        SystemParams(g=0.0, f=0.1, phi=0.0),
        (GridAxis.explicit("u", (0.1, 0.5, 1.0, 2.0)), GridAxis.linear("delta", -3.0, 3.0, 201)),
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


def optimal_curve(
    f_axis: GridAxis, phi: float, delta: float, kappa: float = 1.0
) -> list[tuple[float, float]]:
    """Optimal parametric gain sampled along a drive-strength axis."""
    if f_axis.param != "f":
        raise ValueError(f"curve wants a drive-strength axis, got {f_axis.param!r}")
    return [(float(f), optimal_g(float(f), phi, delta, kappa)) for f in f_axis.points()]

"""Seeded inputs and correctness checks for the benchmark workloads.

The library only ever receives the SystemParams / GridAxis values built
here.  The same seed always gives the same inputs: every draw comes from a
random.Random seeded with a string naming the input set and the seed, so
map_serial and map_pool share one grid ("map") and ladder_tail has its own
stream ("ladder").
"""

from __future__ import annotations

import cmath
import math
import random

from blockade import ConvergenceError, GridAxis, SystemParams, preset

# Points per axis of the coarsened fig1a map (MAP_SIZE**2 points per sweep).
MAP_SIZE = 6
# Relative bound for N and g2 against the recorded reference rows; dim must
# match exactly.  Loose enough for a different but sound linear solver,
# tight enough that any change of physics or truncation shows.
REFERENCE_RTOL = 1e-8
# Rows of repeated sweeps of one grid must agree to this relative bound.
REPEAT_RTOL = 1e-9
# The solver's default truncation-convergence tolerance on lg N and lg g2.
SOLVER_TOL = 1e-3


def map_inputs(seed: int) -> tuple[SystemParams, list[GridAxis]]:
    """fig1a base and its F x G ranges on a MAP_SIZE x MAP_SIZE grid.

    The seed shifts each axis by a sub-step offset inside the preset range,
    so different seeds sample different points of the same map.
    """
    rng = random.Random(f"map:{seed}")
    base, preset_axes = preset("fig1a")
    axes = []
    for axis in preset_axes:
        step = (axis.max - axis.min) / MAP_SIZE
        lo = axis.min + rng.random() * step
        axes.append(GridAxis.linear(axis.param, lo, lo + (MAP_SIZE - 1) * step, MAP_SIZE))
    return base, axes


def map_points(base: SystemParams, axes) -> list[SystemParams]:
    """Grid points in the row-major order run_sweep returns its rows."""
    first, second = axes
    return [
        base.replace(**{first.param: float(v1), second.param: float(v2)})
        for v1 in first.points()
        for v2 in second.points()
    ]


def gain_threshold(delta: float, kappa: float) -> float:
    """|G| above which the Kerr-free mode is linearly unstable: 2|G| = sqrt(delta^2 + kappa^2/4)."""
    return 0.5 * math.sqrt(delta * delta + 0.25 * kappa * kappa)


def is_unstable(p: SystemParams) -> bool:
    return p.u == 0.0 and abs(p.g) > gain_threshold(p.delta, p.kappa)


def linear_moments(p: SystemParams) -> tuple[float, float]:
    """Exact truncation-free N and g2(0) of a stable Kerr-free (U = 0) point.

    With U = 0 the steady state is Gaussian.  The mean field solves
    0 = -(i delta + kappa/2) alpha + 2 G alpha* - i F e^{i phi}; the
    fluctuations obey n = <da' da> = 8 G^2 / (4 delta^2 + kappa^2 - 16 G^2)
    and m = <da da> = 2 G (2 n + 1) / (2 i delta + kappa).  Wick's theorem
    then gives <a'a'aa>.  At G = 0 this is the coherent state,
    N = F^2 / (delta^2 + kappa^2/4) and g2 = 1.
    """
    if p.u != 0.0 or is_unstable(p):
        raise ValueError("linear moments need U = 0 below the gain threshold")
    k, d, g = p.kappa, p.delta, p.g
    # Cramer's rule on [[a11, 2G], [2G, a22]] (alpha, alpha*) = (b, b*)
    b = 1j * p.f * cmath.exp(1j * p.phi)
    a11 = -(1j * d + 0.5 * k)
    a22 = -(-1j * d + 0.5 * k)
    alpha = (a22 * b - 2.0 * g * b.conjugate()) / (a11 * a22 - 4.0 * g * g)
    n = 8.0 * g * g / (4.0 * d * d + k * k - 16.0 * g * g)
    m = 2.0 * g * (2.0 * n + 1.0) / (2j * d + k)
    a2 = abs(alpha) ** 2
    mean = a2 + n
    two = a2 * a2 + 2.0 * (alpha.conjugate() ** 2 * m).real + 4.0 * a2 * n + 2.0 * n * n + abs(m) ** 2
    return mean, two / (mean * mean)


def _uniform_sign(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _coherent(rng: random.Random, n_lo: float, n_hi: float) -> SystemParams:
    """U = 0, G = 0 point whose exact photon number lies in [n_lo, n_hi]."""
    delta = rng.uniform(-0.1, 0.1)
    n = rng.uniform(n_lo, n_hi)
    return SystemParams(delta=delta, f=math.sqrt(n * (delta * delta + 0.25)), phi=rng.uniform(0.0, 2 * math.pi))


def _unstable(rng: random.Random) -> SystemParams:
    delta = rng.uniform(-0.2, 0.2)
    g = _uniform_sign(rng, 1.2, 1.6) * gain_threshold(delta, 1.0)
    return SystemParams(delta=delta, g=g, f=rng.uniform(1.0, 2.5), phi=rng.uniform(0.0, 2 * math.pi))


def _squeezed(rng: random.Random) -> SystemParams:
    """Stable U = 0 point with gain, drawn until its exact N lies in [1.5, 3]."""
    while True:
        delta = rng.uniform(-0.1, 0.1)
        p = SystemParams(
            delta=delta,
            g=_uniform_sign(rng, 0.2, 0.4) * gain_threshold(delta, 1.0),
            f=rng.uniform(1.0, 1.5),
            phi=rng.uniform(0.0, 2 * math.pi),
        )
        if 1.5 <= linear_moments(p)[0] <= 3.0:
            return p


def _kerr(rng: random.Random) -> SystemParams:
    """Weak-Kerr strong-drive point below the gain threshold.

    Drawn until the Kerr-free photon number at the same delta, G, F, phi
    lies in [1.5, 3], which keeps it on the D=18 and D=24 rungs.
    """
    while True:
        delta = rng.uniform(-0.1, 0.1)
        p = SystemParams(
            delta=delta,
            g=_uniform_sign(rng, 0.0, 0.5) * gain_threshold(delta, 1.0),
            f=rng.uniform(1.0, 2.5),
            phi=rng.uniform(0.0, 2 * math.pi),
        )
        if 1.5 <= linear_moments(p)[0] <= 3.0:
            return p.replace(u=rng.uniform(0.01, 0.05))


# One closed-loop cycle of ladder_tail: (stratum, points per cycle, draw).
# A point's cost is set by the rungs it climbs, and each stratum keeps its
# points on fixed rungs, so a cycle's cost barely depends on the seed.  The
# ten D=36 points are the middle of the latency distribution: with 8 cheaper
# and 3 dearer points per cycle, the median and the tail percentile (ten
# samples beyond it) both fall inside that block for any number of cycles.
LADDER_STRATA = (
    ("unstable", 1, _unstable),  # exhausts the ladder at D=60
    ("coherent_n25", 1, lambda rng: _coherent(rng, 24.0, 26.0)),  # D=54
    ("coherent_n16", 1, lambda rng: _coherent(rng, 15.0, 17.0)),  # D=42
    ("coherent_n12", 10, lambda rng: _coherent(rng, 11.0, 13.0)),  # D=36
    ("coherent_n4", 2, lambda rng: _coherent(rng, 3.5, 5.0)),  # D=24
    ("squeezed", 2, _squeezed),  # D=18-24
    ("kerr", 4, _kerr),  # D=18-24
)


def ladder_inputs(seed: int) -> list[tuple[str, SystemParams]]:
    """The points of one ladder_tail cycle, tagged with their stratum."""
    rng = random.Random(f"ladder:{seed}")
    return [(name, draw(rng)) for name, count, draw in LADDER_STRATA for _ in range(count)]


def rel_close(x: float | None, y: float | None, rtol: float) -> bool:
    if x is None or y is None:
        return x is None and y is None
    return abs(x - y) <= rtol * max(abs(x), abs(y))


def check_map_row(row, params: SystemParams, reference, first) -> str | None:
    """Reason the sweep row is wrong, or None.

    reference is the (dim, N, g2) recorded for this seed, if any; first is
    the same row from the run's first sweep.  g2_analytic is never read:
    the traced run counts reads of it.
    """
    if row.status != "OK" or row.params != params:
        return f"status {row.status} or params differ at {params}"
    if reference is not None:
        dim, n_mean, g2 = reference
        if row.dim != dim or not rel_close(row.n_mean, n_mean, REFERENCE_RTOL) or not rel_close(row.g2, g2, REFERENCE_RTOL):
            return f"reference mismatch at {params}: got {(row.dim, row.n_mean, row.g2)}, want {reference}"
    if first is not None and (
        row.dim != first.dim
        or not rel_close(row.n_mean, first.n_mean, REPEAT_RTOL)
        or not rel_close(row.g2, first.g2, REPEAT_RTOL)
    ):
        return f"row differs from the first sweep at {params}"
    return None


def check_ladder_point(p: SystemParams, outcome, reference) -> str | None:
    """Reason a converged_steady_state outcome is wrong, or None.

    outcome is (dim, N, g2) on success or the exception instance.  An
    unstable point has no steady state, so ConvergenceError is its correct
    outcome; every other point must converge.  Kerr-free points are held to
    the exact Gaussian solution within the solver's tol on lg N and lg g2.
    """
    if is_unstable(p):
        if not isinstance(outcome, ConvergenceError):
            return f"unstable point {p} gave {outcome!r}, want ConvergenceError"
        got = (None, None, None)
    elif isinstance(outcome, BaseException):
        return f"stable point {p} raised {type(outcome).__name__}: {outcome}"
    else:
        got = outcome
        if p.u == 0.0:
            n_exact, g2_exact = linear_moments(p)
            if abs(math.log10(got[1] / n_exact)) > SOLVER_TOL or abs(math.log10(got[2] / g2_exact)) > SOLVER_TOL:
                return f"Kerr-free point {p}: got N={got[1]}, g2={got[2]}, exact N={n_exact}, g2={g2_exact}"
    if reference is not None:
        dim, n_mean, g2 = reference
        if got[0] != dim or not rel_close(got[1], n_mean, REFERENCE_RTOL) or not rel_close(got[2], g2, REFERENCE_RTOL):
            return f"reference mismatch at {p}: got {got}, want {reference}"
    return None

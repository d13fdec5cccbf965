"""Liouvillian construction, steady-state solver and photon observables.

The master equation used throughout is the standard Lindblad form for a
single decaying mode,

    drho/dt = -i [H, rho] + (kappa/2) (2 a rho a' - a'a rho - rho a'a),

vectorized by column stacking: vec(rho)[i + D*j] = rho[i, j], so that
vec(A rho B) = kron(B.T, A) vec(rho).  The steady state is the unit-trace
kernel vector of the Liouvillian, found by replacing one row of the
singular system with the vectorized trace constraint and solving the
resulting square system by LU with partial pivoting.  Truncation is
controlled by re-solving at growing dimension until the observables stop
moving on a log10 scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, lu_factor, lu_solve
from scipy.linalg.lapack import zgecon

from .fock import FockSpace, annihilation, creation, kron
from .model import SystemParams, build_h_eff

# Below this mean photon number, g2 is a 0/0 ratio and reported undefined.
PHOTON_FLOOR = 1e-12

# Reciprocal-condition estimate below which the trace-constrained solve is
# declared unreliable.
RCOND_FLOOR = 1e-14

# Truncation ladder of converged_steady_state and its default settings,
# which the sweep engine and the command line share.
START_DIM = 12
DIM_STEP = 6
DEFAULT_MAX_DIM = 60
DEFAULT_TOL = 1e-3


class SteadyStateError(RuntimeError):
    """The trace-constrained linear solve failed or is numerically unreliable."""


class ConvergenceError(SteadyStateError):
    """Observables kept moving up to the largest allowed truncation.

    Carries the observable sets of the last two truncations so callers can
    inspect how far apart they still were.
    """

    def __init__(self, message: str, previous=None, last=None):
        super().__init__(message)
        self.previous = previous
        self.last = last


@dataclass(frozen=True)
class DensityMatrix:
    """Physical density matrix: Hermitian, unit trace, positive semidefinite.

    Tolerances admit double-precision noise from the linear solve: entries
    must be Hermitian and unit-trace to 1e-10 and the smallest eigenvalue
    may undershoot zero by at most 1e-8.
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.array(self.entries, dtype=complex)
        if entries.shape != (self.dim, self.dim):
            raise ValueError(f"entries must be {self.dim}x{self.dim}, got {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite")
        herm_defect = np.max(np.abs(entries - entries.conj().T))
        if herm_defect > 1e-10:
            raise ValueError(f"not Hermitian: max |rho - rho'| = {herm_defect:.3e}")
        trace_defect = abs(np.trace(entries) - 1.0)
        if trace_defect > 1e-10:
            raise ValueError(f"trace differs from 1 by {trace_defect:.3e}")
        min_eig = float(np.linalg.eigvalsh(entries)[0])
        if min_eig < -1e-8:
            raise ValueError(f"not positive semidefinite: min eigenvalue {min_eig:.3e}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class Observables:
    """Steady-state photon statistics.

    g2 and the log10 fields are None when undefined: g2 requires a mean
    photon number above the division floor, and a log requires a positive
    argument.
    """

    mean_photon: float
    g2: float | None
    lg_n: float | None
    lg_g2: float | None
    populations: tuple[float, ...]

    def __post_init__(self):
        pops = np.asarray(self.populations, dtype=float)
        if np.any(pops < -1e-10) or np.any(pops > 1 + 1e-10):
            raise ValueError("populations outside [0, 1] beyond tolerance")
        if abs(pops.sum() - 1.0) > 1e-9:
            raise ValueError(f"populations sum to {pops.sum()!r}, not 1")
        expected_n = float(np.dot(np.arange(pops.size), pops))
        if abs(self.mean_photon - expected_n) > 1e-9:
            raise ValueError("mean_photon inconsistent with populations")
        if self.mean_photon < 0:
            raise ValueError("mean_photon must be non-negative")
        if self.g2 is not None and self.g2 < 0:
            raise ValueError("g2 must be non-negative when defined")


def liouvillian(p: SystemParams, space: FockSpace) -> np.ndarray:
    """Generator L with vec(drho/dt) = L vec(rho) under column stacking."""
    d = space.dim
    a = annihilation(space)
    n_op = creation(space) @ a
    h = build_h_eff(p, space)
    eye = np.eye(d, dtype=complex)
    unitary = -1j * (kron(eye, h) - kron(h.T, eye))
    decay = 0.5 * p.kappa * (2.0 * kron(a.conj(), a) - kron(eye, n_op) - kron(n_op.T, eye))
    return unitary + decay


def steady_state(p: SystemParams, space: FockSpace) -> DensityMatrix:
    """Unique steady state of the master equation at fixed truncation.

    One row of the singular Liouvillian (the one with the smallest sup
    norm) is replaced by the vectorized trace functional, pinning Tr rho = 1;
    the square system is then solved by LU.  A reciprocal-condition estimate
    below 1e-14 raises SteadyStateError rather than returning digits that
    are mostly noise, as does a solution that fails the DensityMatrix
    physicality checks.
    """
    d = space.dim
    if d < 3:
        raise ValueError(f"truncation dimension must be at least 3, got {d}")
    big_l = liouvillian(p, space)

    system = big_l.copy()
    row_norms = np.max(np.abs(system), axis=1)
    replaced = int(np.argmin(row_norms))
    trace_row = np.zeros(d * d, dtype=complex)
    trace_row[np.arange(d) * (d + 1)] = 1.0  # vec index of rho[n, n] is n*(d+1)
    system[replaced, :] = trace_row
    rhs = np.zeros(d * d, dtype=complex)
    rhs[replaced] = 1.0

    anorm = float(np.linalg.norm(system, 1))
    try:
        lu, piv = lu_factor(system)
    except LinAlgError as exc:
        raise SteadyStateError(
            f"singular steady-state system at dim={d}; try a larger truncation "
            f"or different parameters ({exc})"
        ) from exc
    rcond, info = zgecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise SteadyStateError(
            f"steady-state system too ill-conditioned at dim={d} "
            f"(rcond={float(rcond):.2e}); try a larger truncation or different parameters"
        )
    vec = lu_solve((lu, piv), rhs)

    rho = vec.reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.real(np.trace(rho))

    residual = float(np.max(np.abs(big_l @ rho.flatten(order="F"))))
    scale = float(np.linalg.norm(big_l, np.inf))
    if residual > 1e-9 * scale:
        raise SteadyStateError(
            f"steady-state residual {residual:.3e} exceeds 1e-9 * ||L|| at dim={d}"
        )
    try:
        return DensityMatrix(dim=d, entries=rho)
    except ValueError as exc:
        raise SteadyStateError(f"unphysical steady state at dim={d}: {exc}") from exc


def observables(rho: DensityMatrix) -> Observables:
    """Mean photon number, g2(0), their base-10 logs and the populations.

    Both moments are diagonal in the number basis, so they reduce to sums
    over the populations: N = sum n P(n) and <a'a'aa> = sum n(n-1) P(n).
    """
    pops = np.real(np.diag(rho.entries))
    n_values = np.arange(rho.dim, dtype=float)
    mean_photon = max(float(np.dot(n_values, pops)), 0.0)
    two_photon = max(float(np.dot(n_values * (n_values - 1.0), pops)), 0.0)

    if mean_photon < PHOTON_FLOOR:
        g2 = None
        lg_n = None
        lg_g2 = None
    else:
        g2 = two_photon / mean_photon**2
        lg_n = math.log10(mean_photon)
        lg_g2 = math.log10(g2) if g2 > 0 else None
    return Observables(
        mean_photon=mean_photon,
        g2=g2,
        lg_n=lg_n,
        lg_g2=lg_g2,
        populations=tuple(float(x) for x in pops),
    )


def _lg_gap(before: Observables, after: Observables) -> float:
    """Largest change across the two log observables; None pairs count as
    no change, a defined/undefined flip counts as infinite change."""
    gap = 0.0
    for x, y in ((before.lg_n, after.lg_n), (before.lg_g2, after.lg_g2)):
        if x is None and y is None:
            continue
        if x is None or y is None:
            return math.inf
        gap = max(gap, abs(x - y))
    return gap


def converged_steady_state(
    p: SystemParams,
    tol: float = DEFAULT_TOL,
    *,
    max_dim: int = DEFAULT_MAX_DIM,
) -> tuple[DensityMatrix, Observables, int]:
    """Solve at growing truncation until lg N and lg g2 settle within tol.

    Climbs the fixed ladder of dimensions 12, 18, 24, ... up to max_dim;
    returns the first solution whose log observables moved less than tol
    from the previous truncation, together with the dimension it was
    computed at.  A state with mean photon number below the division floor
    is returned immediately: higher truncations cannot populate it further.
    Raises ConvergenceError (carrying the last two observable sets) if
    max_dim is reached without settling, which is also the guaranteed
    outcome of tol = 0.
    """
    if max_dim < START_DIM:
        raise ValueError(f"max_dim={max_dim} is below the starting dimension {START_DIM}")

    previous: Observables | None = None
    before_previous: Observables | None = None
    for dim in range(START_DIM, max_dim + 1, DIM_STEP):
        rho = steady_state(p, FockSpace(dim))
        obs = observables(rho)
        if obs.mean_photon < PHOTON_FLOOR:
            return rho, obs, dim
        if previous is not None and _lg_gap(previous, obs) < tol:
            return rho, obs, dim
        before_previous = previous
        previous = obs
    raise ConvergenceError(
        f"observables not settled to tol={tol} at dim={max_dim}",
        previous=before_previous,
        last=previous,
    )

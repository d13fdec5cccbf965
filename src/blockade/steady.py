"""Liouvillian construction, steady-state solver and photon observables.

The master equation used throughout is the standard Lindblad form for a
single decaying mode,

    drho/dt = -i [H, rho] + (kappa/2) (2 a rho a' - a'a rho - rho a'a),

vectorized by column stacking: vec(rho)[i + D*j] = rho[i, j], so that
vec(A rho B) = kron(B.T, A) vec(rho).  The D^2 x D^2 Liouvillian has about
ten nonzeros per row, so it is built as a scipy.sparse matrix on an index
pattern computed once per truncation D; each parameter point only fills in
the data, which is affine in H and kappa.  The steady state is the
unit-trace kernel vector of the Liouvillian, found by replacing one row of
the singular system with the vectorized trace constraint and solving the
resulting square system with SuperLU (partial pivoting).  Truncation is
controlled by re-solving at growing dimension until the observables stop
moving on a log10 scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .fock import FockSpace
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


@functools.lru_cache(maxsize=16)
def _pattern(d: int):
    """Index pattern of the Liouvillian at truncation d, shared by every point.

    Returns (indices, indptr, h_to_data, decay): the CSR index arrays of L
    (sorted, no duplicates, every diagonal entry stored), the sparse map
    from the row-major ravel of H to the data of -i[H, .], and the data of
    the damping superoperator per unit kappa.  H couples number states at
    most two apart (a'a', aa), so only that band of H is read.
    """
    n = np.arange(d)
    ii, kk = np.nonzero(np.abs(n[:, None] - n[None, :]) <= 2)
    spectator = n[:, None]
    # -i H rho puts -i H[i, k] at L[i + d j, k + d j]; i rho H puts +i H[i, k]
    # at L[j + d k, j + d i], for every spectator index j.
    h_rows = np.concatenate([(ii + d * spectator).ravel(), (spectator + d * kk).ravel()])
    h_cols = np.concatenate([(kk + d * spectator).ravel(), (spectator + d * ii).ravel()])
    h_source = np.tile(ii * d + kk, 2 * d)
    h_coeff = np.repeat([-1j, 1j], d * ii.size)
    # kappa a rho a' fills L[r + d s, r+1 + d (s+1)] with sqrt(r+1) sqrt(s+1);
    # -(kappa/2) {a'a, rho} is diagonal, -(r + s)/2 at L[r + d s, r + d s].
    root = np.sqrt(n[1:])
    jump_rows = (n[:-1, None] + d * n[None, :-1]).ravel()
    diag_rows = (n[:, None] + d * n[None, :]).ravel()
    rows = np.concatenate([h_rows, jump_rows, diag_rows])
    cols = np.concatenate([h_cols, jump_rows + d + 1, diag_rows])
    decay_values = np.concatenate(
        [(root[:, None] * root[None, :]).ravel(), -0.5 * (n[:, None] + n[None, :]).ravel()]
    )

    size = d * d
    keys, slot = np.unique(rows.astype(np.int64) * size + cols, return_inverse=True)
    indices = (keys % size).astype(np.int32)
    indptr = np.searchsorted(keys // size, np.arange(size + 1)).astype(np.int32)
    h_to_data = csr_array(
        (h_coeff, (slot[: h_rows.size], h_source)), shape=(keys.size, size)
    )
    decay = np.bincount(slot[h_rows.size :], weights=decay_values, minlength=keys.size)
    for array in (indices, indptr, decay):
        array.setflags(write=False)
    return indices, indptr, h_to_data, decay


def liouvillian(p: SystemParams, space: FockSpace) -> csr_array:
    """Generator L with vec(drho/dt) = L vec(rho) under column stacking.

    A sparse CSR matrix whose index arrays are shared, read-only, by every
    call at the same truncation.
    """
    d = space.dim
    indices, indptr, h_to_data, decay = _pattern(d)
    data = h_to_data @ build_h_eff(p, space).ravel() + p.kappa * decay
    return csr_array((data, indices, indptr), shape=(d * d, d * d))


def steady_state(p: SystemParams, space: FockSpace) -> DensityMatrix:
    """Unique steady state of the master equation at fixed truncation.

    One row of the singular Liouvillian (the one with the smallest sup
    norm) is replaced by the vectorized trace functional, pinning Tr rho = 1;
    the square system A is then solved by sparse LU (SuperLU).  An exactly
    singular factor, or a reciprocal 1-norm condition estimate below 1e-14
    (||A^-1||_1 from onenormest through the factor), raises SteadyStateError
    rather than returning digits that are mostly noise, as does a residual
    above 1e-9 ||L||_inf or a solution that fails the DensityMatrix
    physicality checks.
    """
    d = space.dim
    if d < 3:
        raise ValueError(f"truncation dimension must be at least 3, got {d}")
    big_l = liouvillian(p, space)
    data, indices, indptr = big_l.data, big_l.indices, big_l.indptr
    size = d * d

    # every row stores its diagonal entry, so no row of the pattern is empty
    abs_data = np.abs(data)
    replaced = int(np.argmin(np.maximum.reduceat(abs_data, indptr[:-1])))
    lo, hi = indptr[replaced], indptr[replaced + 1]
    trace_cols = np.arange(d, dtype=indices.dtype) * (d + 1)  # vec index of rho[n, n]
    sys_data = np.concatenate([data[:lo], np.ones(d, dtype=complex), data[hi:]])
    sys_indices = np.concatenate([indices[:lo], trace_cols, indices[hi:]])
    sys_indptr = indptr.copy()
    sys_indptr[replaced + 1 :] += d - (hi - lo)
    rhs = np.zeros(size, dtype=complex)
    rhs[replaced] = 1.0

    # Factor A itself, not A^T from the same arrays: SuperLU's row pivoting on
    # A keeps the small populations of a graded state accurate (g2 to ~1e-15
    # where A^T gave ~1e-9), at the price of one O(nnz) CSR -> CSC copy.
    system = csr_array((sys_data, sys_indices, sys_indptr), shape=(size, size)).tocsc()
    try:
        lu = splu(system)
    except RuntimeError as exc:
        raise SteadyStateError(
            f"singular steady-state system at dim={d}; try a larger truncation "
            f"or different parameters ({exc})"
        ) from exc
    anorm = float(np.max(np.bincount(sys_indices, weights=np.abs(sys_data), minlength=size)))
    inverse = LinearOperator(
        (size, size), matvec=lu.solve, rmatvec=lambda x: lu.solve(x, trans="H"), dtype=complex
    )
    # t=1 is the deterministic Hager-Higham estimator that LAPACK's zgecon uses.
    rcond = 1.0 / (anorm * float(onenormest(inverse, t=1)))
    if not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise SteadyStateError(
            f"steady-state system too ill-conditioned at dim={d} "
            f"(rcond={float(rcond):.2e}); try a larger truncation or different parameters"
        )
    vec = lu.solve(rhs)

    rho = vec.reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.real(np.trace(rho))

    residual = float(np.max(np.abs(big_l @ rho.flatten(order="F"))))
    scale = float(np.max(np.add.reduceat(abs_data, indptr[:-1])))
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

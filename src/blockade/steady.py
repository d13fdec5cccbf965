"""Liouvillian construction, steady-state solver and photon observables.

The master equation used throughout is the standard Lindblad form for a
single decaying mode,

    drho/dt = -i [H, rho] + (kappa/2) (2 a rho a' - a'a rho - rho a'a),

vectorized by column stacking: vec(rho)[i + D*j] = rho[i, j], so that
vec(A rho B) = kron(B.T, A) vec(rho).  The D^2 x D^2 Liouvillian has about
ten nonzeros per row, so it is built as a scipy.sparse matrix on an index
pattern computed once per truncation D; each parameter point only fills in
the data, which is affine in H and kappa.  The steady state is the
unit-trace kernel vector of the Liouvillian, found by replacing row 0 (the
rho_00 equation) of the singular system with the vectorized trace
constraint and solving the square system with SuperLU on a layout cached
per truncation (_system).  Truncation is controlled by re-solving at
growing dimension until the observables stop moving on a log10 scale,
unless the first solve, at D=18, already holds a negligible share of N and
<a'a'aa> in the number states n >= 12 that D=12 cannot represent.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csc_array, csr_array
from scipy.sparse.linalg import splu

from .model import FockSpace, SystemParams, build_h_eff

# Below this mean photon number, g2 is a 0/0 ratio and reported undefined.
PHOTON_FLOOR = 1e-12

# Reciprocal-condition estimate below which the trace-constrained solve is
# declared unreliable.
RCOND_FLOOR = 1e-14

# A D=18 state whose tail share (_tail_share) is below this multiple of tol
# is returned without the D=12 rung; see converged_steady_state.
TAIL_SHARE_BOUND = 1e-3

# Truncation ladder of converged_steady_state and its default settings,
# which the sweep engine and the command line share.
START_DIM = 12
DIM_STEP = 6
DEFAULT_MAX_DIM = 60
DEFAULT_TOL = 1e-3
CERTIFY_DIM = START_DIM + DIM_STEP


class SteadyStateError(RuntimeError):
    """The trace-constrained linear solve failed or is numerically unreliable."""


class ConvergenceError(SteadyStateError):
    """Observables kept moving up to the largest allowed truncation, or the
    point has no steady state to converge to.

    Carries the observable sets of the last two truncations so callers can
    inspect how far apart they still were; both are None for a point
    rejected before any solve (a Kerr-free mode above the gain threshold).
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
    """Steady-state photon statistics, all read off the number-state populations.

    Built from the populations alone (any 1-D float array or sequence, kept
    as a tuple of floats).  Both moments are diagonal in the number basis,
    so N = sum n P(n) and <a'a'aa> = sum n(n-1) P(n), each floored at 0,
    and g2 = <a'a'aa> / N^2.  g2 and the log10 properties are None when
    undefined: g2 requires a mean photon number above the division floor,
    and a log requires a positive argument.
    """

    populations: tuple[float, ...]
    mean_photon: float = field(init=False)
    g2: float | None = field(init=False)

    def __post_init__(self):
        pops = np.asarray(self.populations, dtype=float)
        if np.any(pops < -1e-10) or np.any(pops > 1 + 1e-10):
            raise ValueError("populations outside [0, 1] beyond tolerance")
        if abs(pops.sum() - 1.0) > 1e-9:
            raise ValueError(f"populations sum to {pops.sum()!r}, not 1")
        # on the array as passed: a contiguous copy can round differently
        n_values = np.arange(pops.size, dtype=float)
        mean_photon = max(float(np.dot(n_values, pops)), 0.0)
        two_photon = max(float(np.dot(n_values * (n_values - 1.0), pops)), 0.0)
        g2 = None if mean_photon < PHOTON_FLOOR else two_photon / mean_photon**2
        object.__setattr__(self, "populations", tuple(float(x) for x in pops))
        object.__setattr__(self, "mean_photon", mean_photon)
        object.__setattr__(self, "g2", g2)

    @property
    def lg_n(self) -> float | None:
        return None if self.mean_photon < PHOTON_FLOOR else math.log10(self.mean_photon)

    @property
    def lg_g2(self) -> float | None:
        return math.log10(self.g2) if self.g2 is not None and self.g2 > 0 else None


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


@functools.lru_cache(maxsize=16)
def _system(d: int):
    """Layout of the trace-constrained system at truncation d, shared by every point.

    The system A is L with trace row 0 (the rho_00 equation) swapped for the
    trace functional, so the layout is cached per truncation: for d >= 4 row
    0 has the smallest sup norm of L, max(kappa, F, sqrt(2)|G|), which every
    other row's jump or diagonal, drive and gain entries reach.  A is stored
    as P A P^T, with P the symmetric minimum-degree ordering of A + A^T
    (SuperLU's "symmetric mode"), which fills far less than a fresh COLAMD
    ordering per call.  Returns (order, take, indices, indptr): the
    ordering, so that P A P^T = A[order][:, order]; the CSC index arrays of
    that matrix; and the gather `take`, which reads its data from
    np.append(L.data, 1.0), whose trailing 1 fills every trace-row entry.
    The ordering is computed from the pattern alone (a probe with unit
    entries and a dominant diagonal), so it does not depend on which point
    is solved first.
    """
    indices, indptr, _, _ = _pattern(d)
    size = d * d
    first = indptr[1]  # row 0's entries, which the trace row replaces, come first
    rows = np.concatenate([np.repeat(np.arange(1, size), np.diff(indptr[1:])), np.zeros(d, int)])
    cols = np.concatenate([indices[first:], np.arange(d) * (d + 1)])  # vec index of rho[n, n]
    source = np.concatenate([np.arange(first, indices.size), np.full(d, indices.size)])

    # A row of L holds at most nine off-diagonal entries and the trace row d,
    # so a diagonal of 4d makes the probe strictly dominant, hence nonsingular.
    diag = np.arange(size)
    probe_values = np.concatenate([np.ones(rows.size), np.full(size, 4.0 * d)])
    probe_rows, probe_cols = np.concatenate([rows, diag]), np.concatenate([cols, diag])
    probe = csc_array((probe_values, (probe_rows, probe_cols)), shape=(size, size))
    with _one_blas_thread():
        position = splu(probe, permc_spec="MMD_AT_PLUS_A").perm_c  # new index of each old one
    order = np.argsort(position)

    sys_rows, sys_cols = position[rows], position[cols]
    sort = np.argsort(sys_cols.astype(np.int64) * size + sys_rows)
    take = source[sort]
    sys_indices = sys_rows[sort].astype(np.int32)
    sys_indptr = np.searchsorted(sys_cols[sort], np.arange(size + 1)).astype(np.int32)
    for array in (order, take, sys_indices, sys_indptr):
        array.setflags(write=False)
    return order, take, sys_indices, sys_indptr


_TINY = np.finfo(float).tiny  # smallest normal double


def _inverse_norm_estimate(lu, n: int) -> float:
    """Lower bound on ||A^-1||_1 from the SuperLU factor lu of the n x n A.

    Hager's estimator as given by Higham & Tisseur, SIAM J. Matrix Anal.
    Appl. 21, 1185 (2000), alg. 2.4, with one column (t=1) and at most five
    iterations: the deterministic estimator LAPACK's zgecon uses.  It solves
    with A and A^H straight on the factor and repeats scipy's
    onenormest(t=1) step for step (start vector, sign rounding, the
    unconjugated parallel-sign test, the exits and argsort's tie-breaking),
    so it returns the same float without a LinearOperator around the factor.
    Where onenormest would iterate on NaN, it does not: a solve that
    overflows returns inf at once (for the rcond guard to reject), and a
    subnormal entry, whose y / |y| overflows, rounds to sign 1 like a zero.
    """
    x = np.full(n, 1.0 / n)
    for k in range(1, 7):  # iteration 6 always returns
        y = lu.solve(x)
        magnitude = np.abs(y)
        est = magnitude.sum()
        if not math.isfinite(est):
            return math.inf
        if k > 1 and est <= est_old:
            return float(est_old)
        if k > 5:
            return float(est)
        zero = magnitude < _TINY
        signs = np.where(zero, 1.0, y) / np.where(zero, 1.0, magnitude)
        if k > 1 and np.dot(signs, signs_old) == n:  # the signs repeat
            return float(est)
        h = np.abs(lu.solve(signs, trans="H"))
        if k > 1 and h.max() == h[best]:  # no other unit vector promises more
            return float(est)
        best = np.argsort(h)[::-1][0]
        x = np.zeros(n)
        x[best] = 1.0
        est_old, signs_old = est, signs


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS mapped into the process.

    SuperLU's dense kernels run on scipy's bundled OpenBLAS, which threads
    them from about D=48 on.  On two cores a threaded D=48-60 factor took
    twice the CPU time of a one-thread factor and no less wall time, and
    its wall time grew tenfold while another process held a core.  Found
    through /proc/self/maps, so off Linux, or with another BLAS, nothing is
    found and the solver leaves the thread count alone.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)  # already loaded, so this only returns its handle
        except OSError:  # e.g. a mapped file since deleted
            continue
        # scipy's and numpy's wheels prefix the symbols with scipy_; numpy's
        # 64-bit-integer copies suffix them with 64_
        for prefix, suffix in (("scipy_", ""), ("scipy_", "64_"), ("", ""), ("", "64_")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                controls.append((get, set_))  # ctypes' default int signature fits both
                break
    return tuple(controls)


_BLAS_HOLD = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS in the process to one thread, restoring the counts on exit.

    The lock keeps concurrent solves from restoring each other's counts;
    SuperLU holds the GIL while it factors, so it costs no parallelism.
    """
    controls = _openblas_thread_controls()
    with _BLAS_HOLD:
        counts = [get() for get, _ in controls]
        for _, set_ in controls:
            set_(1)
        try:
            yield
        finally:
            for (_, set_), count in zip(controls, counts):
                set_(count)


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

    Row 0 of the singular Liouvillian (the rho_00 equation) is swapped for
    the vectorized trace functional, pinning Tr rho = 1, and the square
    system A is solved by sparse LU (SuperLU) while every OpenBLAS in the
    process is held to one thread (counts restored on return).  A system
    that overflows double precision, an exactly singular factor, or a
    reciprocal 1-norm condition estimate below 1e-14 raises SteadyStateError
    rather than returning digits that are mostly noise, as does a residual
    above 1e-9 ||L||_inf or an unphysical DensityMatrix.
    """
    d = space.dim
    if d < 3:
        raise ValueError(f"truncation dimension must be at least 3, got {d}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        big_l = liouvillian(p, space)
    data, indptr = big_l.data, big_l.indptr
    size = d * d

    # every row stores its diagonal entry, so no row of the pattern is empty
    abs_data = np.abs(data)
    scale = float(np.max(np.add.reduceat(abs_data, indptr[:-1])))  # ||L||_inf
    if not math.isfinite(scale):
        raise SteadyStateError(
            f"steady-state system at dim={d} overflows double precision; "
            f"try smaller parameters"
        )
    order, take, sys_indices, sys_indptr = _system(d)
    sys_data = np.append(data, 1.0)[take]
    # Factor P A P^T itself, not its transpose: row pivoting on A keeps the
    # small populations of a graded state accurate (g2 to ~1e-15 where A^T
    # gave ~1e-9).  The pivot threshold keeps the ordering's diagonal pivot
    # wherever it is within a factor 100 of its column's largest candidate.
    # Relaxing only subtrees of at most 4 columns into supernodes (SuperLU's
    # default merges larger ones) keeps the fill and saves 15-30% of the
    # factor time up to D=36.  Panels of one column: a wider panel buys
    # BLAS-3 reuse only across wide supernodes, which these never are, and
    # its work arrays cost ~100 page faults per call on the hot path.
    system = csc_array((sys_data, sys_indices, sys_indptr), shape=(size, size))
    # one BLAS thread: see _openblas_thread_controls
    with _one_blas_thread():
        try:
            lu = splu(
                system, permc_spec="NATURAL", diag_pivot_thresh=0.01, relax=4, panel_size=1
            )
        except RuntimeError as exc:
            raise SteadyStateError(
                f"singular steady-state system at dim={d}; try a larger truncation "
                f"or different parameters ({exc})"
            ) from exc
        # ||A||_1 read off P A P^T, which has the same 1-norm (as does its
        # inverse); every column holds an entry of H's band, so none is empty
        anorm = float(np.max(np.add.reduceat(np.append(abs_data, 1.0)[take], sys_indptr[:-1])))
        rcond = 1.0 / (anorm * _inverse_norm_estimate(lu, size))
        if not np.isfinite(rcond) or rcond < RCOND_FLOOR:
            raise SteadyStateError(
                f"steady-state system too ill-conditioned at dim={d} "
                f"(rcond={float(rcond):.2e}); try a larger truncation or different parameters"
            )
        vec = np.empty(size, dtype=complex)
        vec[order] = lu.solve((order == 0).astype(complex))

    rho = vec.reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.real(np.trace(rho))

    residual = float(np.max(np.abs(big_l @ rho.flatten(order="F"))))
    if residual > 1e-9 * scale:
        raise SteadyStateError(
            f"steady-state residual {residual:.3e} exceeds 1e-9 * ||L|| at dim={d}"
        )
    try:
        return DensityMatrix(dim=d, entries=rho)
    except ValueError as exc:
        raise SteadyStateError(f"unphysical steady state at dim={d}: {exc}") from exc


def observables(rho: DensityMatrix) -> Observables:
    """Mean photon number, g2(0), their base-10 logs and the populations."""
    return Observables(np.real(np.diag(rho.entries)))


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


def _tail_share(obs: Observables) -> float:
    """Largest share of N = sum n P(n) and of <a'a'aa> = sum n(n-1) P(n)
    held by the number states n >= START_DIM, which the first rung cannot
    represent.  Tail populations count by magnitude, so solver noise never
    lowers the share.  Needs both moments positive (obs.lg_g2 defined)."""
    pops = np.asarray(obs.populations)
    n = np.arange(pops.size, dtype=float)
    return max(
        float(np.dot(w[START_DIM:], np.abs(pops[START_DIM:])) / np.dot(w, pops))
        for w in (n, n * (n - 1.0))
    )


def _rung(p: SystemParams, dim: int) -> tuple[DensityMatrix, Observables]:
    rho = steady_state(p, FockSpace(dim))
    try:
        return rho, observables(rho)
    except ValueError as exc:
        raise SteadyStateError(f"unphysical observables at dim={dim}: {exc}") from exc


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
    One-rung rule: when max_dim >= 18, the D=18 state is solved first and
    returned at once if lg N and lg g2 are defined and the share of N and of
    <a'a'aa> held by its number states n >= 12 is below 1e-3 * tol (strictly,
    so tol = 0 never accepts it); otherwise the ladder runs from 12 as above,
    reusing that solve at its D=18 rung, with the same outcome as without it.
    Raises ConvergenceError (carrying the last two observable sets, naming
    the last dimension solved) if the ladder ends without settling, the
    guaranteed outcome of tol = 0; a NaN or negative tol is a ValueError.
    Without Kerr (u = 0) the linearised mode grows once the parametric
    gain reaches 2|g| >= sqrt(delta^2 + kappa^2/4), so there is no steady
    state; such a point raises ConvergenceError (previous and last None)
    before any solve.  Kerr points are bounded and always solved.
    Observables that fail their own checks raise SteadyStateError.
    """
    if max_dim < START_DIM:
        raise ValueError(f"max_dim={max_dim} is below the starting dimension {START_DIM}")
    if not tol >= 0:
        raise ValueError(f"tol must be a non-negative number, got {tol}")
    threshold = math.hypot(p.delta, 0.5 * p.kappa)
    if p.u == 0.0 and 2.0 * abs(p.g) >= threshold:
        raise ConvergenceError(
            f"no steady state: without Kerr the gain 2|g| = {2.0 * abs(p.g):.6g} reaches "
            f"the threshold sqrt(delta^2 + kappa^2/4) = {threshold:.6g}"
        )

    ahead = None  # the CERTIFY_DIM rung, solved before the ladder
    if max_dim >= CERTIFY_DIM:
        with contextlib.suppress(SteadyStateError):  # the ladder meets it on its own terms
            ahead = _rung(p, CERTIFY_DIM)
    if ahead is not None:
        rho, obs = ahead
        # lg_g2 is defined only if N >= PHOTON_FLOOR and g2 > 0
        if obs.lg_g2 is not None and _tail_share(obs) < TAIL_SHARE_BOUND * tol:
            return rho, obs, CERTIFY_DIM

    previous: Observables | None = None
    before_previous: Observables | None = None
    for dim in range(START_DIM, max_dim + 1, DIM_STEP):
        rho, obs = ahead if dim == CERTIFY_DIM and ahead is not None else _rung(p, dim)
        if obs.mean_photon < PHOTON_FLOOR:
            return rho, obs, dim
        if previous is not None and _lg_gap(previous, obs) < tol:
            return rho, obs, dim
        before_previous = previous
        previous = obs
    raise ConvergenceError(
        f"observables not settled to tol={tol} at dim={dim}",
        previous=before_previous,
        last=previous,
    )

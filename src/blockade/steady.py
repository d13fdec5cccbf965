"""Liouvillian construction, steady-state solver and photon observables.

The master equation used throughout is the standard Lindblad form for a
single decaying mode,

    drho/dt = -i [H, rho] + (kappa/2) (2 a rho a' - a'a rho - rho a'a),

vectorized by column stacking: vec(rho)[i + D*j] = rho[i, j], so that
vec(A rho B) = kron(B.T, A) vec(rho).  The D^2 x D^2 Liouvillian has about
ten nonzeros per row, so it is built as a scipy.sparse matrix on an index
pattern computed once per truncation D and gain band; each parameter point
only fills in the data, which is affine in H and kappa.  A point without
parametric gain (g == 0) has an empty a'a', aa band, so its pattern leaves
that band out, and SuperLU orders and fills only the entries it has.  The
steady state is the unit-trace kernel vector of the Liouvillian, found by
replacing row 0 (the rho_00 equation) of the singular system with the
vectorized trace constraint and solving the square system with SuperLU on
a layout cached per truncation and gain band (_layout).  Truncation is
controlled by re-solving at growing dimension until the observables stop
moving on a log10 scale, unless the first solve, at D=18, already holds a
negligible share of N and <a'a'aa> in the number states n >= 12 that D=12
cannot represent.

Every solve goes through one batch engine (converge_batch): up to BATCH
points walk the one ladder together, and at each truncation the points
still climbing are solved as one batch (_rung).  A batch fills the data of
all its Liouvillians in one sparse product and makes its norms,
residuals, physicality checks, observables and tail shares as operations
on one stack; only the SuperLU factor, its condition estimate and the
answer's solve are made point by point.  Gain-free and gained points walk
the ladder as two sub-batches, one per layout.  A point leaves its batch
once its outcome is known, and every outcome is the same, bit for bit,
whatever else shares the batch; converged_steady_state and steady_state
are the one-point cases.
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

# build_h_eff is not called here; bench/tracing.py looks it up on this module.
from .model import SystemParams, build_h_eff, check_dim, h_eff_stack  # noqa: F401

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

# Most points converge_batch solves together.  Batches of 8, 12 and 16 map
# points solved equally fast per point; the batch's arrays grow with it.
BATCH = 8


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


def _trusted(cls, **fields):
    """An instance of the frozen dataclass cls holding fields, made without
    its __post_init__: for values a batch has already checked."""
    instance = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(instance, name, value)
    return instance


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
        check_dim(self.dim)
        entries = np.array(self.entries, dtype=complex)
        if entries.shape != (self.dim, self.dim):
            raise ValueError(f"entries must be {self.dim}x{self.dim}, got {entries.shape}")
        (defect,) = _unphysical(entries[None])
        if defect is not None:
            raise ValueError(defect)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


def _unphysical(stack: np.ndarray) -> list[str | None]:
    """Why each matrix of the (B, d, d) stack is no DensityMatrix, or None.

    The checks run in DensityMatrix's order (finite, Hermitian, unit trace,
    smallest eigenvalue), each matrix failing at its first; one eigvalsh
    call covers every matrix that reaches the last.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite entries fail first
        finite = np.isfinite(stack).all(axis=(1, 2))
        herm = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        trace = np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0)
    spectral = finite & (herm <= 1e-10) & (trace <= 1e-10)
    min_eig = np.zeros(len(stack))
    min_eig[spectral] = np.linalg.eigvalsh(stack[spectral])[:, 0]
    defects = []
    for ok, herm_defect, trace_defect, eig in zip(finite, herm, trace, min_eig):
        if not ok:
            defects.append("entries must be finite")
        elif herm_defect > 1e-10:
            defects.append(f"not Hermitian: max |rho - rho'| = {herm_defect:.3e}")
        elif trace_defect > 1e-10:
            defects.append(f"trace differs from 1 by {trace_defect:.3e}")
        elif eig < -1e-8:
            defects.append(f"not positive semidefinite: min eigenvalue {eig:.3e}")
        else:
            defects.append(None)
    return defects


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
        (checked,) = _observables(np.asarray(self.populations, dtype=float)[None])
        if isinstance(checked, ValueError):
            raise checked
        for name in ("populations", "mean_photon", "g2"):
            object.__setattr__(self, name, getattr(checked, name))

    @property
    def lg_n(self) -> float | None:
        return None if self.mean_photon < PHOTON_FLOOR else math.log10(self.mean_photon)

    @property
    def lg_g2(self) -> float | None:
        return math.log10(self.g2) if self.g2 is not None and self.g2 > 0 else None


def _row_dots(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The dot product of each row with weights, rounded as np.dot(row,
    weights) rounds it: a stack of vector products, which a matrix-vector
    product is not."""
    return (rows[:, None, :] @ weights[:, None])[:, 0, 0]


def _observables(pops: np.ndarray) -> list:
    """Observables of each row of the (B, n) populations, or the ValueError
    that rejects the row (unraised)."""
    n_values = np.arange(pops.shape[1], dtype=float)
    in_range = ((pops >= -1e-10) & (pops <= 1 + 1e-10)).all(axis=1)  # NaN fails too
    totals = pops.sum(axis=1)
    # on the rows as passed: a contiguous copy can round differently
    with np.errstate(invalid="ignore", over="ignore"):  # such rows are out of range
        means = _row_dots(pops, n_values).tolist()
        two_photon = _row_dots(pops, n_values * (n_values - 1.0)).tolist()
    out = []
    for row, ok, total, mean, two in zip(pops.tolist(), in_range, totals, means, two_photon):
        if not ok:
            out.append(ValueError("populations outside [0, 1] beyond tolerance"))
        elif abs(total - 1.0) > 1e-9:
            out.append(ValueError(f"populations sum to {total!r}, not 1"))
        else:
            mean, two = max(mean, 0.0), max(two, 0.0)
            g2 = None if mean < PHOTON_FLOOR else two / mean**2
            out.append(_trusted(Observables, populations=tuple(row), mean_photon=mean, g2=g2))
    return out


def _has_gain(points) -> bool:
    """Whether any of the points has parametric gain, which fills H's
    a'a', aa band: the _layout key of their batch."""
    return any(p.g != 0.0 for p in points)


# One layout per rung of the default ladder, for each gain band.
@functools.lru_cache(maxsize=2 * len(range(START_DIM, DEFAULT_MAX_DIM + 1, DIM_STEP)))
def _layout(d: int, gain: bool):
    """Index layout of L and of the trace-constrained system at truncation d.

    Shared by every point of the gain band.  H couples number states at
    most two apart (a'a', aa) when gain is true and at most one apart (a',
    a) when it is false, so only that band of H is read.  Without gain the
    band two apart is exactly zero: storing it would change no entry of
    the system, but the ordering and SuperLU's factor would carry fill
    around it (without it a gain-free factor holds 0.70-0.83 of that fill
    at D=12-60 and factors 1.4-2.4x faster), so it is left out.  The
    system A is L with row 0 (the rho_00 equation) swapped for the trace
    functional, so its layout is cached with L's: for d >= 4 row 0 has the
    smallest sup norm of L, max(kappa, F, sqrt(2)|G|), which every other
    row's jump or diagonal, drive and gain entries reach.  A is stored as
    P A P^T, with P the symmetric minimum-degree ordering of A + A^T
    (SuperLU's "symmetric mode"), which fills far less than a fresh COLAMD
    ordering per call.  The ordering is computed from the pattern alone (a
    probe with unit entries and a dominant diagonal), so it does not
    depend on which point is solved first.

    Returns (indices, indptr, h_to_data, decay, order, take, sys_indices,
    sys_indptr, rhs): the CSR index arrays of L (sorted, no duplicates,
    every diagonal entry stored); the sparse map from the row-major ravel
    of H to the data of -i[H, .]; the data of the damping superoperator per
    unit kappa; the ordering, so that P A P^T = A[order][:, order]; the
    gather `take`, which reads that matrix's data from np.append(L.data,
    kappa), whose trailing kappa fills every trace-row entry; its CSC index
    arrays; and the right-hand side P e_0.  All but h_to_data are read-only.
    """
    n = np.arange(d)
    ii, kk = np.nonzero(np.abs(n[:, None] - n[None, :]) <= (2 if gain else 1))
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
    rhs = (order == 0).astype(complex)
    for array in (indices, indptr, decay, order, take, sys_indices, sys_indptr, rhs):
        array.setflags(write=False)
    return indices, indptr, h_to_data, decay, order, take, sys_indices, sys_indptr, rhs


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


def _liouvillian_data(points, d: int) -> np.ndarray:
    """The data of L for each of the points, a (B, nnz) array in the CSR
    order of _layout(d, _has_gain(points)): one sparse product for the stack
    of Hamiltonians, plus kappa times the damping."""
    h_stack = h_eff_stack(points, d).reshape(len(points), d * d)  # checks d before _layout
    _, _, h_to_data, decay, *_ = _layout(d, _has_gain(points))
    data = np.empty((len(points), decay.size), dtype=complex)
    np.multiply.outer([p.kappa for p in points], decay, out=data)
    data += (h_to_data @ h_stack.T).T
    return data


def liouvillian(p: SystemParams, dim: int) -> csr_array:
    """Generator L with vec(drho/dt) = L vec(rho) under column stacking, at truncation dim.

    A sparse CSR matrix whose index arrays are shared, read-only, by every
    call at the same truncation and gain band.  Without gain (p.g == 0) the
    pattern stores no entry of the a'a', aa band, which is zero (_layout).
    """
    (data,) = _liouvillian_data([p], dim)
    indices, indptr, *_ = _layout(dim, _has_gain([p]))
    return csr_array((data, indices, indptr), shape=(dim * dim, dim * dim))


def _failure(message: str, cause: Exception | None = None) -> SteadyStateError:
    """A point's SteadyStateError, made but not raised, with a cause whose
    traceback is dropped: a traceback would hold the batch's frame, its
    factors and the error itself in a reference cycle."""
    error = SteadyStateError(message)
    if cause is not None:
        error.__cause__ = cause.with_traceback(None)
    return error


def _factor_and_solve(data: np.ndarray, kappa: list, scale: list, d: int, gain: bool):
    """Solve the trace-constrained system of each row of L data (CSR order
    of _layout(d, gain)) one by one, on one system matrix whose data is swapped.

    Returns (errors, vecs): per row None, or the SteadyStateError that
    rejects it (unraised), and the unnormalised vec(rho) of each solved row.
    """
    *_, order, take, sys_indices, sys_indptr, rhs = _layout(d, gain)
    size = d * d
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        # weighting the trace row by L's mean |entry| instead (QuTiP's choice) put
        # the small populations of graded states off: fig4d's weak-drive g2 by 4e-7
        sys_data = data.take(take, axis=1, mode="clip")
        sys_data[:, take == data.shape[1]] = np.array(kappa)[:, None]  # index nnz: kappa
        # ||A||_1 read off P A P^T, which has the same 1-norm (as does its
        # inverse); every column holds an entry of H's band, so none is empty
        anorm = np.add.reduceat(np.abs(sys_data), sys_indptr[:-1], axis=1).max(axis=1).tolist()

    # Factor P A P^T itself, not its transpose: row pivoting on A keeps the
    # small populations of a graded state accurate (g2 to ~1e-15 where A^T
    # gave ~1e-9).  The pivot threshold keeps the ordering's diagonal pivot
    # wherever it is within a factor 100 of its column's largest candidate.
    # Relaxing only subtrees of at most 4 columns into supernodes (SuperLU's
    # default merges larger ones) keeps the fill and saves 15-30% of the
    # factor time up to D=36.  Panels of one column: a wider panel buys
    # BLAS-3 reuse only across wide supernodes, which these never are, and
    # its work arrays cost ~100 page faults per call on the hot path.
    errors: list = [None] * len(data)
    vecs = np.zeros((len(data), size), dtype=complex)
    system = csc_array((sys_data[0], sys_indices, sys_indptr), shape=(size, size))
    # one BLAS thread: see _openblas_thread_controls
    with _one_blas_thread():
        for i, row in enumerate(sys_data):
            if not math.isfinite(scale[i]):
                errors[i] = _failure(
                    f"steady-state system at dim={d} overflows double precision; "
                    f"try smaller parameters"
                )
                continue
            system.data = row
            try:
                lu = splu(
                    system, permc_spec="NATURAL", diag_pivot_thresh=0.01, relax=4, panel_size=1
                )
            except RuntimeError as exc:
                errors[i] = _failure(
                    f"singular steady-state system at dim={d}; try a larger truncation "
                    f"or different parameters ({exc})",
                    exc,
                )
                continue
            rcond = 1.0 / (anorm[i] * _inverse_norm_estimate(lu, size))
            if not np.isfinite(rcond) or rcond < RCOND_FLOOR:
                errors[i] = _failure(
                    f"steady-state system too ill-conditioned at dim={d} "
                    f"(rcond={float(rcond):.2e}); try a larger truncation or different parameters"
                )
                continue
            vecs[i, order] = lu.solve(rhs)
    return errors, vecs


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


def _tail_shares(pops: np.ndarray) -> np.ndarray:
    """Largest share of N = sum n P(n) and of <a'a'aa> = sum n(n-1) P(n)
    held by the number states n >= START_DIM, which the first rung cannot
    represent, for each row of the (B, n) populations.  Tail populations
    count by magnitude, so solver noise never lowers the share.  Meaningful
    where both moments are positive (lg_g2 defined)."""
    pops = np.ascontiguousarray(pops)
    n = np.arange(pops.shape[1], dtype=float)
    tail = np.abs(pops[:, START_DIM:])
    with np.errstate(divide="ignore", invalid="ignore"):
        n_share, pair_share = (
            _row_dots(tail, w[START_DIM:]) / _row_dots(pops, w) for w in (n, n * (n - 1.0))
        )
    return np.maximum(n_share, pair_share)


def _rung(points, d: int) -> list:
    """The batched rung: for each of the points, (rho, obs, tail share) at
    truncation d, or the SteadyStateError that rejects it (unraised).

    The batch's Liouvillian data, norms, residuals, physicality checks,
    observables and tail shares are operations on one contiguous stack; only
    the factor, its condition estimate and the answer's solve are made
    point by point (_factor_and_solve).  The batch is solved on the
    gain-free layout only if none of its points has gain, so a point's
    result depends on its batch mates unless they are all of its kind.
    """
    check_dim(d)
    if d < 3:
        raise ValueError(f"truncation dimension must be at least 3, got {d}")
    gain = _has_gain(points)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        data = _liouvillian_data(points, d)
        indices, indptr, *_ = _layout(d, gain)
        # every row stores its diagonal entry, so no row of the pattern is empty
        scale = np.add.reduceat(np.abs(data), indptr[:-1], axis=1).max(axis=1).tolist()  # ||L||_inf
    results, vecs = _factor_and_solve(data, [p.kappa for p in points], scale, d, gain)

    solved = [i for i, error in enumerate(results) if error is None]
    if not solved:
        return results
    # row-major, each vec(rho) reads as rho^T
    rho = vecs[solved].reshape(-1, d, d).transpose(0, 2, 1)
    rho = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    rho = np.ascontiguousarray(rho / np.real(np.trace(rho, axis1=1, axis2=2))[:, None, None])
    rho.setflags(write=False)
    # each row has the stride of a single DensityMatrix's diagonal, so its
    # moments round as observables(rho) would
    pops = np.diagonal(rho, axis1=1, axis2=2).real
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite state fails its checks
        # max |L vec(rho)|: each L entry times the vec(rho) entry it multiplies
        products = rho.transpose(0, 2, 1).reshape(len(solved), d * d).take(indices, axis=1)
        products *= data if len(solved) == len(points) else data[solved]
        residuals = np.abs(np.add.reduceat(products, indptr[:-1], axis=1)).max(axis=1).tolist()
        checked = _unphysical(rho), _observables(pops), _tail_shares(pops).tolist()
    for j, (i, residual, defect, obs, share) in enumerate(zip(solved, residuals, *checked)):
        if residual > 1e-9 * scale[i]:
            results[i] = _failure(f"steady-state residual {residual:.3e} exceeds 1e-9 * ||L|| at dim={d}")
        elif defect is not None:
            results[i] = _failure(f"unphysical steady state at dim={d}: {defect}", ValueError(defect))
        elif isinstance(obs, ValueError):
            results[i] = _failure(f"unphysical observables at dim={d}: {obs}", obs)
        else:
            results[i] = _trusted(DensityMatrix, dim=d, entries=rho[j]), obs, share
    return results


def steady_state(p: SystemParams, dim: int) -> DensityMatrix:
    """Unique steady state of the master equation at truncation dim (at least 3).

    Row 0 of the singular Liouvillian (the rho_00 equation) is swapped for
    the vectorized trace functional times kappa, so that A scales with the
    rates and no guard depends on the unit of time, and the square system A
    is solved by sparse LU (SuperLU) while every OpenBLAS in the process is
    held to one thread (counts restored on return).  A system that
    overflows double precision, an exactly singular factor, or a reciprocal
    1-norm condition estimate below 1e-14 raises SteadyStateError rather
    than returning digits that are mostly noise, as does a residual above
    1e-9 ||L||_inf, an unphysical DensityMatrix, or populations that
    Observables rejects.  The one-point _rung.
    """
    results = _rung([p], dim)
    if isinstance(results[0], SteadyStateError):
        raise results.pop()  # popped: a local holding it would cycle through its traceback
    return results[0][0]


def check_ladder(tol: float, max_dim: int) -> None:
    """Reject, as a ValueError, a tol or max_dim no ladder can run on."""
    if max_dim < START_DIM:
        raise ValueError(f"max_dim={max_dim} is below the starting dimension {START_DIM}")
    if not tol >= 0:
        raise ValueError(f"tol must be a non-negative number, got {tol}")


def converge_batch(points, tol: float = DEFAULT_TOL, *, max_dim: int = DEFAULT_MAX_DIM) -> list:
    """converged_steady_state for each of at most BATCH points, solved together.

    Returns, for each point, (rho, obs, dim) or the SteadyStateError it
    would raise, unraised.  Every point follows the same ladder, so the
    batch walks it once per gain band (_layout): the gain-free points and
    the gained points each as a sub-batch, in which each step solves the
    points still climbing as one _rung, and a point leaves as soon as its
    outcome is known.  A NaN or negative tol, or a max_dim below 12, is a
    ValueError.
    """
    check_ladder(tol, max_dim)
    if len(points) > BATCH:
        raise ValueError(f"a batch holds at most {BATCH} points, got {len(points)}")
    outcomes: list = [None] * len(points)
    for i, p in enumerate(points):
        threshold = math.hypot(p.delta, 0.5 * p.kappa)
        if p.u == 0.0 and 2.0 * abs(p.g) >= threshold:
            outcomes[i] = ConvergenceError(
                f"no steady state: without Kerr the gain 2|g| = {2.0 * abs(p.g):.6g} reaches "
                f"the threshold sqrt(delta^2 + kappa^2/4) = {threshold:.6g}"
            )
    for gain in (False, True):  # one sub-batch per layout
        live = [i for i, outcome in enumerate(outcomes) if outcome is None and _has_gain([points[i]]) == gain]

        ahead = {}
        if live and max_dim >= CERTIFY_DIM:
            ahead = dict(zip(live, _rung([points[i] for i in live], CERTIFY_DIM)))
            for i, result in ahead.items():
                # a failure is returned again at the ladder's D=18 rung, unless it stops at 12
                if isinstance(result, SteadyStateError):
                    continue
                rho, obs, share = result
                # lg_g2 is defined only if N >= PHOTON_FLOOR and g2 > 0
                if obs.lg_g2 is not None and share < TAIL_SHARE_BOUND * tol:
                    outcomes[i] = rho, obs, CERTIFY_DIM
            live = [i for i in live if outcomes[i] is None]

        last_two = dict.fromkeys(live, (None, None))  # each point's last two Observables
        for dim in range(START_DIM, max_dim + 1, DIM_STEP):
            if not live:
                break
            results = [ahead[i] for i in live] if dim == CERTIFY_DIM else _rung([points[i] for i in live], dim)
            for i, result in zip(live, results):
                if isinstance(result, SteadyStateError):
                    outcomes[i] = result
                    continue
                rho, obs, _ = result
                previous = last_two[i][1]
                if obs.mean_photon < PHOTON_FLOOR or (previous is not None and _lg_gap(previous, obs) < tol):
                    outcomes[i] = rho, obs, dim
                last_two[i] = previous, obs
            live = [i for i in live if outcomes[i] is None]
        for i in live:
            outcomes[i] = ConvergenceError(f"observables not settled to tol={tol} at dim={dim}", *last_two[i])
    return outcomes


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
    reusing that solve or its failure at its D=18 rung, with the same outcome
    as without it.
    Raises ConvergenceError (carrying the last two observable sets, naming
    the last dimension solved) if the ladder ends without settling, the
    guaranteed outcome of tol = 0; a NaN or negative tol is a ValueError.
    Without Kerr (u = 0) the linearised mode grows once the parametric
    gain reaches 2|g| >= sqrt(delta^2 + kappa^2/4), so there is no steady
    state; such a point raises ConvergenceError (previous and last None)
    before any solve.  Kerr points are bounded and always solved.
    Observables that fail their own checks raise SteadyStateError.
    The one-point case of converge_batch.
    """
    outcomes = converge_batch([p], tol, max_dim=max_dim)
    if isinstance(outcomes[0], SteadyStateError):
        raise outcomes.pop()  # popped: a local holding it would cycle through its traceback
    return outcomes[0]

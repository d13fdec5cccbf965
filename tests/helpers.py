"""Shared test oracles, kept deliberately independent of the solver internals."""

import cmath
import math
from collections import defaultdict

import numpy as np
from hypothesis import strategies as st

import blockade.steady
from blockade.analytic import DEGENERACY_FLOOR, AmplitudeSet, DegenerateParametersError
from blockade.model import SystemParams, build_h_eff
from blockade.steady import (
    DEFAULT_MAX_DIM,
    DEFAULT_TOL,
    DIM_STEP,
    PHOTON_FLOOR,
    START_DIM,
    ConvergenceError,
    Observables,
    SteadyStateError,
)


def ladder(dim):
    """Dense annihilation operator on number states 0..dim-1: sqrt(n) at (n-1, n)."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def reference_observables(rho):
    """(mean_photon, g2, lg_n, lg_g2, populations) by the arithmetic that
    steady.observables used before Observables derived them itself: both
    moments are dot products over the strided diagonal view of rho."""
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
    return mean_photon, g2, lg_n, lg_g2, tuple(float(x) for x in pops)


def amplitudes_linear_solve(p):
    """Steady truncated amplitudes by solving the 2x2 stationarity system directly.

    With C0 = 1, stationarity of C1 and C2 under the non-Hermitian
    Hamiltonian reads

      F e^{i phi}            + (delta - i kappa/2) C1 + sqrt(2) F e^{-i phi} C2 = 0
      i sqrt(2) G + sqrt(2) F e^{i phi} C1 + (2 delta - i kappa + 2 u) C2       = 0

    Kept deliberately independent of the closed forms in blockade.analytic,
    so the two routes cross-check each other.
    """
    phase = cmath.exp(1j * p.phi)
    matrix = np.array(
        [
            [p.delta - 0.5j * p.kappa, math.sqrt(2.0) * p.f / phase],
            [math.sqrt(2.0) * p.f * phase, 2.0 * p.delta - 1j * p.kappa + 2.0 * p.u],
        ],
        dtype=complex,
    )
    rhs = np.array([-p.f * phase, -1j * math.sqrt(2.0) * p.g], dtype=complex)
    det = matrix[0, 0] * matrix[1, 1] - matrix[0, 1] * matrix[1, 0]
    if abs(det) <= DEGENERACY_FLOOR:
        raise DegenerateParametersError(
            f"truncated amplitude system is singular (|det| = {abs(det):.3e})"
        )
    c1, c2 = np.linalg.solve(matrix, rhs)
    return AmplitudeSet(c1=complex(c1), c2=complex(c2))


def dense_liouvillian(params, dim):
    """Dense Liouvillian written straight from the master equation,

        drho/dt = -i [H, rho] + (kappa/2) (2 a rho a' - a'a rho - rho a'a),

    with vec(A rho B) = kron(B.T, A) vec(rho) under column stacking.  It
    shares only build_h_eff with the solver, not its sparse pattern.
    """
    a = ladder(dim)
    n_op = a.conj().T @ a
    h = build_h_eff(params, dim)
    eye = np.eye(dim, dtype=complex)
    unitary = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    decay = 0.5 * params.kappa * (
        2.0 * np.kron(a.conj(), a) - np.kron(eye, n_op) - np.kron(n_op.T, eye)
    )
    return unitary + decay


def rk4_steady(params, dim, t_final=None):
    """Brute-force steady state: integrate vec(drho/dt) = L vec(rho) from the
    vacuum with fixed-step classical RK4 until transients have decayed.

    The step 1/||L||_inf keeps the scheme stable, and for a linear system the
    RK4 fixed point coincides with the kernel of L, so by t = 50/kappa the
    result agrees with the true steady state far below the 1e-6 comparison
    tolerance.  Returns the raw density matrix as an ndarray.
    """
    gen = dense_liouvillian(params, dim)
    if t_final is None:
        t_final = 50.0 / params.kappa
    dt = 1.0 / np.linalg.norm(gen, np.inf)
    steps = int(math.ceil(t_final / dt))
    dt = t_final / steps

    x = np.zeros(dim * dim, dtype=complex)
    x[0] = 1.0  # vec(|0><0|)
    # one BLAS thread: a threaded product of these sizes slows sharply
    # while another process holds a core
    with blockade.steady._one_blas_thread():
        for _ in range(steps):
            k1 = gen @ x
            k2 = gen @ (x + 0.5 * dt * k1)
            k3 = gen @ (x + 0.5 * dt * k2)
            k4 = gen @ (x + dt * k3)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    rho = x.reshape((dim, dim), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


# The weak-drive regime used by the evolution oracle: parameter -> range.
WEAK_DRIVE = {
    "delta": (-1.0, 1.0),
    "u": (0.0, 1.0),
    "g": (-0.05, 0.05),
    "f": (0.01, 0.1),
    "phi": (0.0, 2 * math.pi),
}

# The same ranges as a hypothesis strategy.
weak_drive_params = st.builds(
    SystemParams, **{name: st.floats(lo, hi) for name, (lo, hi) in WEAK_DRIVE.items()}
)


def weak_drive_draw(rng):
    """Random parameters in the weak-drive regime, drawn uniformly from rng."""
    return SystemParams(**{name: float(rng.uniform(lo, hi)) for name, (lo, hi) in WEAK_DRIVE.items()})


def force_unphysical(monkeypatch):
    """Make every state fail its DensityMatrix physicality check."""

    def reject(stack):
        return ["not positive semidefinite: forced"] * len(stack)

    monkeypatch.setattr(blockade.steady, "_unphysical", reject)


def fail_at(monkeypatch, dim, victims=None):
    """Make the batched rung (steady._rung, behind steady_state and every
    rung of a batch) at truncation dim reject each of the victims, or every
    point if victims is None, with SteadyStateError; every other point and
    truncation solves as before."""
    solve = blockade.steady._rung

    def failing(points, d):
        states = solve(points, d)
        if d != dim:
            return states
        error = f"steady-state system too ill-conditioned at dim={dim}: forced"
        return [
            SteadyStateError(error) if victims is None or p in victims else state
            for p, state in zip(points, states)
        ]

    monkeypatch.setattr(blockade.steady, "_rung", failing)


def force_unphysical_observables(monkeypatch):
    """Make Observables reject the populations of every state that
    DensityMatrix accepts, as it rejects a population of -5e-9: inside the
    eigenvalue tolerance (-1e-8) and outside the population one (-1e-10)."""

    def reject(pops):
        return [ValueError("populations outside [0, 1] beyond tolerance") for _ in pops]

    monkeypatch.setattr(blockade.steady, "_observables", reject)


def never_solve(monkeypatch):
    """Make any batched rung fail the test."""

    def solve(points, dim):
        raise AssertionError(f"a batch of {len(points)} solved at dim={dim}")

    monkeypatch.setattr(blockade.steady, "_rung", solve)


def record_rungs(monkeypatch):
    """Record every later batched rung.  Returns (rungs, batches): the
    truncations solved for each point, in order, keyed by its SystemParams,
    and each batch's (dim, number of points)."""
    rungs, batches = defaultdict(list), []
    solve = blockade.steady._rung

    def recording(points, dim):
        batches.append((dim, len(points)))
        for p in points:
            rungs[p].append(dim)
        return solve(points, dim)

    monkeypatch.setattr(blockade.steady, "_rung", recording)
    return rungs, batches


def reference_ladder(p, tol=DEFAULT_TOL, *, max_dim=DEFAULT_MAX_DIM):
    """converged_steady_state as it was before the one-rung rule: the plain
    ladder from START_DIM, every rung solved in order.  Solves and
    observables are looked up on blockade.steady at call time, so a test's
    monkeypatch reaches both this and the library."""
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

    previous: Observables | None = None
    before_previous: Observables | None = None
    for dim in range(START_DIM, max_dim + 1, DIM_STEP):
        rho = blockade.steady.steady_state(p, dim)
        try:
            obs = blockade.steady.observables(rho)
        except ValueError as exc:
            raise SteadyStateError(f"unphysical observables at dim={dim}: {exc}") from exc
        if obs.mean_photon < PHOTON_FLOOR:
            return rho, obs, dim
        if previous is not None and blockade.steady._lg_gap(previous, obs) < tol:
            return rho, obs, dim
        before_previous = previous
        previous = obs
    raise ConvergenceError(
        f"observables not settled to tol={tol} at dim={dim}",
        previous=before_previous,
        last=previous,
    )


def exact_kerr_moments(params, orders=(1, 2)):
    """Normally ordered moments <a'^j a^j> of the steady state at g = 0, u > 0,
    with no truncation.

    The Drummond-Walls complex-P solution (J. Phys. A 13, 725 (1980)) in
    this model's conventions, with c = (delta - i kappa/2)/u, y = f/u and
    x = 2 y^2:

        <a'^j a^j> = y^(2j) / |(c)_j|^2 * S(c + j) / S(c),
        S(c) = sum_k x^k / (|(c)_k|^2 k!),

    (c)_k being the rising factorial.  Every term is real and positive, so
    the series are summed in plain floats; phi drops out.  Since
    |c + k|^2 >= (Im c)^2, the ratio of successive terms stays below 1/2
    once k + 1 > 2 x / (Im c)^2, so the sum stops at the first term past
    that point that no longer changes it.
    """
    if params.g != 0.0 or params.u <= 0.0:
        raise ValueError("the exact solution needs g = 0 and u > 0")
    c = complex(params.delta, -0.5 * params.kappa) / params.u
    y = params.f / params.u
    x = 2.0 * y * y
    settled = 2.0 * x / c.imag**2

    def series(shift):
        total, term, k = 1.0, 1.0, 0
        while True:
            term *= x / (abs(c + shift + k) ** 2 * (k + 1))
            k += 1
            if total + term == total and k + 1 > settled:
                return total
            total += term

    base = series(0)
    moments = []
    for j in orders:
        pochhammer = math.prod(abs(c + i) ** 2 for i in range(j))
        moments.append(y ** (2 * j) / pochhammer * series(j) / base)
    return moments

"""Shared test oracles, kept deliberately independent of the solver internals."""

import math

import numpy as np

import blockade.steady
from blockade.fock import FockSpace, annihilation, creation
from blockade.model import build_h_eff


def dense_liouvillian(params, dim):
    """Dense Liouvillian written straight from the master equation,

        drho/dt = -i [H, rho] + (kappa/2) (2 a rho a' - a'a rho - rho a'a),

    with vec(A rho B) = kron(B.T, A) vec(rho) under column stacking.  It
    shares only build_h_eff with the solver, not its sparse pattern.
    """
    space = FockSpace(dim)
    a = annihilation(space)
    n_op = creation(space) @ a
    h = build_h_eff(params, space)
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
    for _ in range(steps):
        k1 = gen @ x
        k2 = gen @ (x + 0.5 * dt * k1)
        k3 = gen @ (x + 0.5 * dt * k2)
        k4 = gen @ (x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    rho = x.reshape((dim, dim), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def weak_drive_draw(rng):
    """Random parameters in the weak-drive regime used by the evolution oracle."""
    from blockade.model import SystemParams

    return SystemParams(
        delta=float(rng.uniform(-1, 1)),
        u=float(rng.uniform(0, 1)),
        g=float(rng.uniform(-0.05, 0.05)),
        f=float(rng.uniform(0.01, 0.1)),
        phi=float(rng.uniform(0, 2 * math.pi)),
    )


def force_unphysical(monkeypatch):
    """Make every steady_state solution fail its DensityMatrix physicality check."""

    def reject(dim, entries):
        raise ValueError("not positive semidefinite: forced")

    monkeypatch.setattr(blockade.steady, "DensityMatrix", reject)

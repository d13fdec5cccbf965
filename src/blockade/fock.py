"""Truncated Fock-space ladder operators and dense matrix helpers.

Matrices are plain numpy arrays of complex128, indexed (row, col) zero-based
so the Fock index n coincides with the matrix index.  Everything downstream
(Hamiltonians, Liouvillians, steady states) is built from these constructors.
Liouvillians are built and factorised densely in double precision (D <= 60,
so at most 3600 x 3600): the steady-state solver's conditioning guard is the
LAPACK estimate zgecon, which works on a dense LU factor.

Arrays returned by the constructors are marked read-only so shared instances
cannot be mutated behind a caller's back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FockSpace:
    """Truncated single-mode Fock space keeping number states |0> .. |dim-1>.

    Observables involving two-photon occupation need dim >= 3; the
    steady-state solver enforces that.  The constructors below work for any
    positive dim so small ladders remain expressible.
    """

    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, int) or isinstance(self.dim, bool):
            raise TypeError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")


def _readonly(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def annihilation(space: FockSpace) -> np.ndarray:
    """Photon annihilation operator on the truncated space.

    Entry (n-1, n) is sqrt(n) for 1 <= n <= dim-1, everything else zero.
    """
    d = space.dim
    return _readonly(np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1).astype(complex))


def creation(space: FockSpace) -> np.ndarray:
    """Photon creation operator, the conjugate transpose of annihilation."""
    return _readonly(adjoint(annihilation(space)))


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conj(np.asarray(m)).T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, (rows_a*rows_b) x (cols_a*cols_b)."""
    return np.kron(np.asarray(a), np.asarray(b))


def expectation(op: np.ndarray, rho: np.ndarray) -> complex:
    """Tr(rho . op) for square operators of matching dimension."""
    op = np.asarray(op)
    rho = np.asarray(rho)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"operator must be square, got shape {op.shape}")
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"state must be square, got shape {rho.shape}")
    if op.shape != rho.shape:
        raise ValueError(f"dimension mismatch: operator {op.shape} vs state {rho.shape}")
    return complex(np.trace(rho @ op))

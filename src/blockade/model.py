"""Physical parameters, the truncated Fock space, Hamiltonians and the bare spectrum.

The model is a single cavity mode in the frame rotating at the drive
frequency: detuning delta, Kerr photon-photon interaction u, degenerate
parametric gain g, coherent drive amplitude f with phase phi, and cavity
decay rate kappa.  All rates are quoted in units of kappa, which defaults
to 1 so numbers can be read directly as kappa-normalized.

Operators are dense complex128 arrays on the truncated Fock space, indexed
so that the photon number n is the matrix index n.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SystemParams:
    """The six physical knobs of the driven Kerr cavity with parametric gain.

    delta: drive-cavity detuning.
    u: Kerr strength.
    g: parametric (two-photon drive) coefficient; any sign is allowed since
       the optimal-gain relation produces negative values for some phases.
    f: coherent drive strength, non-negative; the drive's argument lives in phi.
    phi: drive phase in radians, stored exactly as given (periodicity is a
       tested property, not a normalization).
    kappa: cavity decay rate, the reference unit.
    """

    delta: float = 0.0
    u: float = 0.0
    g: float = 0.0
    f: float = 0.0
    phi: float = 0.0
    kappa: float = 1.0

    def __post_init__(self):
        for field in dataclasses.fields(self):
            name = field.name
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, float(value))
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.f < 0:
            raise ValueError(f"f must be non-negative, got {self.f}")

    def replace(self, **changes) -> "SystemParams":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class FockSpace:
    """Truncated single-mode Fock space keeping number states |0> .. |dim-1>.

    Any positive dim is valid; the steady-state solver needs dim >= 3.
    """

    dim: int

    def __post_init__(self):
        if not isinstance(self.dim, int) or isinstance(self.dim, bool):
            raise TypeError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")


def annihilation(space: FockSpace) -> np.ndarray:
    """Photon annihilation operator on the truncated space, read-only.

    Entry (n-1, n) is sqrt(n) for 1 <= n <= dim-1, everything else zero.
    """
    a = np.diag(np.sqrt(np.arange(1, space.dim, dtype=float)), k=1).astype(complex)
    a.setflags(write=False)
    return a


def build_h_eff(p: SystemParams, space: FockSpace) -> np.ndarray:
    """Rotating-frame Hamiltonian of the driven Kerr cavity with parametric gain.

    H = delta a'a + u a'a'aa + i g (a'a' - aa) + f (a' e^{i phi} + a e^{-i phi})
    with a' the creation operator.  Hermitian by construction.
    """
    # Every term is banded, so it is written from its diagonals rather than
    # as products of ladder operators (small dense matmuls are slow under
    # multithreaded BLAS): a'a = diag(n), a'a'aa = diag(n(n-1)), aa has
    # a[m, m+1] a[m+1, m+2] at (m, m+2), and a' = a.T.
    n = np.arange(space.dim, dtype=float)
    a = annihilation(space)
    off = np.diag(a, k=1).real
    aa = np.zeros((space.dim, space.dim))
    aa[:-2, 2:] = np.diag(off[:-1] * off[1:])
    h = np.diag(p.delta * n + p.u * n * (n - 1.0)).astype(complex)
    h = h + 1j * p.g * (aa.T - aa)
    drive = p.f * np.exp(1j * p.phi)
    h = h + drive * a.T + np.conj(drive) * a
    return h


def build_h_non(p: SystemParams, space: FockSpace) -> np.ndarray:
    """Non-Hermitian Hamiltonian: build_h_eff minus i*(kappa/2) times the number operator.

    Its anti-Hermitian part encodes the cavity decay; the weak-drive analytics
    of the two-photon truncation are stationary states of this operator.
    """
    a = annihilation(space)
    n_op = a.conj().T @ a
    return build_h_eff(p, space) - 0.5j * p.kappa * n_op


def energy_levels(omega_a: float, u: float, n_max: int) -> list[float]:
    """Bare cavity spectrum E_n = n*omega_a + n(n-1)*u, indexed by n = 0..n_max.

    The Kerr term shifts level n by n(n-1)*u, so the two-photon level sits
    2*u away from twice the one-photon energy; that anharmonicity is what
    conventional photon blockade relies on.
    """
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 0:
        raise ValueError(f"n_max must be a non-negative integer, got {n_max!r}")
    return [n * omega_a + n * (n - 1) * u for n in range(n_max + 1)]

"""Physical parameters, the truncated Fock space, the Hamiltonian and the bare spectrum.

The model is a single cavity mode in the frame rotating at the drive
frequency: detuning delta, Kerr photon-photon interaction u, degenerate
parametric gain g, coherent drive amplitude f with phase phi, and cavity
decay rate kappa.  All rates are quoted in units of kappa, which defaults
to 1 so numbers can be read directly as kappa-normalized.

The Hamiltonian is a dense complex128 array on the truncated Fock space,
indexed so that the photon number n is the matrix index n.
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


def build_h_eff(p: SystemParams, space: FockSpace) -> np.ndarray:
    """Rotating-frame Hamiltonian of the driven Kerr cavity with parametric gain.

    H = delta a'a + u a'a'aa + i g (a'a' - aa) + f (a' e^{i phi} + a e^{-i phi})
    with a' the creation operator.  Hermitian by construction.
    """
    # Every term is banded, so it is written from its diagonals rather than
    # as products of ladder operators (small dense matmuls are slow under
    # multithreaded BLAS): a'a = diag(n), a'a'aa = diag(n(n-1)), a has
    # sqrt(m+1) at (m, m+1), aa has sqrt(m+1) sqrt(m+2) at (m, m+2), and
    # a' = a.T.
    d = space.dim
    n = np.arange(d, dtype=float)
    m = np.arange(d)
    root = np.sqrt(n[1:])
    h = np.zeros((d, d), dtype=complex)
    h[m, m] = p.delta * n + p.u * n * (n - 1.0)
    drive = p.f * np.exp(1j * p.phi)
    h[m[1:], m[:-1]] = drive * root
    h[m[:-1], m[1:]] = np.conj(drive) * root
    gain = 1j * p.g * (root[:-1] * root[1:])
    h[m[2:], m[:-2]] = gain
    h[m[:-2], m[2:]] = -gain
    return h


def energy_levels(omega_a: float, u: float, n_max: int) -> list[float]:
    """Bare cavity spectrum E_n = n*omega_a + n(n-1)*u, indexed by n = 0..n_max.

    The Kerr term shifts level n by n(n-1)*u, so the two-photon level sits
    2*u away from twice the one-photon energy; that anharmonicity is what
    conventional photon blockade relies on.
    """
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 0:
        raise ValueError(f"n_max must be a non-negative integer, got {n_max!r}")
    return [n * omega_a + n * (n - 1) * u for n in range(n_max + 1)]

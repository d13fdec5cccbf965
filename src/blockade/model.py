"""Physical parameters, the Hamiltonian and the bare spectrum.

The model is a single cavity mode in the frame rotating at the drive
frequency: detuning delta, Kerr photon-photon interaction u, degenerate
parametric gain g, coherent drive amplitude f with phase phi, and cavity
decay rate kappa.  All rates are quoted in units of kappa, which defaults
to 1 so numbers can be read directly as kappa-normalized.

The Hamiltonian at truncation D (a plain int) is a dense complex128 D x D
array on the number states |0> .. |D-1>, photon number n at matrix index n.
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


def check_dim(dim) -> None:
    """Reject a truncation that is no positive int.  A float, a bool or a
    numpy integer is a TypeError: 12.0 and np.int64(12) would otherwise
    find the cached layout of 12."""
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise TypeError(f"truncation dimension must be an integer, got {dim!r}")
    if dim < 1:
        raise ValueError(f"truncation dimension must be positive, got {dim}")


def h_eff_stack(points, dim: int) -> np.ndarray:
    """build_h_eff for each of the points, as one (B, dim, dim) array.

    Every term is banded, so H is written from its diagonals rather than as
    products of ladder operators (small dense matmuls are slow under
    multithreaded BLAS): a'a = diag(n), a'a'aa = diag(n(n-1)), a has
    sqrt(m+1) at (m, m+1), aa has sqrt(m+1) sqrt(m+2) at (m, m+2), and
    a' = a.T.
    """
    check_dim(dim)
    delta, u, g, f, phi = (
        np.array([getattr(p, name) for p in points])[:, None] for name in ("delta", "u", "g", "f", "phi")
    )
    n = np.arange(dim, dtype=float)
    m = np.arange(dim)
    root = np.sqrt(n[1:])
    h = np.zeros((len(points), dim, dim), dtype=complex)
    h[:, m, m] = delta * n + u * n * (n - 1.0)
    drive = f * np.exp(1j * phi)
    h[:, m[1:], m[:-1]] = drive * root
    h[:, m[:-1], m[1:]] = np.conj(drive) * root
    gain = 1j * g * (root[:-1] * root[1:])
    h[:, m[2:], m[:-2]] = gain
    h[:, m[:-2], m[2:]] = -gain
    return h


def build_h_eff(p: SystemParams, dim: int) -> np.ndarray:
    """Rotating-frame Hamiltonian of the driven Kerr cavity with parametric gain.

    H = delta a'a + u a'a'aa + i g (a'a' - aa) + f (a' e^{i phi} + a e^{-i phi})
    with a' the creation operator.  Hermitian by construction.
    """
    return h_eff_stack([p], dim)[0]


def energy_levels(omega_a: float, u: float, n_max: int) -> list[float]:
    """Bare cavity spectrum E_n = n*omega_a + n(n-1)*u, indexed by n = 0..n_max.

    The Kerr term shifts level n by n(n-1)*u, so the two-photon level sits
    2*u away from twice the one-photon energy; that anharmonicity is what
    conventional photon blockade relies on.
    """
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 0:
        raise ValueError(f"n_max must be a non-negative integer, got {n_max!r}")
    return [n * omega_a + n * (n - 1) * u for n in range(n_max + 1)]

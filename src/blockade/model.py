"""Physical parameters, Hamiltonians and the bare energy spectrum.

The model is a single cavity mode in the frame rotating at the drive
frequency: detuning delta, Kerr photon-photon interaction u, degenerate
parametric gain g, coherent drive amplitude f with phase phi, and cavity
decay rate kappa.  All rates are quoted in units of kappa, which defaults
to 1 so numbers can be read directly as kappa-normalized.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, annihilation, creation


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
        for name in ("delta", "u", "g", "f", "phi", "kappa"):
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
class EnergyLevel:
    """Bare level n at energy n*omega_a + n(n-1)*u."""

    n: int
    energy: float

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise ValueError(f"n must be a non-negative integer, got {self.n!r}")


def build_h_eff(p: SystemParams, space: FockSpace) -> np.ndarray:
    """Rotating-frame Hamiltonian of the driven Kerr cavity with parametric gain.

    H = delta a'a + u a'a'aa + i g (a'a' - aa) + f (a' e^{i phi} + a e^{-i phi})
    with a' the creation operator.  Hermitian by construction.
    """
    a = annihilation(space)
    ad = creation(space)
    n_op = ad @ a
    h = p.delta * n_op
    h = h + p.u * (ad @ ad @ a @ a)
    h = h + 1j * p.g * (ad @ ad - a @ a)
    drive = p.f * np.exp(1j * p.phi)
    h = h + drive * ad + np.conj(drive) * a
    return h


def build_h_non(p: SystemParams, space: FockSpace) -> np.ndarray:
    """Non-Hermitian Hamiltonian: build_h_eff minus i*(kappa/2) times the number operator.

    Its anti-Hermitian part encodes the cavity decay; the weak-drive analytics
    of the two-photon truncation are stationary states of this operator.
    """
    a = annihilation(space)
    n_op = creation(space) @ a
    return build_h_eff(p, space) - 0.5j * p.kappa * n_op


def energy_levels(omega_a: float, u: float, n_max: int) -> list[EnergyLevel]:
    """Bare cavity spectrum E_n = n*omega_a + n(n-1)*u for n = 0..n_max.

    The Kerr term shifts level n by n(n-1)*u, so the two-photon level sits
    2*u away from twice the one-photon energy; that anharmonicity is what
    conventional photon blockade relies on.
    """
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 0:
        raise ValueError(f"n_max must be a non-negative integer, got {n_max!r}")
    return [EnergyLevel(n=n, energy=n * omega_a + n * (n - 1) * u) for n in range(n_max + 1)]

"""Weak-drive two-photon analytics: truncated amplitudes and blockade conditions.

In the weak-drive regime the cavity state is well approximated by the
truncation |psi> = C0|0> + C1|1> + C2|2>.  Setting the time derivatives of
the amplitudes to zero under the non-Hermitian Hamiltonian (decay absorbed
as -i*kappa/2 per photon) and normalizing C0 = 1 gives closed forms for C1
and C2.  The C2 numerator is the interference residual between the direct
two-photon (parametric) path and the sequential one-photon (drive) path;
its zero set is where destructive interference suppresses two-photon
occupation completely.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import SystemParams

# Denominators and pivots smaller than this are treated as vanishing.
DEGENERACY_FLOOR = 1e-14

# Excitation weight below which the truncated g2 estimator is a 0/0 ratio.
EXCITATION_FLOOR = 1e-24


class DegenerateParametersError(ValueError):
    """The truncated amplitude system is singular, or overflows double precision,
    at these parameters."""


class SingularParametersError(ValueError):
    """The optimal-gain relation has a pole at these parameters (kappa + 2*delta = 0),
    or its value overflows double precision."""


@dataclass(frozen=True)
class AmplitudeSet:
    """Amplitudes of the two-photon-truncated steady state, C0 normalized to 1
    by the closed-form constructors."""

    c0: complex
    c1: complex
    c2: complex

    def __post_init__(self):
        for name in ("c0", "c1", "c2"):
            value = complex(getattr(self, name))
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)


def amplitudes_closed_form(p: SystemParams) -> AmplitudeSet:
    """Steady truncated amplitudes from the explicit closed forms, C0 = 1.

    With den = 4F^2 - (2*delta - i*kappa)(2*delta - i*kappa + 2*u):
      C1 = 2F [ (2*delta - i*kappa + 2*u) e^{i*phi} - 2i e^{-i*phi} G ] / den
      C2 = -sqrt(2) (2F^2 e^{2i*phi} - G*kappa - 2i*delta*G) / den
    """
    two_delta = 2.0 * p.delta - 1j * p.kappa
    try:
        den = 4.0 * p.f**2 - two_delta * (two_delta + 2.0 * p.u)
    except OverflowError:  # a float power raises where a product gives inf
        den = math.inf
    if not DEGENERACY_FLOOR < abs(den) < math.inf:
        raise DegenerateParametersError(
            f"amplitude denominator vanishes or overflows (|den| = {abs(den):.3e}) "
            f"at these parameters"
        )
    phase = cmath.exp(1j * p.phi)
    c1 = 2.0 * p.f * ((two_delta + 2.0 * p.u) * phase - 2j * p.g / phase) / den
    c2 = -math.sqrt(2.0) * interference_residual(p) / den
    if not (cmath.isfinite(c1) and cmath.isfinite(c2)):
        raise DegenerateParametersError("amplitudes overflow double precision at these parameters")
    return AmplitudeSet(c0=1.0 + 0.0j, c1=c1, c2=c2)


def amplitudes_linear_solve(p: SystemParams) -> AmplitudeSet:
    """Steady truncated amplitudes by solving the 2x2 stationarity system directly.

    With C0 = 1, stationarity of C1 and C2 under the non-Hermitian
    Hamiltonian reads

      F e^{i phi}            + (delta - i kappa/2) C1 + sqrt(2) F e^{-i phi} C2 = 0
      i sqrt(2) G + sqrt(2) F e^{i phi} C1 + (2 delta - i kappa + 2 u) C2       = 0

    Kept deliberately independent of the closed forms so the two routes
    cross-check each other.
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
    return AmplitudeSet(c0=1.0 + 0.0j, c1=complex(c1), c2=complex(c2))


def interference_residual(p: SystemParams) -> complex:
    """Numerator of C2: R = 2F^2 e^{2i phi} - G kappa - 2i delta G.

    R sums the sequential |0>->|1>->|2> drive path against the direct
    |0>->|2> parametric path; R = 0 is complete destructive interference
    and hence a vanishing two-photon amplitude.
    """
    if not math.isfinite(2.0 * p.phi):
        raise DegenerateParametersError(f"2*phi overflows double precision (phi = {p.phi:.3e})")
    return 2.0 * p.f**2 * cmath.exp(2j * p.phi) - p.g * p.kappa - 2j * p.delta * p.g


def blockade_conditions(p: SystemParams) -> tuple[float, float]:
    """Real and imaginary parts of the interference residual, as a pair.

    Both vanish exactly when the two excitation paths cancel:
      2 F^2 cos(2 phi) - G kappa = 0
      2 F^2 sin(2 phi) - 2 delta G = 0
    """
    r = interference_residual(p)
    return r.real, r.imag


def optimal_g(f: float, phi: float, delta: float, kappa: float = 1.0) -> float:
    """Parametric gain that zeroes the SUM of the two blockade conditions:

      G* = 2 F^2 (cos(2 phi) + sin(2 phi)) / (kappa + 2 delta)

    This is the combined (single-equation) condition; the exact pair is
    exposed separately via blockade_conditions.  G* can be negative, e.g.
    around phi = pi/2.
    """
    if not math.isfinite(2.0 * phi):
        raise SingularParametersError(f"2*phi overflows double precision (phi = {phi:.3e})")
    pole = kappa + 2.0 * delta
    if abs(pole) <= DEGENERACY_FLOOR:
        raise SingularParametersError(
            f"optimal gain has a pole at kappa + 2*delta = 0 (got {pole:.3e})"
        )
    try:
        g_star = 2.0 * f**2 * (math.cos(2.0 * phi) + math.sin(2.0 * phi)) / pole
    except OverflowError:
        g_star = math.inf
    if not math.isfinite(g_star):
        raise SingularParametersError(f"optimal gain overflows double precision (got {g_star})")
    return g_star


def g2_analytic(a: AmplitudeSet) -> float | None:
    """Equal-time second-order correlation of the truncated state.

    For |psi> ~ C0|0> + C1|1> + C2|2> with C0 = 1 and weak excitation,
      g2 = 2|C2|^2 / (|C1|^2 + 2|C2|^2)^2.
    The normalized form stays bounded as |C1| -> 0, unlike the leading-order
    2|C2|^2/|C1|^4.  Returns None when the excitation weight vanishes.
    """
    weight = abs(a.c1) ** 2 + 2.0 * abs(a.c2) ** 2
    if weight <= EXCITATION_FLOOR:
        return None
    return 2.0 * abs(a.c2) ** 2 / weight**2

"""Single-step potential scattering: boundary matching at x = 0, complex
amplitude ratios, and transmission/reflection coefficients in both regimes.

Above the barrier (E >= U0) the matching gives R = U0/(4E + U0) and
T(x) = T0 * exp(-2 a x) with T0 = 4E/(4E + U0), where a = m1*sqrt(U0) —
note T carries a position-dependent damping factor, unlike the usual
flux-ratio definition. Below the barrier the raw matched ratios would make
T grow with x, so the transmitted amplitude must vanish: R = 1, T = 0
identically. The raw sub-barrier value is kept for inspection and flagged
non-physical in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInput, InvalidRegime, InvalidRegion
from .potentials import UnitSystem

REGIME_ABOVE = "above_barrier"
REGIME_AT = "at_barrier"
REGIME_BELOW = "below_barrier"

_HUGE = 2.0 ** 1021  # above this, a sum of five such energies can overflow


@dataclass(frozen=True)
class ScatteringCoefficients:
    regime: str
    K: float  # incident wavenumber m1 * sqrt(E)
    a: float  # barrier constant m1 * sqrt(U0)
    R: float
    T0: float

    @property
    def b1_over_a1(self) -> complex:  # reflected/incident amplitude (raw matching)
        K, a = self.K, self.a
        return (1j * (K - a) - K) / (1j * (K + a) + K) if self.regime == REGIME_BELOW else a / (2j * K - a)

    @property
    def a2_over_a1(self) -> complex:  # transmitted/incident amplitude (raw matching)
        K, a = self.K, self.a
        return 2j * K / (K + 1j * (K - a)) if self.regime == REGIME_BELOW else 2j * K / (2j * K - a)

    def transmission(self, x: float) -> float:
        """T(x) = T0 * exp(-2 a x) at x >= 0; T0 itself at x = 0 and where T0 = 0,
        so an a that overflowed to inf never meets inf * 0."""
        return self.T0 * math.exp(-2.0 * self.a * x) if self.T0 and x else self.T0


def match_coefficients(
    E: float, U0: float, units: UnitSystem | None = None
) -> ScatteringCoefficients:
    """R, T0 and the wavenumbers for a step of height U0 at energy E; the raw
    amplitude ratios follow from K, a and the regime on demand.

    E = U0 is classified as above-barrier (both regimes give R = 0.20
    there); the above-barrier formulas apply so T0 = 0.80 is reported.
    """
    units = units or UnitSystem()
    if not (E > 0.0 and math.isfinite(E)):
        raise InvalidInput(f"E must be positive, got {E}")
    if not (U0 > 0.0 and math.isfinite(U0)):
        raise InvalidInput(f"U0 must be positive, got {U0}")
    m1 = units.m1
    K = m1 * math.sqrt(E)
    a = m1 * math.sqrt(U0)
    if E >= U0:
        s = 2.0 ** -8 if E > _HUGE else 1.0  # 4E + U0 can overflow; scaling by s is exact
        R = U0 * s / (4.0 * (E * s) + U0 * s)
        T0 = 1.0 - R  # keeps the T0 + R = 1 identity within one rounding
        regime = REGIME_ABOVE if E > U0 else REGIME_AT
        return ScatteringCoefficients(regime, K, a, R, T0)
    # sub-barrier: the physical resolution A2 = 0 of the raw matched ratios
    return ScatteringCoefficients(REGIME_BELOW, K, a, R=1.0, T0=0.0)


def transmission_at(
    E: float, U0: float, x: float, units: UnitSystem | None = None
) -> float:
    """Position-dependent transmission T(x) = T0 * exp(-2 a x), x >= 0."""
    units = units or UnitSystem()
    if x < 0.0:
        raise InvalidRegion(f"transmission is defined in region II only (x >= 0), got x={x}")
    coeffs = match_coefficients(E, U0, units)
    if coeffs.regime == REGIME_BELOW:
        raise InvalidRegime("below the barrier T vanishes identically; use match_coefficients")
    return coeffs.transmission(x)


def raw_subbarrier_R(E: float, U0: float) -> float:
    """Pre-resolution sub-barrier reflection, exposed for analysis only.

    R_raw = (E + (sqrt(E) - sqrt(U0))^2) / (E + (sqrt(E) + sqrt(U0))^2);
    superseded by the physical R = 1 but continuous with the above-barrier
    value 0.20 at E = U0.
    """
    if not (0.0 < E <= U0):
        raise InvalidInput(f"raw sub-barrier R is defined for 0 < E <= U0, got E={E}, U0={U0}")
    if U0 > _HUGE:  # the sums below can overflow; the ratio is homogeneous, the scaling exact
        E, U0 = E * 2.0 ** -1000, U0 * 2.0 ** -1000
    se, su = math.sqrt(E), math.sqrt(U0)
    return (E + (se - su) ** 2) / (E + (se + su) ** 2)

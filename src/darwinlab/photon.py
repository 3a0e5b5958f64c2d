"""Photon-scattering environment of an illuminated dielectric sphere.

All quantities are closed-form: the sphere's two positions play the role
of pointer states, each scattered photon carries the same per-photon
record, and the fragment information depends only on the total
decoherence factor Gamma and the fragment fraction f. Rates come from
the published blackbody-scattering formulas in the two limiting regimes
(separation small or large against the thermal photon wavelength), in SI
units throughout.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .branching import two_branch_entropy
from .info import LN2
from .numeric import brentq


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA values plus the exact zeta factors of the rate prefactors.

    The literals are scipy.constants' CODATA values of k, c and hbar and
    float(scipy.special.zeta(7)), float(scipy.special.zeta(9)), written out
    repr for repr; tests/test_cli.py checks them against scipy with ==.
    """

    k_b: float = 1.380649e-23
    c: float = 299792458.0
    hbar: float = 1.0545718176461565e-34
    zeta7: float = 1.008349277381923
    zeta9: float = 1.0020083928260821


CONSTANTS = PhysicalConstants()

# angular-averaged scattering prefactors; the dipole one multiplies
# (3 + 11 cos^2 theta)
RATE_PREFACTOR_DIPOLE = 161280.0 * CONSTANTS.zeta9 / math.pi ** 3
RATE_PREFACTOR_SATURATED = 57600.0 * CONSTANTS.zeta7 / math.pi ** 3


@dataclass(frozen=True)
class PhotonHaloParams:
    """Sphere, illumination, and superposition geometry, SI units."""

    radius: float
    permittivity: float
    irradiance: float
    temperature: float
    separation: float
    angle: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        if self.radius <= 0 or self.separation <= 0:
            raise ValueError("lengths must be positive")
        if self.permittivity <= 1.0:
            raise ValueError("permittivity must exceed 1")
        if self.temperature <= 0 or self.irradiance < 0 or self.t < 0:
            raise ValueError("temperature positive; irradiance and t nonnegative")

    @property
    def thermal_wavelength(self) -> float:
        return CONSTANTS.hbar * CONSTANTS.c / (CONSTANTS.k_b * self.temperature)

    @property
    def regime(self) -> str:
        """Which limiting rate formula applies to this separation."""
        return "dipole" if self.separation < self.thermal_wavelength else "saturated"


def effective_radius(radius: float, permittivity: float, mode: str = "printed") -> float:
    """Radius rescaled for the sphere's polarizability.

    mode "printed" uses ((eps-1)/(eps-2))^(1/3) and has a pole at eps = 2;
    mode "polarizability" uses the Clausius-Mossotti form ((eps-1)/(eps+2))^(1/3).
    Both approach the bare radius as eps grows.
    """
    if mode == "printed":
        if abs(permittivity - 2.0) < 1e-12:
            raise ValueError("printed form diverges at permittivity 2")
        factor = (permittivity - 1.0) / (permittivity - 2.0)
        if factor < 0:
            raise ValueError("printed form negative for 1 < permittivity < 2")
    elif mode == "polarizability":
        factor = (permittivity - 1.0) / (permittivity + 2.0)
    else:
        raise ValueError(f"unknown effective-radius mode {mode!r}")
    return radius * factor ** (1.0 / 3.0)


def decoherence_rate_dipole(p: PhotonHaloParams) -> float:
    """1/tau_D for separations well under the thermal photon wavelength:

        C * (3 + 11 cos^2 theta) * I a~^6 dx^2 k_B^5 T^5 / (c^6 hbar^6)

    with the printed effective radius a~.
    """
    if p.regime != "dipole":
        warnings.warn("separation is not small against the thermal wavelength; "
                      "dipole-regime rate returned anyway", stacklevel=2)
    a_eff = effective_radius(p.radius, p.permittivity)
    angular = 3.0 + 11.0 * math.cos(p.angle) ** 2
    k = CONSTANTS
    return (RATE_PREFACTOR_DIPOLE * angular * p.irradiance * a_eff ** 6
            * p.separation ** 2 * (k.k_b * p.temperature) ** 5
            / (k.c ** 6 * k.hbar ** 6))


def decoherence_rate_saturated(p: PhotonHaloParams, mode: str = "printed") -> float:
    """1/tau_D once the separation exceeds the thermal photon wavelength;
    independent of separation and angle:

        C~ * I a~^6 k_B^3 T^3 / (c^4 hbar^4)
    """
    if p.regime != "saturated":
        warnings.warn("separation is not large against the thermal wavelength; "
                      "saturated rate returned anyway", stacklevel=2)
    a_eff = effective_radius(p.radius, p.permittivity, mode)
    k = CONSTANTS
    return (RATE_PREFACTOR_SATURATED * p.irradiance * a_eff ** 6
            * (k.k_b * p.temperature) ** 3 / (k.c ** 4 * k.hbar ** 4))


@dataclass(frozen=True)
class DecoherenceFactor:
    """Squared-overlap suppression Gamma of the two pointer branches."""

    gamma: float

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("decoherence factor must lie in [0, 1]")

    @classmethod
    def from_time(cls, t_over_tau: float) -> "DecoherenceFactor":
        if t_over_tau < 0:
            raise ValueError("elapsed time must be nonnegative")
        return cls(math.exp(-t_over_tau))

    @classmethod
    def from_photon_overlap(cls, per_photon: float, count: int) -> "DecoherenceFactor":
        return cls(abs(per_photon) ** (2 * count))


def _gamma_of(gamma) -> float:
    return gamma.gamma if isinstance(gamma, DecoherenceFactor) else float(gamma)


def photon_mutual_info(gamma, f: float) -> float:
    """I(S:F_f) for an even two-branch superposition with total factor Gamma.

    The partial-wave series over n sums exactly to differences of
    two-branch entropies,

        I(f) = H(Gamma^f) + H(Gamma) - H(Gamma^(1-f)),

    which is what makes I(0) = 0 and I(1) = 2 H_S hold to float precision
    (the raw series would need ~Gamma-independent 10^9 terms near f = 0).
    At Gamma = 0 the curve is a step: 0 at f = 0, ln 2 inside, 2 ln 2 at f = 1.
    """
    g = _gamma_of(gamma)
    if not 0.0 <= f <= 1.0:
        raise ValueError("fragment fraction must lie in [0, 1]")
    return (two_branch_entropy(g ** f) + two_branch_entropy(g)
            - two_branch_entropy(g ** (1.0 - f)))


def photon_mutual_info_series(gamma, f: float) -> float:
    """Literal truncated series; kept as the convergence oracle.

    Terms stop once below 1e-15 or at 10^4 terms, so the result carries the
    truncated tail (~2.5e-5 worst case near f = 0 or 1).
    """
    g = _gamma_of(gamma)
    if not 0.0 <= f <= 1.0:
        raise ValueError("fragment fraction must lie in [0, 1]")
    total = LN2
    for n in range(1, 10 ** 4 + 1):
        term = (g ** ((1.0 - f) * n) - g ** (f * n) - g ** n) / (2 * n * (2 * n - 1))
        total += term
        if abs(term) < 1e-15:
            break
    return total


def isotropic_mutual_info(gamma, f: float) -> float:
    """I(S:F_f) under isotropic illumination: no net record direction, so
    the locally accessible term vanishes and only the quantum part remains:

        I_iso(f) = H(Gamma) - H(Gamma^(1-f)).

    The closed-form oracle of the isotropic darwin.PhotonSource, which
    puts the same terms together as H_S + H_F - H_SF with H_F = 0.
    """
    g = _gamma_of(gamma)
    if not 0.0 <= f <= 1.0:
        raise ValueError("fragment fraction must lie in [0, 1]")
    return two_branch_entropy(g) - two_branch_entropy(g ** (1.0 - f))


def photon_redundancy(t_over_tau: float, delta: float) -> float:
    """R_delta ~ t / (tau_D |ln(2 delta ln 2)|), valid for delta < 1/2.

    The logarithm is printed without the absolute value, which would make
    the estimate negative; redundancy is nonnegative by definition.
    """
    if t_over_tau < 0:
        raise ValueError("elapsed time must be nonnegative")
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    return t_over_tau / abs(math.log(2.0 * delta * LN2))


def invert_partial_info(gamma, target: float) -> float:
    """Fragment fraction f with photon_mutual_info(gamma, f) = target."""
    g = _gamma_of(gamma)
    lo, hi = photon_mutual_info(g, 0.0), photon_mutual_info(g, 1.0)
    if not lo <= target <= hi:
        raise ValueError(f"target {target} outside [{lo}, {hi}]")
    return brentq(lambda f: photon_mutual_info(g, f) - target, 0.0, 1.0, 1e-14)


def measured_photon_redundancy(t_over_tau: float, delta: float) -> float:
    """R_delta from direct inversion of the information curve at
    I = (1 - delta) ln 2; the linear-in-time formula is its small-delta fit."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    gamma = DecoherenceFactor.from_time(t_over_tau)
    f_delta = invert_partial_info(gamma, (1.0 - delta) * LN2)
    if f_delta <= 0.0:
        raise ValueError("degenerate inversion at f = 0")
    return 1.0 / f_delta


def dust_grain_sunlight(t: float = 1e-6) -> PhotonHaloParams:
    """Micron dust speck in full sunlight, micron-scale superposition.

    Solar surface temperature 5250 K, solar-constant irradiance, silicate
    permittivity 3. The separation sits a factor ~2 above the thermal
    photon wavelength, so the saturated rate applies.
    """
    return PhotonHaloParams(radius=1e-6, permittivity=3.0, irradiance=1361.0,
                            temperature=5250.0, separation=1e-6, angle=0.0, t=t)


def dust_grain_redundancy(delta: float = 0.1, t: float = 1e-6) -> float:
    """Records-per-microsecond headline number for the dust preset.

    Uses the Clausius-Mossotti effective radius; the printed variant's
    a~^6 is larger by (2 / (2/5))^2 = 25 at eps = 3 and overshoots the
    order-of-magnitude target.
    """
    p = dust_grain_sunlight(t)
    rate = decoherence_rate_saturated(p, mode="polarizability")
    return photon_redundancy(p.t * rate, delta)

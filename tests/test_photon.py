import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from darwinlab.branching import two_branch_entropy
from darwinlab.info import LN2
from darwinlab.photon import (
    CONSTANTS,
    RATE_PREFACTOR_DIPOLE,
    RATE_PREFACTOR_SATURATED,
    DecoherenceFactor,
    PhotonHaloParams,
    decoherence_rate_dipole,
    decoherence_rate_saturated,
    dust_grain_redundancy,
    dust_grain_sunlight,
    effective_radius,
    invert_partial_info,
    isotropic_mutual_info,
    measured_photon_redundancy,
    photon_mutual_info,
    photon_mutual_info_series,
    photon_redundancy,
)


def zeta_by_sum(s: int, terms: int = 400) -> float:
    # tail below 1e-16 relative for s >= 7 at 400 terms
    return sum(n ** -s for n in range(1, terms + 1))


# ---------------------------------------------------------------- constants

def test_dipole_prefactor_from_zeta():
    ref = 161280.0 * zeta_by_sum(9) / math.pi ** 3
    assert RATE_PREFACTOR_DIPOLE == pytest.approx(ref, rel=1e-12)
    # four significant figures
    assert RATE_PREFACTOR_DIPOLE == pytest.approx(5212.0, abs=0.5)


def test_saturated_prefactor_from_zeta():
    ref = 57600.0 * zeta_by_sum(7) / math.pi ** 3
    assert RATE_PREFACTOR_SATURATED == pytest.approx(ref, rel=1e-12)
    assert RATE_PREFACTOR_SATURATED == pytest.approx(1873.2, abs=0.5)


def test_constants_record_is_si():
    assert CONSTANTS.k_b == pytest.approx(1.380649e-23, rel=1e-12)
    assert CONSTANTS.c == 299792458.0
    assert CONSTANTS.hbar == pytest.approx(1.054571817e-34, rel=1e-9)


# --------------------------------------------------------- effective radius

def test_effective_radius_printed_eps3():
    assert effective_radius(2.0, 3.0) == pytest.approx(2.0 * 2.0 ** (1 / 3), rel=1e-12)


def test_effective_radius_polarizability_eps3():
    want = 2.0 * (2.0 / 5.0) ** (1 / 3)
    assert effective_radius(2.0, 3.0, "polarizability") == pytest.approx(want, rel=1e-12)


def test_effective_radius_large_eps_limit():
    for mode in ("printed", "polarizability"):
        assert effective_radius(1.0, 1e12, mode) == pytest.approx(1.0, rel=1e-3)


def test_effective_radius_printed_pole_and_branch():
    with pytest.raises(ValueError):
        effective_radius(1.0, 2.0)
    with pytest.raises(ValueError):
        effective_radius(1.0, 1.5)  # negative under the cube root
    # polarizability mode is regular through eps = 2
    assert effective_radius(1.0, 2.0, "polarizability") > 0


def test_effective_radius_unknown_mode():
    with pytest.raises(ValueError):
        effective_radius(1.0, 3.0, "exact")


# ------------------------------------------------------------------ params

def test_params_validation():
    good = dict(radius=1e-6, permittivity=3.0, irradiance=1361.0,
                temperature=5250.0, separation=1e-6)
    PhotonHaloParams(**good)
    for bad in (dict(radius=0.0), dict(permittivity=1.0),
                dict(temperature=0.0), dict(separation=-1.0),
                dict(irradiance=-1.0), dict(t=-1.0)):
        with pytest.raises(ValueError):
            PhotonHaloParams(**{**good, **bad})


def test_thermal_wavelength_value():
    p = dust_grain_sunlight()
    want = CONSTANTS.hbar * CONSTANTS.c / (CONSTANTS.k_b * 5250.0)
    assert p.thermal_wavelength == pytest.approx(want, rel=1e-12)
    assert 4.0e-7 < p.thermal_wavelength < 5.0e-7


def test_regime_flag():
    room = PhotonHaloParams(radius=1e-6, permittivity=3.0, irradiance=100.0,
                            temperature=300.0, separation=1e-8)
    assert room.regime == "dipole"
    assert dust_grain_sunlight().regime == "saturated"


# ------------------------------------------------------------------- rates

def _dipole_params(**over):
    base = dict(radius=1e-7, permittivity=3.0, irradiance=100.0,
                temperature=300.0, separation=1e-8, angle=0.0)
    base.update(over)
    return PhotonHaloParams(**base)


def test_dipole_angular_ratio():
    r0 = decoherence_rate_dipole(_dipole_params(angle=0.0))
    r90 = decoherence_rate_dipole(_dipole_params(angle=math.pi / 2))
    assert r90 / r0 == pytest.approx(3.0 / 14.0, rel=1e-12)
    # theta = 0 is the maximum
    for ang in (0.3, 0.9, 1.4):
        assert decoherence_rate_dipole(_dipole_params(angle=ang)) < r0


def test_dipole_separation_squared():
    r1 = decoherence_rate_dipole(_dipole_params(separation=1e-8))
    r2 = decoherence_rate_dipole(_dipole_params(separation=2e-8))
    assert r2 / r1 == pytest.approx(4.0, rel=1e-12)


def test_dipole_temperature_fifth_power():
    r1 = decoherence_rate_dipole(_dipole_params(temperature=100.0))
    r2 = decoherence_rate_dipole(_dipole_params(temperature=200.0))
    assert r2 / r1 == pytest.approx(32.0, rel=1e-12)


def test_dipole_recomposed_through_thermal_wavelength():
    # same formula written as C * (3+11cos^2) * a~^6 dx^2 I / (hbar c lambda_T^5)
    p = _dipole_params(angle=0.7)
    a6 = effective_radius(p.radius, p.permittivity) ** 6
    angular = 3.0 + 11.0 * math.cos(p.angle) ** 2
    want = (RATE_PREFACTOR_DIPOLE * angular * a6 * p.separation ** 2 * p.irradiance
            / (CONSTANTS.hbar * CONSTANTS.c * p.thermal_wavelength ** 5))
    assert decoherence_rate_dipole(p) == pytest.approx(want, rel=1e-12)


def test_saturated_independent_of_separation_and_angle():
    p1 = dust_grain_sunlight()
    import dataclasses
    p2 = dataclasses.replace(p1, separation=5e-6, angle=1.2)
    assert decoherence_rate_saturated(p1) == pytest.approx(
        decoherence_rate_saturated(p2), rel=1e-15)


def test_saturated_temperature_cubed():
    import dataclasses
    p1 = dust_grain_sunlight()
    p2 = dataclasses.replace(p1, temperature=2 * p1.temperature)
    assert decoherence_rate_saturated(p2) / decoherence_rate_saturated(p1) == \
        pytest.approx(8.0, rel=1e-12)


def test_saturated_recomposed_through_thermal_wavelength():
    p = dust_grain_sunlight()
    a6 = effective_radius(p.radius, p.permittivity, "polarizability") ** 6
    want = (RATE_PREFACTOR_SATURATED * a6 * p.irradiance
            / (CONSTANTS.hbar * CONSTANTS.c * p.thermal_wavelength ** 3))
    got = decoherence_rate_saturated(p, mode="polarizability")
    assert got == pytest.approx(want, rel=1e-12)


def test_wrong_regime_warns_but_returns():
    p = dust_grain_sunlight()  # saturated-regime separation
    with pytest.warns(UserWarning):
        rate = decoherence_rate_dipole(p)
    assert rate > 0
    room = _dipole_params()
    with pytest.warns(UserWarning):
        rate = decoherence_rate_saturated(room)
    assert rate > 0


# ---------------------------------------------------------- partial info

def test_decoherence_factor_domain():
    assert DecoherenceFactor.from_time(0.0).gamma == 1.0
    assert DecoherenceFactor.from_time(2.0).gamma == pytest.approx(math.exp(-2.0))
    assert DecoherenceFactor.from_photon_overlap(0.9, 10).gamma == \
        pytest.approx(0.9 ** 20, rel=1e-12)
    with pytest.raises(ValueError):
        DecoherenceFactor(1.5)
    with pytest.raises(ValueError):
        DecoherenceFactor.from_time(-1.0)


def test_endpoints_exact():
    for g in (0.0, 1e-6, 0.3, 0.999, 1.0):
        assert abs(photon_mutual_info(g, 0.0)) < 1e-12
        want = 2.0 * two_branch_entropy(g)
        assert photon_mutual_info(g, 1.0) == pytest.approx(want, abs=1e-12)


def test_accepts_decoherence_factor_objects():
    dc = DecoherenceFactor.from_time(3.0)
    assert photon_mutual_info(dc, 0.4) == pytest.approx(
        photon_mutual_info(math.exp(-3.0), 0.4), rel=1e-15)


def test_matches_literal_series():
    for g in (1e-4, 0.05, 0.5, 0.9):
        for f in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert photon_mutual_info(g, f) == pytest.approx(
                photon_mutual_info_series(g, f), abs=2e-12)


def test_series_tail_visible_at_f_zero():
    # at f = 0 every term is -1/(2n(2n-1)); truncation leaves ~1/(4 n_max)
    resid = photon_mutual_info_series(0.5, 0.0)
    assert 1e-6 < abs(resid) < 1e-4
    assert abs(photon_mutual_info(0.5, 0.0)) < 1e-14


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_antisymmetry(gamma, f):
    # the complement must be exact: at Gamma = 0 the curve steps at f = 1,
    # so a tiny f whose 1 - f rounds to 1.0 lands on the wrong side of it
    assume(1.0 - (1.0 - f) == f)
    total = photon_mutual_info(gamma, f) + photon_mutual_info(gamma, 1.0 - f)
    assert total == pytest.approx(2.0 * two_branch_entropy(gamma), abs=1e-11)


def test_full_decoherence_steps():
    # Gamma = 0: every nonempty proper fragment holds one full record
    assert photon_mutual_info(0.0, 0.0) == 0.0
    for f in (7.6e-97, 1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-9, 1.0 - 2.0 ** -53):
        assert photon_mutual_info(0.0, f) == pytest.approx(LN2, abs=1e-15)
    assert photon_mutual_info(0.0, 1.0) == pytest.approx(2.0 * LN2, abs=1e-15)


def test_monotone_in_f():
    fs = np.linspace(0.0, 1.0, 41)
    for g in (0.9, 0.1, 1e-5):
        vals = [photon_mutual_info(g, f) for f in fs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_small_gamma_lowest_power():
    # sub-half fragments: I ~ ln2 - Gamma^f / 2
    for g, f in ((1e-12, 0.15), (1e-12, 0.3), (1e-12, 0.45),
                 (1e-8, 0.25), (1e-8, 0.45)):
        assert photon_mutual_info(g, f) == pytest.approx(
            LN2 - g ** f / 2.0, abs=1e-4)


def test_plateau_widens_with_time():
    f = 0.2
    vals = [photon_mutual_info(DecoherenceFactor.from_time(t), f)
            for t in (2.0, 5.0, 20.0, 80.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_isotropic_stays_flat_then_rises():
    g = DecoherenceFactor.from_time(12.0)
    for f in (0.1, 0.3, 0.49):
        assert isotropic_mutual_info(g, f) < 0.02
    assert isotropic_mutual_info(g, 1.0) == pytest.approx(
        two_branch_entropy(g.gamma), abs=1e-12)
    # quantum part only: directed minus isotropic equals the fragment entropy
    for f in (0.2, 0.5, 0.8):
        diff = photon_mutual_info(g, f) - isotropic_mutual_info(g, f)
        assert diff == pytest.approx(two_branch_entropy(g.gamma ** f), abs=1e-12)


def test_fraction_domain_errors():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            photon_mutual_info(0.5, bad)
        with pytest.raises(ValueError):
            isotropic_mutual_info(0.5, bad)


# -------------------------------------------------------------- redundancy

def test_redundancy_zero_and_linear():
    assert photon_redundancy(0.0, 0.1) == 0.0
    assert photon_redundancy(20.0, 0.1) == pytest.approx(
        2.0 * photon_redundancy(10.0, 0.1), rel=1e-15)


def test_redundancy_divisor_literal():
    want = 10.0 / abs(math.log(0.2 * LN2))
    assert photon_redundancy(10.0, 0.1) == pytest.approx(want, rel=1e-12)
    assert photon_redundancy(10.0, 0.1) == pytest.approx(5.0607, abs=2e-4)


def test_redundancy_domain():
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            photon_redundancy(1.0, bad)
    with pytest.raises(ValueError):
        photon_redundancy(-1.0, 0.1)


def test_inversion_recovers_endpoint_fraction():
    g = DecoherenceFactor.from_time(8.0)
    for f in (0.05, 0.3, 0.5, 0.77):
        target = photon_mutual_info(g, f)
        assert invert_partial_info(g, target) == pytest.approx(f, abs=1e-9)
    with pytest.raises(ValueError):
        invert_partial_info(g, 10.0)


def test_formula_tracks_curve_inversion():
    # Linear estimate vs direct inversion at I = (1-delta) ln 2
    for t in (5.0, 10.0, 20.0, 50.0):
        formula = photon_redundancy(t, 0.1)
        measured = measured_photon_redundancy(t, 0.1)
        assert abs(formula - measured) / measured < 0.15


# ------------------------------------------------------------- dust preset

def test_dust_preset_fields():
    p = dust_grain_sunlight()
    assert p.radius == 1e-6 and p.permittivity == 3.0
    assert p.irradiance == 1361.0 and p.temperature == 5250.0
    assert p.separation == 1e-6 and p.t == 1e-6
    assert p.regime == "saturated"


def test_dust_grain_order_of_magnitude():
    r = dust_grain_redundancy(delta=0.1, t=1e-6)
    assert 7.5 < math.log10(r) < 8.5


def test_dust_grain_mode_ratio():
    p = dust_grain_sunlight()
    printed = decoherence_rate_saturated(p, mode="printed")
    cm = decoherence_rate_saturated(p, mode="polarizability")
    assert printed / cm == pytest.approx(25.0, rel=1e-12)

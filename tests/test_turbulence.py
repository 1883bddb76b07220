import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from fsosec.atmosphere import LinkGeometry
from fsosec.errors import NonConvergent
from fsosec.turbulence import (TurbulenceProfile, cn2_profile,
                               fading_shapes_from_rytov, rytov_variance,
                               scintillation_log_variances)

PROFILE = TurbulenceProfile(wind_speed_m_s=21.0, cn2_ground=1e-14)

GEO = LinkGeometry(wavelength_m=1.55e-6, satellite_altitude_m=8e5,
                   ground_height_m=10.0, zenith_angle_rad=math.radians(60.0),
                   divergence_rad=1e-5, aperture_diameter_m=0.05)


def test_cn2_profile_frozen():
    cases = [
        (0.0, 1.027e-14),
        (100.0, 3.93138129767296067e-15),
        (1000.0, 1.39076634655559291e-16),
        (5000.0, 1.19964010113799347e-17),
        (20000.0, 7.58853881636756751e-19),
    ]
    for h, want in cases:
        assert cn2_profile(PROFILE, h) == pytest.approx(want, rel=1e-13)
    assert cn2_profile(PROFILE, -5.0) == 0.0


def test_cn2_profile_term_structure():
    # ground term dominates at the surface, wind term near 10 km
    calm = TurbulenceProfile(0.0, 1e-14)
    assert cn2_profile(calm, 0.0) == pytest.approx(1e-14 + 2.7e-16, rel=1e-12)
    windy = TurbulenceProfile(27.0, 0.0)
    peak = 0.00594 * (1e-5 * 1e4) ** 10 * math.exp(-10.0)
    assert cn2_profile(windy, 1e4) == pytest.approx(peak + 2.7e-16 * math.exp(-1e4 / 1500.0),
                                                   rel=1e-12)


def test_rytov_variance_frozen():
    cases = [
        (1e-14, 0.20902895484709532),
        (1e-15, 0.1944361916677255),
        (1e-13, 0.3549565866407935),
    ]
    for cn2, want in cases:
        prof = TurbulenceProfile(21.0, cn2)
        assert rytov_variance(prof, GEO) == pytest.approx(want, rel=1e-5)


def test_rytov_variance_against_scipy_quad():
    hg = GEO.ground_height_m
    k = 2.0 * math.pi / GEO.wavelength_m
    sec_z = 1.0 / math.cos(GEO.zenith_angle_rad)
    val, _ = integrate.quad(
        lambda h: cn2_profile(PROFILE, h) * (h - hg) ** (5.0 / 6.0),
        hg, GEO.satellite_altitude_m, limit=400,
        points=[1e3, 3e3, 1e4, 3e4, 1e5])
    want = 2.25 * k ** (7.0 / 6.0) * sec_z ** (11.0 / 6.0) * val
    assert rytov_variance(PROFILE, GEO) == pytest.approx(want, rel=1e-4)


def test_rytov_variance_closed_form_against_mpmath():
    # seeded draws of ground height, path length, zenith, wind and
    # ground Cn2, against a 30-digit quadrature of the profile.  Paths
    # from 1 km to 2000 km put L/H on both sides of s + 1, so both the
    # series and the continued fraction of the incomplete gamma run
    rng = np.random.default_rng(20261018)
    with mp.workdps(30):
        for _ in range(40):
            hg = rng.uniform(0.0, 3e3)
            hs = hg + math.exp(rng.uniform(math.log(1e3), math.log(2e6 - hg)))
            geo = LinkGeometry(1.55e-6, hs, hg, math.radians(rng.uniform(0.0, 70.0)),
                               1e-5, 0.05)
            prof = TurbulenceProfile(rng.uniform(0.0, 40.0), rng.uniform(0.0, 1e-12))
            breaks = [hg + d for d in (1e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5) if hg + d < hs]
            path = mp.quad(lambda h: cn2_profile(prof, float(h)) * (h - hg) ** (mp.mpf(5) / 6),
                           [hg, *breaks, hs])
            k = 2 * mp.pi / mp.mpf(geo.wavelength_m)
            sec_z = 1 / mp.cos(mp.mpf(geo.zenith_angle_rad))
            want = mp.mpf(2.25) * k ** (mp.mpf(7) / 6) * sec_z ** (mp.mpf(11) / 6) * path
            got = rytov_variance(prof, geo)
            assert abs(got - want) <= 1e-13 * want, (hg, hs, prof)


def test_rytov_scaling_with_zenith():
    # with an altitude-only integrand the zenith dependence is the pure
    # sec^(11/6) factor
    flat = LinkGeometry(1.55e-6, 8e5, 10.0, 0.0, 1e-5, 0.05)
    tilted = LinkGeometry(1.55e-6, 8e5, 10.0, math.radians(60.0), 1e-5, 0.05)
    ratio = rytov_variance(PROFILE, tilted) / rytov_variance(PROFILE, flat)
    assert ratio == pytest.approx(2.0 ** (11.0 / 6.0), rel=1e-6)


def test_scintillation_split_formulas():
    for s in (0.05, 0.209, 1.0, 4.0):
        small, large = scintillation_log_variances(s)
        s125 = s ** 2.4
        assert small == pytest.approx(0.51 * s / (1.0 + 0.69 * s125) ** (5.0 / 6.0), rel=1e-14)
        assert large == pytest.approx(0.49 * s / (1.0 + 1.11 * s125) ** (7.0 / 6.0), rel=1e-14)
        assert 0.0 < small and 0.0 < large
    assert scintillation_log_variances(0.0) == (0.0, 0.0)
    # a denominator past the float range gives a zero variance, not an
    # OverflowError
    assert scintillation_log_variances(1e300) == (0.0, 0.0)
    small, large = scintillation_log_variances(1e112)
    assert large == 0.0 and 0.0 < small < 1e-100
    assert all(map(math.isnan, scintillation_log_variances(math.inf)))


def test_fading_shapes_mapping():
    a, b = fading_shapes_from_rytov(0.20902895484709532)
    assert a == pytest.approx(9.01504456018656, rel=1e-10)
    assert b == pytest.approx(11.56760286312629, rel=1e-10)
    small, large = scintillation_log_variances(0.20902895484709532)
    assert a == pytest.approx(1.0 / math.expm1(small), rel=1e-14)
    assert b == pytest.approx(1.0 / math.expm1(large) + 2.0, rel=1e-14)


def test_fading_shapes_weak_fluctuations_drive_shapes_up():
    a1, b1 = fading_shapes_from_rytov(0.5)
    a2, b2 = fading_shapes_from_rytov(0.05)
    assert a2 > a1 and b2 > b1
    assert b1 > 2.0  # finite mean-square requires b > 2


def test_fading_shapes_no_turbulence_sentinel():
    # no turbulence, or none a float resolves, maps onto no finite shape
    # pair, and neither does a variance whose split overflows, nor an
    # infinite or nan one
    for rytov in (0.0, 1e-320, 1e112, 1e300, math.inf, math.nan):
        with pytest.raises(NonConvergent, match="no finite"):
            fading_shapes_from_rytov(rytov)


def test_profile_validation():
    with pytest.raises(ValueError):
        TurbulenceProfile(-1.0, 1e-14)
    with pytest.raises(ValueError):
        TurbulenceProfile(21.0, -1e-14)
    with pytest.raises(ValueError):
        scintillation_log_variances(-0.1)

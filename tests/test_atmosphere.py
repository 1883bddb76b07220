"""Deterministic channel stack: frozen reference values plus a brute
2-D aperture integral oracle for the collection model."""
import math

import pytest
from scipy import integrate

from fsosec.atmosphere import (AtmosphereConfig, LinkGeometry, aperture_ratio,
                               atmospheric_loss, beam_radius, beam_waist,
                               cloud_attenuation, cloud_extinction_per_km,
                               cloud_visibility_km, collection_fraction,
                               db_per_km_to_natural,
                               equivalent_beam_width_sq, kim_exponent,
                               path_length, peak_collection)

# 800 km downlink at 60 degrees, 1550 nm, 10 urad divergence, 5 cm dish
GEO = LinkGeometry(wavelength_m=1.55e-6, satellite_altitude_m=8e5,
                   ground_height_m=10.0, zenith_angle_rad=math.radians(60.0),
                   divergence_rad=1e-5, aperture_diameter_m=0.05)

ATM = AtmosphereConfig(troposphere_per_km=db_per_km_to_natural(0.002),
                       stratosphere_per_km=db_per_km_to_natural(0.001),
                       stratosphere_extent_km=20.0,
                       cloud_lwc_mg_m3=1.0, cloud_droplets_cm3=0.025,
                       cloud_path_km=2.0)


def test_db_conversion():
    assert db_per_km_to_natural(10.0 * math.log10(math.e)) == pytest.approx(1.0, rel=1e-15)
    # 4.343 dB/km is one neper/km give or take rounding
    assert db_per_km_to_natural(4.343) == pytest.approx(1.0, rel=1e-4)


def test_geometry_frozen_values():
    assert path_length(GEO) / 1e3 == pytest.approx(1599.9799999999996, rel=1e-14)
    assert beam_waist(GEO) == pytest.approx(0.0986760647169751, rel=1e-14)
    assert beam_radius(GEO) == pytest.approx(8.000508544820635, rel=1e-13)
    assert aperture_ratio(GEO) == pytest.approx(0.003916357723681422, rel=1e-13)
    assert peak_collection(GEO) == pytest.approx(1.952856742287171e-05, rel=1e-12)
    assert equivalent_beam_width_sq(GEO) == pytest.approx(64.00879147823294, rel=1e-12)


def test_atmospheric_loss_frozen():
    assert atmospheric_loss(GEO, ATM) == pytest.approx(0.47424635321046277, rel=1e-13)


def test_atmospheric_loss_hand_formula():
    slant_km = path_length(GEO) / 1e3
    sec_z = 1.0 / math.cos(GEO.zenith_angle_rad)
    want = math.exp(-ATM.troposphere_per_km * slant_km
                    - ATM.stratosphere_per_km * ATM.stratosphere_extent_km * sec_z)
    assert atmospheric_loss(GEO, ATM) == pytest.approx(want, rel=1e-15)


def test_cloud_frozen_values():
    assert cloud_visibility_km(ATM) == pytest.approx(10.911417011524287, rel=1e-13)
    assert kim_exponent(cloud_visibility_km(ATM)) == 1.3
    assert cloud_extinction_per_km(GEO, ATM) == pytest.approx(0.09318282918224699, rel=1e-13)
    assert cloud_attenuation(GEO, ATM) == pytest.approx(0.8299700539966413, rel=1e-13)


def test_thick_cloud_visibility():
    thick = AtmosphereConfig(0.0, 0.0, 0.0, cloud_lwc_mg_m3=250.0,
                             cloud_droplets_cm3=1.0, cloud_path_km=0.5)
    assert cloud_visibility_km(thick) == pytest.approx(0.028098371741334536, rel=1e-13)
    assert kim_exponent(cloud_visibility_km(thick)) == 0.0


def test_no_cloud_layer_is_transparent():
    clear = AtmosphereConfig(ATM.troposphere_per_km, ATM.stratosphere_per_km,
                             ATM.stratosphere_extent_km, 0.0, 0.0, 0.0)
    assert cloud_attenuation(GEO, clear) == 1.0


def test_kim_exponent_branches():
    assert kim_exponent(60.0) == 1.6
    assert kim_exponent(20.0) == 1.3
    assert kim_exponent(3.0) == pytest.approx(0.16 * 3.0 + 0.34)
    assert kim_exponent(0.8) == pytest.approx(0.3)
    assert kim_exponent(0.2) == 0.0


def test_kim_exponent_continuity():
    # continuous at 6, 1 and 0.5; steps by 0.3 at the 50 km boundary
    for v, eps in ((6.0, 1e-9), (1.0, 1e-9), (0.5, 1e-9)):
        assert kim_exponent(v) == pytest.approx(kim_exponent(v + eps), abs=1e-6)
    assert kim_exponent(50.0) == 1.3
    assert kim_exponent(50.0 + 1e-9) == 1.6


def test_collection_fraction_offset_factorisation():
    weq2 = equivalent_beam_width_sq(GEO)
    a0 = peak_collection(GEO)
    for r, d in ((0.0, 0.0), (1.0, 0.0), (0.0, 2.0), (1.5, 2.5)):
        want = a0 * math.exp(-2.0 * (r * r + d * d) / weq2)
        assert collection_fraction(GEO, r, d) == pytest.approx(want, rel=1e-15)


def brute_collected_fraction(beam_radius_m, aperture_radius_m, offset_m):
    """Direct 2-D integral of the Gaussian intensity over the aperture disk."""
    w2 = beam_radius_m * beam_radius_m

    def intensity(phi, rho):
        d2 = offset_m * offset_m + rho * rho + 2.0 * offset_m * rho * math.cos(phi)
        return 2.0 / (math.pi * w2) * math.exp(-2.0 * d2 / w2) * rho

    val, _ = integrate.dblquad(intensity, 0.0, aperture_radius_m,
                               0.0, 2.0 * math.pi, epsabs=1e-14, epsrel=1e-11)
    return val


def test_collection_fraction_matches_brute_integral():
    # offset-Gaussian approximation holds to 1% while the beam dwarfs
    # the aperture; checked across beam/aperture ratios of 20 to 320
    wl = beam_radius(GEO)
    cases = [
        (GEO, (0.0, 2.0, 6.0, 0.4 * wl)),
        (LinkGeometry(1.55e-6, 6e5, 10.0, math.radians(40.0), 2e-5, 0.1),
         (0.0, 1.0, 3.0)),
        (LinkGeometry(8.0e-7, 5e5, 0.0, 0.0, 1e-5, 0.25), (0.0, 0.5, 2.0)),
    ]
    for geom, offsets in cases:
        wl = beam_radius(geom)
        ap = geom.aperture_diameter_m / 2.0
        assert wl / ap > 20.0
        for r in offsets:
            approx = collection_fraction(geom, r)
            brute = brute_collected_fraction(wl, ap, r)
            assert abs(approx - brute) <= 0.01 * brute, (geom, r)


def test_beam_quality_broadens_beam():
    worse = LinkGeometry(1.55e-6, 8e5, 10.0, math.radians(60.0), 1e-5, 0.05,
                         beam_quality=2.0)
    assert beam_radius(worse) > beam_radius(GEO)


def test_geometry_validation():
    with pytest.raises(ValueError):
        LinkGeometry(1.55e-6, 8e5, 10.0, math.radians(90.0), 1e-5, 0.05)
    with pytest.raises(ValueError):
        LinkGeometry(1.55e-6, 5.0, 10.0, 0.0, 1e-5, 0.05)
    with pytest.raises(ValueError):
        LinkGeometry(1.55e-6, 8e5, 10.0, 0.0, 1e-5, 0.05, beam_quality=0.5)
    with pytest.raises(ValueError):
        LinkGeometry(1.55e-6, 8e5, 10.0, 0.0, 1e-5, 0.05, pointing_offset_m=-1.0)


def test_atmosphere_validation():
    with pytest.raises(ValueError):
        AtmosphereConfig(-0.1, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        AtmosphereConfig(0.0, 0.0, 0.0, 0.0, 0.0, 2.0)  # cloud path, no droplets
    with pytest.raises(ValueError):
        cloud_visibility_km(AtmosphereConfig(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))

"""Deterministic channel stack for a slant space-to-ground optical path.

Three multiplicative power gains, each in [0, 1]:

* ``atmospheric_loss``   -- Beer-Lambert extinction split into a
  tropospheric term over the full slant path and a stratospheric term
  over an effective column crossed at the zenith angle.
* ``collection_fraction`` -- fraction of the Gaussian beam collected by
  a circular aperture, with pointing offset and (for an eavesdropper)
  transverse separation from the intended receiver.
* ``cloud_attenuation``  -- droplet extinction through a cloud layer,
  with visibility derived from liquid water content and droplet number
  concentration and the wavelength exponent from the Kim model.

Lengths are SI metres except where a name says otherwise; extinction
coefficients are natural-log per kilometre.
"""

import math
from dataclasses import dataclass

_DB_PER_KM_TO_NATURAL = 10.0 * math.log10(math.e)


def db_per_km_to_natural(value_db_per_km):
    """Convert a dB/km extinction coefficient to natural-log 1/km."""
    return value_db_per_km / _DB_PER_KM_TO_NATURAL


@dataclass(frozen=True)
class LinkGeometry:
    """Transmitter-receiver geometry of one downlink.

    Parameters
    ----------
    wavelength_m : float
        Optical carrier wavelength.
    satellite_altitude_m : float
        Transmitter altitude above the reference ground.
    ground_height_m : float
        Receiver altitude above the reference ground.
    zenith_angle_rad : float
        Angle away from zenith; 0 is straight up, must stay below pi/2.
    divergence_rad : float
        Full transmit divergence angle of the Gaussian beam.
    aperture_diameter_m : float
        Receiver aperture diameter.
    pointing_offset_m : float
        Radial displacement of the intended receiver from beam center.
    eve_separation_m : float
        Transverse separation of the eavesdropper from the intended
        receiver in the beam cross-section plane.
    beam_quality : float
        Divergence excess factor of a non-ideal beam; 1 for the
        diffraction-limited case.
    """

    wavelength_m: float
    satellite_altitude_m: float
    ground_height_m: float
    zenith_angle_rad: float
    divergence_rad: float
    aperture_diameter_m: float
    pointing_offset_m: float = 0.0
    eve_separation_m: float = 0.0
    beam_quality: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.wavelength_m < 1e-4:
            raise ValueError(f"implausible wavelength {self.wavelength_m!r} m")
        if not self.satellite_altitude_m > self.ground_height_m >= 0.0:
            raise ValueError("satellite must sit above the ground station")
        if not 0.0 <= self.zenith_angle_rad < 0.5 * math.pi:
            raise ValueError(f"zenith angle {self.zenith_angle_rad!r} rad "
                             "outside [0, pi/2)")
        if not self.divergence_rad > 0.0:
            raise ValueError("divergence must be positive")
        if not self.aperture_diameter_m > 0.0:
            raise ValueError("aperture diameter must be positive")
        if self.pointing_offset_m < 0.0 or self.eve_separation_m < 0.0:
            raise ValueError("offsets are radial distances, must be >= 0")
        if not self.beam_quality >= 1.0:
            raise ValueError("beam quality factor must be >= 1")


def path_length(geom):
    """Slant path length from satellite to ground, metres."""
    return ((geom.satellite_altitude_m - geom.ground_height_m)
            / math.cos(geom.zenith_angle_rad))


def beam_waist(geom):
    """Transmit beam waist radius implied by the divergence, metres."""
    return 2.0 * geom.wavelength_m / (math.pi * geom.divergence_rad)


def beam_radius(geom):
    """Gaussian beam radius at the receiver plane, metres."""
    w0 = beam_waist(geom)
    L = path_length(geom)
    fresnel = geom.wavelength_m * L / (math.pi * w0 * w0)
    return w0 * math.sqrt(1.0 + geom.beam_quality * fresnel * fresnel)


def aperture_ratio(geom):
    """Ratio v of aperture radius to beam radius in the erf scaling."""
    return (math.sqrt(math.pi) * geom.aperture_diameter_m
            / (2.0 * math.sqrt(2.0) * beam_radius(geom)))


def peak_collection(geom):
    """Collected power fraction at zero offset, A0 = erf(v)^2."""
    v = aperture_ratio(geom)
    e = math.erf(v)
    return e * e


def equivalent_beam_width_sq(geom):
    """Squared equivalent beam width of the offset Gaussian model, m^2."""
    v = aperture_ratio(geom)
    wl = beam_radius(geom)
    return (wl * wl * math.sqrt(math.pi) * math.erf(v)
            / (2.0 * v * math.exp(-v * v)))


def collection_fraction(geom, radial_offset_m, separation_m=0.0):
    """Collected power fraction for an aperture off the beam axis.

    The intended receiver passes its pointing offset alone; an
    eavesdropper additionally passes its transverse separation, the two
    displacements entering as independent quadratic penalties of the
    offset-Gaussian approximation.
    """
    a0 = peak_collection(geom)
    weq2 = equivalent_beam_width_sq(geom)
    r2 = radial_offset_m * radial_offset_m + separation_m * separation_m
    return a0 * math.exp(-2.0 * r2 / weq2)


@dataclass(frozen=True)
class AtmosphereConfig:
    """Clear-air extinction and cloud layer parameters.

    troposphere_per_km and stratosphere_per_km are natural-log
    extinction coefficients (1/km); use db_per_km_to_natural for
    values quoted in dB/km.  stratosphere_extent_km is the effective
    vertical column of the stratospheric absorber.  The cloud layer is
    described by liquid water content (mg per cubic metre), droplet
    number concentration (per cubic centimetre) and the in-cloud path
    length (km).
    """

    troposphere_per_km: float
    stratosphere_per_km: float
    stratosphere_extent_km: float
    cloud_lwc_mg_m3: float
    cloud_droplets_cm3: float
    cloud_path_km: float

    def __post_init__(self):
        if self.troposphere_per_km < 0.0 or self.stratosphere_per_km < 0.0:
            raise ValueError("extinction coefficients must be >= 0")
        if self.stratosphere_extent_km < 0.0:
            raise ValueError("stratosphere extent must be >= 0")
        if self.cloud_path_km < 0.0:
            raise ValueError("cloud path must be >= 0")
        if self.cloud_path_km > 0.0 and (self.cloud_lwc_mg_m3 <= 0.0
                                         or self.cloud_droplets_cm3 <= 0.0):
            raise ValueError("cloud layer with positive path needs positive "
                             "liquid water content and droplet concentration")


def atmospheric_loss(geom, atm):
    """Clear-air power gain h_a along the slant path."""
    sec_z = 1.0 / math.cos(geom.zenith_angle_rad)
    slant_km = path_length(geom) / 1e3
    tropo = atm.troposphere_per_km * slant_km
    strato = atm.stratosphere_per_km * atm.stratosphere_extent_km * sec_z
    return math.exp(-tropo) * math.exp(-strato)


def cloud_visibility_km(atm):
    """Visibility inside the cloud layer, km.

    Empirical power law in the product of droplet number concentration
    (cm^-3) and liquid water content (mg/m^3).
    """
    prod = atm.cloud_droplets_cm3 * atm.cloud_lwc_mg_m3
    if prod <= 0.0:
        raise ValueError("visibility undefined without droplets and water")
    return 1.002 / prod ** 0.6473


def kim_exponent(visibility_km):
    """Wavelength exponent q(V) of the Kim scattering model.

    Piecewise in visibility with each branch owning its left endpoint;
    the function is continuous everywhere except the step at V = 50 km.
    """
    v = visibility_km
    if v > 50.0:
        return 1.6
    if v > 6.0:
        return 1.3
    if v > 1.0:
        return 0.16 * v + 0.34
    if v > 0.5:
        return v - 0.5
    return 0.0


def cloud_extinction_per_km(geom, atm):
    """Cloud droplet extinction coefficient, 1/km."""
    vis = cloud_visibility_km(atm)
    q = kim_exponent(vis)
    wav_nm = geom.wavelength_m * 1e9
    return 3.91 / vis * (wav_nm / 550.0) ** (-q)


def cloud_attenuation(geom, atm):
    """Power gain h_c of the cloud layer; 1 when no cloud path is set.

    Bob and Eve look through the same cloud layer, so this one gain
    multiplies both receivers' budgets (see config.link_state), and a
    change of the cloud scales both mean SNRs by the same factor, the
    ratio of the new h_c^2 to the old.
    """
    if atm.cloud_path_km == 0.0:
        return 1.0
    return math.exp(-cloud_extinction_per_km(geom, atm) * atm.cloud_path_km)


def composite_gain(geom, atm, radial_offset_m, separation_m=0.0):
    """Product h_a * h_s * h_c of the deterministic channel gains."""
    return (atmospheric_loss(geom, atm)
            * collection_fraction(geom, radial_offset_m, separation_m)
            * cloud_attenuation(geom, atm))

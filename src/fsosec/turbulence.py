"""Turbulence along the slant path: Hufnagel-Valley profile, Rytov
variance, and the mapping onto Fisher-Snedecor F fading parameters.

The scintillation split uses the plane-wave small/large-scale log
variances of the extended Rytov theory, so the fading shapes depend on
the path only through the Rytov variance.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import quad_adaptive

# integration segments above ground, metres; turbulence is dead far below
# the top of any of our paths, the split just keeps the adaptive rule from
# wasting panels on the empty upper range
_SEGMENT_TOPS = (1e3, 3e3, 1e4, 3e4, 1e5)


@dataclass(frozen=True)
class TurbulenceProfile:
    """Hufnagel-Valley profile inputs.

    wind_speed_m_s is the rms high-altitude wind speed; cn2_ground the
    refractive index structure parameter at ground level, m^(-2/3).
    """

    wind_speed_m_s: float
    cn2_ground: float

    def __post_init__(self):
        if self.wind_speed_m_s < 0.0:
            raise ValueError("wind speed must be >= 0")
        if self.cn2_ground < 0.0:
            raise ValueError("cn2_ground must be >= 0")


def cn2_profile(profile, altitude_m):
    """Refractive index structure parameter at altitude, m^(-2/3).

    Hufnagel-Valley form: a high-altitude wind-driven term peaking near
    10 km, a mid-altitude background, and the ground-layer exponential.
    Elementwise on an array of altitudes; zero below ground level.
    """
    h = np.asarray(altitude_m, dtype=float)
    w = profile.wind_speed_m_s
    with np.errstate(over="ignore"):
        term1 = (0.00594 * (w / 27.0) ** 2 * (1e-5 * h) ** 10
                 * np.exp(-h / 1000.0))
        term2 = 2.7e-16 * np.exp(-h / 1500.0)
        term3 = profile.cn2_ground * np.exp(-h / 100.0)
    out = np.where(h < 0.0, 0.0, term1 + term2 + term3)
    return out if out.ndim else float(out)


def rytov_variance(profile, geom, tol_rel=1e-5):
    """Plane-wave Rytov variance over the slant path.

    sigma_R^2 = 2.25 k^(7/6) sec^(11/6)(zenith) *
                integral of Cn2(h) (h - h_ground)^(5/6) dh
    from ground to satellite altitude, with k the optical wavenumber.
    The integral runs adaptively on altitude segments so the weight of
    the ground layer and the high-altitude bump are both resolved.
    """
    hg = geom.ground_height_m
    hs = geom.satellite_altitude_m
    k = 2.0 * math.pi / geom.wavelength_m
    sec_z = 1.0 / math.cos(geom.zenith_angle_rad)

    def integrand(h):
        return cn2_profile(profile, h) * (h - hg) ** (5.0 / 6.0)

    edges = [hg]
    for top in _SEGMENT_TOPS:
        if hg < top < hs:
            edges.append(top)
    edges.append(hs)
    total = 0.0
    err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = quad_adaptive(integrand, lo, hi, tol_abs=0.0, tol_rel=tol_rel)
        total += v
        err += e
    return 2.25 * k ** (7.0 / 6.0) * sec_z ** (11.0 / 6.0) * total


def scintillation_log_variances(rytov_var):
    """Small- and large-scale log-irradiance variances (plane wave).

    Returns (sigma_lnS^2, sigma_lnL^2).
    """
    s = rytov_var
    if s < 0.0:
        raise ValueError("Rytov variance must be >= 0")
    s125 = s ** (12.0 / 5.0)
    small = 0.51 * s / (1.0 + 0.69 * s125) ** (5.0 / 6.0)
    large = 0.49 * s / (1.0 + 1.11 * s125) ** (7.0 / 6.0)
    return small, large


def fading_shapes_from_rytov(rytov_var):
    """Map the Rytov variance onto the F-fading shape pair (a, b).

    a = 1/(exp(sigma_lnS^2) - 1)    small-scale shape
    b = 1/(exp(sigma_lnL^2) - 1) + 2  large-scale shape

    A vanishing Rytov variance sends both shapes to +inf, the
    no-fading limit; callers should branch on that sentinel.
    """
    small, large = scintillation_log_variances(rytov_var)
    if small == 0.0 or large == 0.0:
        return math.inf, math.inf
    a = 1.0 / math.expm1(small)
    b = 1.0 / math.expm1(large) + 2.0
    return a, b


class TurbulenceRegime(enum.Enum):
    WEAK = "weak"
    MODERATE = "moderate"
    STRONG = "strong"


# the "around one" band read as within a factor of two of unity
_MODERATE_LO = 0.5
_MODERATE_HI = 2.0


def classify_regime(rytov_var):
    """Label the fluctuation regime from the Rytov variance.

    Below one is weak and above one strong; the band within a factor
    of two of unity is labelled moderate.
    """
    if rytov_var < _MODERATE_LO:
        return TurbulenceRegime.WEAK
    if rytov_var <= _MODERATE_HI:
        return TurbulenceRegime.MODERATE
    return TurbulenceRegime.STRONG

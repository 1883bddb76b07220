"""Turbulence along the slant path: Hufnagel-Valley profile, Rytov
variance, and the mapping onto Fisher-Snedecor F fading parameters.

The scintillation split uses the plane-wave small/large-scale log
variances of the extended Rytov theory, so the fading shapes depend on
the path only through the Rytov variance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent

# Hufnagel-Valley terms: wind coefficient, background level (m^(-2/3))
# and the scale heights (m) of the wind, background and ground terms
_HV_WIND = 0.00594
_HV_BACKGROUND = 2.7e-16
_H_WIND = 1000.0
_H_BACKGROUND = 1500.0
_H_GROUND = 100.0
# exponent of the path weight (h - h_ground)^(5/6), plus one
_S0 = 11.0 / 6.0
_EPS = float(np.finfo(float).eps)
# iteration budget of the incomplete-gamma series and fraction, far
# above the 41 steps the worst path from 1 km to 2000 km takes
_GAMMA_MAX_ITER = 500
_GAMMA_TINY = 1e-300


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
        term1 = (_HV_WIND * (w / 27.0) ** 2 * (1e-5 * h) ** 10
                 * np.exp(-h / _H_WIND))
        term2 = _HV_BACKGROUND * np.exp(-h / _H_BACKGROUND)
        term3 = profile.cn2_ground * np.exp(-h / _H_GROUND)
    out = np.where(h < 0.0, 0.0, term1 + term2 + term3)
    return out if out.ndim else float(out)


def _reg_lower_gamma(s, x):
    # regularized lower incomplete gamma P(s, x) for s > 0, x > 0: the
    # power series below x = s + 1, and 1 - Q with Q from the continued
    # fraction (modified Lentz) above it, where each converges fastest
    log_front = s * math.log(x) - x - math.lgamma(s)
    if x < s + 1.0:
        term = total = 1.0 / s
        for n in range(1, _GAMMA_MAX_ITER):
            term *= x / (s + n)
            total += term
            if term < _EPS * total:
                return math.exp(log_front) * total
    else:
        b = x + 1.0 - s
        c = 1.0 / _GAMMA_TINY
        d = 1.0 / b
        h = d
        for n in range(1, _GAMMA_MAX_ITER):
            an = -n * (n - s)
            b += 2.0
            d = an * d + b
            if abs(d) < _GAMMA_TINY:
                d = _GAMMA_TINY
            c = b + an / c
            if abs(c) < _GAMMA_TINY:
                c = _GAMMA_TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) < _EPS:
                return 1.0 - math.exp(log_front) * h
    raise NonConvergent(f"incomplete gamma stalled at s={s!r} x={x!r}")


def _weighted_exp_integral(scale_h, s, length):
    # integral over 0..length of x^(s-1) e^(-x/scale_h) dx
    return scale_h ** s * math.gamma(s) * _reg_lower_gamma(s, length / scale_h)


def rytov_variance(profile, geom):
    """Plane-wave Rytov variance over the slant path.

    sigma_R^2 = 2.25 k^(7/6) sec^(11/6)(zenith) *
                integral of Cn2(h) (h - h_ground)^(5/6) dh
    from ground to satellite altitude, with k the optical wavenumber.
    The integral is taken in closed form: with x = h - h_ground and
    L = h_sat - h_ground, each exponential term of the profile gives
    e^(-h_ground/H) H^s Gamma(s) P(s, L/H) at s = 11/6, and the wind
    term's h^10 = (x + h_ground)^10 is expanded binomially into the
    same form at s = 11/6 + j, j = 0..10.
    """
    hg = geom.ground_height_m
    length = geom.satellite_altitude_m - hg
    k = 2.0 * math.pi / geom.wavelength_m
    sec_z = 1.0 / math.cos(geom.zenith_angle_rad)

    w = profile.wind_speed_m_s
    wind = sum(math.comb(10, j) * hg ** (10 - j)
               * _weighted_exp_integral(_H_WIND, _S0 + j, length)
               for j in range(11))
    total = (_HV_WIND * (w / 27.0) ** 2 * 1e-5 ** 10
             * math.exp(-hg / _H_WIND) * wind
             + _HV_BACKGROUND * math.exp(-hg / _H_BACKGROUND)
             * _weighted_exp_integral(_H_BACKGROUND, _S0, length)
             + profile.cn2_ground * math.exp(-hg / _H_GROUND)
             * _weighted_exp_integral(_H_GROUND, _S0, length))
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

"""Fisher-Snedecor F fading of the optical power gain, and the induced
electrical SNR statistics of an intensity-modulated direct-detection
receiver.

The power gain h_t follows a unit-mean F distribution with small-scale
shape a and large-scale shape b:

    pdf(h) = a^a (b-1)^b h^(a-1) / (B(a,b) (a h + b - 1)^(a+b))

equivalently ((b-1)/a) times a beta-prime(a, b) variate.  The
instantaneous electrical SNR is gamma = 4 * mean_snr * h_t^2, with the
deterministic channel gains folded into mean_snr.  Both shapes are
finite, so every branch fades.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import MeijerGSpec, log_beta, meijer_g, reg_inc_beta


@dataclass(frozen=True)
class FFadingParams:
    """Shape pair of the F fading distribution.

    a is the small-scale (diffractive) shape, b the large-scale
    (refractive) shape, both finite.  b must exceed 1 for the unit-mean
    scaling to exist; the variance additionally needs b > 2.
    """

    a: float
    b: float

    def __post_init__(self):
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"shape a must be in (0, inf), got {self.a!r}")
        if not 1.0 < self.b < math.inf:
            raise ValueError(f"shape b must be in (1, inf), got {self.b!r}")


def _scalar_or_array(x, out):
    # Python float for a scalar argument, the array otherwise
    return out if np.ndim(x) else float(out)


def pdf_ht(params, h):
    """Density of the power gain, elementwise on an array of h.

    Zero for h < 0 and h = inf.  At h = 0 it is inf for a < 1, the
    finite limit for a = 1 and 0 for a > 1.
    """
    a, b = params.a, params.b
    h = np.asarray(h, dtype=float)
    outside = (h < 0.0) | (h == math.inf)
    lb = log_beta(a, b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_p = (a * math.log(a) + b * math.log(b - 1.0) + (a - 1.0) * np.log(h)
                 - lb - (a + b) * np.log(a * h + b - 1.0))
        out = np.where(outside, 0.0, np.exp(log_p))
    if a <= 1.0 and (h == 0.0).any():
        at_zero = (math.inf if a < 1.0 else
                   math.exp(b * math.log(b - 1.0) - lb
                            - (a + b) * math.log(b - 1.0)))
        out = np.where(h == 0.0, at_zero, out)
    return _scalar_or_array(h, out)


def cdf_ht(params, h):
    """Distribution function of the power gain, elementwise on an array.

    0 for h <= 0 and 1 at h = inf.
    """
    h = np.asarray(h, dtype=float)
    a, b = params.a, params.b
    with np.errstate(invalid="ignore", over="ignore"):
        ah = a * h
        z = ah / (ah + b - 1.0)
    # the ends, and gains so large that a*h overflows
    z = np.where(h <= 0.0, 0.0, np.where(ah == math.inf, 1.0, z))
    return _scalar_or_array(h, reg_inc_beta(z, a, b))


def pdf_ht_gform(params, h):
    """Density via the Meijer-G representation; returns (value, error).

    Cross-validation route for pdf_ht, not the workhorse.
    """
    a, b = params.a, params.b
    if not h > 0.0:
        raise ValueError("G-form density needs h > 0")
    spec = MeijerGSpec(1, 1, 1, 1, (1.0 - a - b,), (0.0,), a * h / (b - 1.0))
    log_pref = (a * math.log(a) + (a - 1.0) * math.log(h) - log_beta(a, b)
                - a * math.log(b - 1.0) - math.lgamma(a + b))
    return meijer_g(spec, log_scale=log_pref)


def cdf_ht_gform(params, h):
    """Distribution function via the Meijer-G representation; (value, error)."""
    a, b = params.a, params.b
    if not h > 0.0:
        raise ValueError("G-form distribution needs h > 0")
    spec = MeijerGSpec(1, 2, 2, 2, (1.0 - b, 1.0), (a, 0.0), a * h / (b - 1.0))
    log_pref = -log_beta(a, b) - math.lgamma(a + b)
    return meijer_g(spec, log_scale=log_pref)


def sample_ht(params, rng, n):
    """Draw n power gains as a scaled ratio of gamma variates.

    h = ((b-1)/a) * X / Y with X ~ Gamma(a, 1), Y ~ Gamma(b, 1) is
    exactly the unit-mean F power gain.
    """
    a, b = params.a, params.b
    x = rng.standard_gamma(a, size=n)
    y = rng.standard_gamma(b, size=n)
    return (b - 1.0) / a * x / y


@dataclass(frozen=True)
class SnrChannel:
    """One receiver branch: fading shapes plus mean electrical SNR."""

    fading: FFadingParams
    mean_snr: float

    def __post_init__(self):
        if not (self.mean_snr > 0.0 and math.isfinite(self.mean_snr)):
            raise ValueError(f"mean SNR must be positive and finite, "
                             f"got {self.mean_snr!r}")


def mean_snr_from_budget(tx_power, noise_std, gain):
    """Mean electrical SNR of a square-law receiver branch.

    gamma_bar = 2 * P^2 * G^2 / sigma_n^2 with G the composite
    deterministic power gain and sigma_n the effective noise standard
    deviation (detector responsivity folded in).
    """
    if tx_power <= 0.0 or noise_std <= 0.0 or gain <= 0.0:
        raise ValueError("power, noise and gain must all be positive")
    return 2.0 * (tx_power * gain / noise_std) ** 2


def h_from_snr(channel, snr):
    """Power gain at which the instantaneous SNR equals snr, elementwise."""
    snr = np.asarray(snr, dtype=float)
    if (snr < 0.0).any():
        raise ValueError("SNR must be >= 0")
    return _scalar_or_array(snr, np.sqrt(snr / (4.0 * channel.mean_snr)))


def snr_pdf(channel, snr):
    """Density of the instantaneous electrical SNR, elementwise.

    Zero for snr <= 0.  Where 4 * mean_snr * snr underflows to zero the
    density is taken from its left-tail power law in log space.
    """
    snr = np.asarray(snr, dtype=float)
    out = np.zeros(snr.shape)
    pos = snr > 0.0
    g = snr[pos]
    four = 4.0 * channel.mean_snr
    scale = four * g
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = (pdf_ht(channel.fading, h_from_snr(channel, g))
                * (1.0 / (2.0 * np.sqrt(scale))))
    under = scale == 0.0
    if under.any():
        # the change-of-variable product underflowed; this deep in the
        # left tail the gain density is in its h^(a-1) regime, so the
        # SNR density follows snr^(a/2 - 1) with a computable log
        a, b = channel.fading.a, channel.fading.b
        log_f = (a * math.log(a) - log_beta(a, b) - a * math.log(b - 1.0)
                 - math.log(2.0) + (0.5 * a - 1.0) * np.log(g[under])
                 - 0.5 * a * math.log(four))
        with np.errstate(over="ignore"):
            dens[under] = np.where(log_f > 709.0, math.inf, np.exp(log_f))
    out[pos] = dens
    return _scalar_or_array(snr, out)


def snr_cdf(channel, snr):
    """Distribution of the instantaneous electrical SNR, elementwise."""
    return cdf_ht(channel.fading,
                  h_from_snr(channel, np.maximum(snr, 0.0)))


def snr_pdf_gform(channel, snr):
    """SNR density via the Meijer-G route; returns (value, error)."""
    a, b = channel.fading.a, channel.fading.b
    if not snr > 0.0:
        raise ValueError("G-form SNR density needs snr > 0")
    x = a / (b - 1.0) * math.sqrt(snr / (4.0 * channel.mean_snr))
    spec = MeijerGSpec(1, 1, 1, 1, (1.0 - b,), (a,), x)
    log_pref = -(math.log(2.0) + log_beta(a, b) + math.lgamma(a + b)
                 + math.log(snr))
    return meijer_g(spec, log_scale=log_pref)


def snr_cdf_gform(channel, snr):
    """SNR distribution via the Meijer-G route; returns (value, error)."""
    if not snr > 0.0:
        raise ValueError("G-form SNR distribution needs snr > 0")
    return cdf_ht_gform(channel.fading, h_from_snr(channel, snr))

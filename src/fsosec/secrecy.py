"""Secrecy metrics of the fading wiretap pair.

With instantaneous SNRs gamma_B (intended receiver) and gamma_E
(eavesdropper), the instantaneous secrecy capacity is

    C_s = max(0, log2(1 + gamma_B) - log2(1 + gamma_E))

and the package evaluates its three standard summaries: the average
secrecy capacity (ASC), the secrecy outage probability against a target
rate (exact and as the scale-invariant lower bound), and the
probability of strictly positive secrecy capacity (SPSC).

Each metric comes in at least two independent flavours: adaptive
quadrature of the defining integrals, and closed forms riding on the
Meijer-G evaluator.  The exact-outage and ASC main-channel integrals
have no closed form here on purpose; the quadrature route is the
reference and the G-forms cover the eavesdropper ergodic term and the
outage lower bound.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonConvergent
from .fading import cdf_ht, pdf_ht, snr_cdf, snr_pdf
from .quadrature import quad_positive_axis
from .specfun import MeijerGSpec, log_beta, meijer_g

_LN2 = math.log(2.0)
_METHODS = ("quadrature", "closed_form")


@dataclass(frozen=True)
class WiretapScenario:
    """Bob and Eve SNR branches plus the secrecy target rate (bits)."""

    bob: object
    eve: object
    target_rate: float = 0.0

    def __post_init__(self):
        if not (self.target_rate >= 0.0 and math.isfinite(self.target_rate)):
            raise ValueError(f"target rate must be finite and >= 0, "
                             f"got {self.target_rate!r}")


@dataclass(frozen=True)
class MetricValue:
    """One evaluated metric: value, absolute error estimate, method tag."""

    metric: str
    method: str
    value: float
    error: float


def _fixed_snr(channel):
    # degenerate (no-fading) branch pins h_t at its unit mean
    return 4.0 * channel.mean_snr


def _gain_mode(fading):
    # peak of h * pdf(h), i.e. of the gain density in u = ln h: the
    # derivative of a*u - (a+b)*ln(a*e^u + b - 1) vanishes at (b-1)/b
    return (fading.b - 1.0) / fading.b


def _snr_mode(channel):
    # the same peak in u = ln(snr), since snr = 4 * mean_snr * h^2
    h = _gain_mode(channel.fading)
    return 4.0 * channel.mean_snr * h * h


def _check_method(method):
    if method not in _METHODS:
        raise ValueError(f"unknown analytic method {method!r}")


def _asc_cross_terms(bob, eve):
    # the two fading cross terms both ASC routes integrate, summed;
    # (value, error) in nats
    v1, e1 = quad_positive_axis(
        lambda g: np.log1p(g) * snr_pdf(bob, g) * snr_cdf(eve, g),
        x_peak=_snr_mode(bob))
    v2, e2 = quad_positive_axis(
        lambda g: np.log1p(g) * snr_pdf(eve, g) * snr_cdf(bob, g),
        x_peak=_snr_mode(eve))
    return v1 + v2, e1 + e2


def _asc_value(total, err, method):
    # nats to bits, then the negative-value clamp of both ASC routes
    value = total / _LN2
    err /= _LN2
    if value < 0.0:
        if -value <= max(err, 1e-12):
            value = 0.0
        else:
            raise NonConvergent(f"ASC by {method} produced {value:.3e} "
                                f"below its error bar {err:.3e}")
    return MetricValue("asc", method, value, err)


def asc_quadrature(scenario):
    """Average secrecy capacity by adaptive quadrature.

    Decomposes the positive-part expectation into three single
    integrals over SNR: the main-channel ergodic rate weighted by the
    probability the eavesdropper is weaker, the eavesdropper rate
    weighted by the probability the main channel is weaker, minus the
    unconditional eavesdropper ergodic rate.  A tiny negative total is
    clamped to zero only when it sits inside the combined error bar.
    """
    bob, eve = scenario.bob, scenario.eve
    if bob.fading.no_fading and eve.fading.no_fading:
        value = max(0.0, math.log2(1.0 + _fixed_snr(bob))
                    - math.log2(1.0 + _fixed_snr(eve)))
        return MetricValue("asc", "quadrature", value, 0.0)
    if eve.fading.no_fading:
        ge = _fixed_snr(eve)
        v1, e1 = quad_positive_axis(
            lambda x: np.log1p(ge + x) * snr_pdf(bob, ge + x))
        v2 = math.log1p(ge) * (snr_cdf(bob, ge) - 1.0)
        return _asc_value(v1 + v2, e1, "quadrature")
    if bob.fading.no_fading:
        gb = _fixed_snr(bob)
        v1, e1 = quad_positive_axis(
            lambda g: np.where(g < gb, (math.log1p(gb) - np.log1p(g))
                               * snr_pdf(eve, g), 0.0))
        return _asc_value(v1, e1, "quadrature")
    cross, e_cross = _asc_cross_terms(bob, eve)
    v3, e3 = quad_positive_axis(
        lambda g: np.log1p(g) * snr_pdf(eve, g), x_peak=_snr_mode(eve))
    return _asc_value(cross - v3, e_cross + e3, "quadrature")


def eve_ergodic_rate_closed_form(channel):
    """Eavesdropper ergodic rate E[ln(1+gamma)] via the G-form.

    Returns (value, error) in nats.
    """
    a, b = channel.fading.a, channel.fading.b
    if channel.fading.no_fading:
        return math.log1p(_fixed_snr(channel)), 0.0
    z = a * a / (4.0 * (b - 1.0) ** 2 * channel.mean_snr)
    spec = MeijerGSpec(4, 3, 4, 4,
                       ((1.0 - b) / 2.0, (2.0 - b) / 2.0, 0.0, 1.0),
                       (a / 2.0, (a + 1.0) / 2.0, 0.0, 0.0), z)
    log_pref = ((a + b) * _LN2 - math.log(4.0 * math.pi)
                - log_beta(a, b) - math.lgamma(a + b))
    return meijer_g(spec, log_scale=log_pref)


def asc_closed_form(scenario):
    """ASC with the eavesdropper ergodic term in closed form.

    The two cross terms keep their quadrature route; the method is
    still an independent check of the G-engine because the subtracted
    term dominates whenever the branches are close.
    """
    bob, eve = scenario.bob, scenario.eve
    if bob.fading.no_fading or eve.fading.no_fading:
        return replace(asc_quadrature(scenario), method="closed_form")
    cross, e_cross = _asc_cross_terms(bob, eve)
    v3, e3 = eve_ergodic_rate_closed_form(eve)
    return _asc_value(cross - v3, e_cross + e3, "closed_form")


def _outage_gain_threshold(scenario, h_eve):
    # Bob power gain below which the target rate is in outage, given
    # Eve's gain.  Arranged so the target_rate = 0 case suffers no
    # cancellation for small gains.
    bob, eve = scenario.bob, scenario.eve
    rate_factor = 2.0 ** scenario.target_rate
    offset = math.expm1(scenario.target_rate * _LN2)
    t2 = (offset + rate_factor * 4.0 * eve.mean_snr * h_eve * h_eve) \
        / (4.0 * bob.mean_snr)
    return np.sqrt(t2)


def sop_exact(scenario):
    """Secrecy outage probability by quadrature over the Eve gain."""
    bob, eve = scenario.bob, scenario.eve
    if eve.fading.no_fading and bob.fading.no_fading:
        value = 1.0 if _outage_gain_threshold(scenario, 1.0) > 1.0 else 0.0
        return MetricValue("sop", "quadrature", value, 0.0)
    if eve.fading.no_fading:
        value = cdf_ht(bob.fading, _outage_gain_threshold(scenario, 1.0))
        return MetricValue("sop", "quadrature", value, 0.0)
    if bob.fading.no_fading:
        # outage iff Eve's gain exceeds the level that pins Bob at 1
        t2 = (2.0 ** -scenario.target_rate * (4.0 * bob.mean_snr + 1.0)
              - 1.0) / (4.0 * eve.mean_snr)
        if t2 <= 0.0:
            return MetricValue("sop", "quadrature", 1.0, 0.0)
        value = 1.0 - cdf_ht(eve.fading, math.sqrt(t2))
        return MetricValue("sop", "quadrature", value, 0.0)
    value, err = quad_positive_axis(
        lambda h: cdf_ht(bob.fading, _outage_gain_threshold(scenario, h))
        * pdf_ht(eve.fading, h), x_peak=_gain_mode(eve.fading))
    value = min(max(value, 0.0), 1.0)
    return MetricValue("sop", "quadrature", value, err)


def _lb_scale(scenario):
    # argument of the outage lower bound: the rate-scaled rms gain ratio
    return (2.0 ** (0.5 * scenario.target_rate)
            * math.sqrt(scenario.eve.mean_snr / scenario.bob.mean_snr))


def sop_lower_bound(scenario, method="closed_form"):
    """Scale-invariant lower bound on the outage probability.

    Drops the +1 SNR offsets, so only the gain ratio and the target
    rate enter.  Coincides with sop_exact at target rate zero.  The
    closed form requires both branches to share the fading shapes;
    mismatched shapes fall back to quadrature.
    """
    _check_method(method)
    bob, eve = scenario.bob, scenario.eve
    w = _lb_scale(scenario)
    shared = (bob.fading.a == eve.fading.a and bob.fading.b == eve.fading.b)
    degenerate = bob.fading.no_fading or eve.fading.no_fading
    if method == "closed_form" and shared and not degenerate:
        a, b = bob.fading.a, bob.fading.b
        spec = MeijerGSpec(2, 3, 3, 3,
                           (1.0 - b, 1.0, 1.0 - a), (a, b, 0.0), w)
        log_pref = -2.0 * (log_beta(a, b) + math.lgamma(a + b))
        value, err = meijer_g(spec, log_scale=log_pref)
        value = min(max(value, 0.0), 1.0)
        return MetricValue("sop_lb", "closed_form", value, err)
    if degenerate:
        if eve.fading.no_fading and not bob.fading.no_fading:
            value = cdf_ht(bob.fading, w)
        elif bob.fading.no_fading and not eve.fading.no_fading:
            value = 1.0 - cdf_ht(eve.fading, 1.0 / w)
        else:
            value = 1.0 if w > 1.0 else 0.0
        return MetricValue("sop_lb", "quadrature", value, 0.0)
    value, err = quad_positive_axis(
        lambda h: cdf_ht(bob.fading, w * h) * pdf_ht(eve.fading, h),
        x_peak=_gain_mode(eve.fading))
    value = min(max(value, 0.0), 1.0)
    return MetricValue("sop_lb", "quadrature", value, err)


def spsc(scenario, method="quadrature"):
    """Probability of strictly positive secrecy capacity.

    One minus the outage probability at target rate zero; the closed
    form goes through the outage lower bound, which is exact there.
    """
    _check_method(method)
    zero_rate = replace(scenario, target_rate=0.0)
    if method == "closed_form":
        base = sop_lower_bound(zero_rate, method="closed_form")
    else:
        base = sop_exact(zero_rate)
    return MetricValue("spsc", method, 1.0 - base.value, base.error)


def evaluate_scenario(scenario, method):
    """MetricValues of one analytic method, in the CLI's row order."""
    _check_method(method)
    if method == "quadrature":
        return (asc_quadrature(scenario), sop_exact(scenario),
                sop_lower_bound(scenario, method="quadrature"),
                spsc(scenario, method="quadrature"))
    return (asc_closed_form(scenario),
            sop_lower_bound(scenario, method="closed_form"),
            spsc(scenario, method="closed_form"))

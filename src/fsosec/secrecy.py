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
from contextlib import suppress
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonConvergent, PoleCollision
# snr_cdf has no caller here; bench/tracer.py patches it by name
from .fading import cdf_ht, h_from_snr, pdf_ht, snr_cdf, snr_pdf
from .quadrature import quad_positive_axis, quad_positive_axis_many
from .specfun import MeijerGSpec, log_beta, meijer_g

_LN2 = math.log(2.0)
_METHODS = ("quadrature", "closed_form")
_METRICS = ("asc", "sop", "sop_lb", "spsc")
# the terms the running evaluate_scenario call has computed so far
_SHARED = ContextVar("fsosec_secrecy_shared", default=None)


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


def _cdf_integrals(terms):
    """[(value, error)] of the integrals over (0, inf) of
    weight(x) * cdf_ht(fading, arg(x)), one per term (weight, fading,
    arg, x_peak), run in lockstep: each round evaluates weight and arg
    per integral and cdf_ht once per distinct fading.  cdf_ht acts
    element by element, so each value is that of the integral alone.
    """
    def f_many(ids, xs):
        args = [terms[i][2](x) for i, x in zip(ids, xs)]
        cdfs = [None] * len(ids)
        for fading in dict.fromkeys(terms[i][1] for i in ids):
            sel = [k for k, i in enumerate(ids) if terms[i][1] == fading]
            flat = cdf_ht(fading, np.concatenate([args[k].ravel()
                                                  for k in sel]))
            cuts = np.cumsum([args[k].size for k in sel])[:-1]
            for k, part in zip(sel, np.split(flat, cuts)):
                cdfs[k] = part.reshape(args[k].shape)
        return [terms[i][0](x) * cdf for i, x, cdf in zip(ids, xs, cdfs)]

    return quad_positive_axis_many(f_many, [term[3] for term in terms])


def _shared(terms, compute=_cdf_integrals):
    # compute(list of the terms {key: term}), from the running
    # evaluate_scenario call's memo when it holds every key, else run as
    # one group and kept there; a failure is not kept, so each route
    # meets it.  A key names what varies within one call.
    memo = _SHARED.get()
    if memo is not None and all(key in memo for key in terms):
        return [memo[key] for key in terms]
    results = compute(list(terms.values()))
    if memo is not None:
        memo.update(zip(terms, results))
    return results


def _cdf_terms(scenario, metric, method):
    """{memo key: (weight, fading, arg, x_peak)} of the CDF-weighted
    integrals the route of metric by method takes, the one statement of
    them; empty only for the lower bound's closed form on shared shapes,
    which takes a G-function instead.
    """
    bob, eve = scenario.bob, scenario.eve
    if metric == "asc":
        # both methods: one receiver's rate density over SNR times the
        # other's CDF, each way round
        def term(own, other):
            return (lambda g: np.log1p(g) * snr_pdf(own, g), other.fading,
                    lambda g: h_from_snr(other, np.maximum(g, 0.0)),
                    _snr_mode(own))
        return {"asc_bob": term(bob, eve), "asc_eve": term(eve, bob)}
    if metric == "spsc":
        # those of the zero-rate outage route spsc subtracts from one
        return _cdf_terms(replace(scenario, target_rate=0.0),
                          "sop" if method == "quadrature" else "sop_lb",
                          method)
    # outage: Eve's gain density times Bob's CDF at the threshold gain,
    # or at the lower bound's scaled gain; the lower bound's closed form
    # needs both branches to share the fading shapes
    if metric == "sop":
        arg = lambda h: _outage_gain_threshold(scenario, h)
    elif method == "closed_form" and bob.fading == eve.fading:
        return {}
    else:
        w = _lb_scale(scenario)
        arg = lambda h: w * h
    return {(metric, scenario.target_rate): (
        lambda h: pdf_ht(eve.fading, h), bob.fading, arg,
        _gain_mode(eve.fading))}


def _asc_cross_terms(scenario):
    # the two cross terms summed, (value, error) in nats
    (v1, e1), (v2, e2) = _shared(_cdf_terms(scenario, "asc", None))
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
    eve = scenario.eve
    cross, e_cross = _asc_cross_terms(scenario)
    v3, e3 = quad_positive_axis(
        lambda g: np.log1p(g) * snr_pdf(eve, g), x_peak=_snr_mode(eve))
    return _asc_value(cross - v3, e_cross + e3, "quadrature")


def eve_ergodic_rate_closed_form(channel):
    """Eavesdropper ergodic rate E[ln(1+gamma)] via the G-form.

    Returns (value, error) in nats.
    """
    a, b = channel.fading.a, channel.fading.b
    z = a * a / (4.0 * (b - 1.0) ** 2 * channel.mean_snr)
    spec = MeijerGSpec(4, 3, 4, 4,
                       ((1.0 - b) / 2.0, (2.0 - b) / 2.0, 0.0, 1.0),
                       (a / 2.0, (a + 1.0) / 2.0, 0.0, 0.0), z)
    log_pref = ((a + b) * _LN2 - math.log(4.0 * math.pi)
                - log_beta(a, b) - math.lgamma(a + b))
    return meijer_g(spec, log_scale=log_pref)


def asc_closed_form(scenario):
    """ASC with the eavesdropper ergodic term in closed form.

    The two cross terms keep their quadrature route, the same floats
    asc_quadrature takes; the method is still an independent check of
    the G-engine because the subtracted term dominates whenever the
    branches are close.
    """
    cross, e_cross = _asc_cross_terms(scenario)
    v3, e3 = eve_ergodic_rate_closed_form(scenario.eve)
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


def _lb_scale(scenario):
    # argument of the outage lower bound: the rate-scaled rms gain ratio
    return (2.0 ** (0.5 * scenario.target_rate)
            * math.sqrt(scenario.eve.mean_snr / scenario.bob.mean_snr))


def sop_exact(scenario):
    """Secrecy outage probability by quadrature over the Eve gain."""
    (value, err), = _shared(_cdf_terms(scenario, "sop", "quadrature"))
    return MetricValue("sop", "quadrature", min(max(value, 0.0), 1.0), err)


def sop_lower_bound(scenario, method="closed_form"):
    """Scale-invariant lower bound on the outage probability.

    Drops the +1 SNR offsets, so only the gain ratio and the target
    rate enter.  Coincides with sop_exact at target rate zero.  The
    closed form requires both branches to share the fading shapes;
    mismatched shapes fall back to quadrature.
    """
    _check_method(method)
    terms = _cdf_terms(scenario, "sop_lb", method)
    if terms:
        (value, err), = _shared(terms)
        value = min(max(value, 0.0), 1.0)
        return MetricValue("sop_lb", "quadrature", value, err)
    a, b = scenario.bob.fading.a, scenario.bob.fading.b
    spec = MeijerGSpec(2, 3, 3, 3, (1.0 - b, 1.0, 1.0 - a), (a, b, 0.0),
                       _lb_scale(scenario))
    log_pref = -2.0 * (log_beta(a, b) + math.lgamma(a + b))
    (value, err), = _shared({("sop_lb_g", scenario.target_rate): spec},
                            lambda specs: [meijer_g(s, log_scale=log_pref)
                                           for s in specs])
    value = min(max(value, 0.0), 1.0)
    return MetricValue("sop_lb", "closed_form", value, err)


def spsc(scenario, method="quadrature"):
    """Probability of strictly positive secrecy capacity.

    One minus the outage probability at target rate zero; the closed
    form goes through the outage lower bound, which is exact there.
    The error adds half an ulp of the value for the subtraction.
    """
    _check_method(method)
    zero_rate = replace(scenario, target_rate=0.0)
    if method == "closed_form":
        base = sop_lower_bound(zero_rate, method="closed_form")
    else:
        base = sop_exact(zero_rate)
    return MetricValue("spsc", method, 1.0 - base.value,
                       base.error + 0.5 * math.ulp(1.0 - base.value))


def _routes(method, metrics):
    # the (metric, route, args) calls of one method in the CLI's row
    # order, those among metrics if given; routes by module attribute,
    # so a patched one takes effect
    table = ((("asc", asc_quadrature, ()), ("sop", sop_exact, ()))
             if method == "quadrature" else (("asc", asc_closed_form, ()),))
    table += (("sop_lb", sop_lower_bound, (method,)),
              ("spsc", spsc, (method,)))
    return [row for row in table if metrics is None or row[0] in metrics]


def evaluate_scenario(scenario, methods=_METHODS, metrics=None):
    """{method: its MetricValues in the CLI's row order (those among
    metrics, if given), or the PoleCollision or NonConvergent it raised}
    of one scenario; a term two routes share is computed once per call,
    the CDF-weighted integrals all together, and each value equals that
    of the standalone route.
    """
    if isinstance(methods, str):
        raise TypeError(f"methods is a tuple of names: ({methods!r},)")
    for method in methods:
        _check_method(method)
    if not set(metrics or ()) <= set(_METRICS):
        raise ValueError(f"unknown metric name in {metrics!r}")
    routes = {method: _routes(method, metrics) for method in methods}
    out = {}
    token = _SHARED.set({})
    try:
        # every route's CDF-weighted integrals as one group; a failed
        # group keeps nothing, so each route meets its own failure
        group = {}
        for method, rows in routes.items():
            for metric, _, _ in rows:
                group.update(_cdf_terms(scenario, metric, method))
        if group:
            with suppress(NonConvergent):
                _shared(group)
        for method, rows in routes.items():
            try:
                out[method] = tuple(route(scenario, *args)
                                    for _, route, args in rows)
            except (PoleCollision, NonConvergent) as exc:
                out[method] = exc
    finally:
        _SHARED.reset(token)
    return out

"""Secrecy metrics of the fading wiretap pair.

With instantaneous SNRs gamma_B (intended receiver) and gamma_E
(eavesdropper), the instantaneous secrecy capacity is

    C_s = max(0, log2(1 + gamma_B) - log2(1 + gamma_E))

and the package evaluates its three standard summaries: the average
secrecy capacity (ASC), the secrecy outage probability against a target
rate (exact and as the scale-invariant lower bound), and the
probability of strictly positive secrecy capacity (SPSC).

Each metric but the exact outage comes in two flavours: quadrature of
the defining integrals over a receiver's power gain, on the log axis,
and closed forms riding on the Meijer-G evaluator.  They are not fully
independent: the exact outage and the two ASC cross terms have no
closed form here, so the ASC closed form takes its cross terms from the
quadrature as the same floats, and the G-forms cover only the
eavesdropper ergodic term and the outage lower bound.  The outage, its
lower bound (no +1 offsets) and one minus SPSC (the lower bound at rate
0, where it is exact) are one integrand, at rate 0 one integral, and
the lower bound at the target rate and at 0 is one G-family.
"""

import math
from contextlib import suppress
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonConvergent
from .fading import cdf_ht, pdf_ht
from .quadrature import quad_positive_axis
from .specfun import (_EPS, _LOG_GAMMA_ULPS, _TINY, MeijerGSpec, log_beta,
                      meijer_g)

_LN2 = math.log(2.0)
_METHODS = ("quadrature", "closed_form")
# the terms the running evaluate_scenario call has computed so far
_SHARED = ContextVar("fsosec_secrecy_shared", default=None)


@dataclass(frozen=True)
class WiretapScenario:
    """Bob and Eve SNR branches plus the secrecy target rate (bits)."""

    bob: object
    eve: object
    target_rate: float = 0.0

    def __post_init__(self):
        # from 1024 bits on, 2^R overflows a double
        if not 0.0 <= self.target_rate < 1024.0:
            raise ValueError(f"target rate must be in [0, 1024) bits, "
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


def _rate(mean_snr, h):
    # ln(1 + snr) at the gain h, snr = mean_snr * h^2 * 4 (the 4 last,
    # exact for normal doubles): the factor of the gain density in the
    # channel's ergodic rate.  Where snr overflows, ln(1 + snr) is ln mean_snr + 2 ln 2
    # + 2 ln h to the last bit
    out = np.log1p(mean_snr * h * h * 4.0)
    big = np.isinf(out)
    if big.any():
        out[big] = (math.log(mean_snr) + 2.0 * _LN2) + 2.0 * np.log(h[big])
    return out


def _check_method(method):
    if method not in _METHODS:
        raise ValueError(f"unknown analytic method {method!r}")


def _log_terms(fading, h, front=False):
    # the log terms of pdf_ht(fading, h), or with front those of the
    # front z^a (1 - z)^b / B(a, b) of reg_inc_beta in cdf_ht(fading, h),
    # log_beta counted as its three lgammas
    a, b = fading.a, fading.b
    terms = [math.lgamma(a), math.lgamma(b), math.lgamma(a + b)]
    if not front:
        return terms + [a * math.log(a), b * math.log(b - 1.0),
                        (a - 1.0) * math.log(h),
                        (a + b) * math.log(a * h + b - 1.0)]
    z = a * h / (a * h + b - 1.0)
    # at z = 0 or 1 the value is exact and has no front
    return terms + ([a * math.log(z), b * math.log1p(-z)]
                    if 0.0 < z < 1.0 else [])


def _rounding(*parts):
    """Relative rounding bound of an integrand built on pdf_ht and
    cdf_ht, from the log terms of each part (fading, gain, front) at the
    gain where the mass is: exp carries a log term's absolute rounding,
    about _LOG_GAMMA_ULPS eps per unit of its size, into the value.
    Raises NonConvergent, naming the shapes, when it reaches 1.
    """
    terms = [t for part in parts for t in _log_terms(*part)]
    rel = _EPS * (1.0 + _LOG_GAMMA_ULPS * (len(terms)
                                            + sum(map(abs, terms))))
    if not rel < 1.0:
        shapes = ", ".join(dict.fromkeys(f"(a={fading.a:g}, b={fading.b:g})"
                                         for fading, _, _ in parts))
        raise NonConvergent(f"the integrand at shapes {shapes} loses "
                            f"every digit to rounding")
    return rel


def _per_fading(kernel, calls):
    # {k: kernel(fading, x)} of the calls {k: (fading, x)}, one call per
    # distinct fading on the concatenated abscissae, which the kernels
    # take element by element, so each part is that of its own call
    out = {}
    for fading in dict.fromkeys(fading for fading, _ in calls.values()):
        sel = [k for k, (own, _) in calls.items() if own == fading]
        xs = [calls[k][1] for k in sel]
        if len(sel) == 1:
            out[sel[0]] = kernel(fading, xs[0])
        else:
            flat = kernel(fading, np.concatenate(xs))
            cuts = np.cumsum([x.size for x in xs])[:-1]
            out.update(zip(sel, np.split(flat, cuts)))
    return out


def _cdf_integrals(terms):
    """[(value, error)] of the integrals over (0, inf) of
    rate(h) * pdf_ht(own, h) * cdf_ht(fading, arg(h)), one per term
    (rate, own, fading, arg), rate None for a factor of 1 and fading
    None for no CDF factor, run in lockstep: each round evaluates rate
    and arg per integral, and pdf_ht and cdf_ht once per distinct
    fading each.  Each is hinted at the mode of the density of own, and
    its error adds the rounding of the integrand there: that of the
    density and of cdf_ht.
    """
    peaks = [_gain_mode(own) for _, own, _, _ in terms]
    with np.errstate(all="ignore"):
        rounding = [_rounding((own, peak, False), *(
            [] if fading is None else [(fading, arg(peak), True)]))
                    for (_, own, fading, arg), peak in zip(terms, peaks)]

    def f(xs):
        # the kernels by module attribute, so a patched one takes effect
        pdfs = _per_fading(pdf_ht, {i: (terms[i][1], x)
                                    for i, x in xs.items()})
        cdfs = _per_fading(cdf_ht, {i: (terms[i][2], terms[i][3](x))
                                    for i, x in xs.items()
                                    if terms[i][2] is not None})
        out = {}
        for i, x in xs.items():
            rate, _, fading, _ = terms[i]
            value = pdfs[i] if rate is None else rate(x) * pdfs[i]
            out[i] = value if fading is None else value * cdfs[i]
        return out

    return [(value, err + rel * abs(value)) for (value, err), rel in zip(
        quad_positive_axis(f, peaks), rounding)]


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
    """{memo key: (rate, own, fading, arg)} of the quadrature integrals
    the route of metric by method takes, the one statement of them,
    each over the power gain of the receiver whose density, of fading
    own, weighs it; empty only for the lower bound's closed form, which
    takes a G-function instead.  An outage term is keyed ("outage",
    off, w), so at rate 0 the exact outage and the lower bound are one
    integral.
    """
    bob, eve = scenario.bob, scenario.eve
    if metric == "asc":
        # both methods: one receiver's rate density over its gain times
        # the other's CDF at the gain of equal SNR, each way round; by
        # quadrature also Eve's ergodic rate, her rate density alone
        def term(own, other):
            ratio = math.sqrt(own.mean_snr / other.mean_snr)
            return (lambda h: _rate(own.mean_snr, h), own.fading,
                    other.fading, lambda h: ratio * h)
        terms = {"asc_bob": term(bob, eve), "asc_eve": term(eve, bob)}
        if method == "quadrature":
            terms["eve_ergodic"] = (lambda h: _rate(eve.mean_snr, h),
                                    eve.fading, None, None)
        return terms
    if metric == "spsc":
        # those of the zero-rate lower bound spsc subtracts from one
        metric, scenario = "sop_lb", replace(scenario, target_rate=0.0)
    if metric == "sop_lb" and method == "closed_form":
        return {}
    # outage: Eve's gain density times Bob's CDF at the gain below which
    # Bob is in outage, sqrt(off + (w h)^2), off = 0 for the lower bound;
    # (w*h)*(w*h), as a ** raises on a Python float that overflows
    w = _lb_scale(scenario)
    off = (math.expm1(scenario.target_rate * _LN2) / (4.0 * bob.mean_snr)
           if metric == "sop" else 0.0)
    arg = ((lambda h: np.sqrt(off + (w * h) * (w * h))) if off
           else (lambda h: w * h))
    return {("outage", off, w): (None, eve.fading, bob.fading, arg)}


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
    """Average secrecy capacity by quadrature.

    Decomposes the positive-part expectation into three single
    integrals, each over the power gain of the receiver whose rate it
    takes: the main-channel ergodic rate weighted by the probability
    the eavesdropper is weaker, the eavesdropper rate weighted by the
    probability the main channel is weaker, minus the unconditional
    eavesdropper ergodic rate, all three in one lockstep group.  Each
    error carries the rounding of its integrand.  A tiny negative total
    is clamped to zero only when it sits inside the combined error bar.
    """
    (v1, e1), (v2, e2), (v3, e3) = _shared(
        _cdf_terms(scenario, "asc", "quadrature"))
    return _asc_value(v1 + v2 - v3, e1 + e2 + e3, "quadrature")


def eve_ergodic_rate_closed_form(channel):
    """Eavesdropper ergodic rate E[ln(1+gamma)] via the G-form.

    Returns (value, error) in nats.
    """
    a, b = channel.fading.a, channel.fading.b
    # ln of the argument a^2 / (4 (b - 1)^2 mean_snr)
    log_z = (2.0 * (math.log(a) - math.log(b - 1.0) - _LN2)
             - math.log(channel.mean_snr))
    spec = MeijerGSpec(4, 3, 4, 4,
                       ((1.0 - b) / 2.0, (2.0 - b) / 2.0, 0.0, 1.0),
                       (a / 2.0, (a + 1.0) / 2.0, 0.0, 0.0), log_z)
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
    (v1, e1), (v2, e2) = _shared(_cdf_terms(scenario, "asc", "closed_form"))
    v3, e3 = eve_ergodic_rate_closed_form(scenario.eve)
    return _asc_value(v1 + v2 - v3, e1 + e2 + e3, "closed_form")


def _lb_scale(scenario):
    # the scale w of the lower bound's CDF argument w h in the outage
    # quadrature: the rate-scaled rms gain ratio, of the roots where the
    # mean SNRs' ratio leaves the normal range
    eve, bob = scenario.eve.mean_snr, scenario.bob.mean_snr
    root = (math.sqrt(eve / bob) if _TINY <= eve / bob < math.inf
            else math.sqrt(eve) / math.sqrt(bob))
    return 2.0 ** (0.5 * scenario.target_rate) * root


def _probability(metric, method, value, err):
    # the MetricValue of a probability, its value clamped to [0, 1]; + 0.0
    # turns a -0.0 into 0.0, and a nan stays nan.  A bar of 1 or more
    # bounds nothing, and the clamp would hide that
    if not err < 1.0:
        raise NonConvergent(f"{metric} by {method} has the error bar "
                            f"{err:.3g}, which spans every probability")
    return MetricValue(metric, method, min(max(value, 0.0), 1.0) + 0.0, err)


def sop_exact(scenario):
    """Secrecy outage probability by quadrature over the Eve gain: the
    lower bound's integrand with the +1 offsets, at rate 0 its integral."""
    (value, err), = _shared(_cdf_terms(scenario, "sop", "quadrature"))
    return _probability("sop", "quadrature", value, err)


def sop_lower_bound(scenario, method="closed_form"):
    """Scale-invariant lower bound on the outage probability.

    Drops the +1 SNR offsets, so only the gain ratio and the target
    rate enter; at target rate zero it is sop_exact's integral.  The
    closed form, a G^{2,3}_{3,3}, is P(U < z) for U = X_B Y_E / (Y_B X_E)
    with X ~ Gamma(a), Y ~ Gamma(b) of each branch's own shapes; it is
    one G-family with the zero-rate member spsc takes.  Its log
    argument is a sum of one log per factor, so it is finite for every
    scenario.  A probability whose error bar reaches 1 raises
    NonConvergent.
    """
    _check_method(method)
    terms = _cdf_terms(scenario, "sop_lb", method)
    if terms:
        (value, err), = _shared(terms)
        return _probability("sop_lb", method, value, err)
    bob, eve = scenario.bob.fading, scenario.eve.fading
    # ln z at rate r: the shape logs in Bob/Eve pairs, so that shared
    # shapes give exactly 0, then the mean SNRs' and the rate's
    family = {("sop_lb_g", r): (
        (math.log(bob.a) - math.log(eve.a))
        + (math.log(eve.b - 1.0) - math.log(bob.b - 1.0))
        + 0.5 * (math.log(scenario.eve.mean_snr)
                 - math.log(scenario.bob.mean_snr))
        + 0.5 * r * _LN2) for r in (0.0, scenario.target_rate)}
    log_pref = -((log_beta(bob.a, bob.b) + math.lgamma(bob.a + bob.b))
                 + (log_beta(eve.a, eve.b) + math.lgamma(eve.a + eve.b)))
    # the target rate's member is the family's last
    value, err = _shared(family, lambda args: meijer_g(
        MeijerGSpec(2, 3, 3, 3, (1.0 - bob.b, 1.0, 1.0 - eve.a),
                    (bob.a, eve.b, 0.0), tuple(args)),
        log_scale=log_pref))[-1]
    return _probability("sop_lb", method, value, err)


def spsc(scenario, method="quadrature"):
    """Probability of strictly positive secrecy capacity.

    One minus the outage lower bound at target rate zero, where it is
    exact, by either method: the closed form is the zero-rate member of
    the G-family of the scenario's lower bound.  The error adds half an
    ulp of the value for the subtraction.
    """
    base = sop_lower_bound(replace(scenario, target_rate=0.0), method)
    value = 1.0 - base.value
    return MetricValue("spsc", method, value,
                       base.error + 0.5 * math.ulp(value))


def _routes(method):
    # the (metric, route, args) calls of one method in the CLI's row
    # order; routes by module attribute, so a patched one takes effect
    table = ((("asc", asc_quadrature, ()), ("sop", sop_exact, ()))
             if method == "quadrature" else (("asc", asc_closed_form, ()),))
    return table + (("sop_lb", sop_lower_bound, (method,)),
                    ("spsc", spsc, (method,)))


def evaluate_scenario(scenario, methods=_METHODS):
    """{method: a tuple of one outcome per route of every metric of the
    method, in the CLI's row order} of one scenario, an outcome being
    the route's MetricValue or the NonConvergent it raised, the one
    exception a route raises; a term two routes share is computed once
    per call, the quadrature integrals all in one lockstep group, and
    each outcome equals that of the standalone route.
    """
    if isinstance(methods, str):
        raise TypeError(f"methods is a tuple of names: ({methods!r},)")
    for method in methods:
        _check_method(method)
    routes = {method: _routes(method) for method in methods}
    out = {}
    token = _SHARED.set({})
    try:
        # every route's quadrature integrals as one group; a failed
        # group keeps nothing, so each route meets its own failure
        group = {}
        for method, rows in routes.items():
            for metric, _, _ in rows:
                group.update(_cdf_terms(scenario, metric, method))
        if group:
            with suppress(NonConvergent):
                _shared(group)
        for method, rows in routes.items():
            outcomes = []
            for _, route, args in rows:
                try:
                    outcomes.append(route(scenario, *args))
                except NonConvergent as exc:
                    outcomes.append(exc)
            out[method] = tuple(outcomes)
    finally:
        _SHARED.reset(token)
    return out

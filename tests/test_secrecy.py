"""Secrecy metrics: route agreement, analytic identities, frozen
references (mpmath, 50 digits), and degenerate branches."""
import importlib.util
import math
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from fsosec import secrecy
from fsosec.config import build_scenario, parse_config
from fsosec.errors import NonConvergent, PoleCollision
from fsosec.fading import FFadingParams, SnrChannel, cdf_ht, pdf_ht
from fsosec.mc import MC_METRICS
from fsosec.quadrature import quad_positive_axis, quad_positive_axis_many
from fsosec.secrecy import (MetricValue, WiretapScenario, asc_closed_form,
                            asc_quadrature, eve_ergodic_rate_closed_form,
                            evaluate_scenario, sop_exact, sop_lower_bound,
                            spsc)
from fsosec.specfun import (MeijerGSpec, _gamma_factors, _reduce_factors,
                            log_beta, meijer_g, reg_inc_beta)

BOB = SnrChannel(FFadingParams(9.1, 11.7), 472.7)
EVE = SnrChannel(FFadingParams(9.1, 11.7), 48.3)
PAIR = WiretapScenario(BOB, EVE, target_rate=0.5)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _all_values(report):
    # every route of every method of an evaluate_scenario report gave
    # a MetricValue: one that raised would sit in its tuple instead
    return all(isinstance(mv, MetricValue)
               for rows in report.values() for mv in rows)


def _ergodic_rate(chan):
    # (value, error) of E[ln(1 + gamma)] in nats by its defining integral
    # over the gain h, gamma = 4 * mean_snr * h^2
    return quad_positive_axis(lambda h: np.log1p(4.0 * chan.mean_snr * h * h)
                              * pdf_ht(chan.fading, h))


def test_eve_ergodic_rate_frozen():
    cases = [
        ((9.1, 11.7, 48.3), 5.0693828023574918),
        ((2.5, 3.2, 10.0), 3.0270691202039907),
        ((5.0, 6.5, 483.0), 7.1850698413893746),
        ((1.2, 2.4, 1.0), 1.1658135396565217),
    ]
    for (a, b, snr), want in cases:
        chan = SnrChannel(FFadingParams(a, b), snr)
        val, err = eve_ergodic_rate_closed_form(chan)
        assert val == pytest.approx(want, rel=1e-10)
        assert abs(val - want) <= max(10.0 * err, 1e-10 * want)


def test_eve_ergodic_rate_error_bar_covers_mpmath_oracle():
    # small a, large b and a low SNR: the log-gamma terms in front of the
    # contour integral are large, so their rounding must be in the bar
    a, b, snr = 0.39, 210.5, 0.42
    val, err = eve_ergodic_rate_closed_form(
        SnrChannel(FFadingParams(a, b), snr))
    with mp.workdps(30):
        ma, mb, mg = mp.mpf(a), mp.mpf(b), mp.mpf(snr)
        log_norm = (ma * mp.log(ma) + mb * mp.log(mb - 1)
                    - mp.log(mp.beta(ma, mb)))

        def weight(u):
            # E[ln(1 + gamma)] over ln h, gamma = 4 snr h^2
            h = mp.exp(u)
            return (mp.log1p(4 * mg * h * h)
                    * mp.exp(log_norm + ma * u - (ma + mb) * mp.log(ma * h + mb - 1)))
        oracle = mp.quad(weight, [-mp.inf, -20, -5, -1, 0, 1, 3, mp.inf])
    assert abs(val - float(oracle)) <= err


def test_eve_ergodic_rate_matches_quadrature():
    for chan in (EVE, SnrChannel(FFadingParams(2.5, 3.2), 10.0)):
        closed, _ = eve_ergodic_rate_closed_form(chan)
        direct, _ = _ergodic_rate(chan)
        assert closed == pytest.approx(direct, rel=1e-8)


def test_coincident_integer_shapes_agree_across_routes(monkeypatch):
    # integer shapes that put Gamma factors of the G-forms a whole unit
    # apart (a = b + 1 at (2,3,3,3); b = 3 or 4 at (4,3,4,4)) or on one
    # point (a = b): the reduced Phi keeps a positive-power linear
    # factor, so the saddle search runs on a non-convex energy.  Each
    # closed form must still sit within the summed errors of its
    # quadrature route, over seeded SNRs and target rates.
    specs = []
    real = secrecy.meijer_g

    def spy(spec, **kwargs):
        specs.append(spec)
        return real(spec, **kwargs)

    monkeypatch.setattr(secrecy, "meijer_g", spy)
    rng = np.random.default_rng(15)
    checked = 0
    for a, b in ((3, 2), (4, 3), (8, 7), (5, 4), (2, 4), (6, 4), (10, 4),
                 (2, 2)):
        fading = FFadingParams(float(a), float(b))
        for _ in range(10):
            snr_bob = 10.0 ** rng.uniform(-2.0, 6.0)
            eve = SnrChannel(fading, snr_bob * 10.0 ** rng.uniform(-4.0, 1.0))
            closed, c_err = eve_ergodic_rate_closed_form(eve)
            direct, d_err = _ergodic_rate(eve)
            assert abs(closed - direct) <= c_err + d_err, (a, b, eve)
            scen = WiretapScenario(SnrChannel(fading, snr_bob), eve,
                                   float(rng.choice((0.0, 0.5, 2.0))))
            lb_c = sop_lower_bound(scen, method="closed_form")
            lb_q = sop_lower_bound(scen, method="quadrature")
            assert lb_c.method == "closed_form"
            assert abs(lb_c.value - lb_q.value) <= lb_c.error + lb_q.error, \
                (a, b, scen)
            checked += 2
    assert checked == 160 and len(specs) == checked
    linears = [_reduce_factors(_gamma_factors(spec))[1] for spec in specs]
    for order in ((4, 3, 4, 4), (2, 3, 3, 3)):
        assert any(power > 0.0
                   for spec, lin in zip(specs, linears)
                   if (spec.m, spec.n, spec.p, spec.q) == order
                   for _, _, power in lin), order


def test_asc_routes_agree():
    for scen in (PAIR,
                 WiretapScenario(SnrChannel(FFadingParams(2.5, 3.2), 100.0),
                                 SnrChannel(FFadingParams(2.5, 3.2), 25.0)),
                 WiretapScenario(SnrChannel(FFadingParams(5.0, 6.5), 483.0),
                                 SnrChannel(FFadingParams(1.2, 2.4), 1.0))):
        q = asc_quadrature(scen)
        c = asc_closed_form(scen)
        assert q.value == pytest.approx(c.value, rel=1e-8)
        assert abs(q.value - c.value) <= 10.0 * (q.error + c.error) + 1e-12
        assert q.value >= 0.0


def test_asc_weak_eavesdropper_limit():
    # as the tap vanishes the ASC tends to Bob's ergodic rate
    weak = WiretapScenario(BOB, SnrChannel(FFadingParams(9.1, 11.7), 1e-12))
    rate, _ = _ergodic_rate(BOB)
    assert asc_quadrature(weak).value == pytest.approx(rate / math.log(2.0), rel=1e-6)


def test_sop_zero_rate_equals_lower_bound(monkeypatch):
    zero = WiretapScenario(BOB, EVE, target_rate=0.0)
    exact = sop_exact(zero)
    lb_q = sop_lower_bound(zero, method="quadrature")
    lb_c = sop_lower_bound(zero, method="closed_form")
    assert exact.value == pytest.approx(lb_q.value, abs=1e-8)
    assert exact.value == pytest.approx(lb_c.value, abs=1e-8)
    # at rate 0 the exact outage is the lower bound's integral, float
    # for float, and the planner integrates it once for both and SPSC
    groups = []

    def recorded_many(f_many, x_peaks):
        groups.append(len(x_peaks))
        return quad_positive_axis_many(f_many, x_peaks)

    monkeypatch.setattr(secrecy, "quad_positive_axis_many", recorded_many)
    for scen in [zero] + _drawn_scenarios(20261019, 8):
        scen = replace(scen, target_rate=0.0)
        try:
            want = sop_exact(scen)
        except NonConvergent:
            continue
        lb = sop_lower_bound(scen, method="quadrature")
        assert (lb.value, lb.error) == (want.value, want.error)
        groups.clear()
        report = evaluate_scenario(scen, ("quadrature",),
                                   ("sop", "sop_lb", "spsc"))
        assert [row.value for row in report["quadrature"][:2]] == [
            want.value] * 2
        assert groups == [1]


def test_sop_lower_bound_frozen():
    # shared shapes, mean-SNR ratio chosen to land on the frozen argument
    cases = [
        ((2.5, 3.2), 0.7, 0.38999567679164503),
        ((9.1, 11.7), 0.32, 0.037759057741964214),
        ((5.0, 6.5), 1.8, 0.75002784926544808),
    ]
    for (a, b), w, want in cases:
        scen = WiretapScenario(SnrChannel(FFadingParams(a, b), 1.0),
                               SnrChannel(FFadingParams(a, b), w * w),
                               target_rate=0.0)
        got = sop_lower_bound(scen, method="closed_form")
        assert got.value == pytest.approx(want, rel=1e-9)
        quad = sop_lower_bound(scen, method="quadrature")
        assert quad.value == pytest.approx(want, rel=1e-8)


def test_sop_lower_bound_is_a_lower_bound():
    for rate in (0.25, 0.5, 2.0):
        scen = WiretapScenario(BOB, EVE, target_rate=rate)
        assert (sop_lower_bound(scen).value
                <= sop_exact(scen).value + 1e-10)


def test_sop_monotone_in_target_rate():
    vals = [sop_exact(WiretapScenario(BOB, EVE, target_rate=r)).value
            for r in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert 0.0 <= vals[0] and vals[-1] <= 1.0


def test_equal_channels_split_evenly():
    scen = WiretapScenario(EVE, EVE, target_rate=0.0)
    assert sop_lower_bound(scen, method="closed_form").value == pytest.approx(0.5, abs=1e-9)
    assert sop_exact(scen).value == pytest.approx(0.5, abs=1e-8)
    assert spsc(scen).value == pytest.approx(0.5, abs=1e-8)


def test_spsc_complements_zero_rate_outage():
    for scen in (PAIR, WiretapScenario(EVE, BOB)):
        zero = WiretapScenario(scen.bob, scen.eve, target_rate=0.0)
        s_q = spsc(scen, method="quadrature")
        assert s_q.value + sop_exact(zero).value == pytest.approx(1.0, abs=1e-12)
        s_c = spsc(scen, method="closed_form")
        assert s_c.value == pytest.approx(s_q.value, abs=1e-8)


def _betaprime_sop_lb(scenario):
    # Independent reference for the outage lower bound P(h_B < w h_E),
    # w = _lb_scale: each gain is (b-1)/a times a beta-prime(a, b)
    # variate, whose CDF at y is scipy's betainc(a, b, y / (1 + y)), and
    # Eve's density times Bob's CDF at w h is integrated by QUADPACK
    # over t = ln y_E, with breaks at Eve's median and where z y_E = 1.
    from scipy import integrate, special

    (a_b, b_b), (a_e, b_e) = ((ch.fading.a, ch.fading.b)
                              for ch in (scenario.bob, scenario.eve))
    z = secrecy._lb_scale(scenario) * a_b * (b_e - 1.0) / ((b_b - 1.0) * a_e)
    log_beta_e = special.betaln(a_e, b_e)

    def integrand(t):
        # Eve's log beta-prime density in t, times Bob's CDF at z e^t
        y = math.exp(t)
        return (math.exp(a_e * t - (a_e + b_e) * math.log1p(y) - log_beta_e)
                * special.betainc(a_b, b_b, z * y / (1.0 + z * y)))

    half = special.betaincinv(a_e, b_e, 0.5)
    mid = math.log(half / (1.0 - half))
    lo, hi = max(mid - 200.0, -700.0), min(mid + 200.0, 700.0)
    cuts = sorted({lo, mid, min(max(-math.log(z), lo), hi), hi})
    return sum(integrate.quad(integrand, t0, t1, epsabs=0.0,
                              epsrel=1e-12, limit=500)[0]
               for t0, t1 in zip(cuts, cuts[1:]))


def _own_shape_scenarios(seed, count):
    # draws of _drawn_scenarios with Eve's own shapes, over the four
    # target rates in turn
    return [replace(s, target_rate=(0.0, 0.5, 2.0, 8.0)[k % 4])
            for k, s in enumerate(_drawn_scenarios(seed, 2 * count)[1::2])]


def test_own_shapes_take_the_closed_form():
    # the G-form of the gain ratio holds for any shape pair: within the
    # summed errors of the quadrature route, and within its error plus
    # QUADPACK's 1e-12 of the scipy beta-prime reference
    for scen in _own_shape_scenarios(20261019, 16):
        assert scen.bob.fading != scen.eve.fading
        got = sop_lower_bound(scen, "closed_form")
        assert got.method == "closed_form"
        quad = sop_lower_bound(scen, "quadrature")
        assert abs(got.value - quad.value) <= got.error + quad.error
        assert abs(got.value - _betaprime_sop_lb(scen)) <= got.error + 1e-12
        if scen.target_rate == 0.0:
            pos = spsc(scen, "closed_form")
            assert pos.method == "closed_form"
            assert abs(pos.value - (1.0 - _betaprime_sop_lb(scen))) \
                <= pos.error + 1e-12


def test_shared_shapes_keep_the_closed_form_floats():
    # at shared shapes the gain-ratio G-form reduces to the shared-shape
    # spec, argument and prefactor, float for float: the last member of
    # the family of the zero and the target rate
    for scen in _drawn_scenarios(20261019, 8)[::2]:
        a, b = scen.bob.fading.a, scen.bob.fading.b
        zs = dict.fromkeys(secrecy._lb_scale(replace(scen, target_rate=r))
                           for r in (0.0, scen.target_rate))
        spec = MeijerGSpec(2, 3, 3, 3, (1.0 - b, 1.0, 1.0 - a), (a, b, 0.0),
                           tuple(zs))
        value, err = meijer_g(
            spec, log_scale=-2.0 * (log_beta(a, b) + math.lgamma(a + b)))[-1]
        assert sop_lower_bound(scen, "closed_form") == secrecy.MetricValue(
            "sop_lb", "closed_form", min(max(value, 0.0), 1.0), err)


def test_standalone_spsc_takes_a_family_of_one(monkeypatch):
    # SPSC alone evaluates only the zero-rate member of the family, the
    # first member of the planner's, so both give the same floats
    specs = []
    real = secrecy.meijer_g

    def spy(spec, **kwargs):
        specs.append(spec)
        return real(spec, **kwargs)

    monkeypatch.setattr(secrecy, "meijer_g", spy)
    alone = spsc(PAIR, "closed_form")
    assert [len(spec.z) for spec in specs] == [1]
    assert specs[0].z[0] == secrecy._lb_scale(replace(PAIR, target_rate=0.0))
    assert evaluate_scenario(PAIR, ("closed_form",),
                             ("sop_lb", "spsc"))["closed_form"][1] == alone
    assert [len(spec.z) for spec in specs] == [1, 2]


def test_overflowing_rate_member_fails_only_its_own_route():
    # at 1023 bits the lower bound's argument 2^(R/2) z(0) leaves the
    # double range while z(0) does not: the closed-form lower bound
    # fails, and SPSC takes the zero-rate member of its family alone,
    # standalone and in the planner
    scen = WiretapScenario(SnrChannel(FFadingParams(9.1, 11.7), 1e-158),
                           SnrChannel(FFadingParams(1.2, 40.0), 1e150),
                           1023.0)
    with pytest.raises(NonConvergent, match="outside the range of a double"):
        sop_lower_bound(scen, "closed_form")
    alone = spsc(scen, "closed_form")
    assert alone == spsc(replace(scen, target_rate=0.0), "closed_form")
    assert evaluate_scenario(scen, ("closed_form",), ("spsc",)) == {
        "closed_form": (alone,)}


def test_evaluate_scenario_report():
    report = evaluate_scenario(PAIR, ("quadrature", "closed_form"))
    quad, closed = report["quadrature"], report["closed_form"]
    # one method's rows, in CSV row order
    assert [(mv.metric, mv.method) for mv in quad] == [
        ("asc", "quadrature"), ("sop", "quadrature"),
        ("sop_lb", "quadrature"), ("spsc", "quadrature")]
    assert [(mv.metric, mv.method) for mv in closed] == [
        ("asc", "closed_form"), ("sop_lb", "closed_form"),
        ("spsc", "closed_form")]
    assert quad[0] == asc_quadrature(PAIR)
    assert closed[0] == asc_closed_form(PAIR)
    assert closed[2].value == pytest.approx(quad[3].value, abs=1e-8)
    assert evaluate_scenario(PAIR) == report
    # a metric set keeps the row order of what it names
    assert evaluate_scenario(PAIR, ("closed_form",), ("spsc", "asc")) == {
        "closed_form": (closed[0], closed[2])}
    with pytest.raises(ValueError):
        evaluate_scenario(PAIR, ("fancy",))
    # so is a metric name outside the four, rather than giving no rows
    with pytest.raises(ValueError, match="unknown metric"):
        evaluate_scenario(PAIR, metrics=("SOP",))
    # the one-method call form of earlier releases is refused by name
    with pytest.raises(TypeError, match=r"\('closed_form',\)"):
        evaluate_scenario(PAIR, "closed_form")


@pytest.mark.parametrize("own_shapes", [False, True],
                         ids=["shared-shapes", "own-shapes"])
def test_every_row_carries_its_method(own_shapes):
    for rate in (0.0, 0.5):
        report = evaluate_scenario(_shipped_scenario(rate, own_shapes))
        for method, rows in report.items():
            assert [mv.method for mv in rows] == [method] * len(rows)


def test_spsc_error_covers_the_subtraction():
    # 1 - SOP rounds by up to half an ulp of the value, on top of the
    # error of the SOP it subtracts
    for scen in (PAIR, WiretapScenario(EVE, BOB)):
        zero = replace(scen, target_rate=0.0)
        for method, base in (("quadrature", sop_exact(zero)),
                             ("closed_form", sop_lower_bound(zero))):
            got = spsc(scen, method=method)
            assert got.value == 1.0 - base.value
            half_ulp = 0.5 * math.ulp(got.value)
            assert half_ulp > 0.0
            assert got.error == base.error + half_ulp


@pytest.mark.parametrize("method", ["closed-form", "quad", "monte_carlo", ""])
def test_spsc_rejects_unknown_method(method):
    with pytest.raises(ValueError, match="unknown analytic method"):
        spsc(PAIR, method=method)


@pytest.mark.parametrize("method", ["closed-form", "quad", "monte_carlo", ""])
def test_sop_lower_bound_rejects_unknown_method(method):
    with pytest.raises(ValueError, match="unknown analytic method"):
        sop_lower_bound(PAIR, method=method)


def test_target_rate_validation():
    # from 1024 bits on, 2^R overflows a double
    for rate in (-0.5, math.inf, math.nan, 1024.0, 1100.0):
        with pytest.raises(ValueError, match=r"\[0, 1024\)"):
            WiretapScenario(BOB, EVE, target_rate=rate)
    top = WiretapScenario(BOB, EVE, target_rate=math.nextafter(1024.0, 0.0))
    for rows in evaluate_scenario(top).values():
        assert all(math.isfinite(row.value) and math.isfinite(row.error)
                   for row in rows)


def test_lower_bound_argument_out_of_range_is_non_convergent():
    # Eve/Bob mean-SNR ratio 1e600 at 1023 bits: the G argument
    # 2^511.5 * 1e300 overflows to inf, and the tail beyond the largest
    # double is not known to be below the bar
    fading = FFadingParams(2.5, 4.0)
    scen = WiretapScenario(SnrChannel(fading, 1e-300),
                           SnrChannel(fading, 1e300), 1023.0)
    with pytest.raises(NonConvergent, match="G argument inf"):
        sop_lower_bound(scen, "closed_form")
    report = evaluate_scenario(scen)
    # the lower bound alone fails; ASC and the zero-rate SPSC of the
    # method give rows
    asc, lower, positive = report["closed_form"]
    assert isinstance(lower, NonConvergent)
    assert "G argument inf" in str(lower)
    assert (asc, positive) == (asc_closed_form(scen), spsc(scen, "closed_form"))
    assert all(math.isfinite(row.value) for row in report["quadrature"])


def test_mean_snr_ratio_beyond_the_double_range_takes_the_closed_form():
    # Eve/Bob mean-SNR ratio 1e330 leaves the double range, its root
    # 1e165 does not: the G argument is finite, and the closed form
    # agrees with the quadrature
    fading = FFadingParams(2.5, 4.0)
    scen = WiretapScenario(SnrChannel(fading, 1e-300),
                           SnrChannel(fading, 1e30), 0.5)
    got = sop_lower_bound(scen, "closed_form")
    quad = sop_lower_bound(scen, "quadrature")
    assert abs(got.value - quad.value) <= got.error + quad.error


def _wide_scenarios(seed, count):
    # a 0.05-1e6 and b - 1 1e-3-1e6, every second draw with shapes of
    # Eve's own, mean SNRs 1e-300-1e300, all log-uniform; rates 0, 0.5,
    # 20 and 1023 bits
    rng = np.random.default_rng(seed)

    def fading():
        a, b1 = np.exp(rng.uniform(np.log([0.05, 1e-3]), np.log([1e6, 1e6])))
        return FFadingParams(float(a), 1.0 + float(b1))

    out = []
    for k in range(count):
        bob = fading()
        eve = fading() if k % 2 else bob
        snr_bob, snr_eve = 10.0 ** rng.uniform(-300.0, 300.0, 2)
        out.append(WiretapScenario(SnrChannel(bob, float(snr_bob)),
                                   SnrChannel(eve, float(snr_eve)),
                                   (0.0, 0.5, 20.0, 1023.0)[k % 4]))
    return out


def test_wide_domain_gives_values_or_a_status():
    # every route gives a finite value and error, or a PoleCollision or
    # NonConvergent; no other exception escapes
    for scen in _wide_scenarios(21, 40):
        for method, rows in evaluate_scenario(scen).items():
            for row in rows:
                if isinstance(row, (PoleCollision, NonConvergent)):
                    continue
                assert math.isfinite(row.value) and math.isfinite(
                    row.error), (scen, method, row)


def _grid_argmax(fn, u_lo=-60.0, u_hi=60.0, step=0.5):
    grid = [u_lo + i * step for i in range(int((u_hi - u_lo) / step) + 1)]
    return max(grid, key=lambda u: fn(math.exp(u)) * math.exp(u))


@pytest.mark.parametrize("a, b", [(0.4, 1.1), (1.0, 2.0), (2.5, 3.2),
                                  (9.1, 11.7), (50.0, 1.3), (0.8, 200.0)])
def test_peak_hints_sit_at_the_density_mode(a, b):
    # the hint the routes pass: the gain density h*pdf(h) peaks in ln h
    # at (b-1)/b
    fading = FFadingParams(a, b)
    u = _grid_argmax(lambda h: pdf_ht(fading, h))
    assert abs(u - math.log(secrecy._gain_mode(fading))) <= 0.5


def _drawn_scenarios(seed, count):
    # a in [0.3, 300], b in [1.05, 300], Eve/Bob -60..+20 dB, shared and
    # mismatched shapes, target rate 0 and above
    rng = np.random.default_rng(seed)

    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    out = []
    for k in range(count):
        shapes = [FFadingParams(log_uniform(0.3, 300.0),
                                1.0 + log_uniform(0.05, 299.0))
                  for _ in range(2)]
        if k % 2 == 0:
            shapes[1] = shapes[0]
        snr_bob = float(10.0 ** rng.uniform(-3.0, 10.0))
        ratio = float(10.0 ** (rng.uniform(-60.0, 20.0) / 10.0))
        out.append(WiretapScenario(SnrChannel(shapes[0], snr_bob),
                                   SnrChannel(shapes[1], snr_bob * ratio),
                                   target_rate=(0.0, 0.5, 2.0, 8.0)[k % 4]))
    return out


def test_peak_hints_leave_every_route_unchanged(monkeypatch):
    routes = (asc_quadrature, asc_closed_form, sop_exact,
              lambda s: sop_lower_bound(s, method="quadrature"))
    scenarios = _drawn_scenarios(20261018, 24)
    hinted = [[(mv.value, mv.error) for mv in (r(s) for r in routes)]
              for s in scenarios]

    def full_scan(f, x_peak=None, **kwargs):
        return quad_positive_axis(f, **kwargs)

    def full_scans(f_many, x_peaks):
        return quad_positive_axis_many(f_many, [None] * len(x_peaks))

    monkeypatch.setattr(secrecy, "quad_positive_axis", full_scan)
    monkeypatch.setattr(secrecy, "quad_positive_axis_many", full_scans)
    reference = [[(mv.value, mv.error) for mv in (r(s) for r in routes)]
                 for s in scenarios]
    assert hinted == reference


def test_shipped_configs_never_take_the_full_scan(monkeypatch):
    # a hint that silently falls back leaves every value as it was, so
    # only the count of integrand nodes shows it: the full scan alone
    # is 2761
    counts = []

    def counting(f, **kwargs):
        n = [0]

        def g(x):
            n[0] += np.size(x)
            return f(x)
        out = quad_positive_axis(g, **kwargs)
        counts.append(n[0])
        return out

    def counting_many(f_many, x_peaks):
        # the same count for each integral of a lockstep group
        n = [0] * len(x_peaks)

        def g(ids, xs):
            for i, x in zip(ids, xs):
                n[i] += np.size(x)
            return f_many(ids, xs)
        out = quad_positive_axis_many(g, x_peaks)
        counts.extend(n)
        return out

    monkeypatch.setattr(secrecy, "quad_positive_axis", counting)
    monkeypatch.setattr(secrecy, "quad_positive_axis_many", counting_many)
    for path in sorted(CONFIGS.glob("*.cfg")):
        rc = parse_config(str(path))
        points = rc.sweep.points()
        for _, raw in (points[0], points[-1]):
            scenario = build_scenario(rc.with_value(rc.sweep.variable, raw))
            for methods in (("quadrature",), ("closed_form",),
                            ("quadrature", "closed_form")):
                before = len(counts)
                report = evaluate_scenario(scenario, methods)
                # a route that raised would hide behind a status value
                assert _all_values(report)
                assert len(counts) > before
    assert max(counts) < 1000


def _shipped_scenario(rate, own_shapes=False):
    # the first turbulence-sweep point, with Eve's shapes of her own if
    # own_shapes
    rc = parse_config(str(CONFIGS / "turbulence-sweep.cfg"))
    _, raw = rc.sweep.points()[0]
    scenario = build_scenario(rc.with_value(rc.sweep.variable, raw))
    if own_shapes:
        scenario = replace(scenario, eve=replace(
            scenario.eve, fading=FFadingParams(2.5, 3.2)))
    return replace(scenario, target_rate=rate)


@pytest.mark.parametrize("rate, integrals, g_calls, own_shapes", [
    pytest.param(0.5, 6, 2, False, id="0.5-6-2"),
    pytest.param(0.0, 4, 2, False, id="0.0-4-2"),
    pytest.param(0.5, 6, 2, True, id="0.5-6-2-own-shapes"),
    pytest.param(0.0, 4, 2, True, id="0.0-4-2-own-shapes"),
])
def test_planner_computes_each_distinct_integral_once(
        monkeypatch, rate, integrals, g_calls, own_shapes):
    # both methods make 8 integrals and 3 G-functions when every route
    # computes its own: the ASC cross terms are shared, SPSC reuses the
    # zero-rate lower bound's integral, and at rate 0 so does the exact
    # outage; the lower bound's closed form is a G-function for any
    # shapes, and one family call gives it at the zero and the target
    # rate, so SPSC reuses it at every rate
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    def counted_many(f_many, x_peaks):
        # a lockstep group counts one integral per member
        calls.extend(["integral"] * len(x_peaks))
        return quad_positive_axis_many(f_many, x_peaks)

    monkeypatch.setattr(secrecy, "quad_positive_axis",
                        counted("integral", quad_positive_axis))
    monkeypatch.setattr(secrecy, "quad_positive_axis_many", counted_many)
    monkeypatch.setattr(secrecy, "meijer_g",
                        counted("g", secrecy.meijer_g))
    scenario = _shipped_scenario(rate, own_shapes)
    for runs in (1, 2):
        # nothing is kept from one call to the next
        report = evaluate_scenario(scenario)
        assert _all_values(report)
        assert calls.count("integral") == runs * integrals
        assert calls.count("g") == runs * g_calls
    assert secrecy._SHARED.get() is None


def test_cdf_integrals_share_each_incomplete_beta_call(monkeypatch):
    # the CDF-weighted integrals of a point run in lockstep, one
    # incomplete-beta call per round: 2 at this point, 10 when each
    # integral makes its own
    calls = []

    def counted(*args):
        calls.append(1)
        return reg_inc_beta(*args)

    monkeypatch.setattr("fsosec.fading.reg_inc_beta", counted)
    report = evaluate_scenario(_shipped_scenario(0.5),
                               ("quadrature", "closed_form"))
    assert _all_values(report)
    assert 0 < len(calls) <= 3


def test_shared_term_failure_fails_both_routes(monkeypatch):
    # a failed shared term is not kept: the scenario's group meets it
    # once, then each ASC route meets it itself; the routes without it
    # give the rows they give when nothing fails
    scenario = _shipped_scenario(0.5)
    healthy = evaluate_scenario(scenario)
    attempts = []
    real = secrecy._cdf_terms

    def fails(g):
        attempts.append(1)
        raise NonConvergent("synthetic")

    def failing_terms(scenario, metric, method):
        terms = real(scenario, metric, method)
        if metric == "asc":
            key, (_, *rest) = next(iter(terms.items()))
            terms[key] = (fails, *rest)
        return terms

    monkeypatch.setattr(secrecy, "_cdf_terms", failing_terms)
    report = evaluate_scenario(scenario)
    for method in ("quadrature", "closed_form"):
        assert isinstance(report[method][0], NonConvergent)
        assert report[method][1:] == healthy[method][1:]
    assert len(attempts) == 3


def test_pole_collision_leaves_the_other_method(monkeypatch):
    def collides(scenario):
        raise PoleCollision("synthetic")

    scenario = _shipped_scenario(0.5)
    alone = evaluate_scenario(scenario)
    monkeypatch.setattr(secrecy, "asc_closed_form", collides)
    report = evaluate_scenario(scenario)
    # the failed route alone: its method's other routes keep their rows
    assert isinstance(report["closed_form"][0], PoleCollision)
    assert report["closed_form"][1:] == alone["closed_form"][1:]
    assert report["quadrature"] == alone["quadrature"]


_STANDALONE = {
    "quadrature": (("asc", asc_quadrature), ("sop", sop_exact),
                   ("sop_lb", lambda s: sop_lower_bound(s, "quadrature")),
                   ("spsc", lambda s: spsc(s, method="quadrature"))),
    "closed_form": (("asc", asc_closed_form),
                    ("sop_lb", lambda s: sop_lower_bound(s, "closed_form")),
                    ("spsc", lambda s: spsc(s, method="closed_form"))),
}


def test_planner_values_equal_the_standalone_routes(monkeypatch):
    # library callers reach the routes directly, the cli through
    # evaluate_scenario: both must see the same floats or exception
    # types, route by route, whatever the methods and metrics asked
    # for, and no route of a scenario that fails nowhere may integrate
    # a CDF term outside its one lockstep group.  At a = b = 1e6 the
    # ASC window is over its node budget and the closed-form contours
    # do not decay, while the outage quadratures give rows
    def outcome(result):
        if isinstance(result, (NonConvergent, PoleCollision)):
            return type(result)
        return (result.metric, result.method, result.value.hex(),
                result.error.hex())

    groups = []

    def recorded_many(f_many, x_peaks):
        groups.append(len(x_peaks))
        return quad_positive_axis_many(f_many, x_peaks)

    monkeypatch.setattr(secrecy, "quad_positive_axis_many", recorded_many)
    huge = FFadingParams(1e6, 1e6)
    hidden = WiretapScenario(SnrChannel(huge, 1e4), SnrChannel(huge, 1e2))
    for base in _drawn_scenarios(20261019, 8) + [hidden]:
        for rate in (0.0, 0.5):
            scenario = replace(base, target_rate=rate)
            alone = {}
            for method, routes in _STANDALONE.items():
                for metric, route in routes:
                    try:
                        alone[method, metric] = outcome(route(scenario))
                    except (NonConvergent, PoleCollision) as exc:
                        alone[method, metric] = outcome(exc)
            for methods in (("quadrature",), ("closed_form",),
                            ("quadrature", "closed_form")):
                for metrics in (None, MC_METRICS):
                    groups.clear()
                    report = evaluate_scenario(scenario, methods, metrics)
                    for method in methods:
                        want = [alone[method, metric]
                                for metric, _ in _STANDALONE[method]
                                if metrics is None or metric in metrics]
                        assert list(map(outcome, report[method])) == want
                    if _all_values(report):
                        assert not any(groups[1:])


def test_zero_sample_at_the_hint_keeps_the_scan_local():
    # the second ASC cross term of a mismatched pair: at Eve's mode,
    # the hint, Bob's CDF has underflowed to 0, but the block around
    # the hint still holds the mass further up
    bob = SnrChannel(FFadingParams(262.7, 115.1), 4.09e9)
    eve = SnrChannel(FFadingParams(78.9, 1.235), 1.71e5)
    hint = secrecy._gain_mode(eve.fading)
    ratio = math.sqrt(eve.mean_snr / bob.mean_snr)

    def term(h):
        return (np.log1p(4.0 * eve.mean_snr * h * h) * pdf_ht(eve.fading, h)
                * cdf_ht(bob.fading, ratio * h))

    assert term(hint) == 0.0
    nodes = []

    def counted(h):
        # every scan block and trapezoid level: fewer in all than the
        # 2761 points of the full scan grid
        nodes.append(np.size(h))
        return term(h)

    val, err = quad_positive_axis(counted, x_peak=hint)
    assert sum(nodes) < 2761
    full_val, full_err = quad_positive_axis(term)
    assert abs(val - full_val) <= err


def test_metric_values_are_python_floats():
    # the array core must not leak numpy scalars into the rows
    for scen in (PAIR, WiretapScenario(EVE, BOB, 0.5)):
        for rows in evaluate_scenario(scen).values():
            for mv in rows:
                assert type(mv.value) is float and type(mv.error) is float


@pytest.mark.parametrize("shape", [1e16, 1e17])
def test_huge_shapes_give_a_value_or_non_convergent(shape):
    # from 2^53 on, const - 1 rounds back to const: a Gamma factor must
    # stay in Phi, not fold into itself and vanish
    assert _reduce_factors([(shape, 1.0, 1.0)]) == ([(shape, 1.0, 1.0)], [])
    fading = FFadingParams(shape, shape)
    for rate in (0.0, 0.5, 2.0):
        scen = WiretapScenario(SnrChannel(fading, 100.0),
                               SnrChannel(fading, 10.0), rate)
        for _, route in _STANDALONE["closed_form"]:
            try:
                got = route(scen)
            except NonConvergent:
                continue
            assert math.isfinite(got.value) and got.error >= 0.0


def test_huge_shapes_give_a_status_row():
    # at shapes 1e100 the log terms of pdf_ht are about 2e102 and
    # cancel, so the integrands read 0: every quadrature route and the
    # closed form riding on the cross terms raise, naming the shapes,
    # where they returned 0 +- 0
    fading = FFadingParams(1e100, 1e100)
    scen = WiretapScenario(SnrChannel(fading, 100.0),
                           SnrChannel(fading, 10.0))
    routes = [route for _, route in _STANDALONE["quadrature"]]
    for route in routes + [asc_closed_form]:
        with pytest.raises(NonConvergent, match=r"\(a=1e\+100, b=1e\+100\)"):
            route(scen)
    report = evaluate_scenario(scen)
    assert all(isinstance(result, NonConvergent)
               for rows in report.values() for result in rows)


def _identity_draws(indices):
    # the scenarios of tools/route_identity.py (seed 0) at these draws
    path = Path(__file__).resolve().parents[1] / "tools" / "route_identity.py"
    spec = importlib.util.spec_from_file_location("route_identity", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    rng = np.random.default_rng(tool._SEED)
    draws = [tool._draw_scenario(rng, i)[1] for i in range(max(indices) + 1)]
    return [draws[i] for i in indices]


def _mp_integral(f, points):
    # f over the real line by mpmath's Gauss-Legendre rule, divided by
    # its largest value at the break points first: mp.quad stops on an
    # absolute error
    scale = max(abs(f(mp.mpf(p))) for p in points)
    if not scale:
        return mp.mpf(0)
    return scale * mp.quad(lambda t: f(t) / scale, [-mp.inf, *points, mp.inf],
                           method="gauss-legendre")


def _mp_breaks(channel, snr):
    # ln of the gain (or with snr, the SNR) at the density's mode, then
    # steps doubling from the spread of ln h (of ln snr) out to the
    # reach of the slower power-law tail, h^a or h^-b, either side
    a, b = channel.fading.a, channel.fading.b
    mode = math.log((b - 1.0) / b)
    steps = [math.sqrt(1.0 / a + 1.0 / b) + 0.05]
    while steps[-1] < 60.0 / min(a, b):
        steps.append(2.0 * steps[-1])
    if snr:
        mode = 2.0 * mode + math.log(4.0 * channel.mean_snr)
        steps = [2.0 * step for step in steps]
    return sorted([mode] + [mode + sign * step for step in steps
                            for sign in (-1.0, 1.0)])


def _mp_snr_cdf(channel, x, upper=False):
    # P(snr < x), or with upper P(snr > x), by mpmath's incomplete beta
    a, b = mp.mpf(channel.fading.a), mp.mpf(channel.fading.b)
    ah = a * mp.sqrt(x / (4 * mp.mpf(channel.mean_snr)))
    if upper:
        return mp.betainc(b, a, 0, (b - 1) / (ah + b - 1), regularized=True)
    return mp.betainc(a, b, 0, ah / (ah + b - 1), regularized=True)


def _mp_asc(scenario):
    # ASC in bits as one non-negative integral over t = ln x:
    # E[(ln(1 + g_B) - ln(1 + g_E))^+] = int F_E(x) (1 - F_B(x)) dx / (1 + x)
    def f(t):
        x = mp.exp(t)
        return (_mp_snr_cdf(scenario.eve, x)
                * _mp_snr_cdf(scenario.bob, x, upper=True) * x / (1 + x))
    return _mp_integral(f, sorted(_mp_breaks(scenario.bob, True)
                                  + _mp_breaks(scenario.eve, True))) / mp.log(2)


def _mp_sop(scenario, offset=True):
    # P(g_B < 2^R (1 + g_E) - 1) over t = ln h_E: Eve's gain density
    # times h_E, times Bob's SNR distribution at that threshold; without
    # offset the lower bound's P(g_B < 2^R g_E)
    a, b = mp.mpf(scenario.eve.fading.a), mp.mpf(scenario.eve.fading.b)
    log_norm = a * mp.log(a) + b * mp.log(b - 1) - mp.log(mp.beta(a, b))
    factor = mp.mpf(2) ** scenario.target_rate
    snr_eve = mp.mpf(scenario.eve.mean_snr)

    def f(t):
        h = mp.exp(t)
        threshold = (factor - 1) * offset + factor * 4 * snr_eve * h * h
        return (mp.exp(log_norm + a * t - (a + b) * mp.log(a * h + b - 1))
                * _mp_snr_cdf(scenario.bob, threshold))
    return _mp_integral(f, _mp_breaks(scenario.eve, False))


# at draws 24, 146, 248 and 272 (a 35-242, b 25-194) an error without
# the rounding of the integrands falls short by up to 22 times; 2
# (a 0.31) and 95 (a 0.81, b 1.13) reach the soft spots a < 1 and b
# near 1; 61, 173 and 299 have shapes of Eve's own
_ORACLE_DRAWS = (24, 146, 248, 272, 2, 95, 61, 173, 299)


def test_quadrature_routes_sit_within_their_error_of_the_oracles():
    scenarios = _identity_draws(_ORACLE_DRAWS)
    with mp.workdps(20):
        for scen in scenarios:
            asc = _mp_asc(scen)
            for route in (asc_quadrature, asc_closed_form):
                got = route(scen)
                assert abs(got.value - asc) <= got.error, (scen, got, asc)
            sop = _mp_sop(scen)
            got = sop_exact(scen)
            assert abs(got.value - sop) <= got.error, (scen, got)
            lower = _mp_sop(scen, offset=False) if scen.target_rate else sop
            got = sop_lower_bound(scen, "closed_form")
            assert abs(got.value - lower) <= got.error, (scen, got)
            got = sop_lower_bound(scen, "quadrature")
            assert abs(got.value - _betaprime_sop_lb(scen)) <= got.error, \
                (scen, got)
            if scen.target_rate:
                sop = _mp_sop(replace(scen, target_rate=0.0))
            for method in ("quadrature", "closed_form"):
                got = spsc(scen, method)
                assert abs(got.value - (1 - sop)) <= got.error, (scen, got)


@pytest.mark.parametrize("shapes, snrs, rate", [
    ((0.05, 2.0000001), (1e-8, 1e-9), 0.5),
    ((0.05, 1.05), (1.0, 0.1), 20.0),
], ids=["b-near-2", "b-near-1"])
def test_sop_error_covers_the_oracle_at_small_a(shapes, snrs, rate):
    # at a = 0.05 Eve's gain density decays like h^0.05 towards 0, so the
    # left tail of the SOP integrand is the slowest the window cuts
    fading = FFadingParams(*shapes)
    scen = WiretapScenario(SnrChannel(fading, snrs[0]),
                           SnrChannel(fading, snrs[1]), rate)
    with mp.workdps(20):
        want = _mp_sop(scen)
    got = sop_exact(scen)
    assert abs(got.value - want) <= got.error, (got, want)


def test_non_finite_window_raises_without_a_warning(monkeypatch):
    # a rate density left to overflow, as a plain log1p does at Eve's
    # mean SNR 2.77e288, is inf inside the window: the route fails
    # before the level-0 trapezoid sums that inf
    monkeypatch.setattr(secrecy, "_rate_density", lambda channel: lambda h: (
        np.log1p(4.0 * channel.mean_snr * h * h) * pdf_ht(channel.fading, h)))
    fading = FFadingParams(15045.4, 1.3339)
    scen = WiretapScenario(SnrChannel(fading, 1.3e-9),
                           SnrChannel(fading, 2.77e288), 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonConvergent, match="integrand is not finite"):
            asc_quadrature(scen)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_huge_mean_snrs_give_quadrature_rows():
    # at mean SNRs of 1e248-1e285, 4 mean_snr h^2 overflows a double at
    # the far gains of the rate integrals
    scenarios = _wide_scenarios(1, 400)
    for k in (149, 273, 340):
        rows = evaluate_scenario(scenarios[k], methods=("quadrature",))
        assert _all_values(rows), (k, rows)
    # Eve's mean SNR is 6e-159 in draw 273, so the ASC is Bob's ergodic
    # rate
    scen = scenarios[273]
    got = asc_quadrature(scen)
    value, error = eve_ergodic_rate_closed_form(scen.bob)
    assert abs(got.value - value / math.log(2.0)) <= got.error + error / math.log(2.0)


def test_tiny_eavesdropper_snrs_give_quadrature_rows_that_agree():
    # Eve's mean SNRs of 1e-298 to 1e-119, where 4 mean_E h^2 would
    # underflow, and at draw 196 a mean-SNR ratio of 1.6e-337 below the
    # normal range: the quadrature rows agree with the closed form's
    # within the summed errors
    scenarios = _wide_scenarios(1, 400)
    for k in (196, 310, 362):
        report = evaluate_scenario(scenarios[k])
        quad = {row.metric: row for row in report["quadrature"]}
        for row in report["closed_form"]:
            other = quad[row.metric]
            assert abs(row.value - other.value) <= row.error + other.error, (
                k, row, other)


@pytest.mark.parametrize("route, args", [(sop_exact, ()),
                                         (sop_lower_bound, ("quadrature",)),
                                         (sop_lower_bound, ("closed_form",))])
@pytest.mark.parametrize("raw", [-0.0, math.nan])
def test_outage_clamp_gives_no_negative_zero(monkeypatch, route, args, raw):
    # a -0.0 from the terms is reported as 0.0, and a nan stays nan
    monkeypatch.setattr(secrecy, "_shared",
                        lambda terms, compute=None:
                        [(raw, 1e-12)] * len(terms))
    value = route(PAIR, *args).value
    if math.isnan(raw):
        assert math.isnan(value)
    else:
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

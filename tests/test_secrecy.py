"""Secrecy metrics: route agreement, analytic identities, frozen
references (mpmath, 50 digits), and degenerate branches."""
import math
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from fsosec import secrecy
from fsosec.config import build_scenario, parse_config
from fsosec.errors import NonConvergent, PoleCollision
from fsosec.fading import FFadingParams, SnrChannel, pdf_ht, snr_cdf, snr_pdf
from fsosec.mc import MC_METRICS
from fsosec.quadrature import quad_positive_axis, quad_positive_axis_many
from fsosec.secrecy import (WiretapScenario, asc_closed_form, asc_quadrature,
                            eve_ergodic_rate_closed_form, evaluate_scenario,
                            sop_exact, sop_lower_bound, spsc)
from fsosec.specfun import _gamma_factors, _reduce_factors, reg_inc_beta

BOB = SnrChannel(FFadingParams(9.1, 11.7), 472.7)
EVE = SnrChannel(FFadingParams(9.1, 11.7), 48.3)
PAIR = WiretapScenario(BOB, EVE, target_rate=0.5)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        direct, derr = quad_positive_axis(
            lambda g: np.log1p(g) * snr_pdf(chan, g))
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
            direct, d_err = quad_positive_axis(
                lambda g: np.log1p(g) * snr_pdf(eve, g))
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
    rate, _ = quad_positive_axis(lambda g: np.log1p(g) * snr_pdf(BOB, g))
    assert asc_quadrature(weak).value == pytest.approx(rate / math.log(2.0), rel=1e-6)


def test_sop_zero_rate_equals_lower_bound():
    zero = WiretapScenario(BOB, EVE, target_rate=0.0)
    exact = sop_exact(zero)
    lb_q = sop_lower_bound(zero, method="quadrature")
    lb_c = sop_lower_bound(zero, method="closed_form")
    assert exact.value == pytest.approx(lb_q.value, abs=1e-8)
    assert exact.value == pytest.approx(lb_c.value, abs=1e-8)


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


def test_mismatched_shapes_fall_back_to_quadrature():
    scen = WiretapScenario(SnrChannel(FFadingParams(9.1, 11.7), 100.0),
                           SnrChannel(FFadingParams(2.5, 3.2), 10.0))
    got = sop_lower_bound(scen, method="closed_form")
    assert got.method == "quadrature"
    ref = sop_lower_bound(scen, method="quadrature")
    assert got.value == pytest.approx(ref.value, rel=1e-12)


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
    with pytest.raises(ValueError):
        WiretapScenario(BOB, EVE, target_rate=-0.5)
    with pytest.raises(ValueError):
        WiretapScenario(BOB, EVE, target_rate=math.inf)


def _grid_argmax(fn, u_lo=-60.0, u_hi=60.0, step=0.5):
    grid = [u_lo + i * step for i in range(int((u_hi - u_lo) / step) + 1)]
    return max(grid, key=lambda u: fn(math.exp(u)) * math.exp(u))


@pytest.mark.parametrize("a, b", [(0.4, 1.1), (1.0, 2.0), (2.5, 3.2),
                                  (9.1, 11.7), (50.0, 1.3), (0.8, 200.0)])
def test_peak_hints_sit_at_the_density_mode(a, b):
    # the hints the routes pass: the gain density h*pdf(h) peaks in
    # ln h at (b-1)/b, the SNR density at 4*mean_snr times its square
    fading = FFadingParams(a, b)
    u = _grid_argmax(lambda h: pdf_ht(fading, h))
    assert abs(u - math.log(secrecy._gain_mode(fading))) <= 0.5
    for mean_snr in (1e-3, 48.3, 1e9):
        chan = SnrChannel(fading, mean_snr)
        u = _grid_argmax(lambda g: snr_pdf(chan, g), -80.0, 80.0)
        assert abs(u - math.log(secrecy._snr_mode(chan))) <= 0.5


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
                assert all(isinstance(rows, tuple)
                           for rows in report.values())
                assert len(counts) > before
    assert max(counts) < 1000


def _shipped_scenario(rate):
    rc = parse_config(str(CONFIGS / "turbulence-sweep.cfg"))
    _, raw = rc.sweep.points()[0]
    scenario = build_scenario(rc.with_value(rc.sweep.variable, raw))
    return replace(scenario, target_rate=rate)


@pytest.mark.parametrize("rate, integrals, g_calls", [(0.5, 6, 3),
                                                      (0.0, 5, 2)])
def test_planner_computes_each_distinct_integral_once(monkeypatch, rate,
                                                      integrals, g_calls):
    # both methods make 8 integrals and 3 G-functions when every route
    # computes its own: the ASC cross terms are shared, and at rate 0
    # SPSC reuses the outage integral and the lower-bound G-function
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
    scenario = _shipped_scenario(rate)
    for runs in (1, 2):
        # nothing is kept from one call to the next
        report = evaluate_scenario(scenario)
        assert all(isinstance(rows, tuple) for rows in report.values())
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
    assert all(isinstance(rows, tuple) for rows in report.values())
    assert 0 < len(calls) <= 3


def test_shared_term_failure_fails_both_routes(monkeypatch):
    # a failed shared term is not kept: the scenario's group meets it
    # once, then each ASC route meets it itself
    attempts = []
    real = secrecy._cdf_terms

    def fails(g):
        attempts.append(1)
        raise NonConvergent("synthetic")

    def failing_terms(scenario, metric, method):
        terms = real(scenario, metric, method)
        if metric == "asc":
            key, (_, fading, arg, x_peak) = next(iter(terms.items()))
            terms[key] = (fails, fading, arg, x_peak)
        return terms

    monkeypatch.setattr(secrecy, "_cdf_terms", failing_terms)
    report = evaluate_scenario(_shipped_scenario(0.5))
    assert isinstance(report["quadrature"], NonConvergent)
    assert isinstance(report["closed_form"], NonConvergent)
    assert len(attempts) == 3


def test_pole_collision_leaves_the_other_method(monkeypatch):
    def collides(scenario):
        raise PoleCollision("synthetic")

    scenario = _shipped_scenario(0.5)
    alone = evaluate_scenario(scenario, ("quadrature",))["quadrature"]
    monkeypatch.setattr(secrecy, "asc_closed_form", collides)
    report = evaluate_scenario(scenario)
    assert isinstance(report["closed_form"], PoleCollision)
    assert report["quadrature"] == alone


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
    # evaluate_scenario: both must see the same floats, whatever the
    # methods and metrics asked for, and no route of a scenario may
    # integrate a CDF term outside its one lockstep group
    groups = []

    def recorded_many(f_many, x_peaks):
        groups.append(len(x_peaks))
        return quad_positive_axis_many(f_many, x_peaks)

    monkeypatch.setattr(secrecy, "quad_positive_axis_many", recorded_many)
    for base in _drawn_scenarios(20261019, 8):
        for rate in (0.0, 0.5):
            scenario = replace(base, target_rate=rate)
            alone = {}
            for method, routes in _STANDALONE.items():
                for metric, route in routes:
                    try:
                        alone[method, metric] = route(scenario)
                    except (NonConvergent, PoleCollision) as exc:
                        alone[method, metric] = type(exc)
            for methods in (("quadrature",), ("closed_form",),
                            ("quadrature", "closed_form")):
                for metrics in (None, MC_METRICS):
                    groups.clear()
                    report = evaluate_scenario(scenario, methods, metrics)
                    for method in methods:
                        want = [alone[method, metric]
                                for metric, _ in _STANDALONE[method]
                                if metrics is None or metric in metrics]
                        failed = [w for w in want if isinstance(w, type)]
                        if failed:
                            assert type(report[method]) is failed[0]
                        else:
                            assert report[method] == tuple(want)
                    if all(isinstance(rows, tuple)
                           for rows in report.values()):
                        assert not any(groups[1:])


def test_zero_sample_at_the_hint_keeps_the_scan_local():
    # the second ASC cross term of a mismatched pair: at Eve's mode,
    # the hint, Bob's CDF has underflowed to 0, but the block around
    # the hint still holds the mass 12 units further up
    bob = SnrChannel(FFadingParams(262.7, 115.1), 4.09e9)
    eve = SnrChannel(FFadingParams(78.9, 1.235), 1.71e5)
    hint = secrecy._snr_mode(eve)

    def term(g):
        return np.log1p(g) * snr_pdf(eve, g) * snr_cdf(bob, g)

    assert term(hint) == 0.0
    scan_nodes = []

    def counted(g):
        # the scan samples 1-D arrays, the panels 2-D node arrays
        if np.ndim(g) == 1:
            scan_nodes.append(np.size(g))
        return term(g)

    val, err = quad_positive_axis(counted, x_peak=hint)
    assert sum(scan_nodes) < 2761
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

"""Secrecy metrics: route agreement, analytic identities, frozen
references (mpmath, 50 digits), and degenerate branches."""
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from fsosec import secrecy
from fsosec.config import build_scenario, parse_config
from fsosec.fading import (FFadingParams, SnrChannel, cdf_ht, pdf_ht, snr_cdf,
                           snr_pdf)
from fsosec.quadrature import quad_positive_axis
from fsosec.secrecy import (WiretapScenario, asc_closed_form, asc_quadrature,
                            eve_ergodic_rate_closed_form, evaluate_scenario,
                            sop_exact, sop_lower_bound, spsc)

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


def test_degenerate_eavesdropper():
    calm = SnrChannel(FFadingParams(math.inf, math.inf), 48.3)
    scen = WiretapScenario(BOB, calm, target_rate=0.5)
    got = sop_exact(scen)
    # outage iff Bob's gain falls under the explicit threshold at h_E = 1
    offset = math.expm1(0.5 * math.log(2.0))
    t = math.sqrt((offset + 2.0 ** 0.5 * 4.0 * 48.3) / (4.0 * BOB.mean_snr))
    assert got.value == pytest.approx(cdf_ht(BOB.fading, t), rel=1e-12)
    assert got.error == 0.0


def test_degenerate_main_channel():
    calm = SnrChannel(FFadingParams(math.inf, math.inf), 472.7)
    scen = WiretapScenario(calm, EVE, target_rate=0.5)
    got = sop_exact(scen)
    # near-degenerate fading must approach the degenerate branch
    tight = SnrChannel(FFadingParams(5e4, 5e4), 472.7)
    near = sop_exact(WiretapScenario(tight, EVE, target_rate=0.5))
    assert got.value == pytest.approx(near.value, abs=2e-2)
    asc_deg = asc_quadrature(scen)
    asc_near = asc_quadrature(WiretapScenario(tight, EVE))
    assert asc_deg.value == pytest.approx(asc_near.value, rel=2e-2)


def test_both_degenerate():
    calm_b = SnrChannel(FFadingParams(math.inf, math.inf), 472.7)
    calm_e = SnrChannel(FFadingParams(math.inf, math.inf), 48.3)
    scen = WiretapScenario(calm_b, calm_e)
    want = math.log2(1.0 + 4.0 * 472.7) - math.log2(1.0 + 4.0 * 48.3)
    assert asc_quadrature(scen).value == pytest.approx(want, rel=1e-14)
    assert sop_exact(scen).value == 0.0
    flipped = WiretapScenario(calm_e, calm_b)
    assert sop_exact(flipped).value == 1.0
    assert asc_quadrature(flipped).value == 0.0


def test_evaluate_scenario_report():
    quad = evaluate_scenario(PAIR, "quadrature")
    closed = evaluate_scenario(PAIR, "closed_form")
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
    with pytest.raises(ValueError):
        evaluate_scenario(PAIR, "fancy")


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

    monkeypatch.setattr(secrecy, "quad_positive_axis", full_scan)
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

    monkeypatch.setattr(secrecy, "quad_positive_axis", counting)
    for path in sorted(CONFIGS.glob("*.cfg")):
        rc = parse_config(str(path))
        points = rc.sweep.points()
        for _, raw in (points[0], points[-1]):
            scenario = build_scenario(rc.with_value(rc.sweep.variable, raw))
            for method in ("quadrature", "closed_form"):
                before = len(counts)
                evaluate_scenario(scenario, method)
                assert len(counts) > before
    assert max(counts) < 1000


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
    calm = SnrChannel(FFadingParams(math.inf, math.inf), 48.3)
    for scen in (PAIR, WiretapScenario(BOB, calm, 0.5),
                 WiretapScenario(calm, EVE, 0.5)):
        for method in ("quadrature", "closed_form"):
            for mv in evaluate_scenario(scen, method):
                assert type(mv.value) is float and type(mv.error) is float

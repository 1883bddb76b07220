"""Release gate for the whole stack.

Each test records a single [PASS] or [FAIL] line, replayed in the
run's terminal summary, then asserts.  Tolerances are pinned inside
the assertions.  The two Monte Carlo checks dominate the runtime at
under a minute combined on one core.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np

import conftest

from fsosec.cli import main
from fsosec.config import build_scenario, link_state, parse_config
from fsosec.fading import (FFadingParams, SnrChannel, cdf_ht, pdf_ht,
                           sample_ht)
from fsosec.mc import MC_METRICS, McConfig, mc_metrics
from fsosec.quadrature import quad_positive_axis
from fsosec.secrecy import (WiretapScenario, asc_quadrature,
                            eve_ergodic_rate_closed_form, sop_exact,
                            sop_lower_bound, spsc)
from fsosec.specfun import MeijerGSpec, meijer_g


def _verdict(tag, ok, detail):
    word = "PASS" if ok else "FAIL"
    line = f"[{word}] {tag}: {detail}"
    print(line)
    conftest.verdict_lines.append(line)
    return ok


def _shared_scenario(a, b, snr_bob, snr_eve, rate):
    params = FFadingParams(a, b)
    return WiretapScenario(SnrChannel(params, snr_bob),
                           SnrChannel(params, snr_eve), rate)


def test_fading_distribution_agrees_with_sampler():
    # Nine shape pairs spanning [1, 20] x [2.5, 20]: the density must
    # integrate to one, and a million draws must sit on the analytic
    # distribution function (KS distance) with the right mean.
    t0 = time.perf_counter()
    n = 1_000_000
    ks_bound = 1.95 / math.sqrt(n)
    worst_norm = 0.0
    worst_ks = 0.0
    worst_pull = 0.0
    pairs = list(itertools.product((1.0, 4.5, 20.0), (2.5, 7.0, 20.0)))
    for i, (a, b) in enumerate(pairs):
        params = FFadingParams(a, b)
        mass, _ = quad_positive_axis(lambda h, p=params: pdf_ht(p, h))
        worst_norm = max(worst_norm, abs(mass - 1.0))
        rng = np.random.default_rng(20260822 + i)
        draws = np.sort(sample_ht(params, rng, n))
        cdf = cdf_ht(params, draws)
        hi = np.arange(1, n + 1) / n
        ks = float(np.max(np.maximum(hi - cdf, cdf - hi + 1.0 / n)))
        worst_ks = max(worst_ks, ks)
        se = float(draws.std(ddof=1)) / math.sqrt(n)
        worst_pull = max(worst_pull, abs(float(draws.mean()) - 1.0) / se)
    elapsed = time.perf_counter() - t0
    ok = (worst_norm <= 1e-8 and worst_ks <= ks_bound
          and worst_pull <= 5.0 and elapsed <= 60.0)
    assert _verdict(
        "distribution law", ok,
        f"9 shape pairs at n=1e6: |mass-1| <= {worst_norm:.1e} (tol 1e-8), "
        f"KS <= {worst_ks:.5f} (bound {ks_bound:.5f}), "
        f"mean within {worst_pull:.2f} se (limit 5), {elapsed:.0f} s (cap 60)")


def test_contour_engine_passes_identity_and_integral_suites():
    # Two elementary identities at 1e-10 relative, then the two
    # production instances against quadrature of the
    # integrals they summarise, at 1e-5 relative over 27 points each.
    t0 = time.perf_counter()
    worst_pow = 0.0
    for a, b in itertools.product((0.5, 2.0, 7.0, 20.0), repeat=2):
        for z in (1e-3, 0.5, 1e3):
            val, _ = meijer_g(MeijerGSpec(1, 1, 1, 1, (1.0 - a - b,),
                                          (0.0,), math.log(z)))
            exact = math.exp(math.lgamma(a + b) - (a + b) * math.log1p(z))
            worst_pow = max(worst_pow, abs(val - exact) / exact)
    worst_log = 0.0
    for z in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        val, _ = meijer_g(MeijerGSpec(1, 2, 2, 2, (1.0, 1.0), (1.0, 0.0),
                                      math.log(z)))
        worst_log = max(worst_log, abs(val - math.log1p(z)) / math.log1p(z))

    grid = itertools.product((1.5, 4.5, 9.1), (2.6, 6.0, 11.7),
                             (0.5, 50.0, 5000.0))
    worst_rate = 0.0
    for a, b, snr in grid:
        channel = SnrChannel(FFadingParams(a, b), snr)
        closed, _ = eve_ergodic_rate_closed_form(channel)
        # the defining integral over the gain h, gamma = 4 * snr * h^2
        direct, _ = quad_positive_axis(
            lambda h, ch=channel: (np.log1p(4.0 * ch.mean_snr * h * h)
                                   * pdf_ht(ch.fading, h)))
        worst_rate = max(worst_rate, abs(closed - direct) / direct)
    worst_out = 0.0
    for a, b, w in itertools.product((1.5, 4.5, 9.1), (2.6, 6.0, 11.7),
                                     (0.3, 1.0, 2.5)):
        scen = _shared_scenario(a, b, 1.0, w * w / math.sqrt(2.0), 0.5)
        closed = sop_lower_bound(scen, "closed_form").value
        direct = sop_lower_bound(scen, "quadrature").value
        worst_out = max(worst_out, abs(closed - direct) / direct)
    elapsed = time.perf_counter() - t0
    ok = (worst_pow <= 1e-10 and worst_log <= 1e-10
          and worst_rate <= 1e-5 and worst_out <= 1e-5 and elapsed <= 120.0)
    assert _verdict(
        "special-function engine", ok,
        f"power identity <= {worst_pow:.1e}, log identity <= {worst_log:.1e} "
        f"(tol 1e-10); rate instance <= {worst_rate:.1e}, outage instance "
        f"<= {worst_out:.1e} (tol 1e-5); {elapsed:.0f} s (cap 120)")


def test_outage_bound_is_exact_at_zero_target_rate():
    # At zero target rate the scale-invariant bound and the direct
    # outage integral describe the same event, and the strictly
    # positive capacity probability is the complement.
    worst_gap = 0.0
    worst_sum = 0.0
    for (a, b), ratio in itertools.product(
            ((2.5, 3.2), (5.0, 6.5), (9.1, 11.7)), (0.3, 1.0, 3.0)):
        scen = _shared_scenario(a, b, 120.0, 120.0 * ratio, 0.0)
        exact = sop_exact(scen).value
        bound = sop_lower_bound(scen, "closed_form").value
        worst_gap = max(worst_gap, abs(exact - bound))
        worst_sum = max(worst_sum, abs(spsc(scen).value + exact - 1.0))
    mixed = WiretapScenario(SnrChannel(FFadingParams(2.5, 3.2), 120.0),
                            SnrChannel(FFadingParams(9.1, 11.7), 120.0), 0.0)
    worst_gap = max(worst_gap, abs(sop_exact(mixed).value
                                   - sop_lower_bound(mixed).value))
    ok = worst_gap <= 1e-8 and worst_sum <= 1e-8
    assert _verdict(
        "zero-rate exactness", ok,
        f"|exact - bound| <= {worst_gap:.1e}, |spsc + outage - 1| "
        f"<= {worst_sum:.1e} (tol 1e-8)")


def test_identical_branches_give_even_odds():
    # With the two receivers statistically identical, secrecy is a
    # coin flip: every analytic route and the sampler agree on 1/2.
    scen = _shared_scenario(9.1, 11.7, 472.7, 472.7, 0.0)
    gap = max(abs(sop_exact(scen).value - 0.5),
              abs(sop_lower_bound(scen, "closed_form").value - 0.5),
              abs(spsc(scen).value - 0.5))
    n = 10_000_000
    # the estimate is the same at any worker count (check 9)
    _, est, _ = mc_metrics(scen, McConfig(samples=n, seed=90210, jobs=2))
    pull = abs(est.mean - 0.5) / math.sqrt(0.25 / n)
    ok = gap <= 1e-8 and pull <= 3.0
    assert _verdict(
        "symmetry anchor", ok,
        f"analytic routes off 1/2 by <= {gap:.1e} (tol 1e-8), sampler at "
        f"{est.mean:.6f} is {pull:.2f} binomial se away (limit 3)")


def test_analytic_and_monte_carlo_routes_agree():
    # 27 scenarios spanning shapes and the mean SNR ratio; each metric
    # must land within max(1%, 3 standard errors) of its sampler.
    t0 = time.perf_counter()
    n = 10_000_000
    worst = 0.0
    worst_at = ""
    grid = itertools.product((1.5, 4.5, 9.1), (2.6, 6.0, 11.7),
                             (0.5, 5.0, 50.0))
    for i, (a, b, ratio) in enumerate(grid):
        scen = _shared_scenario(a, b, 50.0, 50.0 / ratio, 0.5)
        cfg = McConfig(samples=n, seed=8800 + i, jobs=2)
        analytic = (asc_quadrature(scen).value, sop_exact(scen).value,
                    spsc(scen).value)
        # one sampler pass per scenario gives all three estimates
        for value, est, name in zip(analytic, mc_metrics(scen, cfg),
                                    MC_METRICS):
            allow = max(0.01 * abs(value), 3.0 * est.std_error)
            frac = abs(est.mean - value) / allow
            if frac > worst:
                worst = frac
                worst_at = f"{name} a={a} b={b} ratio={ratio}"
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and elapsed <= 600.0
    assert _verdict(
        "cross-validation", ok,
        f"81 metric comparisons at n=1e7: worst uses {worst:.2f} of its "
        f"max(1%, 3 se) allowance ({worst_at}); {elapsed:.0f} s (cap 600)")


def test_secrecy_trends_track_link_geometry():
    # Qualitative behaviour along the shipped sweep calibrations:
    # capacity flat in weak turbulence then falling, outage rising
    # with zenith angle and orbit altitude, outage falling as the
    # eavesdropper leaves the footprint, and the positive-capacity
    # probability falling as her relative SNR grows.
    rc = parse_config("configs/turbulence-sweep.cfg")

    def asc_at(cn2):
        scen = build_scenario(rc.with_value("turbulence.cn2_ground", cn2))
        return asc_quadrature(scen).value

    flat = [asc_at(v) for v in (1e-15, 2e-15, 4e-15)]
    spread = (max(flat) - min(flat)) / max(flat)
    falling = [asc_at(v) for v in (4e-15, 1e-14, 4e-14, 1e-13, 2e-13, 4e-13)]
    ok_turb = spread <= 0.02 and all(
        x > y for x, y in zip(falling, falling[1:]))

    rz = parse_config("configs/zenith-sweep.cfg")
    zen = [sop_exact(build_scenario(
        rz.with_value("geometry.zenith_angle_deg", z))).value
        for z in (40.0, 50.0, 60.0, 75.0)]
    alt = [sop_exact(build_scenario(
        rz.with_value("geometry.satellite_altitude_km", h))).value
        for h in (600.0, 800.0, 1000.0)]
    ok_path = (all(x < y for x, y in zip(zen, zen[1:]))
               and all(x < y for x, y in zip(alt, alt[1:])))

    ro = parse_config("configs/eve-offset-sweep.cfg")
    off = [sop_exact(build_scenario(
        ro.with_value("geometry.eve_separation_m", d))).value
        for d in (0.5, 1.0, 2.0, 4.0)]
    rr = parse_config("configs/snr-ratio-sweep.cfg")
    rat = [spsc(build_scenario(
        rr.with_value("link.eve_snr_ratio_db", db))).value
        for db in (-20.0, -10.0, 0.0, 10.0)]
    ok_eve = (all(x > y for x, y in zip(off, off[1:]))
              and all(x > y for x, y in zip(rat, rat[1:])))

    ok = ok_turb and ok_path and ok_eve
    assert _verdict(
        "geometry trends", ok,
        f"weak-regime capacity spread {100 * spread:.2f}% (cap 2%), "
        f"then falling {ok_turb}; outage rises with zenith/altitude "
        f"{ok_path}; eavesdropper separation and SNR-ratio trends {ok_eve}")


def _betaprime_asc(scenario):
    # Independent reference for the average secrecy capacity: the gain
    # h is scipy's beta-prime law with unit mean, the SNR is
    # 4 * mean_snr * h^2, and
    #   ASC = (1/ln 2) * int_0^inf F_E(x) (1 - F_B(x)) / (1 + x) dx,
    # integrated by QUADPACK over u = ln x with breaks at both mean
    # SNRs.
    from scipy import integrate, stats

    def gain_law(ch):
        a, b = ch.fading.a, ch.fading.b
        return stats.betaprime(a, b, scale=(b - 1.0) / a)

    law_b, law_e = gain_law(scenario.bob), gain_law(scenario.eve)
    four_b = 4.0 * scenario.bob.mean_snr
    four_e = 4.0 * scenario.eve.mean_snr

    def integrand(u):
        x = math.exp(u)
        return (law_e.cdf(math.sqrt(x / four_e))
                * law_b.sf(math.sqrt(x / four_b)) * x / (1.0 + x))

    breaks = sorted(math.log(ch.mean_snr)
                    for ch in (scenario.eve, scenario.bob))
    value, _ = integrate.quad(integrand, -200.0, 200.0, points=breaks,
                              epsabs=0.0, epsrel=1e-12, limit=500)
    return value / math.log(2.0)


def test_cloud_water_doubling_band():
    # Doubling the cloud liquid water (1 -> 2 mg/m^3) must scale both
    # receivers' mean SNR by one common factor s = (h_c(2)/h_c(1))^2,
    # since Bob and Eve share the slant path and so the cloud gain,
    # and leave the fading shapes alone.  s is worked out here by hand
    # from the visibility law, the Kim exponent and the in-cloud path.
    # Each capacity must match an independent scipy reference, and
    # because the capacity gap is strictly increasing in a shared SNR
    # scale, a factor below one must lower it.  The abstract's +12%
    # is reported next to the computed ratio, not required.
    rc = parse_config("configs/turbulence-sweep.cfg")
    droplets = rc.value("atmosphere.cloud_droplets_cm3")
    path_km = rc.value("atmosphere.cloud_path_km")
    wav_nm = rc.value("geometry.wavelength_nm")

    def hand_cloud_gain(lwc):
        vis_km = 1.002 / (droplets * lwc) ** 0.6473
        assert 6.0 < vis_km <= 50.0, "calibration left the Kim q=1.3 branch"
        beta_per_km = 3.91 / vis_km * (wav_nm / 550.0) ** -1.3
        return math.exp(-beta_per_km * path_km)

    s_hand = (hand_cloud_gain(2.0) / hand_cloud_gain(1.0)) ** 2
    worst_scale = 0.0
    shapes_kept = True
    worst_oracle = 0.0
    ratios = []
    for cn2 in (1e-15, 1e-14, 1e-13):
        at_cn2 = rc.with_value("turbulence.cn2_ground", cn2)
        thin_rc = at_cn2.with_value("atmosphere.cloud_lwc_mg_m3", 1.0)
        thick_rc = at_cn2.with_value("atmosphere.cloud_lwc_mg_m3", 2.0)
        thin_st, thick_st = link_state(thin_rc), link_state(thick_rc)
        for snr in ("mean_snr_bob", "mean_snr_eve"):
            s = getattr(thick_st, snr) / getattr(thin_st, snr)
            worst_scale = max(worst_scale, abs(s / s_hand - 1.0))
        shapes_kept = shapes_kept and (
            (thin_st.shape_a, thin_st.shape_b)
            == (thick_st.shape_a, thick_st.shape_b))
        asc = []
        for run in (thin_rc, thick_rc):
            scen = build_scenario(run)
            value = asc_quadrature(scen).value
            ref = _betaprime_asc(scen)
            worst_oracle = max(worst_oracle, abs(value / ref - 1.0))
            asc.append(value)
        ratios.append(asc[1] / asc[0])
    ok = (worst_scale <= 1e-12 and shapes_kept and worst_oracle <= 1e-8
          and all(r < 1.0 for r in ratios))
    shown = "/".join(f"{r:.4f}" for r in ratios)
    assert _verdict(
        "cloud sensitivity", ok,
        f"CLWC 1->2 mg/m^3 scales both mean SNRs by s={s_hand:.4f} "
        f"(worst rel. miss {worst_scale:.1e}, cap 1e-12), shapes kept "
        f"{shapes_kept}; ASC vs scipy beta-prime worst rel. "
        f"{worst_oracle:.1e} (cap 1e-8); ratio thick/thin {shown} at "
        f"Cn2 1e-15/1e-14/1e-13, below 1 as a shared scale requires "
        f"(abstract: ~1.12)")


def test_altitude_outage_against_the_abstract():
    # The abstract reports a secrecy outage of roughly 50% at 600 km
    # over the whole turbulence regime.  With the shipped calibration
    # the outage at 600 km depends on how far Eve sits from Bob, so
    # the 600 km values from weak to strong turbulence are printed
    # next to the ~50%, not required.  Asserted is what the model
    # fixes: an outage of exactly one half at zero rate and zero
    # offset (identical receivers), the outage rising with altitude at
    # a fixed offset, and quadrature agreeing with the sampler there.
    rc = parse_config("configs/eve-offset-sweep.cfg")
    rate = rc.value("link.target_rate_bits")
    shown = {}
    worst_half = 0.0
    for offset in (0.0, 3.0):
        at_offset = rc.with_value("geometry.eve_separation_m", offset)
        values = []
        for cn2 in (1e-16, 1e-15, 1e-14, 1e-13, 4e-13):
            scen = build_scenario(
                at_offset.with_value("turbulence.cn2_ground", cn2))
            values.append(sop_exact(scen).value)
            if offset == 0.0:
                half = sop_exact(replace(scen, target_rate=0.0))
                worst_half = max(worst_half,
                                 abs(half.value - 0.5) / half.error)
        shown[offset] = "/".join(f"{v:.3f}" for v in values)

    at_3m = rc.with_value("geometry.eve_separation_m", 3.0)
    heights = (400.0, 600.0, 800.0, 1000.0, 1200.0)
    sop = []
    worst_pull = 0.0
    for i, km in enumerate(heights):
        scen = build_scenario(
            at_3m.with_value("geometry.satellite_altitude_km", km))
        sop.append(sop_exact(scen).value)
        _, est, _ = mc_metrics(scen, McConfig(samples=1_000_000,
                                              seed=600 + i))
        worst_pull = max(worst_pull, abs(est.mean - sop[-1]) / est.std_error)
    rising = all(x < y for x, y in zip(sop, sop[1:]))
    ok = worst_half <= 1.0 and rising and worst_pull <= 3.0
    assert _verdict(
        "altitude outage", ok,
        f"600 km SOP at {rate} bit, Cn2 1e-16..4e-13: {shown[0.0]} with "
        f"Eve co-located, {shown[3.0]} at 3 m (abstract: ~50%); zero-rate "
        f"co-located SOP off 1/2 by {worst_half:.2f} of its error (cap 1); "
        f"at 3 m SOP {sop[0]:.3f} -> {sop[-1]:.3f} from 400 to 1200 km, "
        f"rising {rising}; worst sampler pull {worst_pull:.2f} (limit 3)")


def test_fixed_seed_runs_are_byte_reproducible(tmp_path, capsys):
    # Same seed, same bytes out of the command line; and the sampler
    # must not care how many workers split the stream.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
[geometry]
wavelength_nm = 1550
satellite_altitude_km = 800
ground_height_m = 10
zenith_angle_deg = 60
divergence_urad = 10
aperture_diameter_cm = 5
eve_separation_m = 8

[atmosphere]
troposphere_db_per_km = 0.002
stratosphere_db_per_km = 0.001
stratosphere_extent_km = 20

[turbulence]
wind_speed_m_s = 21
cn2_ground = 1e-14

[link]
tx_power_w = 1
noise_std_a = 5e-6

[mc]
samples = 60000
seed = 7
""")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code1 = main(["metrics", "--config", str(cfg), "--out", str(out1)])
    code2 = main(["metrics", "--config", str(cfg), "--out", str(out2)])
    capsys.readouterr()
    same_bytes = out1.read_bytes() == out2.read_bytes()

    scen = build_scenario(parse_config("configs/turbulence-sweep.cfg"))
    one = mc_metrics(scen, McConfig(samples=200_000, seed=31, jobs=1))
    eight = mc_metrics(scen, McConfig(samples=200_000, seed=31, jobs=8))
    same_split = one == eight
    ok = code1 == 0 and code2 == 0 and same_bytes and same_split
    assert _verdict(
        "determinism", ok,
        f"repeated runs byte-identical: {same_bytes}; 1 vs 8 workers "
        f"identical: {same_split}")

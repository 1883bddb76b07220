import math

import numpy as np
import pytest

import fsosec.mc
from fsosec.fading import FFadingParams, SnrChannel, sample_ht
from fsosec.mc import McConfig, McEstimate, mc_asc, mc_metrics
from fsosec.secrecy import (WiretapScenario, asc_quadrature, sop_exact, spsc)

BOB = SnrChannel(FFadingParams(9.1, 11.7), 472.7)
EVE = SnrChannel(FFadingParams(9.1, 11.7), 48.3)
PAIR = WiretapScenario(BOB, EVE, target_rate=0.5)


def _per_metric_pass(scenario, cfg, stat):
    # one pass over the stream for a single metric, batches summed in
    # index order: the estimator that mc_metrics fuses three of
    full, rem = divmod(cfg.samples, fsosec.mc._BATCH_SIZE)
    sizes = [fsosec.mc._BATCH_SIZE] * full + ([rem] if rem else [])
    s = 0.0
    s2 = 0.0
    for index, size in enumerate(sizes):
        rng = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence([cfg.seed, index])))
        hb = sample_ht(scenario.bob.fading, rng, size)
        he = sample_ht(scenario.eve.fading, rng, size)
        d = (np.log2(1.0 + 4.0 * scenario.bob.mean_snr * hb * hb)
             - np.log2(1.0 + 4.0 * scenario.eve.mean_snr * he * he))
        x = stat(d)
        s += float(np.sum(x))
        s2 += float(np.sum(x * x))
    n = cfg.samples
    var = max(s2 - s * s / n, 0.0) / (n - 1)
    return McEstimate(s / n, math.sqrt(var / n), n)


@pytest.mark.parametrize("rate", [0.0, 0.5])
@pytest.mark.parametrize("jobs", [1, 4])
def test_one_pass_matches_per_metric_passes_bit_for_bit(jobs, rate,
                                                        monkeypatch):
    scen = WiretapScenario(BOB, SnrChannel(EVE.fading, 190.0), rate)
    # seventeen full batches and a remainder batch
    monkeypatch.setattr(fsosec.mc, "_BATCH_SIZE", 1 << 12)
    cfg = McConfig(samples=70_001, seed=17, jobs=jobs)

    def outage(d):
        return (d <= 0.0 if rate == 0.0 else d < rate).astype(float)

    stats = (lambda d: np.maximum(d, 0.0), outage,
             lambda d: (d > 0.0).astype(float))
    fused = mc_metrics(scen, cfg)
    assert len(fused) == len(stats)
    for est, stat in zip(fused, stats):
        want = _per_metric_pass(scen, cfg, stat)
        assert est.mean == want.mean
        assert est.std_error == want.std_error
        assert est.n == want.n == 70_001
    assert 0.0 < fused[1].mean < 1.0
    assert mc_asc(scen, cfg) == fused[0]


def test_worker_count_does_not_change_the_estimate():
    serial = McConfig(samples=200_000, seed=42)
    threaded = McConfig(samples=200_000, seed=42, jobs=8)
    for a, b in zip(mc_metrics(PAIR, serial), mc_metrics(PAIR, threaded)):
        assert a.mean == b.mean
        assert a.std_error == b.std_error
        assert a.n == b.n == 200_000


def test_batch_streams_are_independent(monkeypatch):
    # SFC64 has no counter to keep streams apart; only the
    # SeedSequence([seed, batch index]) seeding does.  Read the gamma
    # variates of the generator mc_metrics builds for each batch.
    n = fsosec.mc._BATCH_SIZE
    drawn = []

    def spy(fading, rng, size):
        draws = rng.standard_gamma(fading.a, size)
        drawn.append(draws.copy())  # mc_metrics works in place
        return draws

    monkeypatch.setattr(fsosec.mc, "sample_ht", spy)
    seed = 23
    mc_metrics(PAIR, McConfig(samples=2 * n, seed=seed))
    mc_metrics(PAIR, McConfig(samples=n, seed=seed + 1))
    # Bob then Eve per batch, batches (seed, 0), (seed, 1), (seed + 1, 0);
    # Eve's draw continues Bob's stream of batch (seed, 0)
    streams = [drawn[0], drawn[2], drawn[4], drawn[1]]
    assert len(drawn) == 6 and all(len(s) == n for s in streams)
    r = np.corrcoef(streams)
    off_diagonal = r[~np.eye(len(streams), dtype=bool)]
    assert np.max(np.abs(off_diagonal)) <= 4.0 / math.sqrt(n)
    assert len({s[0] for s in streams}) == len(streams)


def test_batch_remainder_counted():
    # two full batches of 1 << 16 and a remainder
    cfg = McConfig(samples=150_001, seed=3)
    assert [est.n for est in mc_metrics(PAIR, cfg)] == [150_001] * 3


def test_seed_changes_the_stream():
    a = mc_metrics(PAIR, McConfig(samples=50_000, seed=0))
    b = mc_metrics(PAIR, McConfig(samples=50_000, seed=1))
    assert a[0].mean != b[0].mean


def test_zero_rate_partition_is_exact():
    zero = WiretapScenario(BOB, EVE, target_rate=0.0)
    cfg = McConfig(samples=100_000, seed=11)
    _, outage, positive = mc_metrics(zero, cfg)
    assert outage.mean + positive.mean == 1.0


def test_overflowing_snr_keeps_every_capacity_finite():
    # at mean SNR 1e306 the SNR 4 mean_snr h^2 of a large gain overflows
    # a double, and its capacity is log2(4 mean_snr) + 2 log2(h)
    fading = FFadingParams(2.5, 3.2)
    cfg = McConfig(samples=100_000, seed=3)
    scen = WiretapScenario(SnrChannel(fading, 1e306),
                           SnrChannel(fading, 10.0), 0.5)
    asc, _, _ = mc_metrics(scen, cfg)
    assert math.isfinite(asc.std_error)
    assert abs(asc.mean - asc_quadrature(scen).value) <= 3.0 * asc.std_error
    # with both branches at 1e306, a nan difference of two overflowed
    # capacities would fall in neither event
    equal = WiretapScenario(SnrChannel(fading, 1e306),
                            SnrChannel(fading, 1e306), 0.0)
    asc, outage, positive = mc_metrics(equal, cfg)
    assert math.isfinite(asc.mean) and math.isfinite(asc.std_error)
    assert outage.mean + positive.mean == 1.0


def test_single_sample_has_no_error_bar():
    for est in mc_metrics(PAIR, McConfig(samples=1, seed=5)):
        assert est.n == 1
        assert est.std_error == 0.0


def test_error_bar_shrinks_like_root_n():
    small, _, _ = mc_metrics(PAIR, McConfig(samples=50_000, seed=9))
    large, _, _ = mc_metrics(PAIR, McConfig(samples=200_000, seed=9))
    ratio = small.std_error / large.std_error
    assert ratio == pytest.approx(2.0, rel=0.1)


def test_estimates_match_analytics():
    cfg = McConfig(samples=400_000, seed=2024, jobs=4)
    a, s, p = mc_metrics(PAIR, cfg)
    assert abs(a.mean - asc_quadrature(PAIR).value) <= 4.0 * a.std_error
    assert abs(s.mean - sop_exact(PAIR).value) <= 4.0 * s.std_error
    assert abs(p.mean - spsc(PAIR).value) <= 4.0 * p.std_error


def test_probabilities_stay_in_range():
    cfg = McConfig(samples=20_000, seed=1)
    for scen in (PAIR, WiretapScenario(EVE, BOB, target_rate=2.0)):
        asc, sop, positive = mc_metrics(scen, cfg)
        assert 0.0 <= sop.mean <= 1.0
        assert 0.0 <= positive.mean <= 1.0
        assert asc.mean >= 0.0


def test_constant_stream_leaves_only_roundoff():
    # equal batch sums of a constant stream: the one-pass variance is
    # cancellation roundoff alone, clamped at zero
    value = math.log2(401.0) - math.log2(41.0)
    sizes = [fsosec.mc._BATCH_SIZE] * 15 + [1000]
    est = fsosec.mc._estimate([(value * n, value * value * n) for n in sizes],
                              sum(sizes))
    assert est.mean == pytest.approx(value, rel=1e-14)
    assert est.std_error <= 1e-8 * est.mean


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(samples=0, seed=0)
    with pytest.raises(ValueError):
        McConfig(samples=10, seed=-1)
    with pytest.raises(ValueError):
        McConfig(samples=10, seed=0, jobs=0)

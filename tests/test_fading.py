"""F-fading statistics against frozen references (mpmath, 50 digits),
scipy's beta-prime family, and the package's own quadrature."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from fsosec.fading import (FFadingParams, SnrChannel, cdf_ht, cdf_ht_gform,
                           mean_snr_from_budget, pdf_ht, pdf_ht_gform,
                           sample_ht)
from fsosec.quadrature import quad_positive_axis


def _quad(f, x_peak):
    # (value, error) of one integrand, as a lockstep group of one
    return quad_positive_axis(lambda xs: {i: f(x) for i, x in xs.items()},
                              [x_peak])[0]


# (a, b) -> {h: (pdf, cdf)}
FROZEN = {
    (2.5, 3.2): {0.3: (0.95640067537072027, 0.18990440187624501),
                 1.0: (0.40924717753706793, 0.6779962513759747),
                 2.7: (0.046195303853005064, 0.94211934652784535)},
    (9.1, 11.7): {0.3: (0.16315408896047186, 0.009069995805703325),
                  1.0: (0.8734959694492029, 0.58651528315663111),
                  2.7: (0.01659242225548416, 0.9925601460381311)},
    (1.0, 4.0): {0.3: (0.82789509741220691, 0.3169865446349293),
                 1.0: (0.31640625, 0.68359375),
                 2.7: (0.053848143120825667, 0.92326639605282342)},
    (0.5, 2.6): {0.3: (0.67046188877875155, 0.48496934522903981),
                 1.0: (0.20867617174333654, 0.74361385342157871),
                 2.7: (0.044281522332951787, 0.91177818081763816)},
}

SHAPES = sorted(FROZEN)


def test_pdf_cdf_frozen():
    for (a, b), points in FROZEN.items():
        params = FFadingParams(a, b)
        for h, (fp, fc) in points.items():
            assert pdf_ht(params, h) == pytest.approx(fp, rel=1e-12)
            assert cdf_ht(params, h) == pytest.approx(fc, rel=1e-12)


def test_matches_scipy_betaprime():
    # h = ((b-1)/a) * betaprime(a, b)
    for a, b in SHAPES:
        params = FFadingParams(a, b)
        dist = stats.betaprime(a, b, scale=(b - 1.0) / a)
        for h in (0.05, 0.3, 1.0, 2.7, 8.0):
            assert pdf_ht(params, h) == pytest.approx(dist.pdf(h), rel=1e-10)
            assert cdf_ht(params, h) == pytest.approx(dist.cdf(h), rel=1e-10)


def test_pdf_normalises_and_unit_mean():
    for a, b in SHAPES:
        params = FFadingParams(a, b)
        total, _ = _quad(lambda h: pdf_ht(params, h), 1.0)
        assert total == pytest.approx(1.0, abs=1e-8)
        mean, _ = _quad(lambda h: h * pdf_ht(params, h), 1.0)
        assert mean == pytest.approx(1.0, abs=1e-7)


def _power_variance(params):
    # variance of the unit-mean F power gain (needs b > 2), the oracle
    # of the sampler tests
    return (params.a + params.b - 1.0) / (params.a * (params.b - 2.0))


def test_power_variance():
    params = FFadingParams(9.1, 11.7)
    second, _ = _quad(lambda h: h * h * pdf_ht(params, h), 1.0)
    assert second - 1.0 == pytest.approx(_power_variance(params), rel=1e-6)


def test_cdf_is_integral_of_pdf():
    params = FFadingParams(2.5, 3.2)
    for h in (0.2, 1.0, 3.0):
        val, err = integrate.quad(lambda x: pdf_ht(params, x), 0.0, h)
        assert cdf_ht(params, h) == pytest.approx(val, abs=max(1e-10, 10 * err))


def test_pdf_cdf_edges():
    params = FFadingParams(2.5, 3.2)
    assert pdf_ht(params, -1.0) == 0.0
    assert pdf_ht(params, math.inf) == 0.0
    assert cdf_ht(params, 0.0) == 0.0
    assert cdf_ht(params, -1.0) == 0.0
    assert cdf_ht(params, math.inf) == 1.0


def test_cdf_array_matches_scalar():
    params = FFadingParams(9.1, 11.7)
    h = np.array([-1.0, 0.0, 0.3, 1.0, 2.7, 50.0, np.inf])
    vec = cdf_ht(params, h)
    for hi, vi in zip(h, vec):
        assert vi == pytest.approx(cdf_ht(params, float(hi)), rel=1e-13, abs=1e-300)


def test_densities_act_elementwise_with_scalar_edges():
    # array calls of the gain density keep the scalar edge values: 0
    # below the support and at inf, and at h = 0 inf for a < 1, the
    # finite limit for a = 1 and 0 for a > 1
    for a, b in SHAPES:
        params = FFadingParams(a, b)
        h = np.array([[-1.0, 0.0, 0.3], [1.0, 2.7, np.inf]])
        pdf = pdf_ht(params, h)
        assert pdf.shape == h.shape
        for hi, vi in zip(h.ravel(), pdf.ravel()):
            assert vi == pytest.approx(pdf_ht(params, float(hi)), rel=1e-13)
    assert pdf_ht(FFadingParams(0.5, 2.6), 0.0) == math.inf
    assert pdf_ht(FFadingParams(1.0, 4.0), 0.0) == pytest.approx(4.0 / 3.0, rel=1e-13)
    assert pdf_ht(FFadingParams(2.5, 3.2), 0.0) == 0.0


def test_gform_matches_direct():
    for a, b in SHAPES:
        params = FFadingParams(a, b)
        for h in (0.3, 1.0, 2.7):
            val, err = pdf_ht_gform(params, h)
            assert val == pytest.approx(pdf_ht(params, h), rel=1e-8)
            val, err = cdf_ht_gform(params, h)
            assert val == pytest.approx(cdf_ht(params, h), rel=1e-8)


def test_params_validation():
    # both shapes must also be finite
    for a, b in ((0.0, 3.0), (-1.0, 3.0), (1.0, 1.0), (1.0, 0.5),
                 (math.inf, math.inf), (math.inf, 3.0), (1.0, math.inf),
                 (math.nan, 3.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            FFadingParams(a, b)


def test_sampler_distribution():
    params = FFadingParams(9.1, 11.7)
    rng = np.random.default_rng(1234)
    n = 200_000
    h = np.sort(sample_ht(params, rng, n))
    ecdf_hi = np.arange(1, n + 1) / n
    model = cdf_ht(params, h)
    d = np.max(np.maximum(np.abs(ecdf_hi - model),
                          np.abs(ecdf_hi - 1.0 / n - model)))
    assert d <= 1.95 / math.sqrt(n)  # KS alpha ~ 0.001
    se = math.sqrt(_power_variance(params) / n)
    assert abs(np.mean(h) - 1.0) <= 5.0 * se


def test_snr_channel_budget():
    assert mean_snr_from_budget(1.0, 5e-7, 1e-5) == pytest.approx(
        2.0 * (1.0 * 1e-5 / 5e-7) ** 2, rel=1e-15)
    with pytest.raises(ValueError):
        mean_snr_from_budget(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SnrChannel(FFadingParams(2.0, 3.0), 0.0)
    with pytest.raises(ValueError):
        SnrChannel(FFadingParams(2.0, 3.0), math.inf)


def test_sample_snr_consistency():
    chan = SnrChannel(FFadingParams(9.1, 11.7), 100.0)
    rng = np.random.default_rng(7)
    h = sample_ht(chan.fading, rng, 50_000)
    g = 4.0 * chan.mean_snr * h * h
    assert np.all(g > 0.0)
    # E[gamma] = 4 * mean_snr * E[h^2]
    want = 4.0 * chan.mean_snr * (1.0 + _power_variance(chan.fading))
    assert np.mean(g) == pytest.approx(want, rel=0.05)


@settings(max_examples=40)
@given(st.floats(0.3, 30.0), st.floats(1.2, 30.0), st.floats(1e-3, 50.0))
def test_cdf_bounds_and_monotone(a, b, h):
    params = FFadingParams(a, b)
    c = cdf_ht(params, h)
    assert 0.0 <= c <= 1.0
    assert pdf_ht(params, h) >= 0.0
    assert cdf_ht(params, h * 1.5) >= c - 1e-12

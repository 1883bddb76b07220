import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fsosec.errors import NonConvergent
from fsosec.quadrature import _walk, quad_positive_axis, quad_positive_axis_many


def test_adaptive_smooth():
    # a one-sided exponential in ln x, and a log-logistic density
    val, err = quad_positive_axis(lambda x: np.exp(-x))
    assert abs(val - 1.0) <= err
    val, err = quad_positive_axis(lambda x: 1.0 / (1.0 + x * x), x_peak=1.0)
    assert abs(val - math.pi / 2.0) <= err


def test_adaptive_cancelling_integral_reports_its_rounding():
    # e^-x - 2 e^-2x has integral 0: the step halving stops at the
    # rounding of the sum, and the error covers what it leaves over
    val, err = quad_positive_axis(lambda x: np.exp(-x) - 2.0 * np.exp(-2.0 * x))
    assert abs(val) <= err < 1e-14


def test_adaptive_narrow_spike():
    # a lognormal of width 0.05 in ln x, between grid samples, resolved
    # from the full scan and from a hint alike
    sigma = 0.05

    def spike(x):
        return np.exp(-0.5 * ((np.log(x) - 0.2) / sigma) ** 2) / x

    exact = sigma * math.sqrt(2.0 * math.pi)
    val, err = quad_positive_axis(spike)
    assert abs(val - exact) <= err
    assert err / exact < 1e-10
    assert quad_positive_axis(spike, x_peak=math.exp(0.2)) == (val, err)


def test_adaptive_error_estimate_honest():
    euler_gamma = 0.57721566490153286
    for f, exact in (
            (lambda x: 1.0 / (1.0 + x) ** 2, 1.0),
            (lambda x: np.exp(-x) / np.sqrt(x), math.sqrt(math.pi)),
            (lambda x: x ** 3 / np.expm1(x), math.pi ** 4 / 15.0),
            # a signed integrand: negative below x = 1.78
            (lambda x: np.exp(-x) * np.log(x), -euler_gamma)):
        val, err = quad_positive_axis(f)
        assert abs(val - exact) <= err < 1e-12


def test_adaptive_budget_exhaustion_raises():
    # a jump at x = e^0.1, between grid samples: the trapezoid converges
    # only linearly there and runs out of nodes long before 1e-10
    with pytest.raises(NonConvergent, match="over the budget"):
        quad_positive_axis(lambda x: np.where(x < math.exp(0.1),
                                              np.exp(-x), 0.0))


def test_positive_axis_gaussian():
    val, err = quad_positive_axis(lambda x: np.exp(-x * x))
    exact = math.sqrt(math.pi) / 2.0
    assert abs(val - exact) <= max(err, 1e-12)


def test_positive_axis_heavy_tail():
    # Pareto-type integrand with slow decay
    val, err = quad_positive_axis(lambda x: 1.0 / (1.0 + x) ** 3)
    assert abs(val - 0.5) <= max(err, 1e-11)


def test_positive_axis_far_peak():
    # lognormal-like mass centred around x = 1e8, found by the full scan
    # and from a hint at the peak
    mu = math.log(1e8)
    f = lambda x: np.exp(-0.5 * (np.log(x) - mu) ** 2) / x
    exact = math.sqrt(2.0 * math.pi)
    full = quad_positive_axis(f)
    assert abs(full[0] - exact) / exact < 1e-10
    nodes = []
    hinted = quad_positive_axis(lambda x: nodes.append(x.size) or f(x),
                                x_peak=1e8)
    assert hinted == full
    assert sum(nodes) < 1000


def test_positive_axis_zero_integrand():
    val, err = quad_positive_axis(lambda x: 0.0)
    assert val == 0.0 and err == 0.0
    val, err = quad_positive_axis(lambda x: 0.0 * x, x_peak=2.0)
    assert val == 0.0 and err == 0.0


def _bump(x):
    # a bump in u = ln x centred between the grid nodes 0 and 0.5, too
    # narrow to leave a nonzero sample on the grid: g(u) = f(e^u) e^u
    return np.exp(-((np.log(x) - 0.25) / 0.005) ** 2) / x


def test_mass_between_grid_samples_at_the_hint_raises():
    grid = -690.0 + 0.5 * np.arange(2761)
    assert not _bump(np.exp(grid)).any()
    with pytest.raises(NonConvergent, match="between scan grid samples"):
        quad_positive_axis(_bump, x_peak=math.exp(0.25))
    # without a hint nothing points at the mass
    assert quad_positive_axis(_bump) == (0.0, 0.0)


def test_the_scan_asks_for_each_grid_sample_once():
    # the hinted block reads only zeros, so the scan falls back to the
    # rest of the grid: the block's points are not asked for again
    asked = []

    def f(x):
        asked.append(x)
        return _bump(x)

    with pytest.raises(NonConvergent):
        quad_positive_axis(f, x_peak=math.exp(0.25))
    k = (np.log(np.concatenate(asked)) + 690.0) / 0.5
    on_grid = np.round(k[np.abs(k - np.round(k)) < 1e-6]).astype(int)
    assert on_grid.size == 2761
    assert np.unique(on_grid).size == on_grid.size


@pytest.mark.parametrize("f, x_peak", [
    # unit mass around x = 1e300 and 1e-300, past each end of the grid
    # e^-690 ... e^690; the walks run into the end still rising
    (lambda x: np.exp(-x / 1e300) / 1e300, None),
    (lambda x: np.exp(-x / 1e300) / 1e300, 1e300),
    (lambda x: 1e300 * np.exp(-1e300 * x), None),
    (lambda x: 1e300 * np.exp(-1e300 * x), 1e-300),
], ids=["top-scan", "top-hint", "bottom-scan", "bottom-hint"])
def test_mass_beyond_a_grid_end_raises(f, x_peak):
    with pytest.raises(NonConvergent, match="beyond the scan grid"):
        quad_positive_axis(f, x_peak=x_peak)


def test_positive_axis_survives_bad_tail_points():
    # inf or nan far outside the mass window must not poison the peak
    # scan; lognormal mass near x = 1 is untouched
    def f(x):
        lx = np.log(x)
        out = np.exp(-0.5 * lx * lx) / x
        return np.where(x > 1e200, np.inf, np.where(x < 1e-200, np.nan, out))
    exact = math.sqrt(2.0 * math.pi)
    for x_peak in (None, 1.0):
        val, err = quad_positive_axis(f, x_peak=x_peak)
        assert abs(val - exact) <= max(10.0 * err, 1e-9 * exact)


@pytest.mark.parametrize("x_peak", [None, 0.7])
def test_positive_axis_nan_inside_the_mass_window_raises(x_peak):
    # the scan skips a nan sample, but a nan at an integration node must
    # surface as NonConvergent, never as a NaN value
    def f(x):
        return np.where((x > 0.5) & (x < 1.0), np.nan, np.exp(-x * x))
    with pytest.raises(NonConvergent):
        quad_positive_axis(f, x_peak=x_peak)


def test_adaptive_non_finite_node_raises():
    # inf on 0.2 < ln x < 0.3 misses every scan sample; the first
    # halving of the step puts a midpoint at ln x = 0.25
    def f(x):
        lx = np.log(x)
        return np.where((lx > 0.2) & (lx < 0.3), np.inf, np.exp(-x))

    grid = np.exp(-690.0 + 0.5 * np.arange(2761))
    assert np.isfinite(f(grid)).all()
    with pytest.raises(NonConvergent, match="not finite"):
        quad_positive_axis(f)


def _gauss(x):
    return np.exp(-x * x)


@pytest.mark.parametrize("x_peak", [
    math.inf, math.nan, 0.0, -1.0,  # unusable: full scan
    1e200,  # the integrand is 0 there: full scan
    1e-320, 1e305,  # off the grid: clipped to its ends
    0.7,  # near the peak
])
def test_positive_axis_hint_cannot_change_the_result(x_peak):
    assert (quad_positive_axis(_gauss, x_peak=x_peak)
            == quad_positive_axis(_gauss))


def _lognormal(x_mode, sigma):
    mu = math.log(x_mode)
    return lambda x: np.exp(-0.5 * ((np.log(x) - mu) / sigma) ** 2) / x


def _on_grid(x):
    # whether the abscissae x are scan grid points e^(-690 + 0.5 k), not
    # midpoints of a halved step
    k = (np.log(x) + 690.0) / 0.5
    return bool(np.all(np.abs(k - np.round(k)) < 1e-6))


def _lockstep(fs):
    # f_many of the integrands fs, asserting that every request is a
    # 1-D array of abscissae, and counting the scan requests
    scans = [0] * len(fs)

    def f_many(ids, xs):
        for i, x in zip(ids, xs):
            assert isinstance(x, np.ndarray) and x.ndim == 1 and x.size
            scans[i] += _on_grid(x)
        return [fs[i](x) for i, x in zip(ids, xs)]
    return f_many, scans


def test_lockstep_group_equals_separate_integrals():
    members = (
        (_gauss, 0.7),  # hinted
        (lambda x: 1.0 / (1.0 + x) ** 3, None),  # full scan
        (_lognormal(1e8, 3.0), 1e8),  # too wide for the first block
        (lambda x: 0.0 * x, 0.5),  # zero everywhere
    )
    fs, x_peaks = zip(*members)
    f_many, scans = _lockstep(fs)
    got = quad_positive_axis_many(f_many, x_peaks)
    want = [quad_positive_axis(f, x_peak=p) for f, p in members]
    assert [tuple(map(float.hex, r)) for r in got] == \
        [tuple(map(float.hex, r)) for r in want]
    assert scans[2] > 1
    assert want[3] == (0.0, 0.0)


def test_lockstep_group_raises_a_member_failure():
    # a nan at an integration node of one member fails the group with
    # the member's own error
    def bad(x):
        return np.where((x > 0.5) & (x < 1.0), np.nan, np.exp(-x * x))

    with pytest.raises(NonConvergent) as alone:
        quad_positive_axis(bad, x_peak=0.7)
    f_many, _ = _lockstep((_gauss, bad))
    with pytest.raises(NonConvergent) as group:
        quad_positive_axis_many(f_many, (0.7, 0.7))
    assert str(group.value) == str(alone.value)


def test_lockstep_round_serves_scans_and_panels_together():
    # the narrow hinted integral halves its step while the wide one
    # still scans: one call serves both, and the group makes each
    # member's requests in as many rounds as the longer member alone
    fs = (_lognormal(1.0, 0.3), _lognormal(1e8, 3.0))
    x_peaks = (1.0, 1e8)
    alone = [0, 0]

    def counted(k):
        def f(x):
            alone[k] += 1
            return fs[k](x)
        return f

    want = [quad_positive_axis(counted(k), x_peak=p)
            for k, p in enumerate(x_peaks)]
    rounds = []

    def f_many(ids, xs):
        rounds.append({i: _on_grid(x) for i, x in zip(ids, xs)})
        return [fs[i](x) for i, x in zip(ids, xs)]

    assert quad_positive_axis_many(f_many, x_peaks) == want
    assert {0: False, 1: True} in rounds
    assert len(rounds) == max(alone)
    assert sum(map(len, rounds)) == sum(alone)


def _loop_walk(vals, i, step, floor, lo, hi, n):
    # the rule of _walk, one step at a time
    while 0 < i < n:
        j = min(max(i + step, 0), n)
        if not lo <= j <= hi:
            return None
        if vals[j] <= floor and vals[j] <= vals[i]:
            return j, i
        i = j
    return i, i


def test_walk_matches_the_loop_rule():
    rng = np.random.default_rng(7)
    ran_out = 0
    for n in (1, 2, 5, 8, 11):
        k = np.arange(n + 1)
        vectors = (
            np.zeros(n + 1),
            np.round(3.0 * rng.random(n + 1)) / 3.0,  # zeros and plateaus
            rng.random(n + 1) * (rng.random(n + 1) < 0.6),
            # a peak whose tails rise again towards both grid ends
            np.exp(-((k - n / 2.0) / 1.5) ** 2) + 0.01 * (k - n / 2.0) ** 2,
        )
        for vals in vectors:
            floors = (0.0, float(np.median(vals)), float(vals.max()))
            grid = range(n + 1)
            for i, lo, hi, step, floor in product(grid, grid, grid,
                                                  (-2, -1, 1, 2), floors):
                if lo <= i <= hi:
                    want = _loop_walk(vals, i, step, floor, lo, hi, n)
                    assert _walk(vals, i, step, floor, lo, hi, n) == want
                    ran_out += want is None
    # known ranges that end before the walk does were reached too
    assert ran_out > 0


@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0))
def test_adaptive_linearity(scale, width):
    # scale * x * e^(-x / width) integrates to scale * width^2
    val, err = quad_positive_axis(lambda x: scale * x * np.exp(-x / width),
                                  x_peak=width)
    exact = scale * width * width
    assert abs(val - exact) <= max(err, 1e-12 * max(1.0, exact))
    unit, unit_err = quad_positive_axis(lambda x: x * np.exp(-x / width),
                                        x_peak=width)
    assert abs(val - scale * unit) <= err + scale * unit_err

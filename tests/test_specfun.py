"""Checks against high-precision reference values (mpmath, 50 digits)."""
import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from fsosec import specfun
from fsosec.errors import NonConvergent
from fsosec.specfun import log_beta, log_gamma_complex, reg_inc_beta


def test_log_beta_reference():
    cases = [
        ((2.5, 3.5), -3.3018352699620526),
        ((9.1, 11.7), -14.1397836022661),
        ((0.3, 40.0), -0.0082365242733420394),
    ]
    for (a, b), want in cases:
        assert abs(log_beta(a, b) - want) <= 1e-12 * max(1.0, abs(want))
    assert log_beta(1.0, 1.0) == 0.0


def test_log_beta_symmetry():
    assert log_beta(2.5, 7.25) == pytest.approx(log_beta(7.25, 2.5), rel=1e-15)


def test_reg_inc_beta_reference():
    cases = [
        ((0.1, 2.0, 3.0), 0.052300000000000005),
        ((0.5, 2.0, 3.0), 0.6875),
        ((0.9, 2.0, 3.0), 0.9963),
        ((0.25, 9.1, 11.7), 0.034539897270545461),
        ((0.75, 0.5, 0.5), 0.66666666666666667),
        ((1e-08, 3.0, 4.0), 1.9999999550000005e-23),
        ((0.999, 5.0, 2.0), 0.99998503995502399),
        ((0.03, 20.0, 2.5), 2.4596243786060152e-29),
    ]
    for (x, a, b), want in cases:
        got = reg_inc_beta(x, a, b)
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1e-300)


def test_reg_inc_beta_endpoints():
    assert reg_inc_beta(0.0, 3.0, 4.0) == 0.0
    assert reg_inc_beta(1.0, 3.0, 4.0) == 1.0


@given(st.floats(1e-6, 1.0 - 1e-6),
       st.floats(0.05, 50.0),
       st.floats(0.05, 50.0))
def test_reg_inc_beta_complement(x, a, b):
    total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
    assert abs(total - 1.0) < 1e-10


@given(st.floats(1e-6, 1.0 - 1e-6),
       st.floats(0.1, 30.0),
       st.floats(0.1, 30.0))
def test_reg_inc_beta_monotone_in_x(x, a, b):
    step = min(x * 0.5, (1.0 - x) * 0.5)
    assert reg_inc_beta(x, a, b) <= reg_inc_beta(x + step, a, b) + 1e-14


def test_reg_inc_beta_array_matches_scalar():
    # one array call on both sides of the flip point against one call
    # per point
    rng = np.random.default_rng(7)
    x = rng.uniform(1e-4, 1.0 - 1e-4, size=200)
    for a, b in ((0.7, 1.3), (2.0, 3.0), (9.1, 11.7)):
        vec = reg_inc_beta(x, a, b)
        assert vec.shape == x.shape
        for xi, vi in zip(x, vec):
            assert vi == pytest.approx(reg_inc_beta(float(xi), a, b), rel=1e-12, abs=1e-300)


def _rounding_bound(x, a, b, value):
    # the rounding of the log of the front factor, a ln x + b ln(1-x)
    # - ln B(a, b), plus a few ulps of the fraction, relative to the
    # value; a value below the normal range also rounds to the
    # subnormal grid
    eps = float(np.finfo(float).eps)
    scale = (abs(a * math.log(x)) + abs(b * math.log1p(-x))
             + abs(math.lgamma(a)) + abs(math.lgamma(b))
             + abs(math.lgamma(a + b)) + 8.0)
    return 2.0 * eps * scale * value + math.ulp(0.0)


def test_reg_inc_beta_within_its_rounding_bound_of_mpmath():
    # seeded draws over the shapes the fading laws reach, against a
    # 30-digit oracle
    rng = np.random.default_rng(20261018)
    n = 3000
    a = np.exp(rng.uniform(math.log(0.3), math.log(300.0), n))
    b = np.exp(rng.uniform(math.log(1.05), math.log(300.0), n))
    x = rng.uniform(0.0, 1.0, n)
    with mp.workdps(30):
        for ai, bi, xi in zip(a.tolist(), b.tolist(), x.tolist()):
            got = reg_inc_beta(xi, ai, bi)
            want = mp.betainc(ai, bi, 0, xi, regularized=True)
            assert abs(got - want) <= _rounding_bound(xi, ai, bi, want), (ai, bi, xi)


def test_reg_inc_beta_small_a_large_b_below_the_switch_point():
    # small a, large b: the complement fraction stalls just above
    # a/(a+b) = 1.8e-4, the direct one converges up to the switch at
    # (a+1)/(a+b+2) = 3.5e-3
    a, b = 0.0533, 299.2
    with mp.workdps(30):
        for x in (1e-4, 2e-4, 5e-4, 3.4e-3):
            want = mp.betainc(a, b, 0, x, regularized=True)
            assert abs(reg_inc_beta(x, a, b) - want) <= _rounding_bound(x, a, b, want), x


# shapes of about 1e4: next to the switch point (a+1)/(a+b+2) the
# fraction needs a contracted depth above 64 there
_LARGE_A, _LARGE_B = 1.0e4, 1.2e4
_SLOW_X = (1.0 - 1e-9) * (_LARGE_A + 1.0) / (_LARGE_A + _LARGE_B + 2.0)


def test_reg_inc_beta_value_does_not_depend_on_the_rest_of_the_call():
    # elements that converge at depths 16, 32 and 64 to other bits than
    # the slow element's depth gives them, and the slow one itself, give
    # the bits each gives alone
    x = np.array([0.42936619807453125, 0.4422287283073698,
                  0.4501927807708075, _SLOW_X])
    together = reg_inc_beta(x, _LARGE_A, _LARGE_B)
    for xi, vi in zip(x.tolist(), together.tolist()):
        assert vi.hex() == reg_inc_beta(xi, _LARGE_A, _LARGE_B).hex(), xi


def _betainc_series(x, a, b):
    # I_x(a, b) = x^a (1-x)^b / (a B(a, b)) 2F1(a+b, 1; a+1; x), a series
    # of positive terms, which mpmath sums at large shapes where its
    # betainc does not converge
    x = mp.mpf(x)
    return (x ** a * (1 - x) ** b / (a * mp.beta(a, b))
            * mp.hyp2f1(a + b, 1, a + 1, x))


@pytest.mark.parametrize("a, b", [(_LARGE_A, _LARGE_B), (9.5e3, 3.1e3),
                                  (2.2e3, 2.0e4)])
def test_reg_inc_beta_large_shapes_within_their_rounding_bound_of_mpmath(a, b):
    switch = (a + 1.0) / (a + b + 2.0)
    with mp.workdps(30):
        for x in (switch * np.array([0.97, 0.999, 1.0 - 1e-9, 1.0 + 1e-9,
                                     1.001, 1.03])).tolist():
            want = _betainc_series(x, a, b)
            assert abs(reg_inc_beta(x, a, b) - want) <= _rounding_bound(x, a, b, want), x


def test_coefficient_table_is_built_once_and_read_only():
    # a cold call builds the fraction's table of the shapes and depth, a
    # warm one reads it back: same bits, and nobody can write into it
    x = np.linspace(0.0, 1.0, 75)
    specfun._cf_table.cache_clear()
    cold = reg_inc_beta(x, 9.8, 12.3)
    built = specfun._cf_table.cache_info().misses
    warm = reg_inc_beta(x, 9.8, 12.3)
    assert cold.tobytes() == warm.tobytes()
    assert specfun._cf_table.cache_info().misses == built > 0
    for table in specfun._cf_table(9.8, 12.3, specfun._CF_START_DEPTH):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_reg_inc_beta_stalls_past_the_depth_cap(monkeypatch):
    monkeypatch.setattr(specfun, "_CF_MAX_ITER", 64)
    with pytest.raises(NonConvergent, match=r"^incomplete beta continued "
                       r"fraction stalled at a=10000\.0 b=12000\.0$"):
        reg_inc_beta(_SLOW_X, _LARGE_A, _LARGE_B)


def test_reg_inc_beta_array_edge_values():
    out = reg_inc_beta(np.array([[0.0, 1.0], [0.5, np.nan]]), 2.0, 3.0)
    assert out[0, 0] == 0.0
    assert out[0, 1] == 1.0
    assert out[1, 0] == pytest.approx(0.6875, rel=1e-13)
    assert np.isnan(out[1, 1])
    with pytest.raises(ValueError):
        reg_inc_beta(np.array([0.5, 1.5]), 2.0, 3.0)


def test_log_gamma_complex_reference():
    # principal branch: real part exact, imaginary part modulo 2*pi
    cases = [
        (2.0 + 3.0j, -2.0928517530927333 + 2.3023965434668676j),
        (0.5 + 10.0j, -14.789024734744293 + 13.03002003491109j),
        (5.0 + 0.001j, 3.1780537196864686 + 0.0015061176765634224j),
        (3.25 - 4.5j, -1.8627664256950625 - 5.8002617080301584j),
    ]
    for z, want in cases:
        got = log_gamma_complex(z)
        assert abs(got.real - want.real) <= 1e-11 * max(1.0, abs(want.real))
        dim = (got.imag - want.imag) / (2.0 * math.pi)
        assert abs(dim - round(dim)) < 1e-11


def test_log_gamma_complex_real_line_agrees():
    for x in (0.5, 1.0, 2.5, 9.13):
        got = log_gamma_complex(complex(x, 0.0))
        assert abs(got.imag) < 1e-13
        assert got.real == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)


def test_log_gamma_complex_recurrence():
    # lgamma(z+1) = lgamma(z) + log(z), up to 2*pi*i branch jumps
    for z in (1.5 + 2.0j, 0.25 + 7.0j, 4.0 - 3.0j):
        lhs = log_gamma_complex(z + 1.0)
        rhs = log_gamma_complex(z) + cmath.log(z)
        assert abs(lhs.real - rhs.real) < 1e-11
        dim = (lhs.imag - rhs.imag) / (2.0 * math.pi)
        assert abs(dim - round(dim)) < 1e-11


def test_log_gamma_complex_array_matches_scalar():
    # both sides of the reflection line and both far-imaginary branches
    # of the log-sin in one call
    z = np.array([[2.0 + 3.0j, 0.25 + 7.0j], [-3.5 + 25.0j, -3.5 - 25.0j]])
    got = log_gamma_complex(z)
    assert got.shape == z.shape
    for zi, gi in zip(z.ravel(), got.ravel()):
        want = log_gamma_complex(complex(zi))
        assert gi.real == pytest.approx(want.real, rel=1e-14, abs=1e-14)
        dim = (gi.imag - want.imag) / (2.0 * math.pi)
        assert abs(dim - round(dim)) < 1e-11


def test_log_gamma_complex_conjugate_symmetry():
    z = 2.75 + 5.5j
    got = log_gamma_complex(z.conjugate())
    ref = log_gamma_complex(z)
    assert got.real == pytest.approx(ref.real, rel=1e-13)
    assert got.imag == pytest.approx(-ref.imag, rel=1e-13)

"""Mellin-Barnes G-function engine against analytic identities and
frozen mpmath references (50 digits)."""
import math

import mpmath as mp
import numpy as np
import pytest

from fsosec.errors import NonConvergent, PoleCollision
from fsosec.specfun import (MeijerGSpec, _gamma_factors, _log_phi_complex,
                            _reduce_factors, log_beta, log_gamma_complex,
                            meijer_g)


def g1111(a, b, z, **kw):
    return meijer_g(MeijerGSpec(1, 1, 1, 1, (a,), (b,), z), **kw)


def _ergodic_spec(a, b, z):
    # (4,3,4,4) pattern and prefactor of the Eve ergodic rate
    spec = MeijerGSpec(4, 3, 4, 4,
                       ((1.0 - b) / 2.0, (2.0 - b) / 2.0, 0.0, 1.0),
                       (a / 2.0, (a + 1.0) / 2.0, 0.0, 0.0), z)
    return spec, ((a + b) * math.log(2.0) - math.log(4.0 * math.pi)
                  - log_beta(a, b) - math.lgamma(a + b))


def _lower_bound_spec(a, b, w):
    # (2,3,3,3) pattern and prefactor of the outage lower bound
    spec = MeijerGSpec(2, 3, 3, 3, (1.0 - b, 1.0, 1.0 - a), (a, b, 0.0), w)
    return spec, -2.0 * (log_beta(a, b) + math.lgamma(a + b))


def test_g1111_power_identity():
    # G^{1,1}_{1,1}(z | a; b) = Gamma(1-a+b) z^b (1+z)^(a-b-1)
    grid = (0.5, 2.0, 7.0, 20.0)
    zs = (1e-3, 0.1, 1.0, 10.0, 1e3)
    checked = 0
    for a in grid:
        for b in grid:
            d = a - b
            if d >= 0.5 and abs(d - round(d)) < 1e-9:
                continue  # both Gamma pole families land on one point
            if a - 1.0 >= b:
                continue  # no straight separating contour exists
            for z in zs:
                exact = (math.gamma(1.0 - a + b) * z ** b
                         * (1.0 + z) ** (a - b - 1.0))
                val, err = g1111(a, b, z)
                assert abs(val - exact) <= 1e-10 * abs(exact), (a, b, z)
                checked += 1
    assert checked == 50


def test_g1111_error_estimate_honest():
    for a, b, z in ((0.5, 2.0, 1.0), (1.5, 7.0, 0.2), (2.0, 20.0, 30.0)):
        exact = (math.gamma(1.0 - a + b) * z ** b
                 * (1.0 + z) ** (a - b - 1.0))
        val, err = g1111(a, b, z)
        assert abs(val - exact) <= max(10.0 * err, 1e-13 * abs(exact))


def test_g1222_log_identity():
    # G^{1,2}_{2,2}(z | 1,1; 1,0) = ln(1+z)
    for z in (1e-3, 1e-2, 0.5, 1.0, 2.0, 50.0, 1e3):
        spec = MeijerGSpec(1, 2, 2, 2, (1.0, 1.0), (1.0, 0.0), z)
        val, err = meijer_g(spec)
        exact = math.log1p(z)
        assert abs(val - exact) <= 1e-10 * exact


def test_g4344_frozen_mpmath():
    # order used by the ergodic-rate closed form
    cases = [
        (9.1, 11.7, 0.0037437609258956866, 33581592.386012697),
        (2.5, 3.2, 0.032283057851239666, 2.3578917175286867),
        (5.0, 6.5, 0.0004277672261861985, 215.3905303497166),
    ]
    for a, b, z, want in cases:
        spec, _ = _ergodic_spec(a, b, z)
        val, err = meijer_g(spec)
        assert abs(val - want) <= 1e-9 * abs(want)
        assert abs(val - want) <= max(10.0 * err, 1e-11 * abs(want))


def test_g2333_frozen_mpmath():
    # order used by the outage lower bound
    cases = [
        (2.5, 3.2, 0.7, 4.0493475532837254),
        (9.1, 11.7, 0.32, 3.4973704565501018e+22),
        (5.0, 6.5, 1.8, 35804596.594489889),
    ]
    for a, b, w, want in cases:
        spec = MeijerGSpec(2, 3, 3, 3,
                           (1.0 - b, 1.0, 1.0 - a), (a, b, 0.0), w)
        val, err = meijer_g(spec)
        assert abs(val - want) <= 1e-9 * abs(want)


def test_g2333_at_unit_argument():
    # mpmath returns nan for this argument; the symmetric bound pins the
    # value: prefactor^-1 * G(1) must equal exactly one half.
    for a, b in ((2.5, 3.2), (9.1, 11.7), (5.0, 6.5)):
        spec = MeijerGSpec(2, 3, 3, 3,
                           (1.0 - b, 1.0, 1.0 - a), (a, b, 0.0), 1.0)
        log_pref = -2.0 * (log_beta(a, b) + math.lgamma(a + b))
        val, err = meijer_g(spec, log_scale=log_pref)
        assert abs(val - 0.5) <= max(err, 1e-10)


def test_log_scale_folds_into_result():
    a, b, z = 0.5, 2.0, 1.0
    base, _ = g1111(a, b, z)
    scaled, _ = g1111(a, b, z, log_scale=math.log(3.0))
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_overflow_guard_raises():
    with pytest.raises(NonConvergent):
        g1111(0.5, 2.0, 1.0, log_scale=800.0)


def test_pole_collision_integer_offset():
    # a - b a positive integer puts both pole families on one point
    with pytest.raises(PoleCollision):
        g1111(2.0, 0.0, 1.0)
    with pytest.raises(PoleCollision):
        g1111(7.0, 2.0, 0.5)


def test_pole_collision_empty_strip():
    # interleaved pole families: a - 1 >= b with non-integer offset
    with pytest.raises(PoleCollision):
        g1111(5.0, 0.5, 1.0)
    with pytest.raises(PoleCollision):
        g1111(2.0, 0.5, 1.0)


def test_unsupported_order_rejected():
    spec = MeijerGSpec(2, 0, 0, 2, (), (0.5, -0.5), 1.0)
    with pytest.raises(ValueError):
        meijer_g(spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        MeijerGSpec(1, 1, 1, 1, (1.0, 2.0), (0.5,), 1.0)   # length mismatch
    with pytest.raises(ValueError):
        MeijerGSpec(1, 1, 1, 1, (1.0,), (0.5,), -1.0)      # bad argument
    with pytest.raises(ValueError):
        MeijerGSpec(1, 1, 1, 1, (1.0,), (0.5,), 0.0)
    with pytest.raises(ValueError):
        MeijerGSpec(2, 1, 1, 1, (1.0,), (0.5,), 1.0)       # m > q
    with pytest.raises(ValueError):
        MeijerGSpec(1, 1, 1, 1, (math.nan,), (0.5,), 1.0)


def test_production_orders_against_mpmath_within_error():
    # seeded shapes a in [0.3, 30], b in [1.05, 40] log-uniform, with the
    # arguments the shipped and edge scenarios reach: the ergodic z =
    # a^2 / (4 (b-1)^2 snr) from 1e-12 to 1e5, the lower-bound w =
    # 2^(R/2) sqrt(snr_E / snr_B) from 1e-2 to 10.  mpmath's series take
    # seconds per value for |ln z| near 0 (test_g2333_at_unit_argument
    # pins w = 1), so the draws skip 0.8 < z < 5 and 0.8 < w < 1.25
    rng = np.random.default_rng(20261018)
    checked = 0
    with mp.workdps(30):
        for make, z_lo, z_hi, gap in ((_ergodic_spec, 1e-12, 1e5, (0.8, 5.0)),
                                      (_lower_bound_spec, 1e-2, 10.0, (0.8, 1.25))):
            for _ in range(24):
                a = math.exp(rng.uniform(math.log(0.3), math.log(30.0)))
                b = math.exp(rng.uniform(math.log(1.05), math.log(40.0)))
                z = math.exp(rng.uniform(math.log(z_lo), math.log(z_hi)))
                if gap[0] < z < gap[1]:
                    continue
                spec, log_pref = make(a, b, z)
                val, err = meijer_g(spec, log_scale=log_pref)
                want = mp.exp(log_pref) * mp.meijerg(
                    [spec.a_params[:spec.n], spec.a_params[spec.n:]],
                    [spec.b_params[:spec.m], spec.b_params[spec.m:]], z)
                assert abs(val - want) <= err, (spec.m, a, b, z)
                checked += 1
    assert checked >= 40


def test_reduced_phi_equals_the_gamma_product():
    # merging equal factors and Gamma(x + 1) = x Gamma(x) leave 6 of 8
    # log-gammas at (4,3,4,4) and 4 of 6 at (2,3,3,3), and the same
    # Phi(s) at complex s in the strip, up to the rounding of the
    # unreduced log-gammas
    eps = float(np.finfo(float).eps)
    rng = np.random.default_rng(7)
    for make, count, lo, hi in ((_ergodic_spec, 6, -0.5, 0.0),
                                (_lower_bound_spec, 4, 0.0, 1.0)):
        for _ in range(20):
            a = math.exp(rng.uniform(math.log(1.0), math.log(30.0)))
            b = math.exp(rng.uniform(math.log(2.0), math.log(40.0)))
            spec, _ = make(a, b, 1.0)
            factors = _gamma_factors(spec)
            reduced = _reduce_factors(factors)
            assert (len(factors), len(reduced[0]), len(reduced[1])) == (
                count + 2, count, 1)
            s = rng.uniform(lo, hi, 8) + 1j * rng.uniform(-20.0, 20.0, 8)
            gap = _log_phi_complex(reduced, s) - _log_phi_complex((factors, []), s)
            logs = log_gamma_complex(np.stack([const + sign_s * s
                                               for const, sign_s, _ in factors]))
            bound = 8.0 * eps * np.abs(logs).sum(axis=0)
            assert (np.abs(np.exp(gap) - 1.0) <= bound).all(), (a, b)


def test_surviving_denominator_gamma_within_error_of_mpmath():
    # a denominator Gamma that no numerator factor folds into leaves
    # log|Phi| non-convex on the strip of the saddle search
    a_params, b_params = (0.3, 0.6), (0.5, 0.2)
    spec = MeijerGSpec(1, 2, 2, 2, a_params, b_params, 1.0)
    gammas, _ = _reduce_factors(_gamma_factors(spec))
    assert any(power < 0.0 for _, _, power in gammas)
    with mp.workdps(30):
        for z in (1e-3, 0.1, 0.5, 1.0, 2.0, 30.0):
            val, err = meijer_g(MeijerGSpec(1, 2, 2, 2, a_params, b_params, z))
            want = mp.meijerg([a_params, ()], [b_params[:1], b_params[1:]], z)
            assert abs(val - want) <= err, z

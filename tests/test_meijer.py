"""Mellin-Barnes G-function engine against analytic identities and
frozen mpmath references (50 digits)."""
import math
import sys
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from fsosec import secrecy, specfun
from fsosec.config import build_scenario, parse_config
from fsosec.errors import NonConvergent
from fsosec.fading import FFadingParams, SnrChannel
from fsosec.secrecy import WiretapScenario, evaluate_scenario
from fsosec.specfun import (MeijerGSpec, _gamma_factors, _log_phi_complex,
                            _reduce_factors, log_beta, log_gamma_complex,
                            meijer_g)


def g1111(a, b, z, **kw):
    return meijer_g(MeijerGSpec(1, 1, 1, 1, (a,), (b,), math.log(z)), **kw)


def _ergodic_spec(a, b, z):
    # (4,3,4,4) pattern and prefactor of the Eve ergodic rate
    spec = MeijerGSpec(4, 3, 4, 4,
                       ((1.0 - b) / 2.0, (2.0 - b) / 2.0, 0.0, 1.0),
                       (a / 2.0, (a + 1.0) / 2.0, 0.0, 0.0), math.log(z))
    return spec, ((a + b) * math.log(2.0) - math.log(4.0 * math.pi)
                  - log_beta(a, b) - math.lgamma(a + b))


def _lower_bound_spec(a, b, w):
    # (2,3,3,3) pattern and prefactor of the outage lower bound
    spec = MeijerGSpec(2, 3, 3, 3, (1.0 - b, 1.0, 1.0 - a), (a, b, 0.0),
                       math.log(w))
    return spec, -2.0 * (log_beta(a, b) + math.lgamma(a + b))


def _mpmath_g(spec, log_scale=0.0):
    # exp(log_scale) * G at the working precision of mpmath
    return mp.exp(log_scale) * mp.meijerg(
        [spec.a_params[:spec.n], spec.a_params[spec.n:]],
        [spec.b_params[:spec.m], spec.b_params[spec.m:]], mp.exp(spec.log_z))


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
        spec = MeijerGSpec(1, 2, 2, 2, (1.0, 1.0), (1.0, 0.0), math.log(z))
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
                           (1.0 - b, 1.0, 1.0 - a), (a, b, 0.0), math.log(w))
        val, err = meijer_g(spec)
        assert abs(val - want) <= 1e-9 * abs(want)


def test_g2333_at_unit_argument():
    # mpmath returns nan for this argument; the symmetric bound pins the
    # value: prefactor^-1 * G(1) must equal exactly one half.
    for a, b in ((2.5, 3.2), (9.1, 11.7), (5.0, 6.5)):
        spec = MeijerGSpec(2, 3, 3, 3,
                           (1.0 - b, 1.0, 1.0 - a), (a, b, 0.0), 0.0)
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
    with pytest.raises(NonConvergent, match="no vertical contour"):
        g1111(2.0, 0.0, 1.0)
    with pytest.raises(NonConvergent, match="no vertical contour"):
        g1111(7.0, 2.0, 0.5)


def test_pole_collision_empty_strip():
    # interleaved pole families: a - 1 >= b with non-integer offset
    with pytest.raises(NonConvergent, match="no vertical contour"):
        g1111(5.0, 0.5, 1.0)
    with pytest.raises(NonConvergent, match="no vertical contour"):
        g1111(2.0, 0.5, 1.0)


@pytest.mark.parametrize("width", [5e-10, 2e-9])
def test_strip_narrower_than_the_node_budget_is_non_convergent(width):
    # a - 1 just below b: the strip is not empty, but too narrow for the
    # contour's node budget, whether or not a - b is within 1e-9 of 1
    with pytest.raises(NonConvergent, match="over the budget"):
        g1111(1.5 - width, 0.5, 1.0)


def test_unsupported_order_rejected():
    spec = MeijerGSpec(2, 0, 0, 2, (), (0.5, -0.5), 0.0)
    with pytest.raises(ValueError):
        meijer_g(spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        MeijerGSpec(1, 1, 1, 1, (1.0, 2.0), (0.5,), 0.0)   # length mismatch
    with pytest.raises(ValueError):
        MeijerGSpec(1, 1, 1, 1, (1.0,), (0.5,), math.nan)  # bad log argument
    with pytest.raises(ValueError):
        MeijerGSpec(1, 1, 1, 1, (1.0,), (0.5,), math.inf)
    with pytest.raises(ValueError):
        MeijerGSpec(2, 1, 1, 1, (1.0,), (0.5,), 0.0)       # m > q
    with pytest.raises(ValueError):
        MeijerGSpec(1, 1, 1, 1, (math.nan,), (0.5,), 0.0)


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
                assert abs(val - _mpmath_g(spec, log_pref)) <= err, (
                    spec.m, a, b, z)
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
    spec = MeijerGSpec(1, 2, 2, 2, a_params, b_params, 0.0)
    gammas, _ = _reduce_factors(_gamma_factors(spec))
    assert any(power < 0.0 for _, _, power in gammas)
    with mp.workdps(30):
        for z in (1e-3, 0.1, 0.5, 1.0, 2.0, 30.0):
            member = replace(spec, log_z=math.log(z))
            val, err = meijer_g(member)
            assert abs(val - _mpmath_g(member)) <= err, z


@pytest.mark.parametrize("offset", [1.0 + 1e-8, 1.0 - 1e-8, 1.0 + 1e-6,
                                    1.0 - 1e-6, 1.0 - 1e-2])
def test_narrow_strip_gives_a_value_within_error_or_raises(offset):
    # an upper and a lower parameter a unit apart up to offset - 1, just
    # outside the 1e-9 integer-spacing test of the contour placement:
    # the strip between the pole families is empty (offset > 1) or
    # |offset - 1| wide, and the trapezoid step shrinks with it.  Each
    # call gives a value within error of mpmath (at arguments below 1,
    # where mpmath is fast), or raises once past the node budget
    rng = np.random.default_rng(18)
    b = rng.uniform(0.2, 2.0)
    z = math.exp(rng.uniform(math.log(1e-3), math.log(0.3)))
    for spec in (MeijerGSpec(1, 1, 1, 1, (b + offset,), (b,), math.log(z)),
                 MeijerGSpec(4, 3, 4, 4, (-1.0, offset, 0.0, 1.0),
                             (b + 0.25, b + 0.75, 0.0, 0.0), math.log(z))):
        try:
            val, err = meijer_g(spec)
        except NonConvergent:
            continue
        assert math.isfinite(val) and math.isfinite(err)
        with mp.workdps(30):
            assert abs(val - _mpmath_g(spec)) <= err, spec


@pytest.mark.parametrize("make", [_ergodic_spec, _lower_bound_spec])
def test_contour_takes_one_walk_and_one_trapezoid_batch(make, monkeypatch):
    # the tail walk samples the contour and both strip edges in one
    # log-Phi batch per block; when the tail fits one block, the
    # trapezoid rule then takes exactly one more, for one argument or
    # for a family that shares the contour
    batches = []
    real = specfun._log_phi_complex

    def spy(factors, s):
        batches.append(np.shape(s))
        return real(factors, s)

    monkeypatch.setattr(specfun, "_log_phi_complex", spy)
    for a, b, z in ((9.1, 11.7, 0.0037), (2.5, 3.2, 0.7), (5.0, 6.5, 1.8)):
        spec, log_pref = make(a, b, z)
        # a family of two on one contour takes the same two batches
        lnz = spec.log_z
        for lnzs in (lnz, (lnz, math.log(2.0 ** 0.25 * z))):
            batches.clear()
            meijer_g(replace(spec, log_z=lnzs), log_scale=log_pref)
            assert batches[0] == (3, specfun._TAIL_BLOCK + 1)
            assert len(batches) == 2, (a, b, lnzs, batches)


def test_largest_node_shapes_of_the_shipped_configs_within_error(monkeypatch):
    # the far end of the eve-offset sweep takes the most trapezoid nodes
    # of any shipped config: Eve's ergodic G argument near 2e41 and the
    # lower bound's near 2e-22 put the saddle close to a pole, so the
    # strip around the contour is narrow.  mpmath takes well under 2 s
    # at these very arguments
    rc = parse_config(Path(__file__).resolve().parent.parent / "configs"
                      / "eve-offset-sweep.cfg")
    _, raw = list(rc.sweep.points())[-1]
    calls = []
    real = secrecy.meijer_g

    def spy(spec, **kwargs):
        calls.append((spec, kwargs))
        return real(spec, **kwargs)

    monkeypatch.setattr(secrecy, "meijer_g", spy)
    evaluate_scenario(build_scenario(rc.with_value(rc.sweep.variable, raw)),
                      methods=("closed_form",))
    assert {(s.m, s.n, s.p, s.q) for s, _ in calls} == {(4, 3, 4, 4),
                                                          (2, 3, 3, 3)}
    sizes = []
    log_phi = specfun._log_phi_complex

    def count(factors, s):
        sizes.append(np.size(s))
        return log_phi(factors, s)

    monkeypatch.setattr(specfun, "_log_phi_complex", count)
    with mp.workdps(30):
        for spec, kwargs in calls:
            # the lower bound's spec is the family of its two rates
            lnzs = (spec.log_z if isinstance(spec.log_z, tuple)
                    else (spec.log_z,))
            pairs = meijer_g(replace(spec, log_z=lnzs), **kwargs)
            assert sizes[-1] > 3000, spec
            for lnz, (val, err) in zip(lnzs, pairs, strict=True):
                member = replace(spec, log_z=lnz)
                assert abs(val - _mpmath_g(member, **kwargs)) <= err, member


def test_coincident_integer_shapes_within_error_of_mpmath():
    # the integer shapes of the route-agreement test in test_secrecy,
    # which leave a positive-power linear factor in the reduced Phi,
    # at seeded arguments where mpmath's series are fast (away from 1)
    rng = np.random.default_rng(18)
    with mp.workdps(30):
        for a, b in ((3, 2), (4, 3), (8, 7), (5, 4), (2, 4), (6, 4),
                     (10, 4), (2, 2)):
            for make, z_lo, z_hi in ((_ergodic_spec, 1e-12, 0.3),
                                     (_lower_bound_spec, 1e-2, 0.5)):
                z = math.exp(rng.uniform(math.log(z_lo), math.log(z_hi)))
                spec, log_pref = make(float(a), float(b), z)
                val, err = meijer_g(spec, log_scale=log_pref)
                assert abs(val - _mpmath_g(spec, log_pref)) <= err, (
                    spec.m, a, b, z)


def _family_spec(bob, eve, log_z):
    # the outage lower bound's (2,3,3,3) family and prefactor at Bob's
    # and Eve's (a, b)
    spec = MeijerGSpec(2, 3, 3, 3, (1.0 - bob[1], 1.0, 1.0 - eve[0]),
                       (bob[0], eve[1], 0.0), log_z)
    return spec, -sum(log_beta(a, b) + math.lgamma(a + b)
                      for a, b in (bob, eve))


def test_subnormal_values_carry_their_rounding():
    # a lower-bound value below the normal range is rounded to a
    # subnormal ulp, which the error scaled from the contour's peak
    # underflows below: the error still covers mpmath's value
    for z in (0.0257, 0.02):
        spec, log_pref = _family_spec((273.0, 46.4), (7.72, 189.4),
                                      math.log(z))
        val, err = meijer_g(spec, log_scale=log_pref)
        with mp.workdps(40):
            want = _mpmath_g(spec, log_pref)
        assert abs(val) < sys.float_info.min
        assert err >= math.ulp(val) > 0.0
        assert abs(val - want) <= err


def _contours(monkeypatch):
    # the members of each contour meijer_g takes, appended as it goes
    contours = []
    real = specfun._contour

    def spy(factors, c, d, lnzs, log_scale):
        contours.append(len(lnzs))
        return real(factors, c, d, lnzs, log_scale)

    monkeypatch.setattr(specfun, "_contour", spy)
    return contours


def test_zero_rate_family_is_one_member_and_the_scalar_call(monkeypatch):
    # at target rate 0 the lower bound's family has one member: the
    # scalar call, bit for bit, at a pinned value and error
    specs = []
    real = secrecy.meijer_g

    def spy(spec, **kwargs):
        specs.append((spec, kwargs))
        return real(spec, **kwargs)

    monkeypatch.setattr(secrecy, "meijer_g", spy)
    for eve, want in (((9.1, 11.7), ("0x1.34344ab10b291p-5",
                                     "0x1.8c3cc3a42f1a0p-49")),
                      ((2.5, 3.2), ("0x1.2efe44dd5912ep-4",
                                    "0x1.c2f3136ce994ep-49"))):
        scen = WiretapScenario(SnrChannel(FFadingParams(9.1, 11.7), 472.7),
                               SnrChannel(FFadingParams(*eve), 48.3))
        secrecy.sop_lower_bound(scen, "closed_form")
        spec, kwargs = specs[-1]
        (pair,) = real(spec, **kwargs)
        assert len(spec.log_z) == 1
        assert pair == real(replace(spec, log_z=spec.log_z[0]), **kwargs)
        assert tuple(map(float.hex, pair)) == want


def test_family_members_within_error_of_mpmath(monkeypatch):
    # seeded production shapes of each receiver, a in [0.3, 30] and b in
    # [1.05, 40], and the lower bound's arguments w and 2^(R/2) w: every
    # member sits within its error of mpmath, and the first is its
    # scalar call bit for bit.  The draws skip members near 1, where
    # mpmath's series are slow
    contours = _contours(monkeypatch)
    rng = np.random.default_rng(20261020)

    def shape():
        return (math.exp(rng.uniform(math.log(0.3), math.log(30.0))),
                math.exp(rng.uniform(math.log(1.05), math.log(40.0))))

    families = 0
    with mp.workdps(30):
        while families < 30:
            bob, eve = shape(), shape()
            w = math.exp(rng.uniform(math.log(1e-2), math.log(10.0)))
            zs = (w, 2.0 ** ((0.5, 2.0, 8.0)[families % 3] / 2.0) * w)
            if any(0.8 < z < 1.25 for z in zs):
                continue
            spec, log_pref = _family_spec(bob, eve, tuple(map(math.log, zs)))
            pairs = meijer_g(spec, log_scale=log_pref)
            assert pairs[0] == meijer_g(replace(spec, log_z=math.log(w)),
                                        log_scale=log_pref)
            for lnz, (val, err) in zip(spec.log_z, pairs, strict=True):
                member = replace(spec, log_z=lnz)
                assert abs(val - _mpmath_g(member, log_pref)) <= err, member
            families += 1
    # the seeded draws reach both a shared contour and a split family
    assert contours.count(2) and contours.count(1)


@pytest.mark.parametrize("bob, eve, zs, want", [
    # at a = b = 300 and R = 2 bits the second member's log |Phi(c) z^c|
    # at the first member's saddle is 3.7 nats above its own minimum:
    # the family splits
    ((300.0, 300.0), (300.0, 300.0), (1.0, 2.0), [1, 1]),
    # draw 41 of test_secrecy._wide_scenarios(1, 400): the members pass
    # the 1-nat rule, but the shared contour needs more nodes than its
    # budget, while each member alone converges
    ((97074.21879178933, 3902.643062544821), (1238.514366048436,
                                              1.3877398337565048),
     (2.7773384907394823e-162, 3.302830693958311e-162), [2, 1, 1]),
], ids=["split-saddles", "shared-contour-over-budget"])
def test_far_family_takes_one_contour_per_member(monkeypatch, bob, eve, zs,
                                                 want):
    # each member is then its scalar call
    contours = _contours(monkeypatch)
    spec, log_pref = _family_spec(bob, eve, tuple(map(math.log, zs)))
    pairs = meijer_g(spec, log_scale=log_pref)
    assert contours == want
    assert pairs == [meijer_g(replace(spec, log_z=lnz), log_scale=log_pref)
                     for lnz in spec.log_z]

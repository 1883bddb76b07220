"""Integration over the positive axis by the trapezoidal rule in ln x.

After the substitution x = e^u, the integrands of the package,
g(u) = f(e^u) e^u, are smooth and decay exponentially in u both ways.
On such integrands the plain trapezoidal rule converges geometrically
(Trefethen & Weideman, "The exponentially convergent trapezoidal
rule", SIAM Review 56(3), 2014), so one rule serves every integral:
a coarse scan from a hint of the peak finds the window that holds the
mass, and the step is halved on it until two levels agree.  The
integrands are called on arrays: every level is evaluated in a single
call, so each must map an array of abscissae to an array of real
values of the same shape, elementwise (numpy ufunc style).  Every
request is a 1-D array of abscissae, scan grid points or the midpoints
of a halved step, and the integrals of one group advance in lockstep,
one request each per round.
"""

import math

import numpy as np

from .errors import NonConvergent

# quad_positive_axis: tolerance of the step halving, the relative
# level below which a tail is cut, and the scan grid in u = ln x
_TOL_REL = 1e-10
_TAIL_EPS = 1e-14
_U_LO = -690.0
_U_HI = 690.0
_SCAN_STEP = 0.5
# grid points on each side of the hint in the first scan block of
# quad_positive_axis; the block grows by whole blocks
_SCAN_HALF_BLOCK = 24
# the most trapezoid nodes one window may take
_NODE_BUDGET = 30000
_EPS = float(np.finfo(float).eps)


def _walk(vals, i, step, floor, lo, hi, n):
    # walk from grid index i in steps of step indices, each clipped to
    # the grid, until a sample is <= floor and not above the one before
    # it: (its index, the index before it), or (end, end) at a grid end
    # without a hit (a walk from a grid end stays there); None when the
    # known range vals[lo..hi] ends first
    while 0 < i < n:
        j = min(max(i + step, 0), n)
        if not lo <= j <= hi:
            return None
        if vals[j] <= floor and vals[j] <= vals[i]:
            return j, i
        i = j
    return i, i


def _positive_axis_steps(x_peak):
    # one integral of quad_positive_axis as a step generator: every
    # request is an array of abscissae u, answered with g(u)
    n = int((_U_HI - _U_LO) / _SCAN_STEP)
    grid = np.zeros(n + 1)
    vals = np.zeros(n + 1)

    def sample(idx):
        # g on the grid indices idx in one request; the walks read |g|,
        # with a non-finite sample as empty
        v = yield _U_LO + idx * _SCAN_STEP
        grid[idx] = v
        vals[idx] = np.where(np.isfinite(v), np.abs(v), 0.0)

    i = min(max(round((math.log(x_peak) - _U_LO) / _SCAN_STEP), 0), n)
    lo, hi = max(i - _SCAN_HALF_BLOCK, 0), min(i + _SCAN_HALF_BLOCK, n)
    yield from sample(np.arange(lo, hi + 1))
    if not vals.any():
        yield from sample(np.delete(np.arange(n + 1), np.s_[lo:hi + 1]))
        lo, hi = 0, n

    while True:
        top = lo + int(np.argmax(vals[lo:hi + 1]))
        best = vals[top]
        if best == 0.0:
            # the whole grid read 0: is there mass between its samples?
            if abs((yield np.array([math.log(x_peak)]))[0]) > 0.0:
                raise NonConvergent(f"mass at the hint {x_peak:g} is "
                                    "between scan grid samples")
            return 0.0, 0.0
        ends = (_walk(vals, top, -2, _TAIL_EPS * best, lo, hi, n),
                _walk(vals, top, +2, _TAIL_EPS * best, lo, hi, n))
        if None not in ends:
            break
        # grow each side whose walk ran out of samples by as many whole
        # blocks as are known, in one request
        width = hi - lo + 1
        new_lo = max(lo - width, 0) if ends[0] is None else lo
        new_hi = min(hi + width, n) if ends[1] is None else hi
        yield from sample(np.concatenate((np.arange(new_lo, lo),
                                          np.arange(hi + 1, new_hi + 1))))
        lo, hi = new_lo, new_hi

    if any(j == i for j, i in ends):
        # a walk ran off a grid end before g fell to the floor
        raise NonConvergent(f"integrand mass beyond the scan grid, "
                            f"e^{_U_LO:g} to e^{_U_HI:g}")
    (left, _), (right, _) = ends
    # the trapezoid on the window, from the scan's samples, then with
    # the step halved (only the midpoints are new) until two levels agree
    u_left = _U_LO + left * _SCAN_STEP
    g = grid[left:right + 1]
    if not np.isfinite(g).all():
        raise NonConvergent("integrand is not finite at a quadrature node")
    h = _SCAN_STEP
    total = h * (g.sum() - 0.5 * (g[0] + g[-1]))
    mass = h * (np.abs(g).sum() - 0.5 * (abs(g[0]) + abs(g[-1])))
    count, prev = right - left, math.inf
    # two levels that agree to the rounding of their sum, as on a
    # cancelling integral, are as converged as they can get
    while abs(total - prev) > max(_TOL_REL * abs(total), _EPS * mass):
        if 2 * count + 1 > _NODE_BUDGET:
            raise NonConvergent(
                f"trapezoid step {0.5 * h:.3g} on [{u_left:g}, "
                f"{u_left + count * h:g}] in ln x needs {2 * count + 1} "
                f"nodes, over the budget")
        g = yield u_left + h * (0.5 + np.arange(count))
        if not np.isfinite(g).all():
            raise NonConvergent("integrand is not finite at a quadrature node")
        prev, h = total, 0.5 * h
        total = 0.5 * total + h * g.sum()
        mass = 0.5 * mass + h * np.abs(g).sum()
        count *= 2
    err = abs(total - prev) + _EPS * mass
    for j, i in ends:
        # geometric tail bound from the last observed decay rate (>= 0.05)
        rate = math.log(max(vals[i], 1e-300) / max(vals[j], 1e-300))
        err += vals[j] / max(rate, 0.05)
    return float(total), float(err)


def quad_positive_axis(f, x_peaks):
    """[(value, error_estimate)] of the integrals of f_i over (0, inf),
    one per hint x_peaks[i], after the log-axis substitution x = e^u.

    The integrals advance in lockstep: f({i: x}) returns {i: f_i(x)},
    called once per round, under np.errstate(all="ignore"), with a 1-D
    array of abscissae for every integral that is not finished.  Each
    g(u) = f_i(e^u) e^u is sampled on the grid _U_LO, _U_LO +
    _SCAN_STEP, ..., _U_HI in a block of 49 points around
    ln(x_peaks[i]), grown by whole blocks until the window lies inside
    it.  From the largest |g| sample the window is walked out each way
    in steps of two grid points until |g| has dropped to _TAIL_EPS of
    that maximum and is not rising.  The trapezoidal rule on the window
    starts from the scan's own samples at step _SCAN_STEP, and the step
    is halved, evaluating only the new midpoints, until two successive
    levels T_h, T_2h differ by at most _TOL_REL * |T_h|, or by no more
    than the rounding of their sum.

    The hint is a guess of where g peaks, in x.  For g unimodal in ln x
    the block holds the same peak as the full grid, the walks read the
    same samples, and any hint gives the same result.  A block of only
    zeros falls back to one request for the rest of the grid; a grid of
    only zeros gives (0, 0), or raises NonConvergent if g is nonzero at
    the hint, between grid samples.  A hint that is missing, not finite
    or not positive raises ValueError.

    The error is |T_h - T_2h|, plus eps * h * sum |g| for the rounding
    of the sum, plus a bound on each cut tail from the geometric decay
    over the walk's last step: |g| at the cut over its decay rate per
    unit of u, taken as at least 0.05, the rate of x^0.05 near 0.  It
    does not cover the rounding of f_i itself; a caller that knows it
    adds it.  A scan sample that is nan, inf or overflows counts as
    empty, but such a value at any node of the window raises
    NonConvergent, as do a window that would need more than
    _NODE_BUDGET nodes and one that reaches a grid end before |g| has
    fallen below its floor.  A NonConvergent of any integral is raised
    for the group.
    """
    for x_peak in x_peaks:
        if x_peak is None or not 0.0 < x_peak < math.inf:
            raise ValueError(f"a peak hint must be finite and positive, "
                             f"got {x_peak!r}")
    steps = [_positive_axis_steps(x_peak) for x_peak in x_peaks]
    out = [None] * len(steps)
    replies = dict.fromkeys(range(len(steps)))
    while True:
        pending = {}
        for i, reply in replies.items():
            try:
                pending[i] = steps[i].send(reply)
            except StopIteration as stop:
                out[i] = stop.value
        if not pending:
            return out
        with np.errstate(all="ignore"):
            xs = {i: np.exp(u) for i, u in pending.items()}
            values = f(xs)
            replies = {i: values[i] * x for i, x in xs.items()}

"""Adaptive Gauss-Kronrod quadrature on whole panel levels.

7-point Gauss / 15-point Kronrod pair on bisected panels.  The
integrand is called on arrays: every panel of one refinement level is
evaluated in a single call, so f must map an array of abscissae to an
array of values of the same shape, elementwise (numpy ufunc style).
Works for real- or complex-valued integrands; all tolerances are
applied to absolute values.
"""

import math

import numpy as np

from .errors import NonConvergent

# Kronrod-15 abscissae on [-1, 1]; every second one is a Gauss-7 node.
_XK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
)

_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)

_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

# all 15 nodes in ascending order, with their Kronrod weights and their
# Gauss weights (zero on the nodes that are Kronrod-only)
_X15 = np.array([-x for x in _XK] + list(_XK[-2::-1]))
_WK15 = np.array(_WK + _WK[-2::-1])
_WG_HALF = tuple(_WG[i // 2] if i % 2 else 0.0 for i in range(8))
_WG15 = np.array(_WG_HALF + _WG_HALF[-2::-1])

# uniform panels of the first level of quad_adaptive
_START_PANELS = 16
# quad_positive_axis: tolerances of the adaptive stage, the relative
# level below which a tail is cut, and the scan grid in u = ln x
_TOL_ABS = 0.0
_TOL_REL = 1e-10
_TAIL_EPS = 1e-14
_U_LO = -690.0
_U_HI = 690.0
_SCAN_STEP = 0.5
# grid points on each side of the hint in the first scan block of
# quad_positive_axis; the block grows by whole blocks
_SCAN_HALF_BLOCK = 24
# panel budget of quad_adaptive
_MAX_PANELS = 2000
_EPS = float(np.finfo(float).eps)


def _panel_nodes(a, b):
    # nodes of the panels [a, b], one row of 15 per panel, and the
    # panels' half-widths
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    return c[..., None] + h[..., None] * _X15, h


def _panel_sums(x, fx, h):
    # (gauss7, kronrod15) per panel from the values fx at the nodes x
    fx = np.broadcast_to(fx, x.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        g, k = (fx @ _WG15) * h, (fx @ _WK15) * h
    # every node has a positive Kronrod weight
    if not np.isfinite(k).all():
        raise NonConvergent("integrand is not finite at a quadrature node")
    return g, k


def kronrod_panel(f, a, b):
    """(gauss7, kronrod15) estimates of the integral of f on [a, b].

    a and b are arrays of panel ends (or scalars).  f is called once,
    on the array of all nodes with one row of 15 per panel, and the two
    returned arrays hold one estimate per panel.  Raises NonConvergent
    when f gives a nan or inf at a node: that would make the sum
    meaningless, and it is reported instead of returned.
    """
    x, h = _panel_nodes(a, b)
    return _panel_sums(x, f(x), h)


def _lockstep(steps, answer):
    # run step generators to their return values together: each round,
    # answer(ids, requests) replies to every request pending, of any kind
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
        replies = dict(zip(pending, answer(list(pending),
                                           list(pending.values()))))


def _adaptive_steps(a, b, tol_abs, tol_rel, max_panels):
    # quad_adaptive as a step generator: yields (lo, hi) arrays of
    # panel ends, receives their (gauss7, kronrod15) and returns
    # (value, error)
    if a == b:
        return 0.0, 0.0
    edges = np.linspace(a, b, _START_PANELS + 1)
    lo, hi = edges[:-1], edges[1:]
    g, k = yield lo, hi
    err = np.abs(k - g)
    while True:
        total = k.sum()
        total_err = err.sum()
        tol = max(tol_abs, tol_rel * abs(total))
        if total_err <= tol:
            return total.item(), max(total_err.item(),
                                     _EPS * float(np.abs(k).sum()))
        split = err > tol / len(k)
        mid = 0.5 * (lo + hi)
        # panels at floating-point resolution are accepted as they are
        flat = split & ((mid == lo) | (mid == hi))
        err[flat] = 0.0
        split &= ~flat
        nsplit = int(np.count_nonzero(split))
        if nsplit == 0:
            continue
        if len(k) + nsplit > max_panels:
            raise NonConvergent(
                f"quadrature stalled at error {total_err:.3e} "
                f"after {len(k)} panels on [{a:g}, {b:g}]")
        new_lo = np.concatenate((lo[split], mid[split]))
        new_hi = np.concatenate((mid[split], hi[split]))
        g2, k2 = yield new_lo, new_hi
        keep = ~split
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        k = np.concatenate((k[keep], k2))
        err = np.concatenate((err[keep], np.abs(k2 - g2)))


def quad_adaptive(f, a, b, tol_abs=1e-12, tol_rel=1e-10,
                  max_panels=_MAX_PANELS):
    """Integrate f over the finite interval [a, b], level by level.

    f is called on arrays of nodes (see kronrod_panel).  The first
    level is 16 uniform panels.  While the summed |K15 - G7| exceeds
    max(tol_abs, tol_rel * |value|), every panel whose error is above
    that tolerance divided by the panel count is bisected, and all the
    new halves are evaluated in one call.  A panel at floating-point
    resolution is accepted as it is.

    Returns (value, error_estimate) as Python scalars, the estimate no
    less than the rounding of the panel sum, eps * sum |K15|.  Raises
    NonConvergent when bisecting would exceed max_panels, or when f
    gives a nan or inf at a node.
    """
    steps = _adaptive_steps(a, b, tol_abs, tol_rel, max_panels)
    return _lockstep([steps], lambda _, r: [kronrod_panel(f, *r[0])])[0]


def _walk(vals, i, step, floor, lo, hi, n):
    # walk from grid index i in steps of step indices, the last one
    # clipped to the grid, until a sample is <= floor and not above the
    # one before it: (its index, the index before it), or (end, end) at
    # the grid end without a hit (a walk from a grid end stays there);
    # None when the known range vals[lo..hi] ends first
    if not 0 < i < n:
        return i, i
    end, edge = (n, hi) if step > 0 else (0, lo)
    path = np.arange(i, edge + step, step)
    if edge == end:
        path[-1] = end  # the last step, clipped to the grid
    elif path[-1] != edge:
        path = path[:-1]  # a step past the known range
    cur, prev = vals[path[1:]], vals[path[:-1]]
    hit = (cur <= floor) & (cur <= prev)
    if hit.any():
        k = int(hit.argmax())
        return int(path[k + 1]), int(path[k])
    return (end, end) if edge == end else None


def _positive_axis_steps(x_peak):
    # quad_positive_axis as a step generator: scan requests are arrays
    # of grid abscissae u, answered with |g(u)|; panel requests are
    # (lo, hi) pairs in u, answered as by _adaptive_steps
    n = int((_U_HI - _U_LO) / _SCAN_STEP)
    vals = np.zeros(n + 1)

    def sample(idx):
        # |g| on the grid indices idx in one request, non-finite as empty
        v = yield _U_LO + idx * _SCAN_STEP
        vals[idx] = np.where(np.isfinite(v), v, 0.0)

    lo, hi = 0, n
    hinted = x_peak is not None and math.isfinite(x_peak) and x_peak > 0.0
    if hinted:
        i = min(max(round((math.log(x_peak) - _U_LO) / _SCAN_STEP), 0), n)
        lo, hi = max(i - _SCAN_HALF_BLOCK, 0), min(i + _SCAN_HALF_BLOCK, n)
    yield from sample(np.arange(lo, hi + 1))
    if not vals.any() and hi - lo < n:
        lo, hi = 0, n
        yield from sample(np.arange(lo, hi + 1))

    while True:
        top = lo + int(np.argmax(vals[lo:hi + 1]))
        best = vals[top]
        if best == 0.0:
            # the whole grid read 0: is there mass between its samples?
            if hinted and (yield np.array([math.log(x_peak)]))[0] > 0.0:
                raise NonConvergent(f"mass at the hint {x_peak:g} is "
                                    "between scan grid samples")
            return 0.0, 0.0
        stop = 1e-3 * _TAIL_EPS * best
        left = _walk(vals, top, -1, stop, lo, hi, n)
        right = _walk(vals, top, +1, stop, lo, hi, n)
        ends = (None, None)
        if left is not None and right is not None:
            coarse = float(np.sum(vals[left[0]:right[0] + 1])) * _SCAN_STEP
            floor = _TAIL_EPS * max(coarse, best)
            ends = (_walk(vals, top, -2, floor, lo, hi, n),
                    _walk(vals, top, +2, floor, lo, hi, n))
            if None not in ends:
                break
        # grow each side whose walk ran out of samples (both, for a step
        # of one) by as many whole blocks as are known, in one request
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
    val, err = yield from _adaptive_steps(
        _U_LO + left * _SCAN_STEP, _U_LO + right * _SCAN_STEP,
        _TOL_ABS, _TOL_REL, _MAX_PANELS)
    for j, i in ends:
        # geometric tail bound from the last observed decay ratio
        rate = math.log(max(vals[i], 1e-300) / max(vals[j], 1e-300))
        err += vals[j] / rate if rate > 0.1 else vals[j] * 10.0
    return val, float(err)


def quad_positive_axis(f, x_peak=None):
    """Integrate f over (0, inf) after the log-axis substitution x = e^u.

    f is called on arrays of abscissae and must act elementwise (see
    kronrod_panel).  The transformed integrand g(u) = f(e^u) e^u is
    sampled on the grid _U_LO, _U_LO + _SCAN_STEP, ..., _U_HI, in as
    few array calls as possible.  From the largest sample the range is
    walked out each way until g has dropped to 1e-3 * _TAIL_EPS of that
    maximum and is not rising; the integration window is then widened
    in steps of two grid points until g falls below _TAIL_EPS relative
    to the coarse integral over that range, and the window is
    integrated adaptively to _TOL_ABS and _TOL_REL.
    A bound on the truncated tails, from the locally observed geometric
    decay, is folded into the returned error.  A sample that is nan,
    inf or overflows counts as empty.  When the window reaches a grid
    end before g has fallen below its floor, the mass beyond it is not
    seen, and NonConvergent is raised.

    x_peak, when given, is a guess of where g peaks (in x, not u).  The
    grid is then sampled in a block of 49 points around ln(x_peak),
    grown by whole blocks until the walked-out range and the window lie
    inside it, instead of over the whole grid.  This assumes g is
    unimodal in ln x: the block then holds the same peak as the full
    grid, every decision reads the same samples, and the result is the
    same as without the hint.  A hint that is None, not finite or not
    positive, or whose block holds only zeros, falls back to one call
    on the whole grid.  A grid of only zeros gives (0, 0), or raises
    NonConvergent if g is positive at the hint, between grid samples.

    Returns (value, error_estimate).
    """
    return quad_positive_axis_many(lambda _, xs: [f(xs[0])], [x_peak])[0]


def quad_positive_axis_many(f_many, x_peaks):
    """[(value, error)] of quad_positive_axis(f_i, x_peak) for each hint
    in x_peaks, bit for bit, with the integrals advanced in lockstep.

    f_many(ids, xs) returns [f_i(x) for i, x in zip(ids, xs)], the
    integrands of the integrals numbered ids on their abscissae xs.  It
    is called once per round, under np.errstate(all="ignore"), with
    every integral that is not finished: a scanning one asks for a 1-D
    array of grid abscissae, an integrating one for a panel level (one
    row of 15 nodes per panel).  A NonConvergent of any integral is
    raised for the group.
    """
    def answer(ids, requests):
        nodes = [_panel_nodes(*r) if isinstance(r, tuple) else (r, None)
                 for r in requests]
        with np.errstate(all="ignore"):
            xs = [np.exp(u) for u, _ in nodes]
            gs = [v * x for v, x in zip(f_many(ids, xs), xs)]
            return [np.abs(g) if h is None else _panel_sums(u, g, h)
                    for (u, h), g in zip(nodes, gs)]

    return _lockstep([_positive_axis_steps(x_peak) for x_peak in x_peaks],
                     answer)

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
# grid points on each side of the hint in the first scan block of
# quad_positive_axis; the block grows by whole blocks
_SCAN_HALF_BLOCK = 24


def kronrod_panel(f, a, b):
    """(gauss7, kronrod15) estimates of the integral of f on [a, b].

    a and b are arrays of panel ends (or scalars).  f is called once,
    on the array of all nodes with one row of 15 per panel, and the two
    returned arrays hold one estimate per panel.  Raises NonConvergent
    when f gives a nan or inf at a node: that would make the sum
    meaningless, and it is reported instead of returned.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    x = c[..., None] + h[..., None] * _X15
    fx = np.broadcast_to(f(x), x.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        g, k = (fx @ _WG15) * h, (fx @ _WK15) * h
    # every node has a positive Kronrod weight
    if not np.isfinite(k).all():
        raise NonConvergent("integrand is not finite at a quadrature node")
    return g, k


def quad_adaptive(f, a, b, tol_abs=1e-12, tol_rel=1e-10, max_panels=2000):
    """Integrate f over the finite interval [a, b], level by level.

    f is called on arrays of nodes (see kronrod_panel).  The first
    level is 16 uniform panels.  While the summed |K15 - G7| exceeds
    max(tol_abs, tol_rel * |value|), every panel whose error is above
    that tolerance divided by the panel count is bisected, and all the
    new halves are evaluated in one call.  A panel at floating-point
    resolution is accepted as it is.

    Returns (value, error_estimate) as Python scalars.  Raises
    NonConvergent when bisecting would exceed max_panels, or when f
    gives a nan or inf at a node.
    """
    if a == b:
        return 0.0, 0.0
    edges = np.linspace(a, b, _START_PANELS + 1)
    lo, hi = edges[:-1], edges[1:]
    g, k = kronrod_panel(f, lo, hi)
    err = np.abs(k - g)
    while True:
        total = k.sum()
        total_err = err.sum()
        tol = max(tol_abs, tol_rel * abs(total))
        if total_err <= tol:
            return total.item(), total_err.item()
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
        g2, k2 = kronrod_panel(f, new_lo, new_hi)
        keep = ~split
        lo = np.concatenate((lo[keep], new_lo))
        hi = np.concatenate((hi[keep], new_hi))
        k = np.concatenate((k[keep], k2))
        err = np.concatenate((err[keep], np.abs(k2 - g2)))


def _peak_range(vals, lo, hi, n, stop_rel):
    # grid indices [left, right] around the largest sample of the known
    # range vals[lo..hi]: walked out until a sample has dropped to
    # stop_rel of the peak and is not rising; None on a side where the
    # known range ends before that (and the grid does not)
    top = lo + int(np.argmax(vals[lo:hi + 1]))
    stop = stop_rel * vals[top]
    side = vals[lo:top]
    below = np.nonzero((side <= stop) & (side <= vals[lo + 1:top + 1]))[0]
    if below.size:
        left = lo + int(below[-1])
    else:
        left = 0 if lo == 0 else None
    side = vals[top + 1:hi + 1]
    below = np.nonzero((side <= stop) & (side <= vals[top:hi]))[0]
    if below.size:
        right = top + 1 + int(below[0])
    else:
        right = n if hi == n else None
    return top, left, right


def _expand(vals, i, step, n, lo, hi, floor):
    # walk from grid index i in steps of step indices until a sample is
    # below floor and not rising; (index, tail bound), or None when the
    # walk leaves the known range vals[lo..hi]
    prev = vals[i]
    while 0 < i < n:
        j = min(max(i + step, 0), n)
        if not lo <= j <= hi:
            return None
        cur = vals[j]
        if cur <= floor and cur <= prev:
            # geometric tail bound from the last observed decay ratio
            rate = math.log(max(prev, 1e-300) / max(cur, 1e-300))
            bound = cur / rate if rate > 0.1 else cur * 10.0
            return j, bound
        prev = cur
        i = j
    return i, vals[i] * 10.0


def quad_positive_axis(f, tol_abs=0.0, tol_rel=1e-10, tail_eps=1e-14,
                       u_lo=-690.0, u_hi=690.0, scan_step=0.5, x_peak=None):
    """Integrate f over (0, inf) after the log-axis substitution x = e^u.

    f is called on arrays of abscissae and must act elementwise (see
    kronrod_panel).  The transformed integrand g(u) = f(e^u) e^u is
    sampled on a grid of step scan_step in u, in as few array calls as
    possible.  From the largest sample the range is walked out each
    way until g has dropped to 1e-3 * tail_eps of that maximum and is
    not rising; the integration window is then widened in steps of two
    grid points until g falls below tail_eps relative to the coarse
    integral over that range, and the window is integrated adaptively.
    A bound on the truncated tails, from the locally observed geometric
    decay, is folded into the returned error.  A sample that is nan,
    inf or overflows counts as empty.

    x_peak, when given, is a guess of where g peaks (in x, not u).  The
    grid is then sampled in a block of 49 points around ln(x_peak),
    grown by whole blocks until the walked-out range and the window lie
    inside it, instead of over the whole grid.  This assumes g is
    unimodal in ln x: the block then holds the same peak as the full
    grid, every decision reads the same samples, and the result is the
    same as without the hint.  A hint that is None, not finite or not
    positive, or whose block holds only zeros, falls back to one call
    on the whole grid.

    Returns (value, error_estimate).
    """

    def g(u):
        x = np.exp(u)
        return f(x) * x

    n = int((u_hi - u_lo) / scan_step)
    vals = np.zeros(n + 1)

    def sample(idx):
        # |g| on the grid indices idx in one call, non-finite as empty
        with np.errstate(all="ignore"):
            v = np.abs(g(u_lo + idx * scan_step))
        vals[idx] = np.where(np.isfinite(v), v, 0.0)

    lo, hi = 0, n
    if x_peak is not None and math.isfinite(x_peak) and x_peak > 0.0:
        i = min(max(round((math.log(x_peak) - u_lo) / scan_step), 0), n)
        lo, hi = max(i - _SCAN_HALF_BLOCK, 0), min(i + _SCAN_HALF_BLOCK, n)
    sample(np.arange(lo, hi + 1))
    if not vals.any() and hi - lo < n:
        lo, hi = 0, n
        sample(np.arange(lo, hi + 1))

    while True:
        top, left, right = _peak_range(vals, lo, hi, n, 1e-3 * tail_eps)
        best = vals[top]
        if best == 0.0:
            return 0.0, 0.0
        ends = (None, None)
        if left is not None and right is not None:
            coarse = float(np.sum(vals[left:right + 1])) * scan_step
            floor = tail_eps * max(coarse, best)
            ends = (_expand(vals, top, -2, n, lo, hi, floor),
                    _expand(vals, top, +2, n, lo, hi, floor))
            if None not in ends:
                break
        # grow each side that ran out of samples by as many whole blocks
        # as are known already, both sides in one call
        width = hi - lo + 1
        new_lo = max(lo - width, 0) if left is None or ends[0] is None else lo
        new_hi = min(hi + width, n) if right is None or ends[1] is None else hi
        sample(np.concatenate((np.arange(new_lo, lo),
                               np.arange(hi + 1, new_hi + 1))))
        lo, hi = new_lo, new_hi

    (left, lbound), (right, rbound) = ends
    val, err = quad_adaptive(g, u_lo + left * scan_step,
                             u_lo + right * scan_step,
                             tol_abs=tol_abs, tol_rel=tol_rel)
    return val, float(err + lbound + rbound)

"""Adaptive Gauss-Kronrod quadrature.

7-point Gauss / 15-point Kronrod pair on bisected panels, largest
estimated error first.  Works for real- or complex-valued integrands;
all tolerances are applied to absolute values.
"""

import heapq
import math

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


def kronrod_panel(f, a, b):
    """Return (gauss7, kronrod15) estimates of the integral of f on [a, b]."""
    h = 0.5 * (b - a)
    c = 0.5 * (a + b)
    fc = f(c)
    resg = _WG[3] * fc
    resk = _WK[7] * fc
    for i in range(7):
        x = h * _XK[i]
        f1 = f(c - x)
        f2 = f(c + x)
        s = f1 + f2
        resk += _WK[i] * s
        if i % 2 == 1:
            resg += _WG[i // 2] * s
    return resg * h, resk * h


def quad_adaptive(f, a, b, tol_abs=1e-12, tol_rel=1e-10, max_panels=2000):
    """Integrate f over the finite interval [a, b].

    Returns (value, error_estimate).  Panels with the worst error are
    bisected until the summed error drops below max(tol_abs,
    tol_rel * |value|).  Raises NonConvergent when the panel budget is
    exhausted first.
    """
    if a == b:
        return 0.0, 0.0
    g, k = kronrod_panel(f, a, b)
    err = abs(k - g)
    # heap entries: (-err, tiebreak, a, b, value, err)
    heap = [(-err, 0, a, b, k, err)]
    total = k
    total_err = err
    count = 1
    tick = 1
    while total_err > max(tol_abs, tol_rel * abs(total)):
        if count >= max_panels:
            raise NonConvergent(
                f"quadrature stalled at error {total_err:.3e} "
                f"after {count} panels on [{a:g}, {b:g}]")
        neg, _, pa, pb, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        if mid == pa or mid == pb:
            # interval at floating-point resolution; accept as is
            heapq.heappush(heap, (0.0, tick, pa, pb, pval, 0.0))
            total_err -= perr
            tick += 1
            continue
        g1, k1 = kronrod_panel(f, pa, mid)
        g2, k2 = kronrod_panel(f, mid, pb)
        e1 = abs(k1 - g1)
        e2 = abs(k2 - g2)
        total += (k1 + k2) - pval
        total_err += (e1 + e2) - perr
        heapq.heappush(heap, (-e1, tick, pa, mid, k1, e1))
        heapq.heappush(heap, (-e2, tick + 1, mid, pb, k2, e2))
        tick += 2
        count += 1
    return total, total_err


def _hinted_scan_range(at, x_peak, u_lo, scan_step, n, stop_rel):
    # grid indices [lo, hi] around the peak, found from a hint instead of
    # a scan of the whole grid; None when the hint cannot be used
    if x_peak is None or not (math.isfinite(x_peak) and x_peak > 0.0):
        return None
    i = min(max(round((math.log(x_peak) - u_lo) / scan_step), 0), n)
    if at(i) == 0.0:
        return None
    while i < n and at(i + 1) > at(i):
        i += 1
    while i > 0 and at(i - 1) > at(i):
        i -= 1
    top = at(i)
    lo = hi = i
    # walk out until a probe has dropped far below the floor that
    # expand() will use and is not rising, so the skipped grid points
    # cannot change the peak or the scan sum beyond its last bits
    while lo > 0:
        lo -= 1
        top = max(top, at(lo))
        if at(lo) <= stop_rel * top and at(lo) <= at(lo + 1):
            break
    while hi < n:
        hi += 1
        top = max(top, at(hi))
        if at(hi) <= stop_rel * top and at(hi) <= at(hi - 1):
            break
    return lo, hi


def quad_positive_axis(f, tol_abs=0.0, tol_rel=1e-10, tail_eps=1e-14,
                       u_lo=-690.0, u_hi=690.0, scan_step=0.5, x_peak=None):
    """Integrate f over (0, inf) after the log-axis substitution x = e^u.

    The transformed integrand g(u) = f(e^u) e^u is scanned on a coarse
    grid to locate its peak, the window is then widened until g falls
    below tail_eps relative to the running integral, and the window is
    integrated adaptively.  A bound on the truncated tails, from the
    locally observed geometric decay, is folded into the returned error.

    x_peak, when given, is a guess of where g peaks (in x, not u).  The
    scan then starts at the grid point nearest ln(x_peak), climbs to the
    grid maximum and walks outward only until g has dropped to
    1e-3 * tail_eps of its largest sample, instead of probing the whole
    grid.  This assumes g is unimodal in ln x: the hinted scan then
    finds the same peak as the full one, and the grid points it skips
    are too small to move the window, so the result is the same as
    without the hint.  A hint that is None, not finite, not positive,
    or whose sample is zero falls back to the full scan.

    Returns (value, error_estimate).
    """

    def g(u):
        return f(math.exp(u)) * math.exp(u)

    def probe(u):
        # a sample that fails or is nan carries no usable magnitude;
        # treat it as empty so one bad point cannot poison the scan
        try:
            val = abs(g(u))
        except (OverflowError, ValueError, ZeroDivisionError):
            return 0.0
        return val if val == val else 0.0

    n = int((u_hi - u_lo) / scan_step)
    seen = {}

    def at(i):
        if i not in seen:
            seen[i] = probe(u_lo + i * scan_step)
        return seen[i]

    lo, hi = (_hinted_scan_range(at, x_peak, u_lo, scan_step, n,
                                 1e-3 * tail_eps) or (0, n))
    best_u = None
    best = 0.0
    coarse = 0.0
    for i in range(lo, hi + 1):
        u = u_lo + i * scan_step
        val = at(i)
        coarse += val * scan_step
        if val > best:
            best = val
            best_u = u
    if best_u is None or best == 0.0:
        return 0.0, 0.0

    floor = tail_eps * max(coarse, best)

    def expand(u, direction):
        prev = probe(u)
        while u_lo < u < u_hi:
            nxt = min(max(u + direction * 1.0, u_lo), u_hi)
            cur = probe(nxt)
            if cur <= floor and cur <= prev:
                # geometric tail bound from the last observed decay ratio
                rate = math.log(max(prev, 1e-300) / max(cur, 1e-300))
                bound = cur / rate if rate > 0.1 else cur * 10.0
                return nxt, bound
            prev = cur
            u = nxt
        return u, probe(u) * 10.0

    left, lbound = expand(best_u, -1.0)
    right, rbound = expand(best_u, +1.0)
    val, err = quad_adaptive(g, left, right, tol_abs=tol_abs, tol_rel=tol_rel)
    return val, err + lbound + rbound

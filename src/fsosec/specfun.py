"""Self-contained special-function kernel.

Log-beta, the regularized incomplete beta function, complex log-gamma
and a numerical Meijer G-function evaluator.  The G-function is
computed by direct quadrature of its Mellin-Barnes representation

    G(z) = 1/(2*pi*i) * integral of Phi(s) z^s ds

along a vertical contour Re(s) = c chosen inside the strip that
separates the two Gamma pole families.  The abscissa is placed at the
minimum of |Phi(c) z^c| on the strip (the real-axis saddle), which
keeps the oscillatory cancellation of the contour integral mild for
arguments far from 1.  No residue summation is performed, so parameter
sets with repeated or integer-spaced bottom parameters need no special
casing.

Evaluation is restricted to the four (m, n, p, q) orders the rest of
the package needs; anything else is rejected up front rather than
half-supported.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent, PoleCollision
from .quadrature import quad_adaptive

_LN_2PI = math.log(2.0 * math.pi)
_LN_PI = math.log(math.pi)

# Lanczos approximation, g = 7, 9 coefficients.  Gives close to full
# double precision on Re(z) >= 0.5; the reflection formula covers the
# rest of the plane.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SUPPORTED_ORDERS = frozenset({(1, 1, 1, 1), (1, 2, 2, 2), (4, 3, 4, 4), (2, 3, 3, 3)})


def log_beta(a, b):
    """ln B(a, b) for positive a, b, evaluated in log space."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"log_beta requires a, b > 0, got a={a!r} b={b!r}")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(x, a, b, max_iter=400, eps=1e-16):
    # Continued fraction for the incomplete beta, modified Lentz scheme.
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise NonConvergent(
        f"incomplete beta continued fraction stalled at x={x!r} a={a!r} b={b!r}")


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta function I_x(a, b).

    Parameters
    ----------
    x : float
        Point in [0, 1].
    a, b : float
        Strictly positive shape parameters.

    Returns
    -------
    float
        I_x(a, b), monotone from 0 at x=0 to 1 at x=1.

    Notes
    -----
    Uses the continued fraction directly on the half x < a/(a+b) and
    the complement identity I_x(a, b) = 1 - I_{1-x}(b, a) on the other
    half, where the fraction converges fastest.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"reg_inc_beta requires a, b > 0, got a={a!r} b={b!r}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"reg_inc_beta requires 0 <= x <= 1, got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b))
    if x < a / (a + b):
        return front * _betacf(x, a, b) / a
    return 1.0 - front * _betacf(1.0 - x, b, a) / b


def reg_inc_beta_many(x, a, b, max_iter=400, eps=1e-15):
    """Vectorized I_x(a, b) over a numpy array of x for fixed shapes.

    Same continued fraction as reg_inc_beta, iterated on whole arrays
    with the symmetry split applied through masks.  Intended for bulk
    evaluation (empirical-CDF comparisons over millions of samples).
    """
    x = np.asarray(x, dtype=float)
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"reg_inc_beta_many requires a, b > 0, got a={a!r} b={b!r}")
    if np.any((x < 0.0) | (x > 1.0)):
        raise ValueError("reg_inc_beta_many requires 0 <= x <= 1")
    flip = x >= a / (a + b)
    xx = np.where(flip, 1.0 - x, x)
    aa_s = np.where(flip, b, a)
    bb_s = np.where(flip, a, b)

    tiny = 1e-300
    qab = aa_s + bb_s
    qap = aa_s + 1.0
    qam = aa_s - 1.0
    c = np.ones_like(xx)
    d = 1.0 - qab * xx / qap
    d = np.where(np.abs(d) < tiny, tiny, d)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        num = m * (bb_s - m) * xx / ((qam + m2) * (aa_s + m2))
        d = 1.0 + num * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + num / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        h *= d * c
        num = -(aa_s + m) * (qab + m) * xx / ((aa_s + m2) * (qap + m2))
        d = 1.0 + num * d
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = 1.0 + num / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if m % 16 == 0 and np.max(np.abs(delta - 1.0)) < eps:
            break
    else:
        raise NonConvergent("vectorized incomplete beta stalled")

    with np.errstate(divide="ignore"):
        lx = np.where(xx > 0.0, np.log(xx), -np.inf)
    front = np.exp(aa_s * lx + bb_s * np.log1p(-xx)
                   - (math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)))
    val = front * h / aa_s
    val = np.where(xx == 0.0, 0.0, val)
    return np.where(flip, 1.0 - val, val)


def _log_sin_pi(z):
    # log(sin(pi z)) up to a multiple of 2*pi*i, overflow-safe for
    # large |Im z|.  Branch offsets cancel once the result is
    # exponentiated as part of a product.
    w = math.pi * z
    if abs(w.imag) < 20.0:
        s = cmath.sin(w)
        if s == 0:
            raise ValueError(f"log sin pole at z={z!r}")
        return cmath.log(s)
    if w.imag > 0.0:
        # sin w = (i/2) e^{-iw} (1 - e^{2iw})
        return cmath.log(0.5j) - 1j * w + cmath.log(1.0 - cmath.exp(2j * w))
    return -cmath.log(2j) + 1j * w + cmath.log(1.0 - cmath.exp(-2j * w))


def log_gamma_complex(z):
    """ln(Gamma(z)) for complex z, correct up to a multiple of 2*pi*i.

    Lanczos series on Re(z) >= 0.5, reflection elsewhere.  Raises
    ValueError at the poles (non-positive integers).
    """
    z = complex(z)
    if z.real < 0.5:
        if z.imag == 0.0 and z.real == math.floor(z.real):
            raise ValueError(f"log_gamma_complex pole at z={z!r}")
        return _LN_PI - _log_sin_pi(z) - log_gamma_complex(1.0 - z)
    zz = z - 1.0
    x = _LANCZOS_C[0]
    for i in range(1, 9):
        x += _LANCZOS_C[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return 0.5 * _LN_2PI + (zz + 0.5) * cmath.log(t) - t + cmath.log(x)


@dataclass(frozen=True)
class MeijerGSpec:
    """One Meijer G-function evaluation request.

    a_params holds the p upper parameters (first n belong to the
    numerator), b_params the q lower parameters (first m belong to the
    numerator).  z is the positive real argument.
    """

    m: int
    n: int
    p: int
    q: int
    a_params: tuple
    b_params: tuple
    z: float

    def __post_init__(self):
        if not (0 <= self.n <= self.p and 0 <= self.m <= self.q):
            raise ValueError(f"inconsistent order (m={self.m}, n={self.n}, "
                             f"p={self.p}, q={self.q})")
        if len(self.a_params) != self.p or len(self.b_params) != self.q:
            raise ValueError("parameter tuple lengths must match p and q")
        for v in (*self.a_params, *self.b_params):
            if not math.isfinite(v):
                raise ValueError(f"non-finite G parameter {v!r}")
        if not (self.z > 0.0 and math.isfinite(self.z)):
            raise ValueError(f"argument must be finite and positive, got {self.z!r}")


def _log_phi_real(spec, c):
    # log |Phi(c)| on the real axis; +inf marks a numerator pole.
    total = 0.0
    try:
        for j in range(spec.m):
            total += math.lgamma(spec.b_params[j] - c)
        for j in range(spec.n):
            total += math.lgamma(1.0 - spec.a_params[j] + c)
        for j in range(spec.m, spec.q):
            total -= math.lgamma(1.0 - spec.b_params[j] + c)
        for j in range(spec.n, spec.p):
            total -= math.lgamma(spec.a_params[j] - c)
    except ValueError:
        return math.inf
    return total


def _log_phi_complex(spec, s):
    total = 0.0 + 0.0j
    for j in range(spec.m):
        total += log_gamma_complex(spec.b_params[j] - s)
    for j in range(spec.n):
        total += log_gamma_complex(1.0 - spec.a_params[j] + s)
    for j in range(spec.m, spec.q):
        total -= log_gamma_complex(1.0 - spec.b_params[j] + s)
    for j in range(spec.n, spec.p):
        total -= log_gamma_complex(spec.a_params[j] - s)
    return total


def _contour_abscissa(spec):
    # Strip separating the pole families: poles of Gamma(b_j - s) sit at
    # b_j, b_j+1, ...; poles of Gamma(1 - a_j + s) at a_j - 1, a_j - 2, ...
    lo = -math.inf
    for j in range(spec.n):
        lo = max(lo, spec.a_params[j] - 1.0)
    hi = math.inf
    for j in range(spec.m):
        hi = min(hi, spec.b_params[j])
    for j in range(spec.n):
        for i in range(spec.m):
            d = spec.a_params[j] - spec.b_params[i]
            if d >= 0.5 and abs(d - round(d)) < 1e-9:
                raise PoleCollision(
                    f"upper parameter {spec.a_params[j]!r} and lower parameter "
                    f"{spec.b_params[i]!r} put poles of both families on one point")
    if lo >= hi:
        raise PoleCollision(
            f"no vertical contour separates the pole families "
            f"(strip [{lo:g}, {hi:g}] is empty)")
    if not math.isfinite(lo):
        lo = hi - 30.0
    if not math.isfinite(hi):
        hi = lo + 30.0

    # Saddle placement: minimize log |Phi(c) z^c| over the open strip.
    lnz = math.log(spec.z)
    pad = 1e-3 * (hi - lo)
    grid_lo = lo + pad
    grid_hi = hi - pad

    def energy(c):
        return _log_phi_real(spec, c) + c * lnz

    npts = 64
    best_c = None
    best_e = math.inf
    for i in range(npts + 1):
        c = grid_lo + (grid_hi - grid_lo) * i / npts
        e = energy(c)
        if e < best_e:
            best_e = e
            best_c = c
    step = (grid_hi - grid_lo) / npts
    a0 = max(grid_lo, best_c - step)
    b0 = min(grid_hi, best_c + step)
    # golden-section refinement of the bracket
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b0 - invphi * (b0 - a0)
    x2 = a0 + invphi * (b0 - a0)
    e1 = energy(x1)
    e2 = energy(x2)
    for _ in range(60):
        if b0 - a0 < 1e-10 * max(1.0, abs(a0)):
            break
        if e1 < e2:
            b0, x2, e2 = x2, x1, e1
            x1 = b0 - invphi * (b0 - a0)
            e1 = energy(x1)
        else:
            a0, x1, e1 = x1, x2, e2
            x2 = a0 + invphi * (b0 - a0)
            e2 = energy(x2)
    return 0.5 * (a0 + b0)


def meijer_g(spec, tol_rel=1e-12, log_scale=0.0):
    """Evaluate a Meijer G-function by Mellin-Barnes contour quadrature.

    Parameters
    ----------
    spec : MeijerGSpec
        Order, parameters and argument.  Only the four orders used in
        this package are accepted: (1,1,1,1), (1,2,2,2), (4,3,4,4) and
        (2,3,3,3).
    tol_rel : float
        Relative tolerance target for the contour quadrature.
    log_scale : float
        Optional log-space prefactor folded into the integrand, so
        expressions of the form exp(log_scale) * G(z) stay finite when
        the two factors separately would not.

    Returns
    -------
    (value, error) : tuple of float
        The (scaled) function value and an absolute error estimate
        combining the quadrature error and the truncated contour tails.

    Raises
    ------
    PoleCollision
        If no vertical contour separates the Gamma pole families.
    NonConvergent
        If the contour integrand does not decay within the scan budget
        or the adaptive quadrature stalls.
    """
    order = (spec.m, spec.n, spec.p, spec.q)
    if order not in _SUPPORTED_ORDERS:
        raise ValueError(f"unsupported G order {order}; "
                         f"supported: {sorted(_SUPPORTED_ORDERS)}")
    c = _contour_abscissa(spec)
    lnz = math.log(spec.z)
    log_peak = _log_phi_real(spec, c) + c * lnz

    def log_mag(t):
        return (_log_phi_complex(spec, complex(c, t)) + complex(c, t) * lnz).real

    # Walk outward until the integrand modulus has dropped far below the
    # peak, then bound the remaining tail by the observed geometric decay.
    drop_target = math.log(1e-18)
    t = 1.0
    prev = log_mag(t)
    while prev - log_peak > drop_target:
        t += 1.0
        if t > 600.0:
            raise NonConvergent("contour integrand failed to decay by t=600")
        prev = log_mag(t)
    t_end = t + 1.0
    last = log_mag(t_end)
    rate = max(prev - last, 0.05)
    tail_bound = math.exp(last - log_peak) / rate

    def integrand(t):
        s = complex(c, t)
        w = _log_phi_complex(spec, s) + s * lnz - log_peak
        return cmath.exp(w).real

    val, err = quad_adaptive(integrand, 0.0, t_end,
                             tol_abs=1e-16, tol_rel=tol_rel,
                             max_panels=4000)
    scale = log_peak + log_scale
    if scale > 700.0:
        raise NonConvergent(f"G value overflows double precision (log {scale:.1f})")
    factor = math.exp(scale) / math.pi
    return val * factor, (err + tail_bound) * abs(factor)

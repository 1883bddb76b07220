"""Self-contained special-function kernel.

Log-beta, the regularized incomplete beta function, complex log-gamma
and a numerical Meijer G-function evaluator.  The incomplete beta and
the complex log-gamma act elementwise on arrays, so the quadrature can
evaluate a whole level of nodes in one call.  The G-function is
computed by direct quadrature of its Mellin-Barnes representation

    G(z) = 1/(2*pi*i) * integral of Phi(s) z^s ds

along a vertical contour Re(s) = c chosen inside the strip that
separates the two Gamma pole families.  Phi is first reduced: equal
Gamma factors merge into one power, and Gamma(x + 1) = x Gamma(x) folds
a factor into the one a unit below it, so each contour node takes
fewer complex log-gammas.  The abscissa is placed by golden-section
search at the minimum of |Phi(c) z^c| on the strip (the real-axis
saddle), which keeps the oscillatory cancellation of the contour
integral mild for arguments far from 1.  No residue summation is
performed, so parameter sets with repeated or integer-spaced bottom
parameters need no special casing.

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

_LOG_HALF_I = cmath.log(0.5j)
_LOG_2I = cmath.log(2j)

# continued fraction of the incomplete beta: iteration budget, the
# convergence threshold on |delta - 1| and the Lentz guard
_CF_MAX_ITER = 400
_CF_EPS = 1e-15
_CF_TINY = 1e-300

# contour points per block of the tail walk of meijer_g, and the
# relative tolerance of its contour quadrature
_TAIL_BLOCK = 16
_CONTOUR_TOL_REL = 1e-12
_EPS = float(np.finfo(float).eps)

_SUPPORTED_ORDERS = frozenset({(1, 1, 1, 1), (1, 2, 2, 2), (4, 3, 4, 4), (2, 3, 3, 3)})


def log_beta(a, b):
    """ln B(a, b) for positive a, b, evaluated in log space."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"log_beta requires a, b > 0, got a={a!r} b={b!r}")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(x, flip, a, b):
    # Continued fraction for the incomplete beta, modified Lentz scheme,
    # on a whole array at once: shapes (a, b), or the swapped pair
    # (b, a) where flip is set.  All elements iterate together until
    # each has converged (checked every 4th iteration).
    num = (a + b) * x / np.where(flip, b + 1.0, a + 1.0)
    # d and c as the two rows of one buffer, so one Lentz guard covers
    # both: a denominator that came out (near) zero is replaced by a
    # tiny positive number
    dc = np.ones((2,) + x.shape)
    absdc = np.empty_like(dc)
    d, c = dc
    np.subtract(1.0, num, out=d)
    np.abs(dc, out=absdc)
    if absdc.min() < _CF_TINY:
        dc[absdc < _CF_TINY] = _CF_TINY
    np.divide(1.0, d, out=d)
    h = d.copy()
    scratch = np.empty_like(x)
    out = np.empty_like(x)
    pending = np.ones(x.shape, dtype=bool)
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        # the even and the odd numerator of step m, coefficient * x; each
        # pair of coefficients is for the shapes (b, a), then (a, b)
        for coef in ((m * (a - m) / ((b - 1.0 + m2) * (b + m2)),
                      m * (b - m) / ((a - 1.0 + m2) * (a + m2))),
                     (-(b + m) * (b + a + m) / ((b + m2) * (b + 1.0 + m2)),
                      -(a + m) * (a + b + m) / ((a + m2) * (a + 1.0 + m2)))):
            np.multiply(x, np.where(flip, *coef), out=num)
            np.multiply(num, d, out=d)
            np.divide(num, c, out=c)
            dc += 1.0
            np.abs(dc, out=absdc)
            if absdc.min() < _CF_TINY:
                dc[absdc < _CF_TINY] = _CF_TINY
            np.divide(1.0, d, out=d)
            np.multiply(d, c, out=scratch)
            h *= scratch
        # scratch now holds the last delta = d * c.  Past convergence it
        # wanders by a few ulps, so each element keeps the h of the first
        # check it passes
        if m % 4 == 0:
            done = np.abs(scratch - 1.0) < _CF_EPS
            done &= pending
            out[done] = h[done]
            pending &= ~done
            if not pending.any():
                return out
    raise NonConvergent(
        f"incomplete beta continued fraction stalled at a={a!r} b={b!r}")


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta function I_x(a, b), elementwise on x.

    Parameters
    ----------
    x : float or array of float
        Points in [0, 1]; nan propagates.
    a, b : float
        Strictly positive shape parameters, shared by all points.

    Returns
    -------
    float or ndarray
        I_x(a, b), monotone from 0 at x=0 to 1 at x=1; a float for a
        scalar x, an array of the shape of x otherwise.

    Notes
    -----
    Uses the continued fraction directly where x < (a+1)/(a+b+2) and
    the complement identity I_x(a, b) = 1 - I_{1-x}(b, a) elsewhere,
    where the fraction converges fastest.  Both halves run in one array loop,
    so a call costs about the same for one point as for a few hundred.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"reg_inc_beta requires a, b > 0, got a={a!r} b={b!r}")
    x = np.asarray(x, dtype=float)
    if ((x < 0.0) | (x > 1.0)).any():
        raise ValueError("reg_inc_beta requires 0 <= x <= 1")
    out = x.copy()
    inner = (x > 0.0) & (x < 1.0)
    if inner.any():
        xi = x[inner]
        flip = xi >= (a + 1.0) / (a + b + 2.0)
        cf = _betacf(np.where(flip, 1.0 - xi, xi), flip, a, b)
        front = np.exp(a * np.log(xi) + b * np.log1p(-xi) - log_beta(a, b))
        out[inner] = np.where(flip, 1.0 - front * cf / b, front * cf / a)
    return out if out.ndim else float(out)


def _log_sin_pi(z):
    # log(sin(pi z)) up to a multiple of 2*pi*i, elementwise and
    # overflow-safe for large |Im z|.  Branch offsets cancel once the
    # result is exponentiated as part of a product.
    w = np.pi * z
    out = np.empty_like(w)
    near = np.abs(w.imag) < 20.0
    up = ~near & (w.imag > 0.0)
    down = ~near & ~up
    if near.any():
        s = np.sin(w[near])
        if (s == 0).any():
            raise ValueError("log sin pole")
        out[near] = np.log(s)
    # sin w = (i/2) e^{-iw} (1 - e^{2iw}) above the axis, and the mirror
    # form below it
    wu = w[up]
    out[up] = _LOG_HALF_I - 1j * wu + np.log(1.0 - np.exp(2j * wu))
    wd = w[down]
    out[down] = -_LOG_2I + 1j * wd + np.log(1.0 - np.exp(-2j * wd))
    return out


def _lanczos(z):
    # ln Gamma(z) on Re(z) >= 0.5
    zz = z - 1.0
    x = _LANCZOS_C[0]
    for i in range(1, 9):
        x = x + _LANCZOS_C[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return 0.5 * _LN_2PI + (zz + 0.5) * np.log(t) - t + np.log(x)


def log_gamma_complex(z):
    """ln(Gamma(z)) for complex z, elementwise, up to multiples of 2*pi*i.

    Lanczos series on Re(z) >= 0.5, reflection through the
    overflow-safe log-sin elsewhere.  Returns a complex for a scalar z
    and an array otherwise.  Raises ValueError at the poles
    (non-positive integers).
    """
    shape = np.shape(z)
    z = np.ravel(np.asarray(z, dtype=complex))
    refl = z.real < 0.5
    if (refl & (z.imag == 0.0) & (z.real == np.floor(z.real))).any():
        raise ValueError("log_gamma_complex pole at a non-positive integer")
    out = _lanczos(np.where(refl, 1.0 - z, z))
    if refl.any():
        out[refl] = _LN_PI - _log_sin_pi(z[refl]) - out[refl]
    return out.reshape(shape) if shape else complex(out[0])


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


def _gamma_factors(spec):
    # Phi(s) is the product of Gamma(const + sign_s * s) ** power over
    # these (const, sign_s, power) triples, numerator factors first
    return ([(b, -1.0, 1.0) for b in spec.b_params[:spec.m]]
            + [(1.0 - a, 1.0, 1.0) for a in spec.a_params[:spec.n]]
            + [(1.0 - b, 1.0, -1.0) for b in spec.b_params[spec.m:]]
            + [(a, -1.0, -1.0) for a in spec.a_params[spec.n:]])


def _reduce_factors(factors):
    # Phi(s) as (gammas, linears): the product of Gamma(const + sign_s *
    # s) ** power over gammas times (const + sign_s * s) ** power over
    # linears.  Equal Gamma factors merge into one power, and
    # Gamma(x + 1) = x Gamma(x) folds a factor into the one a unit below
    # it whenever both are present (an exact float match of const), so
    # fewer complex log-gammas are taken per contour node.  Folding from
    # the top const down carries a whole unit-spaced chain to its base.
    # From |const| >= 2^53 on, const - 1 rounds back to const, and the
    # factor would fold into itself and vanish: it is kept.
    powers = {}
    for const, sign_s, power in factors:
        powers[const, sign_s] = powers.get((const, sign_s), 0.0) + power
    linears = []
    for const, sign_s in sorted(powers, reverse=True):
        power = powers[const, sign_s]
        if (power and const - 1.0 != const
                and (const - 1.0, sign_s) in powers):
            powers[const - 1.0, sign_s] += power
            powers[const, sign_s] = 0.0
            linears.append((const - 1.0, sign_s, power))
    gammas = [(const, sign_s, power)
              for (const, sign_s), power in powers.items() if power]
    return gammas, linears


def _log_phi_terms(factors, c):
    # the terms of log |Phi(c)| on the real axis, one per factor in the
    # order they are summed; ValueError at a pole of a factor
    gammas, linears = factors
    terms = []
    for const, sign_s, power in gammas:
        terms.append(power * math.lgamma(const + sign_s * c))
    for const, sign_s, power in linears:
        terms.append(power * math.log(abs(const + sign_s * c)))
    return terms


def _log_phi_complex(factors, s):
    # log Phi(s) elementwise on an array of s: all Gamma factors go
    # through one log_gamma_complex call
    gammas, linears = factors
    logs = log_gamma_complex(np.stack([const + sign_s * s
                                       for const, sign_s, _ in gammas]))
    total = sum(power * term for (_, _, power), term in zip(gammas, logs))
    for const, sign_s, power in linears:
        total = total + power * np.log(const + sign_s * s)
    return total


def _contour_abscissa(spec, factors):
    # Strip separating the pole families: poles of Gamma(b_j - s) sit at
    # b_j, b_j+1, ...; poles of Gamma(1 - a_j + s) at a_j - 1, a_j - 2,
    # ...  Every supported order has m >= 1 and n >= 1, so both ends are
    # finite.
    lo = max(a - 1.0 for a in spec.a_params[:spec.n])
    hi = min(spec.b_params[:spec.m])
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

    # Saddle placement: golden-section search for the minimum of
    # log |Phi(c) z^c| over the whole open strip.  With only positive
    # Gamma powers and negative linear powers, as in production calls,
    # that energy is convex and has one minimum there.  Otherwise the
    # search may settle on a local minimum: the integral does not depend
    # on c inside the strip, only its cancellation does.
    lnz = math.log(spec.z)
    pad = 1e-3 * (hi - lo)
    a0 = lo + pad
    b0 = hi - pad

    def energy(c):
        # log |Phi(c) z^c|; +inf marks a pole of a factor
        try:
            return sum(_log_phi_terms(factors, c)) + c * lnz
        except ValueError:
            return math.inf

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


def meijer_g(spec, log_scale=0.0):
    """Evaluate a Meijer G-function by Mellin-Barnes contour quadrature.

    Parameters
    ----------
    spec : MeijerGSpec
        Order, parameters and argument.  Only the four orders used in
        this package are accepted: (1,1,1,1), (1,2,2,2), (4,3,4,4) and
        (2,3,3,3).
    log_scale : float
        Optional log-space prefactor folded into the integrand, so
        expressions of the form exp(log_scale) * G(z) stay finite when
        the two factors separately would not.

    Returns
    -------
    (value, error) : tuple of float
        The (scaled) function value and an absolute error estimate
        combining the quadrature error, the truncated contour tails and
        the rounding of the log-space factor exp(log Phi(c) + c ln z +
        log_scale) in front of the integral.

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
    factors = _reduce_factors(_gamma_factors(spec))
    c = _contour_abscissa(spec, factors)
    lnz = math.log(spec.z)
    terms = _log_phi_terms(factors, c)
    log_peak = sum(terms) + c * lnz

    def log_w(t):
        # log of the contour integrand at c + i t over its value at c
        s = c + 1j * t
        return _log_phi_complex(factors, s) + s * lnz - log_peak

    # Walk outward in blocks of t until the integrand modulus has
    # dropped far below the peak, then bound the remaining tail by the
    # observed geometric decay.
    drop_target = math.log(1e-18)
    for start in range(1, 601, _TAIL_BLOCK):
        # one extra point past the block, the decay rate needs it
        ts = np.arange(start, start + _TAIL_BLOCK + 1, dtype=float)
        mags = log_w(ts).real
        hit = np.nonzero(mags[:-1] <= drop_target)[0]
        if hit.size and ts[hit[0]] <= 600.0:
            i = int(hit[0])
            break
    else:
        raise NonConvergent("contour integrand failed to decay by t=600")
    t_end = float(ts[i + 1])
    rate = max(float(mags[i] - mags[i + 1]), 0.05)
    tail_bound = math.exp(mags[i + 1]) / rate

    def integrand(t):
        return np.exp(log_w(t)).real

    val, err = quad_adaptive(integrand, 0.0, t_end,
                             tol_abs=1e-16, tol_rel=_CONTOUR_TOL_REL,
                             max_panels=4000)
    scale = log_peak + log_scale
    if scale > 700.0:
        raise NonConvergent(f"G value overflows double precision (log {scale:.1f})")
    factor = math.exp(scale) / math.pi
    value = val * factor
    # rounding in exp(log_peak + log_scale): each log term carries an
    # absolute error of about eps times its size
    rounding = _EPS * (sum(abs(x) for x in terms) + abs(c * lnz)
                       + abs(log_scale)) * abs(value)
    return value, (err + tail_bound) * abs(factor) + rounding

"""Self-contained special-function kernel.

Log-beta, the regularized incomplete beta function, complex log-gamma
and a numerical Meijer G-function evaluator.  The incomplete beta and
the complex log-gamma act elementwise on arrays, so the quadrature can
evaluate a whole level of nodes in one call.  The G-function is
computed by direct quadrature of its Mellin-Barnes representation

    G(z) = 1/(2*pi*i) * integral of Phi(s) z^s ds

along a vertical contour Re(s) = c chosen inside the strip that
separates the two Gamma pole families.  The argument is given and
used as its logarithm, z^s = exp(s ln z): a caller builds ln z as a
sum of logs, so no argument can leave the range of a double.  Phi is
first reduced: equal Gamma factors merge into one power, and
Gamma(x + 1) = x Gamma(x) folds a factor into the one a unit below it,
so each contour node takes fewer complex log-gammas.  The abscissa is
placed by golden-section search at the minimum of |Phi(c) z^c| on the
strip (the real-axis saddle), which keeps the oscillatory cancellation
of the contour integral mild for arguments far from 1.  The integrand
is analytic on the pole-free strip around c, so the plain trapezoidal
rule converges geometrically, with an a-priori error bound (Trefethen
& Weideman, SIAM Review 56(3), 2014, Theorem 5.1): one batch of nodes,
its step sized from the strip's half-width and the integrand's size on
the strip's edges, gives the value.  No residue summation is
performed, so parameter sets with repeated or integer-spaced bottom
parameters need no special casing.

Evaluation is restricted to the four (m, n, p, q) orders the rest of
the package needs; anything else is rejected up front rather than
half-supported.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent

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

# continued fraction of the incomplete beta: the first and the deepest
# contracted depth a try cuts it at, the threshold on the relative gap
# between the values at depths K and K - 2, and the most levels whose
# coefficient rows are held at once
_CF_START_DEPTH = 16
_CF_MAX_ITER = 400
_CF_EPS = 1e-15
_CF_BLOCK = 16

# meijer_g: contour points per block of the tail walk, the error the
# trapezoid step is sized for, the rounding of a node's log terms in eps
# per unit of their size, and the most trapezoid nodes one call may take
_TAIL_BLOCK = 32
_TRAPEZOID_TOL = 1e-15
_LOG_GAMMA_ULPS = 4.0
_CONTOUR_NODE_BUDGET = 4000 * 15
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

_SUPPORTED_ORDERS = frozenset({(1, 1, 1, 1), (1, 2, 2, 2), (4, 3, 4, 4), (2, 3, 3, 3)})


def log_beta(a, b):
    """ln B(a, b) for positive a, b, evaluated in log space."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"log_beta requires a, b > 0, got a={a!r} b={b!r}")
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


@functools.lru_cache(maxsize=32)
def _cf_table(a, b, depth):
    # the coefficients of _contracted at depth, read-only: per shape
    # order, (a, b) then (b, a), and level k, A_{k+1}/x^2 (0 past depth)
    # and (B_k - 1)/x, and o_0 of each order
    p = np.array([[a], [b]])
    m = np.arange(1.0, depth + 1.0)
    pm = p + 2.0 * m
    e = m * (a + b - p - m) / ((pm - 1.0) * pm)
    o = (1.0 - p - m) * (a + b - 1.0 + m) / ((pm - 2.0) * (pm - 1.0))
    rows = np.zeros((2, 2, depth))
    rows[:, 0, :-1] = e[:, :-1] * -o[:, 1:]
    rows[:, 1] = e + o
    rows[:, 1, 0] = e[:, 0]
    rows.flags.writeable = o.flags.writeable = False
    return rows, o[:, 0]


def _contracted(x, flip, a, b, depth):
    # the fraction of _betacf cut at contracted depths depth and depth - 2,
    # rows 0 and 1 of the result, evaluated backward: t_k = B_k +
    # A_{k+1}/t_{k+1} from t_depth = B_depth, then 1/(1 + A_1/t_1).  Row 1
    # restarts from t = inf after level depth - 1.  The tabled
    # coefficients of each shape order are picked per element for at
    # most _CF_BLOCK levels at a time.
    rows, o0 = _cf_table(a, b, depth)
    x2 = x * x
    t = np.ones((2,) + x.shape)
    for hi in range(depth, 0, -_CF_BLOCK):
        lo = max(hi - _CF_BLOCK, 0)
        block = np.where(flip, rows[1, :, lo:hi, None], rows[0, :, lo:hi, None])
        block[0] *= x2
        block[1] *= x
        block[1] += 1.0
        for k, num, add in zip(range(hi - 1, lo - 1, -1),
                               list(block[0, ::-1]), list(block[1, ::-1])):
            np.divide(num, t, out=t)
            t += add
            if k == depth - 2:
                t[1] = np.inf
    return t / (t + np.where(flip, o0[1], o0[0]) * x)


def _betacf(x, flip, a, b):
    # 1/(1 + d_1/(1 + d_2/(1 + ...))), the continued fraction of the
    # incomplete beta, on a 1-D array at once: shapes (a, b), or the
    # swapped pair (b, a) where flip is set.  With e_m = m (b - m) /
    # ((a - 1 + 2m)(a + 2m)) and o_m = -(a + m)(a + b + m) / ((a + 2m)
    # (a + 1 + 2m)), d_{2m} = e_m x and d_{2m+1} = o_m x.  It is evaluated
    # as its even contraction 1 + A_1/(B_1 + A_2/(B_2 + ...)), whose
    # depth-k value is the 2k-th of the fraction: A_1 = o_0 x,
    # B_1 = 1 + e_1 x, A_k = -e_{k-1} o_{k-1} x^2 and
    # B_k = 1 + (o_{k-1} + e_k) x.  Each try cuts it at the depths K and
    # K - 2, K = _CF_START_DEPTH, twice that, ... and last _CF_MAX_ITER;
    # an element keeps the f_K of the first try where
    # |f_{K-2} / f_K - 1| < _CF_EPS, and only the pending elements go
    # deeper, so its value does not depend on the rest of the array.
    out = np.empty_like(x)
    todo = np.arange(x.size)
    depth = _CF_START_DEPTH
    while todo.size:
        depth = min(depth, _CF_MAX_ITER)
        f = _contracted(x[todo], flip[todo], a, b, depth)
        done = np.abs(f[1] / f[0] - 1.0) < _CF_EPS
        out[todo[done]] = f[0, done]
        todo = todo[~done]
        if todo.size and depth == _CF_MAX_ITER:
            raise NonConvergent(
                f"incomplete beta continued fraction stalled at a={a!r} b={b!r}")
        depth *= 2
    return out


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
    where the fraction converges fastest.  The fraction is evaluated
    backward, as its even contraction cut at a fixed depth K = 16, 32,
    64, ... and last 400.  Each try evaluates the depths K and K - 2 in
    one pass, and a point keeps the depth-K value of the first try where
    the two agree to 1e-15; only the points still pending go deeper, so
    a value does not depend on the other points of the call.  Both
    halves run in one array pass, so a call costs about the same for
    one point as for a few hundred.  A point still pending at depth 400
    raises NonConvergent.
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
    numerator).  log_z is the log argument, ln z of the positive real
    argument z, or a tuple of them for a family of G-values that share
    the parameters; any finite log argument is valid, even one whose z
    a double cannot hold.
    """

    m: int
    n: int
    p: int
    q: int
    a_params: tuple
    b_params: tuple
    log_z: float | tuple

    def __post_init__(self):
        if not (0 <= self.n <= self.p and 0 <= self.m <= self.q):
            raise ValueError(f"inconsistent order (m={self.m}, n={self.n}, "
                             f"p={self.p}, q={self.q})")
        if len(self.a_params) != self.p or len(self.b_params) != self.q:
            raise ValueError("parameter tuple lengths must match p and q")
        lnzs = self.log_z if isinstance(self.log_z, tuple) else (self.log_z,)
        for v in (*self.a_params, *self.b_params, *lnzs):
            if not math.isfinite(v):
                raise ValueError(f"non-finite G parameter or ln z {v!r}")
        if not lnzs:
            raise ValueError("a family needs a log argument")


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


def _energy(factors, lnz, c):
    # log |Phi(c) z^c|; +inf marks a pole of a factor
    try:
        return sum(_log_phi_terms(factors, c)) + c * lnz
    except ValueError:
        return math.inf


def _contour_abscissa(factors, lo, hi, lnz):
    # Saddle placement: golden-section search for the minimum of
    # log |Phi(c) z^c| over the whole open strip.  With only positive
    # Gamma powers and negative linear powers, as in production calls,
    # that energy is convex and has one minimum there.  Otherwise the
    # search may settle on a local minimum: the integral does not depend
    # on c inside the strip, only its cancellation does.
    energy = functools.partial(_energy, factors, lnz)
    pad = 1e-3 * (hi - lo)
    a0 = lo + pad
    b0 = hi - pad
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b0 - invphi * (b0 - a0)
    x2 = a0 + invphi * (b0 - a0)
    e1 = energy(x1)
    e2 = energy(x2)
    for _ in range(15):  # narrows the bracket below 1e-3 of the strip
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
        Order, parameters and log argument ln z.  Only the four orders
        used in this package are accepted: (1,1,1,1), (1,2,2,2),
        (4,3,4,4) and (2,3,3,3).  A tuple of log arguments asks for the
        family of G-values of one parameter set.
    log_scale : float
        Optional log-space prefactor folded into the integrand, so
        expressions of the form exp(log_scale) * G(z) stay finite when
        the two factors separately would not.

    Returns
    -------
    (value, error) : tuple of float, or a list of them
        The (scaled) function value and an absolute error estimate
        summing the trapezoid bound of Trefethen & Weideman (Theorem
        5.1), the truncated contour tails, the rounding of the nodes
        and of their sum, and the rounding of the log-space factor
        exp(log Phi(c) + c ln z + log_scale) in front of the integral.
        For a tuple of log arguments, one pair per argument, in order.

    Notes
    -----
    A family shares the first member's contour, at its saddle c, when
    every member's log |Phi(c) z^c| there is within 1 nat of its value
    at the member's own saddle; otherwise, or when that contour raises
    NonConvergent, each member takes its own.  A shared contour takes
    one log-Phi batch per tail-walk block and one on the nodes, and each
    member reads the nodes at a step within its own trapezoid bound.
    The first member, as a family of one, is the scalar call bit for bit.

    Raises
    ------
    NonConvergent
        If no vertical contour separates the Gamma pole families, the
        contour integrand does not decay within the scan budget, or the
        strip around the contour is so narrow that the trapezoid step
        would need more than _CONTOUR_NODE_BUDGET nodes.
    """
    order = (spec.m, spec.n, spec.p, spec.q)
    if order not in _SUPPORTED_ORDERS:
        raise ValueError(f"unsupported G order {order}; "
                         f"supported: {sorted(_SUPPORTED_ORDERS)}")
    # Strip separating the pole families: poles of Gamma(b_j - s) sit at
    # b_j, b_j+1, ...; poles of Gamma(1 - a_j + s) at a_j - 1, a_j - 2,
    # ...  Every supported order has m >= 1 and n >= 1, so both ends are
    # finite.  An offset a_j - b_i >= 1, as a positive integer one that
    # puts poles of both families on one point, leaves the strip empty.
    lo = max(a - 1.0 for a in spec.a_params[:spec.n])
    hi = min(spec.b_params[:spec.m])
    if lo >= hi:
        raise NonConvergent(
            f"no vertical contour separates the pole families "
            f"(strip [{lo:g}, {hi:g}] is empty)")
    factors = _reduce_factors(_gamma_factors(spec))
    family = isinstance(spec.log_z, tuple)
    lnzs = list(spec.log_z) if family else [spec.log_z]
    saddles = [_contour_abscissa(factors, lo, hi, lnz) for lnz in lnzs]
    c = saddles[0]
    out = None
    if all(_energy(factors, lnz, c) <= _energy(factors, lnz, own) + 1.0
           for own, lnz in zip(saddles[1:], lnzs[1:])):
        try:
            out = _contour(factors, c, min(c - lo, hi - c), lnzs, log_scale)
        except NonConvergent:
            if len(lnzs) == 1:
                raise
    if out is None:
        out = [pair for own, lnz in zip(saddles, lnzs) for pair in
               _contour(factors, own, min(own - lo, hi - own), [lnz],
                        log_scale)]
    return out if family else out[0]


def _contour(factors, c, d, lnzs, log_scale):
    # [(value, error)] of the G-family with log arguments lnzs on the
    # contour Re s = c, at distance d from the nearest pole
    if not d > 0.0:
        raise NonConvergent(f"the contour abscissa {c:g} sits on a pole")
    terms = _log_phi_terms(factors, c)
    log_peaks = [sum(terms) + c * lnz for lnz in lnzs]
    # each member's rounding in eps: a log term is good to about
    # _LOG_GAMMA_ULPS eps times its size, and those at c stand for the
    # nodes that carry the mass
    ulps = [1.0 + _LOG_GAMMA_ULPS * (len(terms) + sum(map(abs, terms))
                                     + abs(c * lnz)) + abs(log_scale)
            for lnz in lnzs]
    if not _EPS * max(ulps) < 1.0:
        raise NonConvergent(f"the contour integrand at c={c:g} loses "
                            f"every digit to rounding")

    # Walk outward in blocks of t until the integrand modulus on the
    # contour has dropped far below the peak, then bound the remaining
    # tail by the observed geometric decay.  The same batches sample the
    # lines Re s = c -+ d' that bound the strip of the trapezoid rule.
    # Relative to its peak, the modulus on the contour is that of any
    # member, and on those lines that of the first shifted by -+ d'
    # times the gap of ln z, so the first member's walk serves them all.
    edge = 0.9 * d
    rows = np.array([[0.0], [edge], [-edge]])
    drop_target = math.log(1e-18)
    log_sums = np.full(3, -math.inf)
    for start in range(0, 600, _TAIL_BLOCK):
        # one extra point past the block, the decay rate needs it
        ts = np.arange(start, start + _TAIL_BLOCK + 1, dtype=float)
        s = c + rows + 1j * ts
        mags = (_log_phi_complex(factors, s) + s * lnzs[0] - log_peaks[0]).real
        log_sums = np.logaddexp(log_sums,
                                np.logaddexp.reduce(mags[:, :-1], axis=1))
        hit = np.nonzero(mags[0, :-1] <= drop_target)[0]
        if hit.size and ts[hit[0]] <= 600.0:
            i = int(hit[0])
            break
    else:
        raise NonConvergent("contour integrand failed to decay by t=600")
    t_end = float(ts[i + 1])
    rate = max(float(mags[0, i] - mags[0, i + 1]), 0.05)
    tail_bound = math.exp(mags[0, i + 1]) / rate

    # Trefethen & Weideman, "The exponentially convergent trapezoidal
    # rule", SIAM Review 56(3), 2014, Theorem 5.1: on the strip
    # |Im t| < d' the trapezoid sum of step h misses the integral by at
    # most 2M / (e^(2 pi d' / h) - 1), M the largest integral of |w|
    # along a line of the strip, here at most twice a line's unit-step
    # sum over t >= 0.  These steps set each member's bound to
    # _TRAPEZOID_TOL.  The nodes are spaced by the first member's step
    # over the least power of 2 fine enough for all; the first member
    # reads every stride-th node, its own nodes, and the rest read all.
    steps = [2.0 * math.pi * edge / float(np.logaddexp(
        0.0, math.log(4.0 / _TRAPEZOID_TOL)
        + float((log_sums + rows[:, 0] * (lnz - lnzs[0])).max())))
        for lnz in lnzs]
    stride = 1
    while steps[0] / stride > min(steps):
        stride *= 2
    h = steps[0] / stride
    nodes = stride * math.ceil(t_end / steps[0]) + 1
    if nodes > _CONTOUR_NODE_BUDGET:
        raise NonConvergent(f"contour strip half-width {d:.3g} needs step "
                            f"{h:.3g}, {nodes} nodes, over the budget")
    s = c + 1j * h * np.arange(nodes)
    log_phi = _log_phi_complex(factors, s)
    out = []
    for lnz, log_peak, ulp, sub in zip(lnzs, log_peaks, ulps,
                                       [stride] + [1] * (len(lnzs) - 1)):
        w = np.exp(log_phi[::sub] + s[::sub] * lnz - log_peak)
        w[0] *= 0.5
        val = h * sub * float(w.real.sum())
        # the trapezoid bound, the tails, and the rounding of the nodes,
        # of their sum and of the factor in front
        err = (_TRAPEZOID_TOL + tail_bound
               + _EPS * ulp * h * sub * float(np.abs(w).sum()))
        scale = log_peak + log_scale
        if scale > 700.0:
            raise NonConvergent(f"contour integrand peaks at e^{scale:.1f}, "
                                "beyond double precision")
        factor = math.exp(scale) / math.pi
        value = val * factor
        # a subnormal value is rounded to its ulp, which the error scaled
        # from the peak can have underflowed below
        out.append((value, err * abs(factor)
                    + (math.ulp(value) if abs(value) < _TINY else 0.0)))
    return out

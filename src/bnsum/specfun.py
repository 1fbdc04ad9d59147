"""Self-contained real/complex special-function kernel.

Gamma, digamma, Hurwitz zeta (Euler-Maclaurin continuation), the Lerch
transcendent on the unit circle, its value at -1 and extended harmonic
numbers.  Everything here is pure and reentrant; the Bernoulli/Gauss tables
are built at import time and never mutated, and the per-(alpha, v) Lerch
tables are cached read-only.

Parameters are checked as ``not x > 0`` or ``not abs(x) < inf``, so that
NaN is a ``DomainError``.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, PoleError, SingularityError

EULER_GAMMA = 0.5772156649015328606


def _bernoulli_even(count: int) -> tuple[float, ...]:
    # B_0..B_{2*count} via the defining recurrence, exactly in Fraction.
    n_top = 2 * count
    b = [Fraction(0)] * (n_top + 1)
    b[0] = Fraction(1)
    for n in range(1, n_top + 1):
        s = Fraction(0)
        for k in range(n):
            s += math.comb(n + 1, k) * b[k]
        b[n] = -s / (n + 1)
    return tuple(float(b[2 * k]) for k in range(1, count + 1))


_K_MAX = 32
_B_EVEN = _bernoulli_even(_K_MAX)  # B_2, B_4, ..., B_64
_B2K_OVER_FACT = tuple(_B_EVEN[k - 1] / math.factorial(2 * k) for k in range(1, _K_MAX + 1))


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma(x: float) -> float:
    """Gamma function for real non-pole arguments."""
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x}")
    return math.gamma(x)


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x), continued by 0 at the poles of Gamma (entire function)."""
    if _is_nonpositive_integer(x):
        return 0.0
    if abs(x) < 170.0:
        return 1.0 / math.gamma(x)
    if x > 0:
        return math.exp(-math.lgamma(x))
    sign = -1.0 if (math.floor(x) % 2) else 1.0
    try:
        return sign * math.exp(-math.lgamma(x))
    except OverflowError:
        # |Gamma(x)| underflows below ~1e-309 for x < -171; 1/Gamma exceeds
        # the double range
        return sign * math.inf


def digamma(x: float) -> float:
    """Psi function; recurrence up to x >= 12 then the Bernoulli series."""
    if _is_nonpositive_integer(x):
        raise PoleError(f"digamma pole at x={x}")
    if x < 0.0:
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    acc = 0.0
    while x < 12.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    s = math.log(x) - 0.5 / x
    t = inv2
    for k in range(1, 9):
        s -= _B_EVEN[k - 1] / (2 * k) * t
        t *= inv2
    return acc + s


def harmonic_extended(beta: float) -> float:
    """H_beta = psi(beta+1) + gamma for beta > -1."""
    if not beta > -1.0:
        raise DomainError("harmonic_extended requires beta > -1")
    return digamma(beta + 1.0) + EULER_GAMMA


def hurwitz_zeta(s: float, a: float) -> float:
    """Hurwitz zeta zeta(s, a), Euler-Maclaurin analytic continuation in s."""
    if not abs(s) < math.inf:
        raise DomainError("hurwitz_zeta requires a finite s")
    if s == 1.0:
        raise PoleError("hurwitz_zeta pole at s=1")
    if not a > 0.0:
        raise DomainError("hurwitz_zeta requires a > 0")
    # A larger shift worsens cancellation for s << 0 (partial-sum terms grow
    # like x^{|s|}); keep x as small as the Bernoulli tail's convergence allows.
    shift = max(15.0, 0.26 * abs(s))
    n_head = max(0, int(math.ceil(shift - a)))
    acc = 0.0
    for n in range(n_head):
        acc += (n + a) ** (-s)
    x = n_head + a
    acc += x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** (-s)
    poch = s  # rising factorial s(s+1)...(s+2k-2)
    xpow = x ** (-s - 1.0)
    inv2 = 1.0 / (x * x)
    prev = math.inf
    for k in range(1, _K_MAX + 1):
        term = _B2K_OVER_FACT[k - 1] * poch * xpow
        acc += term
        mag = abs(term)
        if mag < 1e-18 * abs(acc) or mag < 5e-324:
            break
        if mag > prev and k > 4:
            break  # asymptotic tail started diverging; best already taken
        prev = mag
        poch *= (s + 2.0 * k - 1.0) * (s + 2.0 * k)
        xpow *= inv2
    return acc


def _alternating_sum(term, n: int = 24) -> float:
    # Chebyshev-polynomial acceleration of sum_{k>=0} (-1)^k term(k); needs
    # term(k) to be totally monotone, which (k+a)^(-s) with s > 0 is.  Its
    # relative error is at most 2 / (3 + sqrt 8)^n, about 3e-18 at n = 24.
    d = (3.0 + 2.0 * math.sqrt(2.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    s = 0.0
    for k in range(n):
        c = b - c
        s += c * term(k)
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    return s / d


def phi_minus_one(s: float, a: float) -> float:
    """Phi(-1, s, a): the accelerated alternating series for s > 0, and for
    s <= 0 the difference (zeta(s, a/2) - zeta(s, (a+1)/2)) / 2^s, which
    cancels at large a where the series does not."""
    if not abs(s) < math.inf:
        raise DomainError("phi_minus_one requires a finite s")
    if not a > 0.0:
        raise DomainError("phi_minus_one requires a > 0")
    if s > 0.0:
        return _alternating_sum(lambda k: (k + a) ** -s)
    return (hurwitz_zeta(s, a / 2.0) - hurwitz_zeta(s, (a + 1.0) / 2.0)) / 2.0 ** s


# ---------------------------------------------------------------------------
# Lerch transcendent on the unit circle: Phi(-e^{2 i phi}, alpha, v)
# ---------------------------------------------------------------------------

_NEAR_HALF_PI = 0.35  # |2 eps| = |2 phi - pi| below this takes the local series

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)


def panel_nodes(edges: np.ndarray, nodes: np.ndarray,
                weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights of a rule on [-1, 1] moved onto the panels delimited by
    ``edges``, panel by panel."""
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * nodes).ravel(), (half * weights).ravel()


_HEAD_TERMS = 8


def _lerch_head_panels(v: float) -> int:
    # n for the head end t0 = 3^-n: 7, or more where v t0 would pass 3^-4, so
    # that the head's e^{-v t} series stops below (3^-4)^8 / 8! ~ 1e-20.
    return 7 + max(0, math.ceil(math.log(v / 27.0) / math.log(3.0)))


def _lerch_t_grid(alpha: float, v: float) -> tuple[np.ndarray, np.ndarray]:
    # [t0, 1]: geometric grading so t^{alpha-1} is smooth per panel ([0, t0]
    # is the Taylor head of _lerch_integral_many).
    lo_edges = 3.0 ** np.arange(-_lerch_head_panels(v), 1, dtype=float)
    # [1, T]: exponential decay e^{-t v}; T from (alpha-1) ln T - v T = -45.
    t_hi = (45.0 + max(alpha - 1.0, 0.0)) / v + 1.0
    for _ in range(4):
        t_hi = (45.0 + max(alpha - 1.0, 0.0) * math.log(t_hi)) / v + 1.0
    hi_edges = np.geomspace(1.0, max(t_hi, 1.0 + 1e-6), 24)
    edges = np.concatenate((lo_edges, hi_edges[1:]))
    return panel_nodes(edges, _GAUSS_NODES, _GAUSS_WEIGHTS)


def _lerch_integral_many(phis: np.ndarray, alpha: float, v: float) -> np.ndarray:
    """Integral of t^{alpha-1} e^{-t v} / (1 + e^{-t + 2 i phi}) / Gamma(alpha)
    over t > 0 (DLMF 25.14.5) at far angles (|2 phi - pi| >= _NEAR_HALF_PI
    mod 2 pi): Gauss panels on [t0, T] and an exact head on [0, t0].

    The head integrates the Taylor series in t of q(t) e^{-v t}, where
    q = 1/(1 + e^{-t + 2 i phi}) obeys q' = q - q^2.  In s = t/t0 the
    coefficients Q_k of q satisfy (k+1) Q_{k+1} = t0 (Q_k - sum_j Q_j Q_{k-j});
    q's poles lie at least _NEAR_HALF_PI from t = 0 at far angles.
    """
    t0 = 3.0 ** -_lerch_head_panels(v)
    e2 = np.exp(2j * phis)
    q = [1.0 / (1.0 + e2)]
    for k in range(_HEAD_TERMS - 1):
        conv = sum(q[j] * q[k - j] for j in range(k + 1))
        q.append(t0 * (q[k] - conv) / (k + 1))
    # head = t0^alpha / Gamma(alpha) sum_k P_k / (alpha + k), with P_k the
    # coefficient of s^k in q(t0 s) e^{-v t0 s}; regrouped as sum_j Q_j W_j
    ex = [(-v * t0) ** k / math.factorial(k) for k in range(_HEAD_TERMS)]
    scale = math.exp(alpha * math.log(t0) - math.lgamma(alpha))
    head = scale * sum(q[j] * sum(ex[k - j] / (alpha + k) for k in range(j, _HEAD_TERMS))
                       for j in range(_HEAD_TERMS))
    t, w = _lerch_t_grid(alpha, v)
    amp = w * np.exp((alpha - 1.0) * np.log(t) - t * v - math.lgamma(alpha))
    denom = np.multiply.outer(np.exp(-t), e2)
    denom += 1.0
    np.reciprocal(denom, out=denom)
    # amp against the real and imaginary parts at once, by einsum, which
    # calls no BLAS (see _far_coeffs)
    return head + np.einsum("t,tk->k", amp, denom.view(np.float64)).view(np.complex128)


# Away from phi = pi/2 (mod pi), Phi(-e^{2 i phi}, alpha, v) is analytic in
# phi with period pi.  Folded onto |phi| <= _FAR_EDGE, it is interpolated once
# per (alpha, v) on each piece between _PIECE_EDGES, in Chebyshev polynomials,
# from the quadrature at 20 first-kind points; every far angle is then a
# Clenshaw sum.  The piece next to pi/2 sets the count (16 points left it
# 3.5e-12 off).  Over alpha in {0.05, 0.5, 1, 2, 2.9}, v in {0.01, 1, 3, 30}
# and 500 seeded far angles, the worst deviation from the quadrature is 5.9e-15
# of max|Phi|.
_FAR_EDGE = math.pi / 2.0 - _NEAR_HALF_PI / 2.0
_PIECE_EDGES = np.array([-_FAR_EDGE, -1.2, -0.9, -0.45, 0.0, 0.45, 0.9, 1.2, _FAR_EDGE])
_PIECE_MID = (_PIECE_EDGES[1:] + _PIECE_EDGES[:-1]) / 2.0
_PIECE_HALF = np.diff(_PIECE_EDGES) / 2.0
_PIECE_POINTS = 20
_PIECE_ANGLES = math.pi * (np.arange(_PIECE_POINTS) + 0.5) / _PIECE_POINTS
# c_j = (2/N) sum_k f(cos theta_k) cos(j theta_k), with c_0 halved.  numpy's
# chebinterpolate forms cos(j theta_k) by the three-term recurrence instead,
# which put F 3e-13 of max|F| off the quadrature at 128 points.
_PIECE_TRANSFORM = (2.0 / _PIECE_POINTS) * np.cos(
    np.outer(np.arange(_PIECE_POINTS), _PIECE_ANGLES))
_PIECE_TRANSFORM[0] *= 0.5
_PIECE_TRANSFORM.flags.writeable = False


@lru_cache(maxsize=512)
def _far_coeffs(alpha: float, v: float) -> np.ndarray:
    """Chebyshev coefficients of Phi(-e^{2 i phi}, alpha, v) on each piece of
    the folded far range, indexed [degree, piece].

    Both products of the build are einsums without ``optimize``, which call no
    BLAS: on 2 CPUs, OpenBLAS's default worker threads made a cold build
    take 15.9 ms against 1.3 ms on one thread."""
    angles = _PIECE_MID[:, None] + np.multiply.outer(_PIECE_HALF, np.cos(_PIECE_ANGLES))
    values = _lerch_integral_many(angles.ravel(), alpha, v).reshape(angles.shape)
    coeffs = np.einsum("jk,pk->jp", _PIECE_TRANSFORM, values)
    coeffs.flags.writeable = False
    return coeffs


_LOCAL_TERMS = 48  # the most terms the local series sums
_LOCAL_TAIL = 1e-17  # it stops where |c_k| 0.35^k is this far below the largest


@lru_cache(maxsize=512)
def _local_tables(alpha: float, v: float) -> tuple[np.ndarray, np.ndarray, bool]:
    """zeta(alpha-k, v)/k! for the z->1 Lerch expansion, cached per (alpha, v),
    times the real factor of i^k and split by the parity of k: with x = ell^2,
    sum_k c_k (i ell)^k = even(x) + i ell odd(x).  The terms stop, at an even
    count, once two in a row have |c_k| _NEAR_HALF_PI^k below _LOCAL_TAIL of
    the largest: past the reach of the near nodes they add nothing."""
    alpha_int = alpha == math.floor(alpha)
    coeffs, top, small = [], 0.0, 0
    for k in range(_LOCAL_TERMS):
        if alpha_int and k == int(alpha) - 1:
            coeffs.append(0.0)  # replaced by the digamma/log head term
            continue
        coeffs.append((-1) ** (k // 2) * hurwitz_zeta(alpha - k, v) / math.factorial(k))
        size = abs(coeffs[-1]) * _NEAR_HALF_PI ** k
        top = max(top, size)
        small = small + 1 if size < _LOCAL_TAIL * top else 0
        if small >= 2 and k % 2:
            break
    coeffs = np.array(coeffs)
    return coeffs[0::2], coeffs[1::2], alpha_int


def lerch_local_many(ells: np.ndarray, alpha: float, v: float) -> np.ndarray:
    """Phi(e^{i ell}, alpha, v) for |ell| up to about _NEAR_HALF_PI, the reach
    ``_local_tables`` sets its term count for, vectorized.

    Expansion of Phi(z, alpha, v) in log z = i*ell around z = 1; with
    z = -e^{2 i phi} this is ell = 2*phi - pi, the phi = pi/2 neighborhood.
    Its real and imaginary parts are summed apart, in real arithmetic.
    Raises SingularityError at ell == 0 when alpha <= 1.
    """
    ells = np.asarray(ells, dtype=np.float64)
    zero = ells == 0.0
    if alpha <= 1.0 and zero.any():
        raise SingularityError("Phi singular at z=1 for alpha <= 1")
    even_c, odd_c, alpha_int = _local_tables(alpha, v)
    x = ells * ells
    re = np.full(ells.shape, even_c[-1])
    im = np.full(ells.shape, odd_c[-1])
    for ce, co in zip(even_c[-2::-1], odd_c[-2::-1]):  # Horner in x
        re *= x
        re += ce
        im *= x
        im += co
    im *= ells
    if alpha_int:
        n = int(alpha)
        logz = 1j * ells
        with np.errstate(divide="ignore", invalid="ignore"):
            head = -(logz ** (n - 1)) * (
                digamma(v) - digamma(float(n)) + np.log(-logz)
            ) / math.factorial(n - 1)
        if zero.any():
            head = np.where(zero, 0.0, head)  # limit for alpha > 1
        re += head.real
        im += head.imag
    else:
        # Gamma(1-alpha) (-i ell)^{alpha-1} = Gamma(1-alpha) |ell|^{alpha-1}
        # e^{-i sign(ell) pi (alpha-1)/2}; 0 at ell = 0 for alpha > 1
        mag = gamma(1.0 - alpha) * np.abs(ells) ** (alpha - 1.0)
        theta = 0.5 * math.pi * (alpha - 1.0)
        re += math.cos(theta) * mag
        im -= math.sin(theta) * np.sign(ells) * mag
    return (re + 1j * im) * np.exp(-1j * v * ells)


def lerch_far_many(eps: np.ndarray, alpha: float, v: float) -> np.ndarray:
    """Phi(-e^{2 i phi}, alpha, v) at phi = pi/2 - eps, eps in [-pi/2, pi/2], from
    the far table; right where |2 eps| >= _NEAR_HALF_PI.  The period pi folds
    phi onto copysign(pi/2, eps) - eps, exact for |eps| >= pi/4 (Sterbenz).
    Each Clenshaw step gathers one coefficient per node from its degree's row,
    so no (nodes x 20) array is formed."""
    folded = np.copysign(math.pi / 2.0, eps) - eps
    piece = np.searchsorted(_PIECE_EDGES[1:-1], folded)
    x = (folded - _PIECE_MID[piece]) / _PIECE_HALF[piece]
    coeffs = _far_coeffs(alpha, v)
    two_x = 2.0 * x
    b1 = b2 = 0.0
    for row in coeffs[:0:-1]:
        b1, b2 = two_x * b1 - b2 + row[piece], b1
    return x * b1 - b2 + coeffs[0][piece]


def lerch_unit_many(eps: np.ndarray, alpha: float, v: float) -> np.ndarray:
    """Phi(-e^{2 i phi}, alpha, v) at phi = pi/2 - eps over an array of signed
    eps in [-pi/2, pi/2], so angles within one ulp of pi/2 stay distinct.  The
    one seam: |2 eps| < _NEAR_HALF_PI takes the local series at ell = -2 eps,
    every other eps the far table."""
    eps = np.asarray(eps, dtype=np.float64)
    out = np.empty(eps.shape, dtype=np.complex128)
    near = np.abs(2.0 * eps) < _NEAR_HALF_PI
    if (~near).any():
        out[~near] = lerch_far_many(eps[~near], alpha, v)
    if near.any():
        out[near] = lerch_local_many(-2.0 * eps[near], alpha, v)
    return out


def lerch_unit(phi: float, alpha: float, v: float) -> complex:
    """Phi(-e^{2 i phi}, alpha, v) for phi in [0, pi], alpha > 0, v > 0."""
    if not (0.0 <= phi <= math.pi):
        raise DomainError("phi must lie in [0, pi]")
    if not (alpha > 0.0 and v > 0.0):
        raise DomainError("lerch_unit requires alpha > 0 and v > 0")
    return complex(lerch_unit_many(np.array([math.pi / 2.0 - phi]), alpha, v)[0])


def lerch_unit_series(phi: float, alpha: float, v: float) -> complex:
    """Cross-check route: epsilon-accelerated partial sums of the defining series."""
    if not abs(phi) < math.inf:
        raise DomainError("lerch_unit_series requires a finite phi")
    if not (alpha > 0.0 and v > 0.0):
        raise DomainError("lerch_unit_series requires alpha > 0 and v > 0")
    z = -np.exp(2j * phi)
    n = np.arange(6000)  # Wynn's epsilon reads the last 48 partial sums
    a_n = z ** n / (v + n) ** alpha
    partial = np.cumsum(a_n)
    return _wynn_epsilon(partial[-48:])


def _wynn_epsilon(seq: np.ndarray) -> complex:
    """Wynn's epsilon algorithm; returns the deepest even-column estimate."""
    e0 = np.zeros(len(seq) + 1, dtype=np.complex128)
    e1 = np.array(seq, dtype=np.complex128)
    best = e1[-1]
    cur = e1
    prev = e0[: len(seq) + 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range((len(seq) - 1) // 2):
            nxt = prev[1 : len(cur)] + 1.0 / np.diff(cur)
            cur, prev = nxt, cur
            if len(cur) == 0 or not np.isfinite(cur[-1]):
                break
            nxt2 = prev[1 : len(cur)] + 1.0 / np.diff(cur)
            cur, prev = nxt2, cur
            if len(cur) == 0 or not np.isfinite(cur[-1]):
                break
            best = cur[-1]
    return complex(best)

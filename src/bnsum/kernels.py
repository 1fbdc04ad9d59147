"""Hot numeric kernels: integer-order Bessel J rows and columns.

``bessel_rows(nmax, rs)`` returns a ``(nmax+1, len(rs))`` array with
``J_0(r)..J_nmax(r)`` per column.  The recurrence runs downward (upward
recurrence is unstable for order > argument) and is normalized with
``J_0 + 2*sum_k J_{2k} = 1``.  It starts where Kapteyn's bound
``|J_n(r)| <= exp(-h(n))`` (``kapteyn``) has fallen far enough past the
turning point ``l ~ r`` and past ``nmax``: the smallest order ``M`` with
``h(M) >= max(38, h(max(nmax, ceil r)) + 20)``: 156 at r = 100 for nmax 128.
Below ``_TINY_R`` it overflows; such a column takes the power series'
leading term ``(r/2)^n / n!`` (``_leading_terms``) instead.

Two kernels with one signature, ``kernel(nmax, rs) -> rows``, run the
recurrence: the per-argument loop ``_rows_kernel`` for calls of at most
``_LOOP_MAX_COLUMNS`` arguments, the numpy kernel ``_rows_numpy``,
vectorized across arguments, for more.  The loop also rejects a negative,
NaN or infinite argument and hands a tiny one to ``_leading_terms``, so a
call of few arguments pays no numpy reduction; a larger call checks and
splits its arguments with numpy.  Both kernels start each column at the
start order of its own argument (``_start_order`` in the loop, its vector form
``_start_orders`` in the numpy kernel, equal integer for integer) and do the
same arithmetic, so a column depends on its argument alone: whatever else a
call holds and whichever kernel runs it, it is bit for bit the column of a
one-argument call.

The loop runs on Python floats, which do the same IEEE double arithmetic as
numpy scalars at a fraction of the cost.  It splits at ``nmax``: the orders
above it store nothing and so skip the store and its test; the orders
``nmax..0`` are appended to a list, written into the column once, scaled by
each rescale from its order up in the order they happened, and normalized by
one in-place division.

``bessel_j_col(orders, args)``, a column of one order over many arguments
(the quadrature's ``J_nu(2 r cos phi)``), has two regimes.  Below
``hankel_x0(nu)`` it is row ``nu`` of ``bessel_rows``; from there on, where
the recurrence would have to start above the largest argument,
``bessel_j_large`` sums Hankel's expansion (DLMF 10.17.3) in a fixed number
of terms, the first neglected one below 1e-17.  In both a value depends on
its argument alone, so batching arguments cannot move one.  Given several
orders, ``bessel_j_col`` returns one column per order, all below the largest
order's x0 read off one ``bessel_rows`` call; an order below the largest
then agrees with its one-order column to rounding (within 2e-15), not bit
for bit.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import DomainError

_RESCALE = 1e250
_INV_RESCALE = 1e-250
# Calls with at most this many arguments run the plain-Python loop: its cost
# grows with the column count, the numpy kernel's per-order overhead does
# not.  Best of 7 on 2 CPUs, numpy 2.4, r in [1, 100], numpy vs loop
# (benchmarks/bench_bessel_rows.py): nmax 150 takes 1.37 vs 0.44 ms at 8
# columns, 1.36 vs 0.90 at 16, 1.40 vs 1.39 at 24 and 1.39 vs 1.77 at 32;
# nmax 600 takes 4.9 vs 1.6 ms at 8, 5.2 vs 3.2 at 16, 5.3 vs 4.9 at 24 and
# 5.7 vs 6.6 at 32.
_LOOP_MAX_COLUMNS = 24
# Below this the step (2l/r)*jc overflows before a rescale can act (from
# r ~ 1e-57 on); the power series' next term is smaller by (r/2)^2 < 1e-100.
_TINY_R = 1e-50


def kapteyn(n, r, log_r, xp=math):
    """``(h, dh/dn)`` of Kapteyn's bound ``|J_n(r)| <= exp(-h(n))`` for
    ``n >= r`` (DLMF 10.14.5, Watson 8.7): ``h = n arccosh(n/r) -
    sqrt(n^2 - r^2)``, ``dh/dn = arccosh(n/r)``, with ``log_r = log(r)``.

    ``h`` is convex and grows from 0 at ``n = r``, so the bound falls past the
    turning point, each order by at least the factor ``exp(-dh/dn)``.  ``xp``
    is ``math`` for scalars or ``numpy`` for arrays.
    """
    s = xp.sqrt((n - r) * (n + r))
    w = xp.log(n + s) - log_r
    return n * w - s, w


# The start order M is the smallest past n* = max(nmax, ceil(r)) with
# h(M) >= max(38, h(n*) + 20), h Kapteyn's exponent.  The recurrence's
# relative error at a stored order n past the turning point is about
# exp(-2 (h(M) - h(n))), hence the 20.  The normalization sum misses about
# J_M, so its error goes like exp(-h(M)), hence the 38: at r = 80, nmax = 12
# a start of 114 was 3.9e-12 off mpmath and one of 122 1.6e-15.
def _newton_start(n_star, r, log_r, target, xp):
    """Three Newton steps on the concave target - h(x): the first, from
    n* + 1 + 10 r^(1/3), lands right of the root, the others stay there."""
    x = n_star + 1.0 + 10.0 * r ** (1.0 / 3.0)
    for _ in range(3):
        h, w = kapteyn(x, r, log_r, xp)
        x += (target - h) / w
    return x


def _start_order(nmax: int, r: float) -> int:
    """Recurrence start order for one argument: the loop's scalar form."""
    n_star = float(max(nmax, math.ceil(r)))
    log_r = math.log(r)
    target = max(38.0, kapteyn(n_star, r, log_r)[0] + 20.0)
    return math.ceil(_newton_start(n_star, r, log_r, target, math))


def _start_orders(nmax: int, rs: np.ndarray) -> np.ndarray:
    """``_start_order`` of every argument in ``rs``: the numpy kernel's form,
    equal to the scalar one integer for integer."""
    n_star = np.maximum(float(nmax), np.ceil(rs))
    log_r = np.log(rs)
    target = np.maximum(38.0, kapteyn(n_star, rs, log_r, np)[0] + 20.0)
    x = _newton_start(n_star, rs, log_r, target, np)
    starts = np.ceil(x).astype(np.int64)
    # np.log and math.log differ in the last bit for about one argument in a
    # thousand, which moves x by up to 5e-15 relative; where that could move
    # the ceiling, the scalar form decides
    near = np.abs(x - np.rint(x)) < 1e-9 * x
    starts[near] = [_start_order(nmax, r) for r in rs[near].tolist()]
    return starts


def _rows_kernel(nmax: int, rs: np.ndarray) -> np.ndarray:
    """The recurrence, one column at a time; a column below ``_TINY_R`` takes
    ``_leading_terms`` instead, and a negative, NaN or infinite argument
    raises ValueError."""
    out = np.zeros((nmax + 1, rs.shape[0]))
    tiny = []
    for j, r in enumerate(rs.tolist()):
        if not 0.0 <= r < math.inf:
            raise ValueError("rs must be finite and >= 0")
        if r < _TINY_R:
            tiny.append(j)
            continue
        m = _start_order(nmax, r)
        jp, jc = 0.0, 1e-300
        norm = 2.0 * jc if m % 2 == 0 else 0.0
        for l in range(m, nmax + 1, -1):  # orders m-1..nmax+1, m > nmax: not stored
            jp, jc = jc, (2.0 * l / r) * jc - jp
            if l % 2 == 1:  # even order l-1 > 0
                norm += 2.0 * jc
            if abs(jc) > _RESCALE:
                jc, jp, norm = jc * _INV_RESCALE, jp * _INV_RESCALE, norm * _INV_RESCALE
        vals, rescales = [], []
        for l in range(nmax + 1, 0, -1):  # orders nmax..0, stored
            jp, jc = jc, (2.0 * l / r) * jc - jp
            vals.append(jc)
            if l % 2 == 1:  # even order l-1
                norm += jc if l == 1 else 2.0 * jc
            if abs(jc) > _RESCALE:
                jc, jp, norm = jc * _INV_RESCALE, jp * _INV_RESCALE, norm * _INV_RESCALE
                rescales.append(l - 1)
        col = out[:, j]
        col[:] = vals[::-1]
        for order in rescales:  # each stored value meets the rescales after it, in order
            col[order:] *= _INV_RESCALE
        col /= norm
    if tiny:
        out[:, tiny] = _leading_terms(nmax, rs[tiny])
    return out


def _leading_terms(nmax: int, rs: np.ndarray) -> np.ndarray:
    """The power series' leading term (r/2)^n / n!, n = 0..nmax, at every
    argument in ``rs``: 1, 0, 0, ... at r = 0."""
    out = np.zeros((nmax + 1, rs.size))
    half, term = 0.5 * rs, np.ones(rs.size)
    out[0] = term
    for l in range(1, nmax + 1):
        term = term * half / l
        if not term.any():  # and so is every later one
            break
        out[l] = term
    return out


def _rows_numpy(nmax: int, rs: np.ndarray) -> np.ndarray:
    """The recurrence, vectorized across columns.  Column j starts at
    ``_start_orders(nmax, rs)[j]``, as in the loop, so its values depend on
    nothing but its argument."""
    n = rs.shape[0]
    starts = _start_orders(nmax, rs)
    # columns by decreasing start, so those running at order l are a prefix,
    # of length ends[top - l]; ties may come in any order
    perm = np.argsort(-starts)
    top = int(starts.max(initial=0))
    ends = np.searchsorted(-starts[perm], -np.arange(top, 0, -1), side="right")
    sorted_r = rs[perm]
    out = np.zeros((nmax + 1, n))
    jp, jc, jm = np.zeros(n), np.zeros(n), np.zeros(n)
    norm = np.zeros(n)
    k = 0
    for l, end in zip(range(top, 0, -1), ends.tolist()):
        if end > k:  # columns joining at order l; past the prefix all is zero
            jc[k:end] = 1e-300
            if l % 2 == 0:
                norm[k:end] = 2.0 * 1e-300
            k = end
            # views of the running prefix, rotated along with their buffers
            r_k, p_k, c_k, m_k = sorted_r[:k], jp[:k], jc[:k], jm[:k]
            norm_k, out_k = norm[:k], out[:, :k]
        np.divide(2.0 * l, r_k, out=m_k)
        m_k *= c_k
        m_k -= p_k
        jp, jc, jm = jc, jm, jp
        p_k, c_k, m_k = c_k, m_k, p_k
        order = l - 1
        if order <= nmax:
            out_k[order] = c_k
        if order % 2 == 0:
            norm_k += c_k if order == 0 else 2.0 * c_k
        big = np.abs(c_k) > _RESCALE
        if big.any():
            scale = np.where(big, _INV_RESCALE, 1.0)
            c_k *= scale
            p_k *= scale
            norm_k *= scale
            out_k[order:] *= scale
    out /= norm
    out[:, perm] = out.copy()
    return out


def bessel_rows(nmax: int, rs: np.ndarray) -> np.ndarray:
    """J_0..J_nmax at every argument in ``rs`` (finite, non-negative reals).

    Each column depends on its argument alone: it is, bit for bit, the
    column of a call with that argument by itself.
    """
    rs = np.asarray(rs, dtype=np.float64)
    if rs.ndim != 1:
        raise ValueError("rs must be one-dimensional")
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if rs.size <= _LOOP_MAX_COLUMNS:
        return _rows_kernel(nmax, rs)
    # a NaN, infinite or negative argument has no start order; cast, it would
    # sort first and stop the recurrence of every column
    if not (rs.min() >= 0.0 and rs.max() < math.inf):
        raise ValueError("rs must be finite and >= 0")
    tiny = rs < _TINY_R
    if not tiny.any():
        return _rows_numpy(nmax, rs)
    out = np.empty((nmax + 1, rs.size))
    out[:, tiny] = _leading_terms(nmax, rs[tiny])
    regular = rs[~tiny]
    kernel = _rows_kernel if regular.size <= _LOOP_MAX_COLUMNS else _rows_numpy
    out[:, ~tiny] = kernel(nmax, regular)
    return out


# Truncation of Hankel's expansion: the first neglected term a_K(nu) / x0^K is
# below this, with K > nu.  For x >= x0 and real nu, the remainders of P and Q
# are then bounded by their first neglected terms (DLMF 10.17(iii)), which
# only shrink as x grows.
_HANKEL_TAIL = 1e-17


def hankel_x0(order: int) -> float:
    """Smallest argument at which ``bessel_j_large`` serves ``J_order``.

    max(25, 2 nu^2): at x0 the first neglected term a_K(nu) / x0^K is below
    1e-17 (1.2e-18 to 8.5e-18) with K = 20 terms for nu <= 3 and K = 17, 14,
    12, 11, 11, 11 for nu = 4..9.  The smallest term at x = 25, nu = 0 is
    2e-23 (it falls about as e^-2x), so x0 cannot go much below 20.  Over nu
    in 0..9 and 402 arguments per order in [x0, 2000] the worst deviation
    from mpmath is 2.8e-17 absolute (one ulp of |J| ~ 0.16), against 6.4e-16
    for the recurrence at the same arguments.
    """
    return max(25.0, 2.0 * order * order)


@lru_cache(maxsize=64)
def _hankel_coeffs(order: int) -> np.ndarray:
    """Horner coefficients of P and Q in t = (x0/x)^2, one column each.

    Column 0 holds (-1)^j a_2j(nu) / x0^2j, column 1 (-1)^j a_2j+1(nu) /
    x0^(2j+1); Q is (x0/x) times the polynomial of column 1.  Scaling by x0
    keeps every coefficient below 1 in size for any order.
    """
    x0 = hankel_x0(order)
    four_nu2 = 4.0 * order * order
    terms = [1.0]
    while not (len(terms) - 1 > order and abs(terms[-1]) < _HANKEL_TAIL):
        k = len(terms)
        terms.append(terms[-1] * (four_nu2 - (2 * k - 1) ** 2) / (8.0 * k * x0))
    terms = np.array(terms[:-1])
    terms[2::4] *= -1.0  # (-1)^j on a_2j
    terms[3::4] *= -1.0  # and on a_2j+1
    coeffs = np.zeros(((terms.size + 1) // 2, 2))
    coeffs[:, 0] = terms[0::2]
    coeffs[: terms.size // 2, 1] = terms[1::2]
    coeffs.flags.writeable = False
    return coeffs


def bessel_j_large(order: int, xs: np.ndarray) -> np.ndarray:
    """J_order(x) = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - order pi/2 - pi/4,
    for every ``x >= hankel_x0(order)`` of ``xs``."""
    ratio = hankel_x0(order) / xs
    p, q = polyval(ratio * ratio, _hankel_coeffs(order))
    q = q * ratio
    # cos w and sin w from cos x, sin x and the phase (2 nu + 1) pi/4, whose
    # cosine and sine are +-1/sqrt(2); the 1/sqrt(2) joins the prefactor.
    c = 1.0 if order % 4 in (0, 3) else -1.0
    s = 1.0 if order % 4 in (0, 1) else -1.0
    return (np.cos(xs) * (c * p + s * q) + np.sin(xs) * (s * p - c * q)) / np.sqrt(math.pi * xs)


def bessel_j_col(orders, args: np.ndarray) -> np.ndarray:
    """J_nu at every (non-negative) argument of ``args``, for one order or one
    row per order of a sequence.  Each order takes Hankel's expansion from its
    own ``hankel_x0`` on; a value depends on its argument and the largest
    order alone."""
    many = np.ndim(orders) > 0
    orders = np.atleast_1d(orders).tolist()
    if min(orders) < 0:
        raise DomainError("order must be >= 0")
    args = np.asarray(args, dtype=np.float64)
    small = ~(args >= hankel_x0(max(orders)))  # NaN goes to bessel_rows, which rejects it
    rows = bessel_rows(max(orders), args[small])
    out = np.empty((len(orders), args.size))
    for col, order in zip(out, orders):
        large = args >= hankel_x0(order)
        col[large] = bessel_j_large(order, args[large])
        col[~large] = rows[order, ~large[small]]
    return out if many else out[0]

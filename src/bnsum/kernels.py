"""Hot numeric kernels: integer-order Bessel J rows and columns.

``bessel_rows(nmax, rs)`` returns a ``(nmax+1, len(rs))`` array with
``J_0(r)..J_nmax(r)`` per column.  The recurrence runs downward from a start
order safely above the turning point ``l ~ r`` (upward recurrence is unstable
for order > argument) and is normalized with ``J_0 + 2*sum_k J_{2k} = 1``.
For ``0 < r < _TINY_R`` the recurrence overflows, and the column is the
leading term ``(r/2)^n / n!`` of the power series instead.

Two implementations are provided: a per-argument loop, ``_rows_kernel``, and
a numpy kernel vectorized across arguments, ``_rows_numpy``.  With numba the
loop is compiled and runs every call.  Without numba (not installed, or
``BNSUM_NO_NUMBA=1``; see :mod:`bnsum.backend`) the loop runs as plain Python
for calls of at most ``_LOOP_MAX_COLUMNS`` arguments and the numpy kernel runs
the rest.  Both start each column at ``_start_order`` of its own argument and
do the same arithmetic, so a column depends on its argument alone: whatever
else a call holds and whichever kernel runs it, it is bit for bit the column
of a one-argument call.

The loop is written so that, as plain Python, it runs on Python floats: it
casts its argument with ``float(rs[j])``, and every step then does the same
IEEE double arithmetic as with a numpy scalar, at a fraction of the cost.  It
splits at ``nmax``: the orders above it (at least 20 of them) store nothing
and so skip the store and its test; the orders ``nmax..0`` store into a 1-D
view of the column, which a rescale scales from the current order up and one
in-place division normalizes at the end.  Both halves stay compilable by
numba.

``bessel_j_col(nu, xs)``, a column of one order over many arguments (the
quadrature's ``J_nu(2 r cos phi)``), has two regimes.  Below ``hankel_x0(nu)``
it is row ``nu`` of ``bessel_rows``; from there on, where the recurrence would
have to start above the largest argument, ``bessel_j_large`` sums Hankel's
expansion (DLMF 10.17.3) in a fixed number of terms, the first neglected one
below 1e-17.  In both a value depends on its argument alone, so batching
arguments cannot move one.  Given several orders, ``bessel_j_col`` returns
one column per order, all below the largest order's x0 read off one
``bessel_rows`` call; an order below the largest then agrees with its
one-order column to rounding (within 2e-15), not bit for bit.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.polynomial import polyval

from .backend import USE_NUMBA, njit
from .errors import DomainError

_RESCALE = 1e250
_INV_RESCALE = 1e-250
# Without numba, calls with at most this many arguments run the plain-Python
# loop: its cost grows with the column count, the numpy kernel's per-order
# overhead does not.  Best of 7 on 2 CPUs, numpy 2.4, r in [1, 100], numpy vs
# loop: nmax 150 takes 1.36 vs 0.39 ms at 8 columns, 1.21 vs 0.92 at 16,
# 1.22 vs 1.14 at 24 and 1.29 vs 1.60 at 32; nmax 600 takes 6.5 vs 2.1 ms at
# 8, 4.3 vs 3.1 at 16, 4.2 vs 4.1 at 24 and 4.7 vs 5.9 at 32.
_LOOP_MAX_COLUMNS = 24
# Below this the step (2l/r)*jc overflows before a rescale can act (from
# r ~ 1e-57 on); the power series' next term is smaller by (r/2)^2 < 1e-100.
_TINY_R = 1e-50


def _start_order(nmax: int, rs: np.ndarray) -> np.ndarray:
    """Recurrence start order for each argument in ``rs``."""
    # Must clear the turning point: for r >> nmax the minimal solution only
    # starts decaying past l ~ r, so the start order is anchored at
    # max(nmax, r), not nmax alone.
    big = np.maximum(np.maximum(float(nmax), rs), 1.0)
    return (
        np.maximum(nmax, np.ceil(rs)).astype(np.int64)
        + 10
        + np.ceil(10.0 * np.sqrt(big)).astype(np.int64)
    )


@njit(cache=True)
def _rows_kernel(nmax, rs, starts, out):  # pragma: no cover - exercised via wrapper
    for j in range(rs.shape[0]):
        r = float(rs[j])
        col = out[:, j]
        if r == 0.0:
            col[0] = 1.0
            col[1:] = 0.0
            continue
        if r < _TINY_R:  # (r/2)^n / n!, built as in _rows_numpy
            term = 1.0
            col[0] = term
            for l in range(1, nmax + 1):
                term = term * (0.5 * r) / l
                col[l] = term
            continue
        m = int(starts[j])  # at least nmax + 20: nothing is stored at it
        jp = 0.0
        jc = 1e-300
        norm = 2.0 * jc if m % 2 == 0 else 0.0
        for l in range(m, nmax + 1, -1):  # orders m-1..nmax+1: nothing stored
            jm = (2.0 * l / r) * jc - jp
            jp = jc
            jc = jm
            if l % 2 == 1:  # even order l-1 > 0
                norm += 2.0 * jc
            if abs(jc) > _RESCALE:
                jc *= _INV_RESCALE
                jp *= _INV_RESCALE
                norm *= _INV_RESCALE
        for l in range(nmax + 1, 0, -1):  # orders nmax..0, stored
            jm = (2.0 * l / r) * jc - jp
            jp = jc
            jc = jm
            order = l - 1
            col[order] = jc
            if order % 2 == 0:
                if order > 0:
                    norm += 2.0 * jc
                else:
                    norm += jc
            if abs(jc) > _RESCALE:
                jc *= _INV_RESCALE
                jp *= _INV_RESCALE
                norm *= _INV_RESCALE
                col[order:] *= _INV_RESCALE
        col /= norm


def _rows_numpy(nmax: int, rs: np.ndarray) -> np.ndarray:
    """The recurrence, vectorized across columns.  Column j starts at
    ``_start_order(nmax, rs)[j]``, as in the loop, so its values depend on
    nothing but its argument."""
    n = rs.shape[0]
    zero = rs == 0.0
    tiny = (rs > 0.0) & (rs < _TINY_R)
    starts = _start_order(nmax, rs)
    # columns by decreasing start, so those running at order l are a prefix,
    # of length ends[top - l]; ties may come in any order
    perm = np.argsort(-starts)
    top = int(starts.max(initial=0))
    ends = np.searchsorted(-starts[perm], -np.arange(top, 0, -1), side="right")
    safe_r = np.where(zero | tiny, 1.0, rs)[perm]
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
            r_k, p_k, c_k, m_k = safe_r[:k], jp[:k], jc[:k], jm[:k]
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
    if zero.any():
        out[:, zero] = 0.0
        out[0, zero] = 1.0
    if tiny.any():
        half = 0.5 * rs[tiny]
        term = np.ones(half.size)
        out[0, tiny] = term
        for l in range(1, nmax + 1):
            term = term * half / l
            out[l, tiny] = term
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
    if rs.size == 0:
        return np.zeros((nmax + 1, 0))
    # a NaN, infinite or negative argument has no start order; cast, it would
    # sort first and stop the recurrence of every column
    if not (rs.min() >= 0.0 and rs.max() < math.inf):
        raise ValueError("rs must be finite and >= 0")
    if USE_NUMBA or rs.size <= _LOOP_MAX_COLUMNS:
        out = np.zeros((nmax + 1, rs.shape[0]))
        _rows_kernel(nmax, rs, _start_order(nmax, rs), out)
        return out
    return _rows_numpy(nmax, rs)


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

"""Hot numeric kernels: integer-order Bessel J rows by backward recurrence.

``bessel_rows(nmax, rs)`` returns a ``(nmax+1, len(rs))`` array with
``J_0(r)..J_nmax(r)`` per column.  The recurrence runs downward from a start
order safely above the turning point ``l ~ r`` (upward recurrence is unstable
for order > argument) and is normalized with ``J_0 + 2*sum_k J_{2k} = 1``.

Two implementations are provided: a per-argument loop, ``_rows_kernel``, and
a numpy kernel vectorized across arguments, ``_rows_numpy``.  With numba the
loop is compiled and runs every call.  Without numba (not installed, or
``BNSUM_NO_NUMBA=1``; see :mod:`bnsum.backend`) the loop runs as plain Python
for calls of at most ``_LOOP_MAX_COLUMNS`` arguments and the numpy kernel runs
the rest.  For one argument both do the same arithmetic, bit for bit.
"""
from __future__ import annotations

import numpy as np

from .backend import USE_NUMBA, njit

_RESCALE = 1e250
_INV_RESCALE = 1e-250
# Without numba, calls with at most this many arguments run the plain-Python
# loop: its cost grows with the column count, the numpy kernel's per-order
# overhead does not.  Measured on 2 CPUs with r in [1, 100], numpy vs loop:
# nmax 150 takes 1.36 vs 0.62 ms at 4 columns, 1.36 vs 1.29 at 8 and
# 1.33 vs 2.38 at 16; nmax 600 takes 3.9 vs 2.8 ms at 4 and 4.7 vs 5.2 at 8.
_LOOP_MAX_COLUMNS = 4


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
        r = rs[j]
        if r == 0.0:
            out[0, j] = 1.0
            for l in range(1, nmax + 1):
                out[l, j] = 0.0
            continue
        m = starts[j]
        jp = 0.0
        jc = 1e-300
        norm = 0.0
        top = nmax  # highest order stored so far (exclusive bookkeeping)
        if m % 2 == 0:
            norm = 2.0 * jc if m > 0 else jc
        if m <= nmax:
            out[m, j] = jc
            top = m
        for l in range(m, 0, -1):
            jm = (2.0 * l / r) * jc - jp
            jp = jc
            jc = jm
            order = l - 1
            if order <= nmax:
                out[order, j] = jc
                top = order
            if order % 2 == 0:
                if order > 0:
                    norm += 2.0 * jc
                else:
                    norm += jc
            if abs(jc) > _RESCALE:
                jc *= _INV_RESCALE
                jp *= _INV_RESCALE
                norm *= _INV_RESCALE
                for k in range(top, nmax + 1):
                    out[k, j] *= _INV_RESCALE
        for l in range(0, nmax + 1):
            out[l, j] /= norm


def _rows_numpy(nmax: int, rs: np.ndarray) -> np.ndarray:
    n = rs.shape[0]
    out = np.zeros((nmax + 1, n))
    zero = rs == 0.0
    safe_r = np.where(zero, 1.0, rs)
    m = max(int(_start_order(nmax, rs).max(initial=0)), nmax + 1)
    jp = np.zeros(n)
    jc = np.full(n, 1e-300)
    norm = np.zeros(n)
    if m % 2 == 0:
        norm += 2.0 * jc
    if m <= nmax:
        out[m] = jc
    for l in range(m, 0, -1):
        jm = (2.0 * l / safe_r) * jc - jp
        jp = jc
        jc = jm
        order = l - 1
        if order <= nmax:
            out[order] = jc
        if order % 2 == 0:
            norm += jc if order == 0 else 2.0 * jc
        big = np.abs(jc) > _RESCALE
        if big.any():
            scale = np.where(big, _INV_RESCALE, 1.0)
            jc = jc * scale
            jp = jp * scale
            norm = norm * scale
            out[order:] *= scale
    out /= norm
    if zero.any():
        out[:, zero] = 0.0
        out[0, zero] = 1.0
    return out


def bessel_rows(nmax: int, rs: np.ndarray) -> np.ndarray:
    """J_0..J_nmax at every argument in ``rs`` (non-negative reals)."""
    rs = np.asarray(rs, dtype=np.float64)
    if rs.ndim != 1:
        raise ValueError("rs must be one-dimensional")
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if rs.size == 0:
        return np.zeros((nmax + 1, 0))
    if USE_NUMBA or rs.size <= _LOOP_MAX_COLUMNS:
        out = np.zeros((nmax + 1, rs.shape[0]))
        _rows_kernel(nmax, rs, _start_order(nmax, rs), out)
        return out
    return _rows_numpy(nmax, rs)


"""Numba-or-numpy backend selection.

The hot kernels in :mod:`bnsum.kernels` are compiled with numba when it is
available.  Set ``BNSUM_NO_NUMBA=1`` to run without numba (used by the
benchmark and as a safety hatch on platforms without a working LLVM): the
per-argument Bessel-row loop then runs as plain Python for calls of up to
``kernels._LOOP_MAX_COLUMNS`` arguments, and the vectorized numpy kernel runs
calls of more.
"""
import os

USE_NUMBA = os.environ.get("BNSUM_NO_NUMBA", "").lower() not in ("1", "true", "yes")

if USE_NUMBA:
    try:
        from numba import njit  # noqa: F401
    except ImportError:  # pragma: no cover
        USE_NUMBA = False

if not USE_NUMBA:
    def njit(*args, **kwargs):  # noqa: F811
        if args and callable(args[0]):
            return args[0]

        def deco(func):
            return func

        return deco


def thread_cap() -> int:
    """CPU cap from BNSUM_THREADS (default: CPU count); no bnsum code reads it.

    Kept only for the ``bnsum_threads`` field of ``perfbench/run.py``'s
    environment block; it goes when a benchmark change removes that field."""
    raw = os.environ.get("BNSUM_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return n

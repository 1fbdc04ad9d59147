"""Names that ``perfbench/run.py`` reads for its environment block.

bnsum has one backend, numpy: no bnsum code reads either name.  Both go
with the next benchmark change, which drops them from that block.
"""
import os

USE_NUMBA = False


def thread_cap() -> int:
    """CPU cap from BNSUM_THREADS (default: CPU count)."""
    raw = os.environ.get("BNSUM_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return n

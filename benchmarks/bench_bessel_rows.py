"""Benchmark the Bessel-row kernel against the numpy kernel.

The many-argument cases time ``bessel_rows`` only when numba is active (it
runs the numpy kernel otherwise).  The one-argument case, 400 calls of one
argument each at nmax 600, always does: ``bessel_rows`` runs the loop
kernel there, compiled with numba and plain Python without.

Usage: python benchmarks/bench_bessel_rows.py [repeats]
"""
import sys
import time

import numpy as np

from bnsum.backend import USE_NUMBA
from bnsum.kernels import bessel_rows, bessel_rows_numpy


def timeit(fn, *args, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


ONE_ARG_NMAX = 600


def _per_arg(fn, rs):
    for r in rs:
        fn(ONE_ARG_NMAX, np.array([r]))


def main():
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    rng = np.random.default_rng(42)
    cases = [
        ("small rows, many args", 20, rng.uniform(0.1, 30.0, 20000)),
        ("medium rows", 200, rng.uniform(1.0, 150.0, 2000)),
        ("large rows, few args", 1200, rng.uniform(100.0, 900.0, 200)),
    ]
    if USE_NUMBA:
        bessel_rows(8, np.array([1.0]))  # trigger jit compile outside the timing
    print(f"numba available and active: {USE_NUMBA}")
    print(f"{'case':28s} {'active':>10s} {'numpy':>10s} {'speedup':>8s}")
    for name, nmax, rs in cases:
        t_numpy = timeit(bessel_rows_numpy, nmax, rs, repeats=repeats)
        if USE_NUMBA:
            t_active = timeit(bessel_rows, nmax, rs, repeats=repeats)
            print(f"{name:28s} {t_active * 1e3:8.2f}ms {t_numpy * 1e3:8.2f}ms "
                  f"{t_numpy / t_active:7.1f}x")
        else:
            print(f"{name:28s} {'-':>10s} {t_numpy * 1e3:8.2f}ms {'':>8s}")
        ref = bessel_rows_numpy(nmax, rs)
        got = bessel_rows(nmax, rs)
        assert np.allclose(ref, got, atol=1e-14), "backends disagree"

    one_arg = rng.uniform(1.0, 900.0, 400)
    t_numpy = timeit(_per_arg, bessel_rows_numpy, one_arg, repeats=repeats)
    t_active = timeit(_per_arg, bessel_rows, one_arg, repeats=repeats)
    print(f"{'400 calls x 1 arg':28s} {t_active * 1e3:8.2f}ms {t_numpy * 1e3:8.2f}ms "
          f"{t_numpy / t_active:7.1f}x")
    for r in one_arg:
        assert np.array_equal(bessel_rows(ONE_ARG_NMAX, [r]),
                              bessel_rows_numpy(ONE_ARG_NMAX, [r])), "backends disagree"


if __name__ == "__main__":
    main()

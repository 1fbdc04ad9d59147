"""Benchmark the amplitude F on far angles: cached Chebyshev expansion vs quadrature.

``f_phase(*lerch_factor(...))`` evaluates F at every far angle
(``|2 phi - pi| >= 0.35``) from a Chebyshev expansion of the Lerch factor,
built once per ``(alpha, beta+1)`` from the quadrature
``specfun._lerch_integral_many`` at 128 angles.  This times it on 4,096 seeded
far angles cold (cache cleared, so the build is included) and warm, against F
formed from the quadrature at every angle, as it was before the expansion.  The quadrature runs in blocks of 512
angles so that its ``(t nodes, angles)`` matrix stays under ~75 MB.

Exits 1 if the two differ by more than 1e-13 of max|F| in any case.

Usage: python benchmarks/bench_lerch.py [repeats]
"""
import math
import os
import platform
import sys
import time

import numpy as np

from bnsum import specfun
from bnsum.fseries import f_phase, lerch_factor

NODES = 4096
TOL = 1e-13
CASES = [(0.15, 0.0, 1), (0.5, 0.5, 0), (1.0, -0.5, 2), (1.5, 0.0, 3), (3.0, 1.0, 0)]


def far_angles(rng: np.random.Generator, n: int) -> np.ndarray:
    phis = rng.uniform(0.0, math.pi, 2 * n)
    return phis[np.abs(2.0 * phis - math.pi) >= specfun._NEAR_HALF_PI][:n]


def f_cached(alpha: float, beta: float, mu: int, phis: np.ndarray) -> np.ndarray:
    return f_phase(*lerch_factor(alpha, beta, phis), mu)


def f_quadrature(alpha: float, beta: float, mu: int, phis: np.ndarray) -> np.ndarray:
    lam = np.concatenate([specfun._lerch_integral_many(block, alpha, beta + 1.0)
                          for block in np.array_split(phis, len(phis) // 512)])
    return np.real(-np.exp(1j * phis * (mu + 2)) * lam)


def best_of(fn, repeats: int, before=None) -> float:
    best = math.inf
    for _ in range(repeats):
        if before is not None:
            before()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    phis = far_angles(np.random.default_rng(7), NODES)
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} CPUs, {phis.size} far angles, best of {repeats}")
    print(f"{'alpha':>6s} {'beta':>5s} {'mu':>3s} {'t nodes':>8s} {'quadrature':>11s} "
          f"{'cold':>9s} {'warm':>9s} {'deviation':>10s}")
    failed = False
    for alpha, beta, mu in CASES:
        case = (alpha, beta, mu, phis)
        t_quad = best_of(lambda: f_quadrature(*case), max(1, repeats // 2))
        t_cold = best_of(lambda: f_cached(*case), repeats,
                         before=specfun._far_coeffs.cache_clear)
        t_warm = best_of(lambda: f_cached(*case), repeats)
        ref = f_quadrature(*case)
        dev = float(np.max(np.abs(f_cached(*case) - ref)) / np.max(np.abs(ref)))
        failed |= not dev <= TOL
        t_nodes = specfun._lerch_t_grid(alpha, beta + 1.0)[0].size
        print(f"{alpha:6.2f} {beta:5.2f} {mu:3d} {t_nodes:8d} {t_quad * 1e3:9.1f}ms "
              f"{t_cold * 1e3:7.2f}ms {t_warm * 1e3:7.2f}ms {dev:10.1e}")
    if failed:
        print(f"FAIL: deviation above {TOL:.0e} of max|F|")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

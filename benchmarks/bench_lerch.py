"""Benchmark the Lerch factor of F: the far table, its accuracy and the local series.

``f_phase(lerch_unit_many(eps, ...), eps, ...)`` evaluates F at
phi = pi/2 - eps for every far angle (``|2 eps| >= 0.35``) from piecewise
Chebyshev expansions of the Lerch factor, built once per ``(alpha, beta+1)``
from the quadrature ``specfun._lerch_integral_many`` at 160 angles, 20 on each
of 8 pieces.  For each case this prints
the quadrature's t-node count, the best-of-N cold build of the table
(``specfun._far_coeffs``, cache cleared) and the build's ``tracemalloc``
peak.  It then times F on 4,096 seeded far angles cold (the build included)
and warm, against F formed from the quadrature at every angle, and prints the
largest difference of the two relative to max|F|.  Last come the largest
deviations of the quadrature and of the cached expansion from 20-digit
``mpmath.lerchphi`` at 8 far angles, relative to max|Phi|.

One more row times ``specfun.lerch_local_many`` (warm, alpha = 0.5 and 2,
v = 1) on 1,000, 5,000 and 20,000 seeded points ell in [-0.35, 0.35], the
reach of the near-angle nodes.

It runs on one BLAS thread, as ``perfbench`` does, unless
``OPENBLAS_NUM_THREADS`` says otherwise.  The build itself calls no BLAS:
on a 2-CPU host, waking BLAS worker threads for its two small products cost
4-16 ms per build when they were matrix products.

With ``--json PATH`` it also writes every row to PATH, with an environment
block: CPU count, BLAS threads, numpy and python versions, repeats.

Exits 1 if the cached expansion and the quadrature differ by more than 1e-13
of max|F| in any case.

Usage: python benchmarks/bench_lerch.py [repeats] [--json PATH]
"""
import argparse
import json
import math
import os
import platform
import sys
import time
import tracemalloc

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import mpmath
import numpy as np

from bnsum import specfun
from bnsum.fseries import f_phase

NODES = 4096
TOL = 1e-13
CASES = [(0.02, -0.99, 0), (0.05, 0.0, 1), (0.15, 0.0, 1), (0.5, 0.5, 0), (1.0, -0.5, 2),
         (1.5, 0.0, 3), (3.0, 1.0, 0)]
MP_ANGLES = 8
LOCAL_SIZES = (1000, 5000, 20000)
LOCAL_ALPHAS = (0.5, 2.0)


def far_angles(rng: np.random.Generator, n: int) -> np.ndarray:
    phis = rng.uniform(0.0, math.pi, 2 * n)
    return phis[np.abs(2.0 * phis - math.pi) >= specfun._NEAR_HALF_PI][:n]


def f_cached(alpha: float, beta: float, mu: int, phis: np.ndarray) -> np.ndarray:
    eps = math.pi / 2.0 - phis
    return f_phase(specfun.lerch_unit_many(eps, alpha, beta + 1.0), eps, mu)


def f_quadrature(alpha: float, beta: float, mu: int, phis: np.ndarray) -> np.ndarray:
    lam = specfun._lerch_integral_many(phis, alpha, beta + 1.0)
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


def build_peak_mib(alpha: float, v: float) -> float:
    specfun._far_coeffs.cache_clear()
    tracemalloc.start()
    try:
        specfun._far_coeffs(alpha, v)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def mpmath_deviations(alpha: float, v: float, phis: np.ndarray) -> tuple[float, float]:
    """Largest |quadrature - mpmath| and |cached - mpmath| over ``phis``, / max|Phi|."""
    with mpmath.workdps(20):
        want = np.array([complex(mpmath.lerchphi(-mpmath.exp(2j * mpmath.mpf(float(p))),
                                                 alpha, v)) for p in phis])
    scale = np.max(np.abs(want))
    quad = specfun._lerch_integral_many(phis, alpha, v)
    cheb = specfun.lerch_unit_many(math.pi / 2.0 - phis, alpha, v)
    return (float(np.max(np.abs(quad - want)) / scale),
            float(np.max(np.abs(cheb - want)) / scale))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("repeats", type=int, nargs="?", default=5)
    ap.add_argument("--json", metavar="PATH", help="also write every row to PATH")
    args = ap.parse_args()
    repeats = args.repeats
    rng = np.random.default_rng(7)
    phis = far_angles(rng, NODES)
    mp_phis = far_angles(rng, MP_ANGLES)
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "cpus": os.cpu_count(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
           "repeats": repeats}
    print(f"python {env['python']}, numpy {env['numpy']}, {env['cpus']} CPUs, "
          f"{env['blas_threads']} BLAS thread(s), {phis.size} far angles, best of {repeats}")
    print(f"{'alpha':>6s} {'beta':>5s} {'mu':>3s} {'t nodes':>8s} {'build':>8s} {'peak':>9s} "
          f"{'quadrature':>11s} {'cold':>9s} {'warm':>9s} {'deviation':>10s} "
          f"{'mp quad':>8s} {'mp cheb':>8s}")
    failed = False
    rows = []
    for alpha, beta, mu in CASES:
        v = beta + 1.0
        case = (alpha, beta, mu, phis)
        t_nodes = specfun._lerch_t_grid(alpha, v)[0].size
        t_build = best_of(lambda: specfun._far_coeffs(alpha, v), repeats,
                          before=specfun._far_coeffs.cache_clear)
        peak = build_peak_mib(alpha, v)
        t_quad = best_of(lambda: f_quadrature(*case), max(1, repeats // 2))
        t_cold = best_of(lambda: f_cached(*case), repeats,
                         before=specfun._far_coeffs.cache_clear)
        t_warm = best_of(lambda: f_cached(*case), repeats)
        ref = f_quadrature(*case)
        dev = float(np.max(np.abs(f_cached(*case) - ref)) / np.max(np.abs(ref)))
        failed |= not dev <= TOL
        mp_quad, mp_cheb = mpmath_deviations(alpha, v, mp_phis)
        rows.append({"kind": "far", "alpha": alpha, "beta": beta, "mu": mu,
                     "t_nodes": t_nodes, "build_ms": t_build * 1e3, "build_peak_mib": peak,
                     "quadrature_ms": t_quad * 1e3, "cold_ms": t_cold * 1e3,
                     "warm_ms": t_warm * 1e3, "dev": dev,
                     "mpmath_dev_quadrature": mp_quad, "mpmath_dev_cached": mp_cheb})
        print(f"{alpha:6.2f} {beta:5.2f} {mu:3d} {t_nodes:8d} {t_build * 1e3:6.2f}ms "
              f"{peak:6.2f}MiB {t_quad * 1e3:9.1f}ms {t_cold * 1e3:7.2f}ms "
              f"{t_warm * 1e3:7.2f}ms {dev:10.1e} {mp_quad:8.1e} {mp_cheb:8.1e}")

    reach = specfun._NEAR_HALF_PI
    print(f"lerch_local_many, warm, v = 1, ell in [-{reach}, {reach}]: "
          + ", ".join(f"{n} points" for n in LOCAL_SIZES))
    for alpha in LOCAL_ALPHAS:
        times = []
        for n in LOCAL_SIZES:
            ells = rng.uniform(-reach, reach, n)
            specfun.lerch_local_many(ells, alpha, 1.0)
            times.append(best_of(lambda: specfun.lerch_local_many(ells, alpha, 1.0),
                                 repeats) * 1e3)
        rows.append({"kind": "local", "alpha": alpha, "v": 1.0, "points": list(LOCAL_SIZES),
                     "warm_ms": times})
        print(f"  alpha {alpha:4.1f}: " + " ".join(f"{t:7.3f}ms" for t in times))
    if failed:
        print(f"FAIL: deviation above {TOL:.0e} of max|F|")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"environment": env, "failed": failed, "rows": rows}, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

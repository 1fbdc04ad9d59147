"""Benchmark the integral routes' quadrature mesh: work and time against r.

Prints the work (quadrature nodes summed over the refinement levels) and the
warm time of ``eval_hankel`` at r in {5, 30, 100, 200, 400, 1000} for three
specs, ``a`` = -0.5, -0.3 (both with the ``alpha < 1`` singular amplitude) and
-1.5.  Warm means the cached Lerch expansion of ``F`` is already built: one
untimed call precedes the best of the timed ones.  Then it times one
``eval_exp2d`` at a = -0.5, r = 90 and prints the process's peak resident set
(``ru_maxrss``).  The exp2d case runs first, so that peak is that of the import
and the exp2d call alone.

Exits 1 if a Hankel value differs from the oracle (``sum_series`` at tol
1e-13) by more than 1e-8, or if it does not converge; and if the exp2d value
differs by more than 1e-7.

Usage: python benchmarks/bench_hankel.py [repeats]
"""
import math
import os
import platform
import resource
import sys
import time

import numpy as np

from bnsum.backend import USE_NUMBA
from bnsum.direct import SeriesSpec, sum_series
from bnsum.errors import ConvergenceError
from bnsum.quadrature import eval_exp2d, eval_hankel

RS = (5.0, 30.0, 100.0, 200.0, 400.0, 1000.0)
SPECS = (SeriesSpec(-0.5, 0.0, 1, 0), SeriesSpec(-0.3, 0.2, 3, 2), SeriesSpec(-1.5, 0.5, 1, 0))
HANKEL_TOL = 1e-8
EXP2D_SPEC, EXP2D_R, EXP2D_TOL = SeriesSpec(-0.5, 0.0, 0, 0), 90.0, 1e-7


def oracle(spec: SeriesSpec, r: float) -> float:
    return sum_series(spec, r, tol=1e-13).value


def main() -> int:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"numba {'on' if USE_NUMBA else 'off'}, {os.cpu_count()} CPUs, best of {repeats}")
    failed = False

    t0 = time.perf_counter()
    res = eval_exp2d(EXP2D_SPEC, EXP2D_R)
    t_exp2d = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    dev = abs(res.value - oracle(EXP2D_SPEC, EXP2D_R))
    failed |= not dev <= EXP2D_TOL
    print(f"exp2d a={EXP2D_SPEC.a} r={EXP2D_R:g}: work {res.work}, {t_exp2d * 1e3:.0f} ms, "
          f"peak RSS {peak_mb:.0f} MB, |exp2d - oracle| {dev:.1e}")

    print(f"{'a':>5s} {'beta':>4s} {'m':>2s} {'mp':>2s} {'r':>6s} {'work':>7s} "
          f"{'warm':>9s} {'|hankel - oracle|':>18s}")
    for spec in SPECS:
        for r in RS:
            head = f"{spec.a:5.1f} {spec.beta:4.1f} {spec.m:2d} {spec.m_prime:2d} {r:6g}"
            try:
                res = eval_hankel(spec, r)
            except ConvergenceError as exc:
                failed = True
                print(f"{head} FAIL: {exc}")
                continue
            best = math.inf
            for _ in range(repeats):
                t0 = time.perf_counter()
                eval_hankel(spec, r)
                best = min(best, time.perf_counter() - t0)
            dev = abs(res.value - oracle(spec, r))
            failed |= not dev <= HANKEL_TOL
            print(f"{head} {res.work:7d} {best * 1e3:7.1f}ms {dev:18.1e}")
    if failed:
        print(f"FAIL: a value off the oracle (hankel {HANKEL_TOL:.0e}, exp2d {EXP2D_TOL:.0e}) "
              "or not converged")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark the two Bessel-row kernels, the plain-Python loop
``_rows_kernel`` and the numpy kernel ``_rows_numpy``, against each other,
and the quadrature's Bessel column ``bessel_j_col``.

The many-argument cases time both kernels on the same arguments, although
``bessel_rows`` sends calls of more than ``_LOOP_MAX_COLUMNS`` arguments to
the numpy kernel.  The one-argument case, 400 calls of one argument each at
nmax 600, times both kernels too; ``bessel_rows`` runs the loop there.  The
oracle-length case times one one-argument row per r in {5, 50, 400, 1,000,
2,000}, each at the nmax ``sum_series`` certifies at tol 1e-12 for
m = m' = 0, a = 0, beta = 0: the rows every oracle sum runs.

The column cases take the arguments of ``eval_hankel``'s mesh,
``2 r cos(phi)`` and ``2 r sin(eps)`` from ``quadrature._half_mesh`` at
a = -0.5: level 0 for r in {100, 1000}, and level 2 for r = 12, where every
argument is below ``hankel_x0`` and so runs the recurrence.  A last case
takes 4,000 arguments spread uniformly below 25.  Each case, for nu in
{0, 3}, prints the time of its ``bessel_j_col`` calls and the largest
|error| against mpmath on 50 seeded arguments of them.

Every result of the loop is checked bit for bit against the numpy kernel's.

Usage: python benchmarks/bench_bessel_rows.py [repeats]
"""
import sys
import time

import mpmath
import numpy as np

from bnsum.direct import _certified_length
from bnsum.kernels import _rows_kernel, _rows_numpy, bessel_j_col
from bnsum.quadrature import _half_mesh


def timeit(fn, *args, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


ONE_ARG_NMAX = 600
ORACLE_RS = (5.0, 50.0, 400.0, 1000.0, 2000.0)


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
    print(f"{'case':28s} {'loop':>10s} {'numpy':>10s} {'speedup':>8s}")
    for name, nmax, rs in cases:
        t_loop = timeit(_rows_kernel, nmax, rs, repeats=repeats)
        t_numpy = timeit(_rows_numpy, nmax, rs, repeats=repeats)
        print(f"{name:28s} {t_loop * 1e3:8.2f}ms {t_numpy * 1e3:8.2f}ms "
              f"{t_numpy / t_loop:7.2f}x")
        assert np.array_equal(_rows_kernel(nmax, rs), _rows_numpy(nmax, rs)), \
            "kernels disagree"

    one_arg = rng.uniform(1.0, 900.0, 400)
    t_loop = timeit(_per_arg, _rows_kernel, one_arg, repeats=repeats)
    t_numpy = timeit(_per_arg, _rows_numpy, one_arg, repeats=repeats)
    print(f"{'400 calls x 1 arg':28s} {t_loop * 1e3:8.2f}ms {t_numpy * 1e3:8.2f}ms "
          f"{t_numpy / t_loop:7.2f}x")
    for r in one_arg:
        arg = np.array([r])
        assert np.array_equal(_rows_kernel(ONE_ARG_NMAX, arg),
                              _rows_numpy(ONE_ARG_NMAX, arg)), "kernels disagree"

    print(f"{'oracle-length row':28s} {'nmax':>7s} {'loop':>10s} {'numpy':>10s}")
    for r in ORACLE_RS:
        nmax = _certified_length(0, 0, 0.0, 0.0, r, 1e-12)
        arg = np.array([r])
        t_loop = timeit(_rows_kernel, nmax, arg, repeats=repeats)
        t_numpy = timeit(_rows_numpy, nmax, arg, repeats=repeats)
        print(f"{f'r={r:g}':28s} {nmax:7d} {t_loop * 1e3:8.3f}ms {t_numpy * 1e3:8.3f}ms")
        assert np.array_equal(_rows_kernel(nmax, arg), _rows_numpy(nmax, arg)), \
            "kernels disagree"

    mpmath.mp.dps = 30
    print(f"{'bessel_j_col on the mesh':28s} {'args':>7s} {'time':>10s} {'max |err|':>10s}")
    col_cases = []
    for r, level in ((100.0, 0), (1000.0, 0), (12.0, 2)):
        nodes, _, eps, _ = _half_mesh(r, 0.5, level)
        col_cases.append((f"r={r:g} level {level}",
                          (2.0 * r * np.cos(nodes), 2.0 * r * np.sin(eps))))
    col_cases.append(("uniform x < 25", (rng.uniform(0.0, 25.0, 4000),)))
    for name, cols in col_cases:
        for nu in (0, 3):
            t_col = sum(timeit(bessel_j_col, nu, x, repeats=repeats) for x in cols)
            xs = np.concatenate(cols)
            sample = rng.choice(xs, 50, replace=False)
            want = np.array([float(mpmath.besselj(nu, mpmath.mpf(float(x)))) for x in sample])
            err = np.max(np.abs(bessel_j_col(nu, sample) - want))
            print(f"{f'{name} nu={nu}':28s} {xs.size:7d} {t_col * 1e3:8.2f}ms {err:10.1e}")


if __name__ == "__main__":
    main()

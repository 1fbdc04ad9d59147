"""Benchmark the integral routes' quadrature mesh: work and time against r.

Prints the work (quadrature nodes summed over the refinement levels) and the
warm time of ``eval_hankel`` at r in {5, 30, 100, 200, 400, 1000} for three
specs, ``a`` = -0.5, -0.3 (both with the ``alpha < 1`` singular amplitude) and
-1.5.  Warm means the cached Lerch expansion of ``F`` is already built: one
untimed call precedes the best of the timed ones.  Before that it times
``eval_exp2d`` warm for r = 90 and then r = 200 at two specs: a = -0.5 with
mu = 0, where the prefactor is real and the cosine sum gives the value, and
a = -1.5 with mu = 1, where it is imaginary and the sine sum does.  It prints
the theta nodes of its level-0 rule, the kernel cells (the work) per ms of
the warm time, and the process's peak resident set (``ru_maxrss``) after each
case.  The exp2d cases run first, so each peak is that of the import and the
exp2d calls so far.

Then, for the same three specs on a 10-row grid with r in [1, 100], it times
a loop of ``eval_hankel`` calls against one ``eval_hankel_grid`` call (warm,
best of ``repeats`` each).

Last it times ``eval_lifted`` warm at beta = 0.3, m = 1, m' = 0, r = 50 for
a in {0.5, 1.61, 2.9}, and at beta = 0, m = m' = 0, r = 5 for the large
exponents a in {10, 20, 40}, with the number of terms of its lowered
combination, its work (the combined integrand's (term, node) products summed
over the levels) and its ``err_est`` next to its distance from the oracle.

With ``--json PATH`` it also writes every row (route, spec, r, work, warm ms,
distance from the oracle or, for the grid, from ``eval_hankel``; for lifted
also the term count) to PATH,
with an environment block: CPU count, numpy and python versions.

Exits 1 if a Hankel value differs from the oracle (``sum_series`` at tol
1e-13) by more than 1e-8, or if it does not converge; if an exp2d value
differs by more than 1e-7; if a grid row's work differs from
``eval_hankel``'s or its value by more than 1e-13 relative; and if a lifted
value differs from the oracle by more than 1e-8 relative.

Usage: python benchmarks/bench_hankel.py [repeats] [--json PATH]
"""
import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import sys
import time

import numpy as np

from bnsum.direct import SeriesSpec, sum_series
from bnsum.errors import ConvergenceError
from bnsum.quadrature import (_lower, _theta_rule, eval_exp2d, eval_hankel, eval_hankel_grid,
                              eval_lifted)

RS = (5.0, 30.0, 100.0, 200.0, 400.0, 1000.0)
SPECS = (SeriesSpec(-0.5, 0.0, 1, 0), SeriesSpec(-0.3, 0.2, 3, 2), SeriesSpec(-1.5, 0.5, 1, 0))
HANKEL_TOL = 1e-8
EXP2D_SPECS = (SeriesSpec(-0.5, 0.0, 0, 0), SeriesSpec(-1.5, 0.5, 1, 0))
EXP2D_RS, EXP2D_TOL = (90.0, 200.0), 1e-7
GRID_RS, GRID_TOL = tuple(np.linspace(1.0, 100.0, 10)), 1e-13
LIFTED_CASES = (tuple((SeriesSpec(a, 0.3, 1, 0), 50.0) for a in (0.5, 1.61, 2.9))
                + tuple((SeriesSpec(a, 0.0, 0, 0), 5.0) for a in (10.0, 20.0, 40.0)))
LIFTED_TOL = 1e-8


def oracle(spec: SeriesSpec, r: float) -> float:
    return sum_series(spec, r, tol=1e-13).value


def best_time(fn, repeats: int):
    """(first result, best time of ``repeats`` calls after an untimed one)."""
    result = fn()
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("repeats", type=int, nargs="?", default=3)
    ap.add_argument("--json", metavar="PATH", help="also write every row to PATH")
    args = ap.parse_args()
    repeats = args.repeats
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "cpus": os.cpu_count(), "repeats": repeats}
    print(f"python {env['python']}, numpy {env['numpy']}, "
          f"{env['cpus']} CPUs, best of {repeats}")
    failed = False
    rows = []  # one dict per printed row, for --json

    def row(route, spec, r, work, warm_ms, dev, **extra):
        rows.append({"route": route, "spec": dataclasses.asdict(spec), "r": r, "work": work,
                     "warm_ms": warm_ms, "dev": dev, **extra})

    for spec in EXP2D_SPECS:
        for r in EXP2D_RS:
            res, t_exp2d = best_time(lambda: eval_exp2d(spec, r), repeats)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            dev = abs(res.value - oracle(spec, r))
            failed |= not dev <= EXP2D_TOL
            _, ((_, mu, nu),) = _lower(spec, r)
            theta = _theta_rule(r, nu, 0)[0].size
            row("exp2d", spec, r, res.work, t_exp2d * 1e3, dev,
                theta_nodes=theta, peak_rss_mb=peak_mb)
            print(f"exp2d a={spec.a} mu={mu} r={r:g}: {theta} theta nodes, work {res.work}, "
                  f"warm {t_exp2d * 1e3:.0f} ms ({res.work / (t_exp2d * 1e3):.0f} cells/ms), "
                  f"peak RSS {peak_mb:.0f} MB, |exp2d - oracle| {dev:.1e}")

    print(f"{'a':>5s} {'beta':>4s} {'m':>2s} {'mp':>2s} {'r':>6s} {'work':>7s} "
          f"{'warm':>9s} {'|hankel - oracle|':>18s}")
    for spec in SPECS:
        for r in RS:
            head = f"{spec.a:5.1f} {spec.beta:4.1f} {spec.m:2d} {spec.m_prime:2d} {r:6g}"
            try:
                res, best = best_time(lambda: eval_hankel(spec, r), repeats)
            except ConvergenceError as exc:
                failed = True
                row("hankel", spec, r, None, None, None, error=str(exc))
                print(f"{head} FAIL: {exc}")
                continue
            dev = abs(res.value - oracle(spec, r))
            failed |= not dev <= HANKEL_TOL
            row("hankel", spec, r, res.work, best * 1e3, dev)
            print(f"{head} {res.work:7d} {best * 1e3:7.1f}ms {dev:18.1e}")

    print(f"grid of {len(GRID_RS)} r in [{GRID_RS[0]:g}, {GRID_RS[-1]:g}], warm:")
    print(f"{'a':>5s} {'beta':>4s} {'m':>2s} {'mp':>2s} {'work':>7s} {'loop':>9s} "
          f"{'grid':>9s} {'max rel diff':>13s}")
    for spec in SPECS:
        loop, t_loop = best_time(lambda: [eval_hankel(spec, r) for r in GRID_RS], repeats)
        grid, t_grid = best_time(lambda: eval_hankel_grid(spec, GRID_RS), repeats)
        same_work = all(g is not None and g.work == h.work for g, h in zip(grid, loop))
        rel = max(abs(g.value - h.value) / abs(h.value) if g is not None else math.inf
                  for g, h in zip(grid, loop))
        failed |= not (same_work and rel <= GRID_TOL)
        row("hankel_grid", spec, list(GRID_RS), sum(h.work for h in loop), t_grid * 1e3, rel,
            loop_ms=t_loop * 1e3, same_work=same_work)
        print(f"{spec.a:5.1f} {spec.beta:4.1f} {spec.m:2d} {spec.m_prime:2d} "
              f"{sum(h.work for h in loop):7d} {t_loop * 1e3:7.1f}ms {t_grid * 1e3:7.1f}ms "
              f"{rel:13.1e}{'' if same_work else '  WORK DIFFERS'}")

    print("lifted, warm:")
    print(f"{'a':>5s} {'beta':>4s} {'m':>2s} {'mp':>2s} {'r':>3s} {'terms':>5s} {'work':>7s} "
          f"{'warm':>9s} {'err_est':>9s} {'|lifted - oracle|':>18s}")
    for spec, r in LIFTED_CASES:
        res, best = best_time(lambda: eval_lifted(spec, r), repeats)
        want = oracle(spec, r)
        dev = abs(res.value - want)
        failed |= not dev <= LIFTED_TOL * abs(want)
        terms = len(_lower(spec, r)[1])
        row("lifted", spec, r, res.work, best * 1e3, dev, err_est=res.err_est, terms=terms)
        print(f"{spec.a:5.2f} {spec.beta:4.1f} {spec.m:2d} {spec.m_prime:2d} {r:3g} {terms:5d} "
              f"{res.work:7d} {best * 1e3:7.1f}ms {res.err_est:9.1e} {dev:18.1e}"
              f"  ({dev / abs(want):.1e} relative)")
    if failed:
        print(f"FAIL: a value off the oracle (hankel {HANKEL_TOL:.0e}, exp2d {EXP2D_TOL:.0e}, "
              f"lifted {LIFTED_TOL:.0e} relative), not converged, or a grid row off "
              f"eval_hankel (work, {GRID_TOL:.0e} relative)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"environment": env, "failed": failed, "rows": rows}, fh, indent=1)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

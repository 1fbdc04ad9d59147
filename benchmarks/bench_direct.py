"""Benchmark the oracle: certified length, recurrence start order and time
against r.

For ``sum_series`` at a = -0.5, beta = 0, m = m' = 0 and for
``sum_derivative_series("dJdJ", -0.5, 0, r)``, both at tol 1e-12, it prints
and records, at r in {50, 10^3, 10^4, 10^5, 9.9e5}: the certified length (the
result's ``work``), the order the Bessel recurrence of that call starts at
(``kernels._start_order`` of the row's nmax), the best of ``repeats`` timed
calls, and the best of ``repeats`` timed calls of ``direct._certified_length``
alone, the length search's own cost.  A call that raises ``ToleranceError``
(the 10^6-term cap) records the error instead.

With ``--json PATH`` it also writes every row to PATH, with an environment
block: CPU count, numpy and python versions.

Exits 1 if a value is not finite or the length search disagrees with the
result's ``work``.

Usage: python benchmarks/bench_direct.py [repeats] [--json PATH]
"""
import argparse
import json
import math
import os
import platform
import sys
import time

import numpy as np

from bnsum import kernels
from bnsum.direct import SeriesSpec, _certified_length, sum_derivative_series, sum_series
from bnsum.errors import ToleranceError

RS = (50.0, 1e3, 1e4, 1e5, 9.9e5)
A, BETA, TOL = -0.5, 0.0, 1e-12
SPEC = SeriesSpec(A, BETA, 0, 0)
# (name, call, extra orders of the row past the certified length, lowest
# orders of the two factors, which the length is certified at)
CASES = (
    ("sum_series", lambda r: sum_series(SPEC, r, TOL), 0, (0, 0)),
    ("sum_derivative_series dJdJ", lambda r: sum_derivative_series("dJdJ", A, BETA, r, TOL), 1,
     (-1, -1)),
)


def best_of(fn, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("repeats", nargs="?", type=int, default=5)
    ap.add_argument("--json", metavar="PATH", help="also write every row to PATH")
    args = ap.parse_args()
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "cpus": os.cpu_count(), "repeats": args.repeats}
    rows, failed = [], False
    print(f"{'call':28s} {'r':>8s} {'length':>8s} {'start':>8s} {'best ms':>10s} "
          f"{'length us':>10s}")
    for name, call, extra, lows in CASES:
        for r in RS:
            row = {"call": name, "a": A, "beta": BETA, "tol": TOL, "r": r}
            try:
                seconds, result = best_of(lambda: call(r), args.repeats)
            except ToleranceError as exc:
                row["error"] = str(exc)
                print(f"{name:28s} {r:8g} {'ToleranceError: ' + str(exc)}")
            else:
                search_s, length = best_of(lambda: _certified_length(*lows, A, BETA, r, TOL),
                                           args.repeats)
                failed |= not math.isfinite(result.value) or length != result.work
                row.update(length=result.work, start_order=kernels._start_order(result.work + extra, r),
                           best_ms=seconds * 1e3, length_best_us=search_s * 1e6,
                           value=result.value, err_est=result.err_est)
                print(f"{name:28s} {r:8g} {row['length']:8d} {row['start_order']:8d} "
                      f"{row['best_ms']:10.3f} {row['length_best_us']:10.2f}")
            rows.append(row)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"environment": env, "failed": failed, "rows": rows}, fh, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

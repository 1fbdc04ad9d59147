#!/usr/bin/env python3
"""bnsum benchmark: one workload per run, closed loop with one caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval_stream --seed 1 --seconds 30 --trace 0

Workloads are ``eval_stream``, ``sweep_grid`` and ``envelope_fit`` (see
``workloads.py`` and ``BENCHMARK.json``).  The program is imported from
``src/`` of the checkout and driven in process through ``bnsum.cli.main`` and
the public harness functions, on the numpy backend with one BLAS thread.

With ``--trace 0`` the timed pass runs untraced and the last line of stdout
carries the end-to-end metrics; ``setup_s`` comes from fresh interpreters
started before the timed pass.  With ``--trace 1`` the pass runs the blocks of half
the time with every layer wrapped (``tracer.py``) and the last line carries
the per-layer metrics; a fresh untraced process then replays the same jobs,
and the difference is the tracing overhead.  Outputs are checked after the
pass in both modes.  Lines before the last are a human-readable report.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
# Requests in the small-alpha quadrature region allocate several GB before
# they fail (about 5 GB for a lifted request at a = 1.9, r = 100).  The cap
# turns such allocations into MemoryError, counted as failed requests.  A
# workload may set a lower ``memory_cap`` of its own.
MEMORY_CAP = 2 << 30
SETUP_PROBES = 9
# Sweeps write their CSV into a directory of this prefix at the root of the
# checkout, removed at exit: the benchmark writes nothing outside its checkout.
TMP_PREFIX = ".perfbench-"
SKIP_DIRS = {".git", "__pycache__"}


def configure_process() -> None:
    """Environment and import path; before numpy is imported."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["BNSUM_NO_NUMBA"] = "1"
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(SRC), str(HERE)]


def cap_memory(cap: int) -> None:
    _soft, hard = resource.getrlimit(resource.RLIMIT_DATA)
    cap = cap if hard == resource.RLIM_INFINITY else min(cap, hard)
    resource.setrlimit(resource.RLIMIT_DATA, (cap, hard))


def load_program(tmpdir: str) -> types.SimpleNamespace:
    import bnsum.asymptotics
    import bnsum.cli
    import bnsum.direct
    import bnsum.harness

    if not Path(bnsum.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bnsum imported from {bnsum.__file__}, not from {SRC}")
    return types.SimpleNamespace(cli=bnsum.cli, direct=bnsum.direct, harness=bnsum.harness,
                                 asymptotics=bnsum.asymptotics, tmpdir=tmpdir)


def tree_snapshot() -> dict[str, str]:
    """sha256 of every file of the checkout outside build and cache dirs."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            path = Path(dirpath) / name
            out[str(path.relative_to(ROOT))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def tree_changes(before: dict[str, str]) -> list[str]:
    after = tree_snapshot()
    return sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    import bnsum.backend

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numba": bnsum.backend.USE_NUMBA,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "bnsum_threads": bnsum.backend.thread_cap(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "memory_cap_mb": resource.getrlimit(resource.RLIMIT_DATA)[0] >> 20,
        "commit": git_commit(),
    }


def timed_pass(workload, ctx, seconds: float | None = None, count: int | None = None):
    """Run whole blocks of jobs back to back: as many as last ``seconds`` at
    the workload's nominal ``block_seconds``, or until ``count`` jobs ran.

    The amount of work depends on ``seconds`` only, not on how fast the host
    or the program is, so every run of a workload sends the same requests in
    number and mix, and the wall time varies instead.  Ending on the block
    boundary nearest to ``seconds`` of wall time let a slow host cut
    ``eval_stream`` runs to one block of 194 requests, and p95 moved from 330
    to 490 ms.
    """
    if seconds is not None:
        wanted = max(1, round(seconds / workload.block_seconds))
    records = []
    t0 = time.perf_counter()
    for blocks, block in enumerate(workload.blocks()):
        if count is not None and len(records) >= count:
            break
        if seconds is not None and blocks == wanted:
            break
        records.extend(workload.run(job, ctx) for job in block)
    return records, time.perf_counter() - t0


def measure_setup() -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of its warm-up."""
    values = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--setup-probe"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-400:]}")
        values.append(float(proc.stdout.split()[-1]) - t0)
    return values


def replay_untraced(workload: str, seed: int, count: int) -> float:
    """Seconds a fresh untraced process takes for the first ``count`` jobs."""
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", workload,
                           "--seed", str(seed), "--replay", str(count)],
                          cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced replay failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.split()[-1])


def gate(workload, records, ctx, seed: int):
    from workloads import Checker, check_oracle_sample

    checker = Checker()
    for rec in records:
        workload.check(rec, ctx, checker)
    sampled = check_oracle_sample(checker, random.Random(seed))
    return checker, sampled


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A beta-kernel weighted mean of all order statistics.  Request costs here
    span four decades, and neighbouring order statistics around p95 can
    differ by 30%, so the single order statistic jumps between runs; the
    kernel average does not.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    p = q / 100.0
    a, b = (n + 1) * p, (n + 1) * (1.0 - p)
    sub = 16  # integration points per order statistic
    grid = (np.arange(n * sub) + 0.5) / (n * sub)
    logpdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    w = np.exp(logpdf - logpdf.max()).reshape(n, sub).sum(axis=1)
    return float(w @ x / w.sum())


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--replay", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "bnsum" / "__init__.py").is_file():
        print(f"error: no bnsum sources under {SRC}", file=sys.stderr)
        return 2
    configure_process()
    from workloads import WORKLOADS, warm_up

    if not args.setup_probe and args.workload not in WORKLOADS:
        print(f"error: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cap_memory(getattr(WORKLOADS.get(args.workload), "memory_cap", MEMORY_CAP))

    before = None if (args.setup_probe or args.replay is not None) else tree_snapshot()
    setup = [] if (before is None or args.trace) else measure_setup()
    tmpdir = tempfile.mkdtemp(prefix=TMP_PREFIX, dir=ROOT)
    try:
        ctx = load_program(tmpdir)
        warm_up(ctx)
        if args.setup_probe:
            print(time.monotonic())
            return 0
        workload = WORKLOADS[args.workload](args.seed)
        if args.replay is not None:
            print(timed_pass(workload, ctx, count=args.replay)[1])
            return 0
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                records, elapsed = timed_pass(workload, ctx, seconds=args.seconds / 2)
            finally:
                tracer.uninstall()
        else:
            records, elapsed = timed_pass(workload, ctx, seconds=args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checker, sampled = gate(workload, records, ctx, args.seed)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    changed = tree_changes(before)

    latencies = [x for rec in records for x in rec.latencies]
    ok = checker.attempted - checker.failed
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "jobs": len(records), "requests": len(latencies), "elapsed_s": elapsed,
        "attempted": checker.attempted, "failed": checker.failed,
        "failed_frac": checker.failed / max(1, checker.attempted),
        "wrong_outputs": checker.wrong, "oracle_mpmath_checked": sampled,
        "setup_samples_s": setup, "tree_changed": changed,
        "failing_inputs": checker.failures,
    }
    if tracer is None:
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "evals_per_s": metric(ok / elapsed, "1/s"),
            "latency_p50_ms": metric(1e3 * percentile(latencies, 50), "ms"),
            "latency_p95_ms": metric(1e3 * percentile(latencies, 95), "ms"),
            "ok_frac": metric(ok / max(1, checker.attempted), "ratio"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        }
    else:
        from tracer import LAYER_METRICS

        untraced = replay_untraced(args.workload, args.seed, len(records))
        values = tracer.metrics()
        metrics = {k: metric(values[k], unit) for k, unit in LAYER_METRICS.items()}
        metrics["trace.overhead_frac"] = metric(elapsed / untraced - 1.0, "ratio")
        metrics["trace.accounted_frac"] = metric(tracer.main_thread_seconds() / elapsed, "ratio")
        metrics["trace.evals"] = metric(checker.attempted, "count")
        report["untraced_replay_s"] = untraced

    print(f"bnsum benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"  {len(records)} jobs, {len(latencies)} requests, {checker.attempted} evaluations "
          f"in {elapsed:.2f} s; failed {checker.failed} "
          f"({report['failed_frac']:.2%}), wrong outputs {checker.wrong}")
    for name, m in metrics.items():
        n = f"  (n={len(latencies)})" if name.startswith("latency_") else ""
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{n}")
    for label in checker.failures[:40]:
        print(f"  FAILED {label}")
    if len(checker.failures) > 40:
        print(f"  ... {len(checker.failures) - 40} more failing inputs in the report line")
    if changed:
        print(f"  WORKING TREE CHANGED: {changed}")
    print("report " + json.dumps(report))
    print(json.dumps({"correct": checker.wrong == 0 and not changed,
                      "attempted": checker.attempted, "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

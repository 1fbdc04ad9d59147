"""The three benchmark workloads: input generators, request execution and the
correctness gate.

Inputs come in blocks of fixed composition, and a timed pass is a fixed
number of whole blocks, so every run sends the same mix.  The integral routes cost 10 ms to
4 s per request and jump where refinement fails -- the small-``alpha`` region where the
numpy-fallback Bessel rows return non-finite columns and refinement runs for
seconds until ``ConvergenceError`` -- so with independent random draws one
such request more or less would move a 30 s run by 5-10%.

Each workload yields blocks of *jobs*.  A job of ``eval_stream`` is one
``bnsum eval`` request, a job of ``sweep_grid`` one ``bnsum sweep`` command,
and a job of ``envelope_fit`` one envelope fit made of many residual requests.  ``run``
executes a job and keeps its raw outputs; ``check`` compares them with
references after the timed pass.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import time

import numpy as np

# Relative tolerance and the floor of the relative scale the validation
# harness uses for each integral route against the oracle.
ROUTE_TOLERANCE = {"hankel": (1e-6, 1e-2), "exp2d": (1e-5, 1e-2), "lifted": (1e-5, 1e-1)}


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Per-block shift of the fixed panels, as a share of each axis: moves every
# point a little from block to block so that no input repeats.
JITTER = 1e-3


def panel(n: int, a_range, r_range) -> list[tuple[float, float]]:
    """``n`` fixed ``(a, r)`` points, the same for every seed: ``a`` at the
    midpoints of ``n`` equal strata, paired with ``r`` on a golden-ratio
    sequence."""
    (a_lo, a_hi), (r_lo, r_hi) = a_range, r_range
    return [(a_lo + (a_hi - a_lo) * (j + 0.5) / n,
             r_lo + (r_hi - r_lo) * ((0.5 + (j + 1) * GOLDEN) % 1.0)) for j in range(n)]


def jitter(rng: random.Random, x: float, lo: float, hi: float) -> float:
    return x + JITTER * (hi - lo) * (rng.random() - 0.5)


def _spec_args(a: float, beta: float, m: int, mp: int) -> list[str]:
    return ["--a", repr(a), "--beta", repr(beta), "--m", str(m), "--mprime", str(mp)]


def _spec_name(a, beta, m, mp) -> str:
    return f"a={a!r} beta={beta!r} m={m} m'={mp}"


class Record:
    """Raw outcome of one job: request latencies, evaluations and outputs."""

    def __init__(self, job):
        self.job = job
        self.latencies: list[float] = []
        self.evals = 0  # evaluations attempted
        self.errors: list[str] = []  # failures seen while running
        self.data = None
        self.oracle_hits: list[tuple] = []  # oracle results met inside the job


def call_cli(cli, argv: list[str]):
    """Run ``bnsum.cli.main(argv)`` in process; return (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except MemoryError:
        code = "MemoryError"
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def _outcome(code, err: str) -> str:
    """How a failed CLI call ended: exit code or exception, and its last stderr line."""
    lines = [ln.strip() for ln in err.strip().splitlines() if ln.strip()]
    how = f"exit {code}" if isinstance(code, int) else code
    return f"{how} ({lines[-1][:160]})" if lines else how


class Checker:
    """Correctness tally shared by the workloads' ``check`` methods."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # outputs that came back but disagree with a reference
        self.failures: list[str] = []
        self.oracle_samples: list[tuple] = []  # (a, beta, m, mp, r, value, bound)

    def fail(self, label: str, count: int = 1, wrong: bool = False) -> None:
        self.failed += count
        self.wrong += count if wrong else 0
        self.failures.append(label)

    def compare_route(self, label, method, value, oracle) -> None:
        tol, floor = ROUTE_TOLERANCE[method]
        rel = abs(value - oracle) / max(floor, abs(oracle))
        if not rel <= tol:
            self.fail(f"{label}: relative residual {rel:.2e} vs oracle > {tol:g}", wrong=True)


# Absolute accuracy of each Bessel value, as the kernel's tests assert it
# against mpmath.
BESSEL_ABS_ERR = 2e-15


def _mp_series(a: float, beta: float, m: int, mp: int, r: float):
    """sum_l J_{l+m'} J_{l+m} (l+beta)^a with mpmath ``besselj`` at 30 digits.

    Truncated, independently of the oracle's own length, where the factorial
    bound |J_n(r)| <= (r/2)^n / n! puts a term below e^-60 and falling.
    Returns the sum, the sum of absolute terms, and the sum of
    ``(|J_{l+m'}| + |J_{l+m}|) (l+beta)^a``: an error of ``BESSEL_ABS_ERR`` in
    every Bessel value moves the sum by at most that sum times it.
    """
    import mpmath

    mpmath.mp.dps = 30
    half = math.log(r / 2.0)

    def log_bound(l):
        return ((2 * l + m + mp) * half - math.lgamma(l + m + 1) - math.lgamma(l + mp + 1)
                + max(a, 0.0) * math.log(l + beta))

    top = int(math.e * r / 2.0) + m + mp + 30
    while log_bound(top) > -60.0 or log_bound(top + 1) > log_bound(top):
        top += 10
    mr = mpmath.mpf(r)
    jv = {n: mpmath.besselj(n, mr) for n in range(1 + min(m, mp), top + max(m, mp) + 1)}
    weights = {l: mpmath.power(l + mpmath.mpf(beta), a) for l in range(1, top + 1)}
    terms = [jv[l + mp] * jv[l + m] * weights[l] for l in weights]
    spread = mpmath.fsum((abs(jv[l + mp]) + abs(jv[l + m])) * w for l, w in weights.items())
    return mpmath.fsum(terms), float(mpmath.fsum(abs(t) for t in terms)), float(spread)


def check_oracle_sample(checker: Checker, rng: random.Random) -> int:
    """Compare four seeded oracle values with r <= 150 with the mpmath sum.

    Two checks per value.  The value is wrong (``correct`` false) when it is
    further from the mpmath sum than the Bessel accuracy the kernel's tests
    assert allows, on top of the oracle's claimed error.  A value within that
    but outside its claimed error ``tol + 1e-15 * sum|terms|`` is a failed
    evaluation, counted and listed: where ``(l+beta)^a`` is large (beta near
    -1, a < 0) the roundoff of one term exceeds that claim.

    Larger r is not sampled: an mpmath ``besselj`` sum costs about 0.7 s at
    r = 400 and 70 s at r = 2000.
    """
    pool = [s for s in checker.oracle_samples if 0.0 < s[4] <= 150.0]
    picked = rng.sample(pool, min(4, len(pool)))
    for a, beta, m, mp, r, value, bound in picked:
        ref, abs_sum, spread = _mp_series(a, beta, m, mp, r)
        diff = abs(value - float(ref))
        claimed = bound + 1e-15 * abs_sum
        label = f"oracle {_spec_name(a, beta, m, mp)} r={r!r}: |oracle - mpmath| = {diff:.2e}"
        if not diff <= claimed + BESSEL_ABS_ERR * spread:
            checker.fail(f"{label} > {claimed + BESSEL_ABS_ERR * spread:.2e}", wrong=True)
        elif diff > claimed:
            checker.fail(f"{label} exceeds its claimed error {claimed:.2e}")
    return len(picked)


# ---------------------------------------------------------------------------
# eval_stream
# ---------------------------------------------------------------------------

# Requests per block, of each method.  Measured on the seed code, requests
# fall into three cost clusters: asym and auto (auto is asym beyond r = 50) at
# 1-3 ms, oracle at 5-50 ms, and the integral routes at 12 ms to 5 s.  In the
# layer map (README.md) the oracle's per-call overhead moves p50 and the
# integral routes move p95, so each must sit inside its cluster, not in a gap
# between two: the oracle gets as many requests as auto and asym together,
# which puts p50 near the 20th percentile of the oracle requests, and the
# integral routes are 34 of 194 requests, which puts p95 near the 70th
# percentile of theirs.  Eleven of each route (and the pinned point) make a
# block of about 16 s, so a 30 s run is two blocks, 388 requests: with a
# varying count of blocks, p95 jumped between runs, because the fixed panel
# gives the slow requests a few discrete cost levels.
EVAL_MIX = {"oracle": 80, "auto": 40, "asym": 40, "hankel": 11, "exp2d": 11, "lifted": 11}
# (a range, r range) per method; beta in (-1, 2], m and m' in 0..3 everywhere.
EVAL_DOMAIN = {
    "oracle": ((-3.0, 3.0), (0.5, 2000.0)),
    "auto": ((-3.0, 3.0), (0.5, 2000.0)),
    "asym": ((-3.0, 3.0), (0.5, 2000.0)),
    "hankel": ((-3.0, 0.0), (0.5, 100.0)),
    "exp2d": ((-3.0, 0.0), (0.5, 100.0)),
    "lifted": ((0.0, 3.0), (0.5, 100.0)),
}
# Points added to a method's panel so that a known failure of the seed code is
# sent in every block: exp2d with alpha < 1 fails near r = 100 (exit 3), and no
# golden-ratio point with alpha < 1 lies there.
PINNED = {"exp2d": [(-0.3, 98.0)]}


class EvalStream:
    """Independent ``bnsum eval`` requests over the documented domain.

    ``(a, r)`` of each method come from a fixed :func:`panel` (plus the
    :data:`PINNED` points) that is the same for every seed: the integral
    routes' cost spans 10 ms to 4 s and jumps where refinement fails, so a
    seeded draw of ``(a, r)`` made the run time depend on the seed by 20% or
    more.  The seed draws beta, m, m', the small per-block shift of each point
    and the order of the requests.
    """

    name = "eval_stream"
    block_seconds = 16.0  # 16-21 s measured on a shared 2-vCPU host

    def __init__(self, seed: int):
        self.seed = seed

    def blocks(self):
        rng = random.Random(self.seed)
        panels = {m: panel(n, *EVAL_DOMAIN[m]) + PINNED.get(m, []) for m, n in EVAL_MIX.items()}
        seen = set()
        while True:
            block = []
            for method, points in panels.items():
                (a_lo, a_hi), (r_lo, r_hi) = EVAL_DOMAIN[method]
                for a, r in points:
                    spec = (jitter(rng, a, a_lo, a_hi), rng.uniform(-1.0, 2.0),
                            rng.randint(0, 3), rng.randint(0, 3))
                    r = jitter(rng, r, r_lo, r_hi)
                    if spec in seen or r in seen:
                        raise RuntimeError(f"repeated input {spec} r={r}")
                    seen.update((spec, r))
                    block.append({"method": method, "spec": spec, "r": r})
            rng.shuffle(block)
            yield block

    def run(self, job, ctx) -> Record:
        rec = Record(job)
        argv = ["eval", *_spec_args(*job["spec"]), "--r", repr(job["r"]),
                "--method", job["method"]]
        code, out, err, dt = call_cli(ctx.cli, argv)
        rec.latencies.append(dt)
        rec.evals = 1
        rec.data = (code, out, err)
        return rec

    def check(self, rec: Record, ctx, checker: Checker) -> None:
        job = rec.job
        method, spec, r = job["method"], job["spec"], job["r"]
        label = f"{method} {_spec_name(*spec)} r={r!r}"
        code, out, err = rec.data
        checker.attempted += 1
        if code != 0:
            checker.fail(f"{label}: {_outcome(code, err)}")
            return
        res = json.loads(out)
        value, err_est = res["value"], res["err_est"]
        if not (math.isfinite(value) and math.isfinite(err_est)):
            checker.fail(f"{label}: non-finite output {value!r}", wrong=True)
        elif res["method"] == "oracle":
            checker.oracle_samples.append((*spec, r, value, err_est))
        elif method in ROUTE_TOLERANCE:
            oracle = ctx.direct.sum_series(ctx.direct.SeriesSpec(*spec), r).value
            checker.compare_route(label, method, value, oracle)
        # asym: err_est is an order r^-gamma, not a bound; only finiteness holds.


# ---------------------------------------------------------------------------
# sweep_grid
# ---------------------------------------------------------------------------

# Rows per sweep, as in the README's sweep example.
SWEEP_POINTS = 10
# Sweeps per block, with a at the midpoints of ten strata of width 0.3 in
# [-3, 0) whatever the seed (the last at alpha = 0.15, where the hankel rows
# exhaust the memory cap and the sweep ends in MemoryError); the seed draws
# beta, m, m' and the grid ends.
SWEEP_BLOCK = 10
# The alpha = 0.15 sweep ends in MemoryError under any cap, and the cap sets
# its cost: 0.8 s at 1 GiB, 3.4-4.4 s at 2 GiB, most of it page faults whose
# cost varies with the host, which spread evals_per_s by 17% over ten seeds
# (6.6% at 1 GiB).  The other sweeps need far less, so no other sweep fails.
SWEEP_MEMORY_CAP = 1 << 30


class SweepGrid:
    """``bnsum sweep`` commands with the default methods over r in [0.5, 100].

    Specs have a < 0, where every row runs the Hankel route, so each
    ``(alpha, beta, mu)`` is evaluated at every r of its grid.  The lifted
    route (a >= 0) is left to ``eval_stream``: its rows cost 0.1-3 s each.
    """

    name = "sweep_grid"
    block_seconds = 3.3  # 2.9-3.6 s measured on a shared 2-vCPU host
    memory_cap = SWEEP_MEMORY_CAP

    def __init__(self, seed: int):
        self.seed = seed

    def blocks(self):
        rng = random.Random(self.seed)
        while True:
            yield [{"spec": (jitter(rng, a, -3.0, 0.0), rng.uniform(-1.0, 2.0),
                             rng.randint(0, 3), rng.randint(0, 3)),
                    "r_start": rng.uniform(0.5, 5.0), "r_end": rng.uniform(90.0, 100.0)}
                   for a, _r in panel(SWEEP_BLOCK, (-3.0, 0.0), (0.0, 1.0))]

    def run(self, job, ctx) -> Record:
        rec = Record(job)
        path = os.path.join(ctx.tmpdir, "sweep.csv")
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        argv = ["sweep", *_spec_args(*job["spec"]), "--r-start", repr(job["r_start"]),
                "--r-end", repr(job["r_end"]), "--points", str(SWEEP_POINTS), "--out", path]
        code, _out, err, dt = call_cli(ctx.cli, argv)
        rec.latencies.append(dt)
        rec.evals = 3 * SWEEP_POINTS  # oracle, hankel and asym apply to every row
        rows = None
        if code == 0:
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
        rec.data = (code, err, rows)
        return rec

    def check(self, rec: Record, ctx, checker: Checker) -> None:
        job = rec.job
        spec = job["spec"]
        label = f"sweep {_spec_name(*spec)} r=[{job['r_start']!r}, {job['r_end']!r}]"
        code, err, rows = rec.data
        checker.attempted += rec.evals
        if code != 0:
            checker.fail(f"{label}: {_outcome(code, err)}", count=rec.evals)
            return
        if len(rows) != SWEEP_POINTS:
            checker.fail(f"{label}: {len(rows)} rows", count=rec.evals, wrong=True)
            return
        for row in rows:
            r = float(row["r"])
            cells = {k: float(row[k]) for k in ("oracle", "hankel", "asym") if row[k] != ""}
            for k in ("oracle", "hankel", "asym"):
                if k not in cells:
                    checker.fail(f"{label}: empty {k} cell at r={r!r}")
            if row["lifted"] != "":
                checker.fail(f"{label}: lifted cell filled for a < 0 at r={r!r}", wrong=True)
            if "oracle" in cells:
                # the sweep's oracle runs at tol=1e-10
                checker.oracle_samples.append((*spec, r, cells["oracle"], 1e-10))
            if "oracle" in cells and "hankel" in cells:
                checker.compare_route(f"{label} r={r!r}", "hankel", cells["hankel"],
                                      cells["oracle"])
            if "asym" in cells and not math.isfinite(cells["asym"]):
                checker.fail(f"{label}: non-finite asym at r={r!r}", wrong=True)


# ---------------------------------------------------------------------------
# envelope_fit
# ---------------------------------------------------------------------------

# Derivative-series cases of the tests' table check: (regime, a, beta).
DERIV_REGIMES = (("a>-1", 0.5, 0.3), ("a=-1", -1.0, 0.3), ("a<-1", -1.7, 0.2))
DERIV_KINDS = ("JJ", "JdJ", "dJdJ", "JddJ", "dJddJ", "ddJddJ")


class EnvelopeFit:
    """The asymptotics suite's traffic, through the pure harness functions.

    A block is one pass over the conclusions the suite draws: the cor42 phase
    winner, the cor62 oscillatory term, the non-integer envelope slope and
    the envelopes of all 18 derivative-table cases, with the first anchor of
    each r grid drawn from the seed.  The cases differ in cost, so every
    block holds all of them.  ``run_suite("asymptotics")`` is not called: it
    rewrites ``src/bnsum/_constants.json``.
    """

    name = "envelope_fit"
    block_seconds = 22.0  # 20-29 s measured on a shared 2-vCPU host

    def __init__(self, seed: int):
        self.seed = seed

    def blocks(self):
        rng = random.Random(self.seed)
        fits = [{"kind": kind} for kind in ("cor42", "cor62", "slope")]
        fits += [{"kind": "deriv", "case": (kind, *reg)}
                 for reg in DERIV_REGIMES for kind in DERIV_KINDS]
        while True:
            yield [{**fit, "r0": (50.0 if fit["kind"].startswith("cor") else 100.0)
                    * (1.0 + 0.1 * rng.random())} for fit in fits]

    def run(self, job, ctx) -> Record:
        rec = Record(job)
        h, asy, direct = ctx.harness, ctx.asymptotics, ctx.direct
        oracle_hits = rec.oracle_hits

        def timed(fn):
            def residual(r):
                t0 = time.perf_counter()
                try:
                    return fn(r)
                finally:
                    rec.latencies.append(time.perf_counter() - t0)
            return residual

        def series_residual(spec, form, weight):
            def fn(r):
                res = direct.sum_series(spec, r)
                if r <= 150.0:
                    oracle_hits.append((spec.a, spec.beta, spec.m, spec.m_prime, r,
                                        res.value, res.err_est))
                return weight(r) * (res.value - asy.eval_form(form, r))
            return timed(fn)

        kind, r0 = job["kind"], job["r0"]
        try:
            if kind in ("cor42", "cor62"):
                if kind == "cor42":
                    spec = direct.SeriesSpec(-1.5, 0.5, 2, 1)
                    forms = {c: asy.leading_noninteger(1.5, 0.5, 2, 1, phase_convention=c)
                             for c in ("mu", "nu")}
                else:
                    spec = direct.SeriesSpec(-1.0, 0.0, 0, 0)
                    forms = {c: asy.leading_integer(1, 0.0, 0, 0, osc_term=c)
                             for c in ("present", "absent")}
                anchors = h.oscillation_grid(r0, 8.0 * r0)
                scores = {}
                for choice, form in forms.items():
                    env = h.window_envelope(series_residual(spec, form, lambda r: r), anchors)
                    scores[choice] = float(np.sqrt(np.mean(env ** 2)))
                winner = min(scores, key=scores.get)
                ratio = max(scores.values()) / scores[winner]
                rec.data = {"winner": winner, "ratio": ratio}
            elif kind == "slope":
                spec = direct.SeriesSpec(-0.5, 0.0, 0, 0)
                form = asy.leading_noninteger(0.5, 0.0, 0, 0, phase_convention="mu")
                anchors = h.oscillation_grid(r0, 8.0 * r0)
                env = h.window_envelope(series_residual(spec, form, lambda r: 1.0), anchors)
                rec.data = {"slope": h.fit_loglog_slope(anchors, env)}
            else:
                dkind, regime, a, beta = job["case"]
                form = asy.derivative_series_form(dkind, regime, a, beta)
                scale = (lambda r: r ** a) if regime == "a>-1" else (lambda r: 1.0)

                def fn(r):
                    return (direct.sum_derivative_series(dkind, a, beta, r).value
                            - asy.eval_form(form, r)) / scale(r)

                anchors = h.oscillation_grid(r0, 6.0 * r0, 1.6)
                env = h.window_envelope(timed(fn), anchors, ratio=1.6, samples=48)
                rec.data = {"envelope": env.tolist()}
        except Exception as exc:  # a failing fit is reported, the run goes on
            rec.errors.append(f"{type(exc).__name__}: {exc}")
        rec.evals = len(rec.latencies)
        return rec

    def check(self, rec: Record, ctx, checker: Checker) -> None:
        job = rec.job
        label = f"{job['kind']} fit {job.get('case', '')} r0={job['r0']!r}".replace("  ", " ")
        checker.attempted += rec.evals
        checker.oracle_samples.extend(rec.oracle_hits)
        if rec.errors:
            checker.fail(f"{label}: {rec.errors[0]}", count=rec.evals)
            return
        d = rec.data
        kind = job["kind"]
        if kind == "cor42":
            ok = d["winner"] == "mu" and d["ratio"] >= 2.0
            why = f"winner {d['winner']}, ratio {d['ratio']:.2f} (need mu, >= 2)"
        elif kind == "cor62":
            ok = d["winner"] == "present" and d["ratio"] >= 2.0
            why = f"winner {d['winner']}, ratio {d['ratio']:.2f} (need present, >= 2)"
        elif kind == "slope":
            ok = d["slope"] <= -1.25
            why = f"slope {d['slope']:.3f} (need <= -1.25)"
        else:
            ok = bool(np.all(np.diff(d["envelope"]) < 0.0))
            why = f"envelope not decreasing: {d['envelope']}"
        if not ok:
            checker.fail(f"{label}: {why}", count=rec.evals, wrong=True)


WORKLOADS = {w.name: w for w in (EvalStream, SweepGrid, EnvelopeFit)}


# ---------------------------------------------------------------------------
# warm-up
# ---------------------------------------------------------------------------

def warm_up(ctx) -> None:
    """One small request of every kind the workloads send.

    Fills the ``_local_tables`` cache for the warm-up's own parameters and
    loads every code path once; the Gauss and Bernoulli tables are built by
    the import itself.  Raises if any warm-up request fails.
    """
    spec = _spec_args(-1.5, 0.25, 1, 0)
    for method, r, extra in (("oracle", 3.0, spec), ("auto", 3.0, spec), ("asym", 80.0, spec),
                             ("hankel", 3.0, spec), ("exp2d", 2.0, spec),
                             ("lifted", 2.0, _spec_args(0.5, 0.25, 1, 0))):
        code, _out, err, _dt = call_cli(ctx.cli, ["eval", *extra, "--r", str(r),
                                                  "--method", method])
        if code != 0:
            raise RuntimeError(f"warm-up {method} failed: exit {code} {err}")
    path = os.path.join(ctx.tmpdir, "warmup.csv")
    code, _out, err, _dt = call_cli(ctx.cli, ["sweep", *spec, "--r-start", "1", "--r-end", "4",
                                              "--points", "2", "--out", path])
    if code != 0:
        raise RuntimeError(f"warm-up sweep failed: exit {code} {err}")
    os.remove(path)
    form = ctx.asymptotics.leading_noninteger(1.5, 0.25, 1, 0, phase_convention="mu")
    sp = ctx.direct.SeriesSpec(-1.5, 0.25, 1, 0)
    ctx.harness.window_envelope(
        lambda r: ctx.direct.sum_series(sp, r).value - ctx.asymptotics.eval_form(form, r),
        ctx.harness.oscillation_grid(60.0, 63.0), samples=2)
    ctx.direct.sum_derivative_series("JdJ", -1.7, 0.2, 60.0)

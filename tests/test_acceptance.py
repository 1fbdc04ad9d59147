"""Acceptance suite: nine end-to-end criteria at stated tolerances.

Each test prints one summary line (visible with ``pytest -s`` or in captured
output) and asserts the criterion, including the runtime budget where one is
stated.
"""
import math
import time

import numpy as np
import pytest

from bnsum.asymptotics import (
    COR42_PHASE,
    COR62_OSC_TERM,
    eval_form,
    derivative_series_form,
    leading_integer,
    leading_noninteger,
)
from bnsum.direct import (
    DERIVATIVE_KINDS,
    SeriesSpec,
    sum_derivative_series,
    sum_series,
)
from bnsum.harness import (
    fit_loglog_slope,
    oscillation_grid,
    resolve_cor42_phase,
    resolve_cor62_osc,
    run_suite,
    window_envelope,
)
from bnsum.kernels import bessel_rows
from bnsum.specfun import EULER_GAMMA, digamma, gamma, hurwitz_zeta, phi_minus_one


def report(num: int, name: str, ok: bool, detail: str):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_neumann_identities():
    t0 = time.time()
    worst = 0.0
    for r in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0):
        length = int(math.ceil(math.e * r / 2.0)) + 66
        row = bessel_rows(length, np.array([r]))[:, 0]
        worst = max(worst, abs(row[0] ** 2 + 2.0 * float(np.sum(row[1:] ** 2)) - 1.0))
        for n in (1, 2, 3):
            head = sum((-1) ** k * row[k] * row[2 * n - k] for k in range(2 * n + 1))
            tail = 2.0 * float(np.sum(row[1 : -2 * n] * row[1 + 2 * n :]))
            worst = max(worst, abs(head + tail))
    dt = time.time() - t0
    report(1, "Neumann identities", worst <= 1e-11 and dt < 1.0,
           f"worst residual {worst:.2e}, {dt:.2f}s")


def test_criterion_2_representation_equivalence():
    from bnsum.quadrature import eval_exp2d, eval_hankel

    t0 = time.time()
    grid = [
        (a, b, m, mp, r)
        for a in (-2.5, -1.5, -1.0, -0.5)
        for b in (0.0, 0.5, 1.0)
        for (m, mp) in ((0, 0), (1, 0), (2, 1))
        for r in (1.0, 5.0, 10.0, 30.0)
    ]
    worst_h = 0.0
    worst_e = 0.0
    for a, b, m, mp, r in grid:
        sp = SeriesSpec(a, b, m, mp)
        o = sum_series(sp, r).value
        scale = max(1e-2, abs(o))
        worst_h = max(worst_h, abs(eval_hankel(sp, r).value - o) / scale)
        if r <= 10.0:
            worst_e = max(worst_e, abs(eval_exp2d(sp, r).value - o) / scale)
    dt = time.time() - t0
    report(2, "representation equivalence",
           worst_h <= 1e-6 and worst_e <= 1e-5 and dt < 120.0,
           f"hankel {worst_h:.2e} (tol 1e-6), exp2d {worst_e:.2e} (tol 1e-5), {dt:.1f}s")


def test_criterion_3_lifting():
    from bnsum.quadrature import eval_lifted

    t0 = time.time()
    worst = 0.0
    for a in (0.0, 0.5, 1.0, 2.0):
        for b in (0.0, 0.5, 1.0):
            for m, mp in ((0, 0), (1, 0), (2, 1)):
                for r in (2.0, 10.0, 30.0):
                    sp = SeriesSpec(a, b, m, mp)
                    o = sum_series(sp, r).value
                    got = eval_lifted(sp, r).value
                    worst = max(worst, abs(got - o) / max(1e-1, abs(o)))
    dt = time.time() - t0
    report(3, "lifting correctness", worst <= 1e-5 and dt < 60.0,
           f"worst relative residual {worst:.2e}, {dt:.1f}s")


def test_criterion_4_noninteger_asymptotics():
    t0 = time.time()
    sp = SeriesSpec(-0.5, 0.0, 0, 0)
    form = leading_noninteger(0.5, 0.0, 0, 0)
    anchors = oscillation_grid(100.0, 800.0)
    env = window_envelope(lambda r: sum_series(sp, r).value - eval_form(form, r), anchors)
    slope = fit_loglog_slope(anchors, env)
    dt = time.time() - t0
    report(4, "non-integer asymptotics", slope <= -1.25 and dt < 60.0,
           f"fitted log-log slope {slope:.3f} (need <= -1.25), {dt:.1f}s")


def test_criterion_5_integer_asymptotics():
    osc_choice, ratio = resolve_cor62_osc()
    sp = SeriesSpec(-1.0, 0.0, 0, 0)
    osc_only = [t for t in leading_integer(1, 0.0, 0, 0, osc_term="present").terms
                if t.osc == "sin2r"]
    rs = oscillation_grid(200.0, 1000.0, 1.01)
    vals = []
    for r in rs:
        r = float(r)
        osc = sum(t.coeff * r ** (-t.power) * math.sin(2.0 * r + t.phase)
                  for t in osc_only) if osc_choice == "present" else 0.0
        vals.append(math.pi * r * (sum_series(sp, r).value - osc) - math.log(r))
    band = max(vals) - min(vals)
    report(5, "integer asymptotics",
           band <= 0.1 and ratio >= 2.0,
           f"band width {band:.2e} (tol 0.1); oracle supports osc term "
           f"'{osc_choice}' with residual ratio {ratio:.0f} (need >= 2)")


def test_criterion_6_nonneg_leading_term():
    t0 = time.time()
    r = 500.0
    d1 = abs(sum_series(SeriesSpec(1.0, 0.0, 0, 0), r).value / (r / math.pi) - 1.0)
    d2 = abs(4.0 * sum_series(SeriesSpec(2.0, 0.0, 0, 0), r).value / r ** 2 - 1.0)
    d3 = abs(sum_series(SeriesSpec(0.0, 0.0, 2, 0), r).value)
    dt = time.time() - t0
    report(6, "a >= 0 leading term",
           d1 <= 0.02 and d2 <= 0.02 and d3 <= 0.05 and dt < 30.0,
           f"(a=1,nu=0) {d1:.2e}, (a=2,nu=0) {d2:.2e}, (a=0,nu=2) {d3:.2e}, {dt:.1f}s")


def test_criterion_7_derivative_tables():
    t0 = time.time()
    regimes = [("a>-1", 0.5, 0.3), ("a=-1", -1.0, 0.3), ("a<-1", -1.7, 0.2)]
    anchors = oscillation_grid(100.0, 600.0, 1.6)
    bad = []
    for regime, a, beta in regimes:
        for kind in DERIVATIVE_KINDS:
            form = derivative_series_form(kind, regime, a, beta)
            # normalize by the growth scale in the a > -1 regime; the 1/r
            # regimes already have decaying residuals
            scale = (lambda r: r ** a) if regime == "a>-1" else (lambda r: 1.0)

            def resid(r):
                return (sum_derivative_series(kind, a, beta, r).value
                        - eval_form(form, r)) / scale(r)

            env = window_envelope(resid, anchors, ratio=1.6, samples=48)
            if not np.all(np.diff(env) < 0.0):
                bad.append((regime, kind, env.tolist()))
    worst_prod = 0.0
    for beta in (0.0, 0.5):
        phi1 = phi_minus_one(1.0, beta + 1.0)
        for r in np.linspace(590.0, 600.0, 32):
            r = float(r)
            prod = (math.pi * r * sum_derivative_series("JdJ", -1.0, beta, r).value
                    + phi1 * math.cos(2.0 * r))
            worst_prod = max(worst_prod, abs(prod))
    dt = time.time() - t0
    report(7, "derivative-series tables",
           not bad and worst_prod <= 0.05 and dt < 120.0,
           f"non-decreasing envelopes: {bad or 'none'}; "
           f"JdJ product envelope {worst_prod:.2e} (tol 0.05), {dt:.1f}s")


def test_criterion_8_turan():
    xs = np.linspace(0.03, 30.0, 1000)
    rows = bessel_rows(90, xs)
    worst_min = math.inf
    worst_series = 0.0
    for nu in range(1, 6):
        delta = rows[nu] ** 2 - rows[nu - 1] * rows[nu + 1]
        worst_min = min(worst_min, float(delta.min()))
        n = np.arange(2, rows.shape[0] - nu, dtype=float)
        series = (
            rows[nu] ** 2 / (nu + 1.0)
            + 2.0 * rows[nu + 1] ** 2 / (nu + 2.0)
            + 2.0 * nu
            * np.sum(rows[nu + 2 :] ** 2 / ((nu + n - 1.0) * (nu + n + 1.0))[:, None], axis=0)
        )
        worst_series = max(worst_series, float(np.max(np.abs(series - delta))))
    report(8, "Turan inequality",
           worst_min >= -1e-14 and worst_series <= 1e-10,
           f"min Delta {worst_min:.2e} (>= -1e-14), series form residual "
           f"{worst_series:.2e} (tol 1e-10)")


def test_criterion_9_kernel_spot_values():
    checks = [
        ("Gamma(1/2)", gamma(0.5), math.sqrt(math.pi)),
        ("psi(1/2)", digamma(0.5), -EULER_GAMMA - 2.0 * math.log(2.0)),
        ("zeta(2,1)", hurwitz_zeta(2.0, 1.0), math.pi ** 2 / 6.0),
        ("Phi(-1,1,1)", phi_minus_one(1.0, 1.0), math.log(2.0)),
    ]
    worst = max(abs(got - want) for _, got, want in checks)
    report(9, "kernel spot values", worst <= 1e-12, f"worst residual {worst:.2e}")


def test_validate_suite_is_green():
    rep = run_suite("all")
    failed = [c.name for c in rep.checks if c.status != "pass"]
    assert not failed, f"failing checks: {failed}"
    assert rep.phase_resolution == {"cor42_phase": COR42_PHASE,
                                    "cor62_osc_term": COR62_OSC_TERM}
    # cross-check the cor42 fit here as well
    phase, ratio = resolve_cor42_phase()
    assert ratio >= 2.0
    assert phase == rep.phase_resolution["cor42_phase"]

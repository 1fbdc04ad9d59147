"""Validation harness: cross-method comparison, classical-identity checks,
envelope/slope fitting, and the oracle fit of the phase conventions.

``run_suite`` executes one of the named check suites and returns a
:class:`ValidationReport`; it writes nothing.  The ``asymptotics`` suite fits
both candidate conventions of the oscillatory 1/r term against the direct-sum
oracle, reports the winners in ``phase_resolution`` and fails when a winner
differs from the library constant (:data:`bnsum.asymptotics.COR42_PHASE`,
:data:`bnsum.asymptotics.COR62_OSC_TERM`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import (
    COR42_PHASE,
    COR62_OSC_TERM,
    derivative_series_form,
    eval_form,
    leading_integer,
    leading_noninteger,
)
from .direct import DERIVATIVE_KINDS, SeriesSpec, stencil_factors, sum_derivative_series, sum_series
from .errors import DomainError
from .kernels import bessel_rows
from .quadrature import ABS_TOL, REL_TOL, eval_exp2d, eval_hankel, eval_lifted
from .specfun import (
    EULER_GAMMA,
    digamma,
    gamma,
    hurwitz_zeta,
    lerch_far_many,
    lerch_local_many,
    lerch_unit,
    lerch_unit_series,
    phi_minus_one,
)

SUITES = ("kernel", "representations", "asymptotics", "identities", "all")


@dataclass
class Check:
    name: str
    status: str  # pass | fail
    residual: float
    tolerance: float
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[Check] = field(default_factory=list)
    phase_resolution: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def add(self, name: str, residual: float, tolerance: float, detail: str = "") -> None:
        status = "pass" if (math.isfinite(residual) and abs(residual) <= tolerance) else "fail"
        self.checks.append(Check(name, status, float(residual), float(tolerance), detail))


def oscillation_grid(r_start: float, r_end: float, ratio: float = 1.05) -> np.ndarray:
    """Window anchors r_k = r_start * ratio^k covering [r_start, r_end]."""
    n = int(math.floor(math.log(r_end / r_start) / math.log(ratio))) + 1
    return r_start * ratio ** np.arange(n, dtype=float)


def window_envelope(residual, anchors: np.ndarray, ratio: float = 1.05,
                    samples: int = 8) -> np.ndarray:
    """max |residual(r)| over each window [r_k, r_k*ratio].

    Sampling several points per window keeps sin(2r) zeros from faking
    convergence.
    """
    out = np.empty(anchors.size)
    for i, r0 in enumerate(anchors):
        rs = np.linspace(r0, r0 * ratio, samples, endpoint=False)
        out[i] = max(abs(residual(float(r))) for r in rs)
    return out


def fit_loglog_slope(anchors: np.ndarray, envelope: np.ndarray) -> float:
    mask = envelope > 0.0
    return float(np.polyfit(np.log(anchors[mask]), np.log(envelope[mask]), 1)[0])


# --- kernel suite ---------------------------------------------------------

def _suite_kernel(rep: ValidationReport) -> None:
    rep.add("gamma_half", gamma(0.5) - math.sqrt(math.pi), 1e-12, "Gamma(1/2) = sqrt(pi)")
    rep.add("digamma_half", digamma(0.5) + EULER_GAMMA + 2.0 * math.log(2.0), 1e-12,
            "psi(1/2) = -gamma - 2 ln 2")
    rep.add("zeta_2_1", hurwitz_zeta(2.0, 1.0) - math.pi ** 2 / 6.0, 1e-12,
            "zeta(2,1) = pi^2/6")
    rep.add("phi_minus_one_1_1", phi_minus_one(1.0, 1.0) - math.log(2.0), 1e-12,
            "Phi(-1,1,1) = ln 2")
    worst = 0.0
    for r in (0.5, 2.0, 10.0, 40.0):
        row = bessel_rows(int(2 * r) + 60, np.array([r]))[:, 0]
        worst = max(worst, abs(row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2) - 1.0))
    rep.add("bessel_row_normalization", worst, 1e-13,
            "J_0^2 + 2 sum J_k^2 = 1 on the recurrence rows")
    a = lerch_unit(1.0, 1.7, 1.3)
    b = lerch_unit_series(1.0, 1.7, 1.3)
    rep.add("lerch_route_agreement", abs(a - b), 1e-8,
            "integral route vs accelerated series at phi=1, alpha=1.7, v=1.3")
    # the local series and the far table are independent expansions; every
    # integral node takes one of them by |ell| = |2 eps| < 0.35, ell = -2 eps
    ells = np.array([0.349, 0.35, 0.36, -0.349, -0.35, -0.36])
    worst = 0.0
    for alpha in (0.15, 0.5, 1.0, 2.0, 2.85):
        for v in (0.01, 1.0, 3.0):
            far = lerch_far_many(-ells / 2.0, alpha, v)
            gap = np.max(np.abs(lerch_local_many(ells, alpha, v) - far))
            worst = max(worst, gap / np.max(np.abs(far)))
    rep.add("lerch_seam", worst, 1e-12,
            "local series vs far table at |ell| = 0.349, 0.35, 0.36, relative to max|Phi|")


# --- identities suite -----------------------------------------------------

def _neumann_row(r: float, nmax: int) -> np.ndarray:
    length = int(math.ceil(math.e * r / 2.0)) + nmax + 60
    return bessel_rows(length, np.array([r]))[:, 0]


def _suite_identities(rep: ValidationReport) -> None:
    r_grid = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0)
    worst_unit = 0.0
    worst_alt = 0.0
    for r in r_grid:
        row = _neumann_row(r, 6)
        worst_unit = max(worst_unit, abs(row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2) - 1.0))
        for n in (1, 2, 3):
            head = sum((-1) ** k * row[k] * row[2 * n - k] for k in range(2 * n + 1))
            tail = 2.0 * float(np.sum(row[1:-2 * n] * row[1 + 2 * n:]))
            worst_alt = max(worst_alt, abs(head + tail))
    rep.add("neumann_unit", worst_unit, 1e-11, "J_0^2 + 2 sum J_k^2 = 1 over the r grid")
    rep.add("neumann_alternating", worst_alt, 1e-11,
            "sum_{k<=2n} (-1)^k J_k J_{2n-k} + 2 sum J_l J_{l+2n} = 0, n in {1,2,3}")

    worst = {"dsq": 0.0, "l2": 0.0, "l4": 0.0}
    for r in r_grid:
        row = _neumann_row(r, 4)
        ln = row.size - 2
        j = row[:ln]
        (d1,) = stencil_factors(row, ("dJ",), (0,), ln)
        eps = np.full(ln, 2.0)
        eps[0] = 1.0
        l = np.arange(ln, dtype=float)
        worst["dsq"] = max(worst["dsq"], abs(float(np.sum(eps * d1 ** 2)) - 0.5))
        worst["l2"] = max(worst["l2"], abs(float(np.sum(eps * l ** 2 * j * d1)) - r / 2.0))
        worst["l4"] = max(
            worst["l4"],
            abs(float(np.sum(eps * l ** 4 * j ** 2)) - r ** 2 * (4.0 + 3.0 * r ** 2) / 8.0),
        )
    rep.add("neumann_factor_dsq", worst["dsq"], 1e-11, "sum eps_l J'_l^2 = 1/2")
    rep.add("neumann_factor_l2", worst["l2"], 1e-10,
            "sum eps_l l^2 J_l J'_l = r/2 (d/dr of sum eps_l l^2 J_l^2 = r^2/2)")
    rep.add("neumann_factor_l4", worst["l4"], 1e-7,
            "sum eps_l l^4 J_l^2 = r^2 (4 + 3 r^2) / 8 (absolute scale ~ r^4)")

    xs = np.linspace(0.03, 30.0, 1000)
    rows = bessel_rows(6 + 80, xs)
    turan_min = math.inf
    worst_series = 0.0
    for nu in range(1, 6):
        delta = rows[nu] ** 2 - rows[nu - 1] * rows[nu + 1]
        turan_min = min(turan_min, float(delta.min()))
        n = np.arange(2, rows.shape[0] - nu, dtype=float)
        series = (
            rows[nu] ** 2 / (nu + 1.0)
            + 2.0 * rows[nu + 1] ** 2 / (nu + 2.0)
            + 2.0 * nu
            * np.sum(rows[nu + 2 :] ** 2 / ((nu + n - 1.0) * (nu + n + 1.0))[:, None], axis=0)
        )
        worst_series = max(worst_series, float(np.max(np.abs(series - delta))))
    rep.add("turan_nonnegative", min(0.0, turan_min), 1e-14,
            f"min Delta_nu over nu in 1..5, x in (0,30]: {turan_min:.3e}")
    rep.add("turan_series_form", worst_series, 1e-10,
            "weighted-series form of Delta_nu matches the product form")


# --- representations suite ------------------------------------------------

_REP_BETAS = (0.0, 0.5, 1.0)
_REP_ORDERS = ((0, 0), (1, 0), (2, 1), (-2, 1))


def _worst_vs_oracle(route, grid, floor: float):
    """Largest |route - oracle| / max(floor, |oracle|) over the grid of
    (a, beta, m, m', r) cases, and the case where it occurs."""
    res = []
    for a, b, m, mp, r in grid:
        sp = SeriesSpec(a, b, m, mp)
        o = sum_series(sp, r).value
        res.append(abs(route(sp, r).value - o) / max(floor, abs(o)))
    worst = max(res)
    return worst, grid[res.index(worst)]


def _suite_representations(rep: ValidationReport) -> None:
    grid = [
        (a, b, m, mp, r)
        for a in (-2.5, -1.5, -1.0, -0.5)
        for b in _REP_BETAS
        for (m, mp) in _REP_ORDERS
        for r in (1.0, 5.0, 10.0, 30.0)
    ]
    grid_lifted = [
        (a, b, m, mp, r)
        for a in (0.0, 0.5, 1.0, 2.0)
        for b in _REP_BETAS
        for (m, mp) in _REP_ORDERS
        for r in (2.0, 10.0, 30.0)
    ]
    routes = (
        ("oracle_vs_hankel", eval_hankel, grid, 1e-2, 1e-6),
        ("oracle_vs_exp2d", eval_exp2d, grid, 1e-2, 1e-5),
        ("oracle_vs_lifted", eval_lifted, grid_lifted, 1e-1, 1e-5),
    )
    for name, route, cases, floor, tol in routes:
        worst, case = _worst_vs_oracle(route, cases, floor)
        rep.add(name, worst, tol,
                f"max relative residual over {len(cases)} grid points; worst at {case}")

    worst_par = 0.0
    for case in ((-1.5, 0.5, 1, 0, 5.0), (-0.5, 0.0, 1, 1, 10.0), (-2.0, 0.0, 0, 0, 3.0)):
        a, b, m, mp, r = case
        sp = SeriesSpec(a, b, m, mp)
        half = eval_hankel(sp, r, use_parity=True).value
        full = eval_hankel(sp, r, use_parity=False).value
        worst_par = max(worst_par, abs(half - full))
    rep.add("parity_reduction", worst_par, 1e-9,
            "int_0^pi equals 2 int_0^{pi/2} for the Hankel integrand")

    imag = eval_exp2d(SeriesSpec(-1.5, 0.0, 2, 0), 1.0).err_est
    rep.add("exp2d_imag_residue", imag, 1e-8,
            "imaginary residue of the 2D representation at (-1.5, 0, 2, 0, r=1)")


# --- asymptotics suite ----------------------------------------------------

def _fit_candidates(sp: SeriesSpec, forms: dict) -> tuple[str, float]:
    """Winner among candidate forms of ``sp`` by the rms of the window
    envelope of r * (oracle - form) over r in [50, 400], and the ratio of the
    loser's rms over the winner's."""
    anchors = oscillation_grid(50.0, 400.0)
    scores = {}
    for choice, form in forms.items():
        env = window_envelope(
            lambda r: r * (sum_series(sp, r).value - eval_form(form, r)), anchors
        )
        scores[choice] = float(np.sqrt(np.mean(env ** 2)))
    winner, loser = sorted(scores, key=scores.get)
    return winner, scores[loser] / scores[winner]


def resolve_cor42_phase() -> tuple[str, float]:
    """Fit both phase candidates of the oscillatory 1/r term; return winner
    and the residual-envelope ratio loser/winner.

    Test case (alpha, beta, m, m') = (1.5, 0.5, 2, 1): mu = 3, nu = 1 and
    (-1)^{m'} = -1, so the candidates predict opposite oscillation signs.
    """
    return _fit_candidates(SeriesSpec(-1.5, 0.5, 2, 1), {
        c: leading_noninteger(1.5, 0.5, 2, 1, phase_convention=c) for c in ("mu", "nu")
    })


def resolve_cor62_osc() -> tuple[str, float]:
    """Decide whether the alpha=1 expansion carries the oscillatory
    -Phi(-1,1,beta+1) sin(2r)/(pi r) term; returns choice and residual ratio."""
    return _fit_candidates(SeriesSpec(-1.0, 0.0, 0, 0), {
        c: leading_integer(1, 0.0, 0, 0, osc_term=c) for c in ("present", "absent")
    })


def derivative_decay(kind: str, a: float, beta: float) -> float:
    """How r^min(-a, 2) |S - form| shrinks from r = 100 to r = 800, a <= -1.

    S is the derivative series of ``kind`` by the oracle and form its
    ``derivative_series_form``; the ratio is of the maxima over 16 samples
    in [r0, 1.05 r0] at r0 = 800 and at r0 = 100.  A form that misses a term
    of order r^max(a, -2) or gets its sign wrong leaves a ratio near 1 or
    above; a right one falls below it where -1 >= a > -2.
    """
    form = derivative_series_form(kind, "a=-1" if a == -1.0 else "a<-1", a, beta)
    power = min(-a, 2.0)
    env = window_envelope(
        lambda r: r ** power * (sum_derivative_series(kind, a, beta, r).value
                                - eval_form(form, r)),
        np.array([100.0, 800.0]), samples=16)
    return float(env[1] / env[0])


def _suite_asymptotics(rep: ValidationReport) -> None:
    phase, ratio42 = resolve_cor42_phase()
    osc, ratio62 = resolve_cor62_osc()
    rep.phase_resolution = {"cor42_phase": phase, "cor62_osc_term": osc}
    fits = (("phase_fit_cor42", phase, ratio42, COR42_PHASE),
            ("phase_fit_cor62", osc, ratio62, COR62_OSC_TERM))
    for name, winner, ratio, library in fits:
        # residual: envelope of the library's candidate over the other one's
        rep.add(name, 1.0 / ratio if winner == library else ratio, 0.5,
                f"winner '{winner}' (library '{library}'), residual ratio "
                f"{ratio:.2f} (need the library's to win by >= 2)")

    # envelope decay of the two-term non-integer expansion, alpha = 0.5
    sp = SeriesSpec(-0.5, 0.0, 0, 0)
    form = leading_noninteger(0.5, 0.0, 0, 0)
    anchors = oscillation_grid(100.0, 800.0)
    env = window_envelope(lambda r: sum_series(sp, r).value - eval_form(form, r), anchors)
    slope = fit_loglog_slope(anchors, env)
    rep.add("noninteger_envelope_slope", max(0.0, slope + 1.25), 1e-9,
            f"fitted log-log slope {slope:.3f} (claimed -1.5, need <= -1.25)")

    # alpha = 1, nu = 0: pi r S - log r stays in a band after removing the
    # oscillatory term of the library's form
    sp1 = SeriesSpec(-1.0, 0.0, 0, 0)
    form1 = leading_integer(1, 0.0, 0, 0)
    absent = leading_integer(1, 0.0, 0, 0, osc_term="absent")
    vals = np.array([
        math.pi * r * (sum_series(sp1, r).value - eval_form(form1, r))
        + eval_form(absent, r) * math.pi * r - math.log(r)
        for r in map(float, oscillation_grid(200.0, 1000.0, 1.01))
    ])
    band = float(vals.max() - vals.min())
    rep.add("integer_log_capture", band, 0.1,
            f"band width of pi r S - log r (osc term removed) over [200, 1000]")

    # leading growth for a >= 0 at r = 500
    r = 500.0
    checks = [
        ("nonneg_a1", SeriesSpec(1.0, 0.0, 0, 0), lambda s: abs(s / (r / math.pi) - 1.0), 0.02),
        ("nonneg_a2", SeriesSpec(2.0, 0.0, 0, 0), lambda s: abs(4.0 * s / r ** 2 - 1.0), 0.02),
        ("nonneg_a0_nu2", SeriesSpec(0.0, 0.0, 2, 0), lambda s: abs(s), 0.05),
    ]
    for name, spc, fn, tol in checks:
        rep.add(name, fn(sum_series(spc, r).value), tol, f"leading-term check at r = {r}")

    cases = [(kind, a, beta) for a, beta in ((-1.0, 0.3), (-1.7, 0.2)) for kind in DERIVATIVE_KINDS]
    ratios = [derivative_decay(*case) for case in cases]
    worst = max(ratios)
    rep.add("derivative_forms", worst, 1.0 / 1.5,
            f"r^-a |S - form| from r = 100 to 800, worst ratio at {cases[ratios.index(worst)]}")


def run_suite(suite: str) -> ValidationReport:
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; expected one of {SUITES}")
    rep = ValidationReport(environment={
        "suite": suite,
        "quadrature": {"abs_tol": ABS_TOL, "rel_tol": REL_TOL},
    })
    if suite in ("kernel", "all"):
        _suite_kernel(rep)
    if suite in ("identities", "all"):
        _suite_identities(rep)
    if suite in ("representations", "all"):
        _suite_representations(rep)
    if suite in ("asymptotics", "all"):
        _suite_asymptotics(rep)
    return rep

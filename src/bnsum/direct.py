"""Rigorously truncated direct summation: the oracle every other route is
checked against.

The tail is certified with |J_n(r)| <= (r/2)^n / n!: once the term-bound
ratio drops below 1/2 the remainder is dominated by a geometric series and
bounded by twice the next term bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ToleranceError
from .kernels import bessel_rows

_HARD_CAP = 10**6
# Absolute error of one bessel_rows value, as checked against mpmath.  It
# enters err_est weighted by the other factor of each product.
_BESSEL_ABS_ERR = 2e-15

DERIVATIVE_KINDS = ("JJ", "JdJ", "dJdJ", "JddJ", "dJddJ", "ddJddJ")


@dataclass(frozen=True)
class SeriesSpec:
    """The series sum_{l>=1} J_{l+m'}(r) J_{l+m}(r) (l+beta)^a."""

    a: float
    beta: float
    m: int
    m_prime: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.beta)):
            raise DomainError("SeriesSpec requires finite a and beta")
        if self.beta <= -1.0:
            raise DomainError("SeriesSpec requires beta > -1")
        if self.m < 0 or self.m_prime < 0:
            raise DomainError("SeriesSpec requires m, m_prime >= 0")

    @property
    def mu(self) -> int:
        return self.m + self.m_prime

    @property
    def nu(self) -> int:
        return self.m - self.m_prime

    def canonical(self) -> "SeriesSpec":
        """Equivalent spec with nu >= 0 (the series is symmetric in m, m')."""
        if self.m >= self.m_prime:
            return self
        return SeriesSpec(self.a, self.beta, self.m_prime, self.m)


@dataclass(frozen=True)
class EvalResult:
    value: float
    err_est: float
    method: str
    work: int


def check_inputs(r: float, *tols: float) -> None:
    """Boundary check shared by every route: r finite and >= 0, each
    tolerance finite and > 0 (NaN fails both)."""
    if not 0.0 <= r < math.inf:
        raise DomainError("r must be finite and >= 0")
    if not all(0.0 < tol < math.inf for tol in tols):
        raise DomainError("tol must be finite and > 0")


def _sum_products(x: np.ndarray, y: np.ndarray, base: np.ndarray, a: float,
                  tol: float) -> tuple[float, float]:
    """sum x*y*base^a and its bound: tail tol, rounding, Bessel value error.

    Raises ToleranceError when either is not finite, e.g. when base^a
    overflows to inf where x*y underflows to 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        weight = base ** a
        terms = x * y * weight
        value = float(np.sum(terms))
        err = (
            tol
            + 1e-15 * float(np.sum(np.abs(terms)))
            + _BESSEL_ABS_ERR * float(np.sum((np.abs(x) + np.abs(y)) * weight))
        )
    if not (math.isfinite(value) and math.isfinite(err)):
        raise ToleranceError("oracle sum is not finite in double precision")
    return value, err


def _log_term_bound(l: int, n1: int, n2: int, a: float, beta: float, logr2: float) -> float:
    # log of (r/2)^{(l+n1)+(l+n2)} / ((l+n1)! (l+n2)!) * (l+beta)^{max(a,0)}
    return (
        (2 * l + n1 + n2) * logr2
        - math.lgamma(l + n1 + 1)
        - math.lgamma(l + n2 + 1)
        + max(a, 0.0) * math.log(l + beta)
    )


def _certified_length(n1: int, n2: int, a: float, beta: float, r: float, tol: float) -> int:
    """Smallest L with a certified tail bound <= tol past term L."""
    logr2 = math.log(r / 2.0) if r > 0 else -math.inf
    l = max(5, int(math.ceil(math.e * r / 2.0)) + n1 + n2 + 10)
    while l < _HARD_CAP:
        try:
            ratio_ok = (r / 2.0) ** 2 / ((l + n1 + 1) * (l + n2 + 1)) * (
                (l + 1 + beta) / (l + beta)
            ) ** max(a, 0.0) <= 0.5
        except OverflowError:  # a huge a: no certificate at this l
            ratio_ok = False
        if ratio_ok:
            log_next = _log_term_bound(l + 1, n1, n2, a, beta, logr2)
            if log_next < math.log(tol / 2.0):
                return l
        l += max(1, l // 8)
    raise ToleranceError(f"cannot certify tol={tol} within {_HARD_CAP} terms")


def sum_series(spec: SeriesSpec, r: float, tol: float = 1e-12) -> EvalResult:
    """Direct sum of the series with a certified absolute tail bound <= tol."""
    check_inputs(r, tol)
    if r == 0.0:
        return EvalResult(0.0, 0.0, "oracle", 0)
    length = _certified_length(spec.m, spec.m_prime, spec.a, spec.beta, r, tol)
    nmax = length + max(spec.m, spec.m_prime)
    row = bessel_rows(nmax, np.array([r]))[:, 0]
    l = np.arange(1, length + 1, dtype=float)
    value, err = _sum_products(
        row[1 + spec.m_prime : length + 1 + spec.m_prime],
        row[1 + spec.m : length + 1 + spec.m],
        l + spec.beta,
        spec.a,
        tol,
    )
    return EvalResult(value, err, "oracle", length)


def _derivative_arrays(row: np.ndarray, length: int) -> dict[str, np.ndarray]:
    """J, J' and J'' at orders 1..length from a row J_0..J_{length+2}.

    Derivatives come from the three-term recurrences; negative orders enter
    only for l in {1, 2} via J_{-1} = -J_1, J_{-2} = J_2.
    """
    j = row[1 : length + 1]
    j_m1 = row[0:length]  # J_{l-1}
    j_p1 = row[2 : length + 2]
    j_p2 = row[3 : length + 3]
    j_m2 = np.empty(length)
    j_m2[0] = -row[1]  # J_{-1}
    if length > 1:
        j_m2[1] = row[0]
        j_m2[2:] = row[1 : length - 1]
    d1 = 0.5 * (j_m1 - j_p1)
    d2 = 0.25 * (j_p2 + j_m2 - 2.0 * j)
    return {"J": j, "dJ": d1, "ddJ": d2}


_KIND_FACTORS = {
    "JJ": ("J", "J"),
    "JdJ": ("J", "dJ"),
    "dJdJ": ("dJ", "dJ"),
    "JddJ": ("J", "ddJ"),
    "dJddJ": ("dJ", "ddJ"),
    "ddJddJ": ("ddJ", "ddJ"),
}


def sum_derivative_series(
    kind: str, a: float, beta: float, r: float, tol: float = 1e-12
) -> EvalResult:
    """Direct sum of sum_{l>=1} (l+beta)^a X_l(r) Y_l(r), X,Y in {J, J', J''}."""
    if kind not in _KIND_FACTORS:
        raise DomainError(f"unknown kind {kind!r}; expected one of {DERIVATIVE_KINDS}")
    if not (math.isfinite(a) and math.isfinite(beta)):
        raise DomainError("a and beta must be finite")
    if beta <= -1.0:
        raise DomainError("beta must be > -1")
    check_inputs(r, tol)
    if r == 0.0:
        return EvalResult(0.0, 0.0, "oracle", 0)
    # |J'_l|, |J''_l| <= max over neighbor orders of the factorial bound, i.e.
    # the order-(l-2) bound covers every factor; certify with n1 = n2 = -2.
    length = _certified_length(-2, -2, a, beta, r, tol) + 2
    row = bessel_rows(length + 2, np.array([r]))[:, 0]
    arrays = _derivative_arrays(row, length)
    xk, yk = _KIND_FACTORS[kind]
    l = np.arange(1, length + 1, dtype=float)
    value, err = _sum_products(arrays[xk], arrays[yk], l + beta, a, tol)
    return EvalResult(value, err, "oracle", length)

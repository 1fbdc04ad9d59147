"""Rigorously truncated direct summation: the oracle every other route is
checked against.

The tail is certified with Kapteyn's bound |J_n(r)| <= exp(-h(n)) for
n >= r (``kernels.kapteyn``), which also picks the Bessel recurrence's start
order.  The length is the smallest whose tail bound is at most tol
(``_certified_length``): about 1.06 r at r = 10^3 and 1.003 r at r = 10^5,
for tol = 1e-12.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ToleranceError
from .kernels import bessel_rows, kapteyn

_HARD_CAP = 10**6
# Absolute error of one bessel_rows value, as checked against mpmath.  It
# enters err_est weighted by the other factor of each product.
_BESSEL_ABS_ERR = 2e-15

# J, J' and J'' at order l: scale * sum of weight * J_{l+shift} over the
# (shift, weight) pairs, added in this order (DLMF 10.6.1).  The oracle, the
# derivative forms of ``asymptotics`` and the identities suite all read it.
STENCILS = {
    "J": (1.0, ((0, 1),)),
    "dJ": (0.5, ((-1, 1), (1, -1))),
    "ddJ": (0.25, ((2, 1), (-2, 1), (0, -2))),
}
_REACH = {name: (min(s for s, _ in w), max(s for s, _ in w))  # lowest and highest shift
          for name, (_, w) in STENCILS.items()}
# the factors X, Y of each kind of sum_{l>=1} (l+beta)^a X_l(r) Y_l(r)
DERIVATIVE_KINDS = {
    "JJ": ("J", "J"),
    "JdJ": ("J", "dJ"),
    "dJdJ": ("dJ", "dJ"),
    "JddJ": ("J", "ddJ"),
    "dJddJ": ("dJ", "ddJ"),
    "ddJddJ": ("ddJ", "ddJ"),
}


@dataclass(frozen=True)
class SeriesSpec:
    """The series sum_{l>=1} J_{l+m'}(r) J_{l+m}(r) (l+beta)^a, m and m' any
    integers, symmetric in them; ``quadrature._lower`` gives its integral forms."""

    a: float
    beta: float
    m: int
    m_prime: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.beta)):
            raise DomainError("SeriesSpec requires finite a and beta")
        if self.beta <= -1.0:
            raise DomainError("SeriesSpec requires beta > -1")
        try:
            for name in ("m", "m_prime"):
                object.__setattr__(self, name, operator.index(getattr(self, name)))
        except TypeError:
            raise DomainError("SeriesSpec requires integer m and m_prime") from None


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
        # ndarray.sum is np.sum without its dispatch, a few us per oracle call
        value = float(terms.sum())
        err = (
            tol
            + 1e-15 * float(np.abs(terms).sum())
            + _BESSEL_ABS_ERR * float(((np.abs(x) + np.abs(y)) * weight).sum())
        )
    if not (math.isfinite(value) and math.isfinite(err)):
        raise ToleranceError("oracle sum is not finite in double precision")
    return value, err


def _certified_length(n1: int, n2: int, a: float, beta: float, r: float, tol: float) -> int:
    """Smallest L whose tail past term L is certified <= tol; r > 0.

    Term l is at most T(l) = K(l+n1) K(l+n2) (l+beta)^max(a,0), with K
    Kapteyn's bound, once both orders are >= r.  h is convex, so T(l+1) / T(l)
    <= rho(l) = exp(-h'(l+n1) - h'(l+n2)) (1 + 1/(l+beta))^max(a,0), and the
    tail from term l on is at most T(l) / (1 - rho(l)) where rho(l) < 1.  rho
    does not increase with l, as h' increases and 1 + 1/(l+beta) falls, so
    that bound at l+1 is at most T(l) rho(l) / (1 - rho(l)): once the test
    passes at a length it passes at every longer one, and a search from a
    guess, then a bisection, find the smallest.  Past _HARD_CAP it raises.
    """
    big_a = max(a, 0.0)
    log_r, log_tol = math.log(r), math.log(tol)
    # past the shortest length both orders of every term are >= r, and at
    # least five terms are summed, which keeps a tiny r's sum accurate
    # relative to its leading term
    shortest = max(5, math.ceil(r) - min(n1, n2) - 1)

    def certified(length):  # the tail from term l = length + 1 on is <= tol
        l = length + 1
        h, w = kapteyn(l + n1, r, log_r)
        h2, w2 = (h, w) if n1 == n2 else kapteyn(l + n2, r, log_r)
        h = h + h2 - big_a * math.log(l + beta)  # -log T(l)
        w = w + w2 - big_a * math.log1p(1.0 / (l + beta))  # -log rho(l)
        return w > 0.0 and -h - math.log(-math.expm1(-w)) <= log_tol

    # The guess is where the term bound alone falls to tol, h(n) ~ (2 sqrt(2) / 3) (n-r)^1.5 /
    # sqrt(r), within 2 of L at r in [50, 1000].  Steps of 1, 2, 4, ... go up from it while
    # the test fails, then down while it passes: lengths <= lo fail, and hi passes.
    width = (0.53 * max(0.0, big_a * math.log(r + 1.0) - log_tol)) ** (2.0 / 3.0) * r ** (1.0 / 3.0)
    lo, hi, step = shortest - 1, math.ceil(min(_HARD_CAP, shortest + width)), 1
    while hi < shortest or not certified(hi):  # hi < shortest: shortest is past the cap
        if hi >= _HARD_CAP:
            raise ToleranceError(f"cannot certify tol={tol} within {_HARD_CAP} terms")
        lo, hi, step = hi, min(_HARD_CAP, hi + step), 2 * step
    step = 1
    while hi - step > lo and certified(hi - step):
        hi, step = hi - step, 2 * step
    lo = max(lo, hi - step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if certified(mid) else (mid, hi)
    return hi


def _oracle(factors: tuple[str, str], offsets: tuple[int, int], a: float,
            beta: float, r: float, tol: float) -> EvalResult:
    """sum_{l>=1} (l+beta)^a X_l Y_l, X and Y the ``factors`` of :data:`STENCILS`
    at order l plus their ``offsets``.  Each stencil's weights have total size
    1 and Kapteyn's bound falls with the order past r, so the bound at its
    lowest order covers it.  At r = 0, J_n(0) = delta_{n0} ends the sum at the
    last term whose factors both reach an order <= 0: no tail is left."""
    check_inputs(r, tol)
    (ox, oy), (lx, hx), (ly, hy) = offsets, _REACH[factors[0]], _REACH[factors[1]]
    lows = ox + lx, oy + ly
    if r == 0.0:
        length, tol = max(0, -max(lows)), 0.0
    else:
        length = _certified_length(*lows, a, beta, r, tol)
    row = bessel_rows(max(length + max(ox + hx, oy + hy), -1 - min(lows)), np.array([r]))[:, 0]
    x, y = stencil_factors(row, factors, (ox + 1, oy + 1), length)
    value, err = _sum_products(x, y, np.arange(1.0, length + 1) + beta, a, tol)
    return EvalResult(value, err, "oracle", length)


def sum_series(spec: SeriesSpec, r: float, tol: float = 1e-12) -> EvalResult:
    """Direct sum of the series with a certified absolute tail bound <= tol."""
    return _oracle(("J", "J"), (spec.m_prime, spec.m), spec.a, spec.beta, r, tol)


def stencil_factors(row: np.ndarray, factors: tuple[str, ...], starts: tuple[int, ...],
                    count: int) -> list[np.ndarray]:
    """Each of ``factors`` (names in :data:`STENCILS`) at the orders
    start..start+count-1, one start per factor, from a row J_0..J_n that
    reaches every order read; an order below 0 enters as J_{-n} = (-1)^n J_n.
    A factor named twice at one start is computed once."""
    keys = list(zip(factors, starts))
    depth = max(0, -min([start + _REACH[name][0] for name, start in keys]))
    if depth:  # J_{-depth}, ..., J_{-1}, J_0, ...
        row = np.concatenate(([(-1.0) ** n * row[n] for n in range(depth, 0, -1)], row))
    made = {}
    for name, start in dict.fromkeys(keys):
        scale, weights = STENCILS[name]
        total = None
        for shift, weight in weights:
            begin = start + shift + depth
            part = row[begin : begin + count]
            part = part if weight == 1 else weight * part
            total = part if total is None else total + part
        made[name, start] = total if scale == 1.0 else scale * total
    return [made[key] for key in keys]


def sum_derivative_series(
    kind: str, a: float, beta: float, r: float, tol: float = 1e-12
) -> EvalResult:
    """Direct sum of sum_{l>=1} (l+beta)^a X_l(r) Y_l(r), X,Y in {J, J', J''}."""
    if kind not in DERIVATIVE_KINDS:
        raise DomainError(f"unknown kind {kind!r}; expected one of {tuple(DERIVATIVE_KINDS)}")
    SeriesSpec(a, beta, 0, 0)  # checks a and beta
    return _oracle(DERIVATIVE_KINDS[kind], (0, 0), a, beta, r, tol)

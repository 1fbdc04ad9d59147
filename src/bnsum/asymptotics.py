"""Large-r asymptotic forms of the weighted series and its derivative variants.

An :class:`AsymptoticForm` is a sum of terms ``coeff * r^{-power} * osc(r)``
with ``osc`` one of a constant, ``log r``, ``sin(2r + phase)`` or
``cos(2r + phase)``, plus the claimed error exponent.  Constructors cover the
negative-exponent regime (``alpha = -a > 0``, non-integer and integer), the
non-negative regime (growth ``r^a``) and the derivative series, whose forms
are contracted from those over the J'/J'' stencils of :mod:`bnsum.direct`.

Two source displays disagree on the phase of the oscillatory 1/r term (one
writes ``-pi*mu/2``, the other ``-pi*nu/2``, with ``mu = m+m'``,
``nu = m-m'``); since ``sin(2r - pi*mu/2) = (-1)^{m'} sin(2r - pi*nu/2)``
only one can be right.  The same holds for the ``sin(2r)`` term of the
``alpha = 1`` expansion, which one display carries and the other drops.  The
oracle decides both: the library fixes the winners as :data:`COR42_PHASE` and
:data:`COR62_OSC_TERM`, and ``bnsum validate`` fits both candidates again and
fails if the fit disagrees with them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .direct import DERIVATIVE_KINDS, STENCILS, SeriesSpec
from .errors import DomainError
from .specfun import (
    digamma,
    gamma,
    harmonic_extended,
    hurwitz_zeta,
    phi_minus_one,
    reciprocal_gamma,
)

_OSC_TAGS = ("const", "logr", "sin2r", "cos2r")

# Conventions the direct-sum oracle selected by an envelope fit over
# r in [50, 400] (harness.resolve_cor42_phase / resolve_cor62_osc): the losing
# candidates leave residual envelopes 37.7x ('nu') and 874.5x ('absent')
# larger.  The asymptotics suite repeats the fit and fails on disagreement.
COR42_PHASE = "mu"
COR62_OSC_TERM = "present"


@dataclass(frozen=True)
class AsymptoticTerm:
    coeff: float
    power: float  # exponent p in r^{-p}; negative p means growth
    osc: str = "const"
    phase: float = 0.0  # phi0 in sin/cos(2r + phi0)

    def __post_init__(self):
        if not math.isfinite(self.coeff):
            raise DomainError("term coefficient must be finite")
        if self.osc not in _OSC_TAGS:
            raise DomainError(f"osc must be one of {_OSC_TAGS}")


@dataclass(frozen=True)
class AsymptoticForm:
    terms: tuple[AsymptoticTerm, ...] = ()
    # error O(r^{-gamma_err}); strict means the little-o claim o(r^{-gamma_err})
    gamma_err: float = math.inf
    strict: bool = False


def eval_form(form: AsymptoticForm, r: float) -> float:
    """Sum of coeff * r^{-power} * osc(r) over the form's terms."""
    if not 0.0 < r < math.inf:
        raise DomainError("eval_form requires finite r > 0")
    total = 0.0
    for t in form.terms:
        osc = 1.0
        if t.osc == "logr":
            osc = math.log(r)
        elif t.osc == "sin2r":
            osc = math.sin(2.0 * r + t.phase)
        elif t.osc == "cos2r":
            osc = math.cos(2.0 * r + t.phase)
        total += t.coeff * r ** (-t.power) * osc
    return total


def _cos_half_pi(nu: int) -> float:
    """cos(pi*nu/2) exactly (float cos leaves ~1e-16 residue at the zeros)."""
    return (1.0, 0.0, -1.0, 0.0)[nu % 4]


def _sin_half_pi(nu: int) -> float:
    return (0.0, 1.0, 0.0, -1.0)[nu % 4]


def _phase_index(mu: int, nu: int, phase_convention: str) -> int:
    """k in the oscillatory term's sin(2r - pi k/2)."""
    if phase_convention == "mu":
        return mu
    if phase_convention == "nu":
        return nu
    raise DomainError("phase_convention must be 'mu' or 'nu'")


def _base_form(a: float, beta: float, mu: int, nu: int, one_over_r: bool = True,
               phase_convention: str = COR42_PHASE,
               osc_term: str = COR62_OSC_TERM) -> AsymptoticForm:
    """Leading terms of sum_{l>=1} (l+beta)^a J_{l+m'} J_{l+m}, mu = m+m',
    nu = |m-m'|.

    The r^a term 2^{-a-1} Gamma(a+1) / (Gamma((a+2-nu)/2) Gamma((a+2+nu)/2))
    is a Mellin value continued in a, computed through ``reciprocal_gamma``
    so that it vanishes continuously at the denominator's poles; at integer
    a <= -1 it is absent and the 1/r terms carry a log r or a zeta value in
    its place.  ``one_over_r=False`` keeps the r^a term alone, the leading
    growth for a > -1.  ``osc_term='absent'`` drops the oscillatory term at
    integer a <= -1.
    """
    alpha = -a
    integer = alpha >= 1.0 and alpha == math.floor(alpha)
    terms = []
    if not integer:
        terms.append((
            2.0 ** (-a - 1.0)
            * gamma(a + 1.0)
            * reciprocal_gamma((-nu + a + 2.0) / 2.0)
            * reciprocal_gamma((nu + a + 2.0) / 2.0),
            -a, "const"))
    gamma_err, strict = -a, True
    if one_over_r:
        cos_half = _cos_half_pi(nu)
        if alpha == 1.0:
            terms.append((cos_half / math.pi, 1.0, "logr"))
            terms.append((-cos_half * (
                harmonic_extended(beta) + digamma((nu + 1.0) / 2.0) + math.log(2.0)
            ) / math.pi, 1.0, "const"))
            terms.append((0.5 * _sin_half_pi(nu), 1.0, "const"))
            gamma_err = 1.0
        else:
            terms.append((cos_half * hurwitz_zeta(alpha, beta + 1.0) / math.pi, 1.0, "const"))
            # at integer alpha the error is O(r^{-2+eps}), eps arbitrarily small
            gamma_err, strict = min(alpha + 1.0, 2.0), integer
        phase = -0.5 * math.pi * _phase_index(mu, nu, phase_convention)
        if osc_term == "present" or not integer:
            terms.append((-phi_minus_one(alpha, beta + 1.0) / math.pi, 1.0, "sin2r", phase))
    return AsymptoticForm(
        tuple(AsymptoticTerm(*t) for t in terms if t[0] != 0.0), gamma_err, strict)


def leading_noninteger(
    alpha: float,
    beta: float,
    m: int,
    m_prime: int,
    phase_convention: str = COR42_PHASE,
) -> AsymptoticForm:
    """Two-term expansion of sum (l+beta)^{-alpha} J_{l+m'} J_{l+m}, alpha > 0
    non-integer:

        2^{alpha-1} Gamma(1-alpha) / (Gamma((nu-alpha+2)/2) Gamma((-nu-alpha+2)/2))
            * r^{-alpha}
        + (1/(pi r)) [cos(pi nu/2) zeta(alpha, beta+1)
                      - Phi(-1, alpha, beta+1) sin(2r + phase)]

    with error O(r^{-min(alpha+1, 2)}).  The gamma reflection goes through
    ``reciprocal_gamma`` so the leading coefficient vanishes continuously at
    denominator poles.
    """
    SeriesSpec(-alpha, beta, m, m_prime)  # checks a, beta and the orders
    if alpha <= 0.0 or alpha == math.floor(alpha):
        raise DomainError("leading_noninteger requires non-integer alpha > 0")
    return _base_form(-alpha, beta, m + m_prime, abs(m - m_prime),
                      phase_convention=phase_convention)


def leading_integer(
    alpha: int,
    beta: float,
    m: int,
    m_prime: int,
    osc_term: str = COR62_OSC_TERM,
) -> AsymptoticForm:
    """1/r expansion at integer alpha >= 1.

    alpha = 1 carries a log r term:

        (1/(pi r)) [cos(pi nu/2) log r
                    - cos(pi nu/2) (H_beta + psi((nu+1)/2) + log 2)
                    + (pi/2) sin(pi nu/2)
                    - Phi(-1, 1, beta+1) sin(2r + phase)] + o(1/r)

    and alpha > 1:

        (1/(pi r)) [cos(pi nu/2) zeta(alpha, beta+1)
                    - Phi(-1, alpha, beta+1) sin(2r + phase)] + O(r^{-2+eps}).

    ``osc_term='absent'`` drops the oscillatory term (the alternative reading
    of the conflicting source displays; see :data:`COR62_OSC_TERM`).
    """
    SeriesSpec(-alpha, beta, m, m_prime)  # checks a, beta and the orders
    if alpha != math.floor(alpha) or alpha < 1:
        raise DomainError("leading_integer requires integer alpha >= 1")
    if osc_term not in ("present", "absent"):
        raise DomainError("osc_term must be 'present' or 'absent'")
    return _base_form(-float(alpha), beta, m + m_prime, abs(m - m_prime), osc_term=osc_term)


def leading_nonneg(a: float, m: int, m_prime: int) -> AsymptoticForm:
    """Leading growth for weight exponent a >= 0:

        S ~ 2^{-a-1} Gamma(a+1) r^a / (Gamma((-nu+a+2)/2) Gamma((nu+a+2)/2)),

    understood as the continuous extension: the coefficient is exactly 0 when
    (-nu+a+2)/2 is a nonpositive integer.
    """
    SeriesSpec(a, 0.0, m, m_prime)  # checks a and the orders
    if a < 0.0:
        raise DomainError("leading_nonneg requires a >= 0")
    return _base_form(a, 0.0, m + m_prime, abs(m - m_prime), one_over_r=False)


_REGIMES = ("a>-1", "a=-1", "a<-1")


def derivative_series_form(kind: str, regime: str, a: float, beta: float) -> AsymptoticForm:
    """Leading form of sum (l+beta)^a X_l Y_l with X, Y in {J, J', J''}.

    ``kind`` is one of JJ, JdJ, dJdJ, JddJ, dJddJ, ddJddJ as in
    :mod:`bnsum.direct`; ``regime`` names the range of a that must hold:
    a > -1 (growth r^a), a = -1 (log r / r) or a < -1 (1/r).

    The form is a corollary of the base forms.  With X_l and Y_l the stencils
    sx sum_s x_s J_{l+s} and sy sum_t y_t J_{l+t} of
    :data:`bnsum.direct.STENCILS`, the series is sx sy sum x_s y_t times the
    base series of orders (s, t), whose leading terms depend only on
    mu = s + t mod 4 and nu = |s - t|.  The weights are summed per
    (mu mod 4, nu) first, so a group that cancels analytically is exactly 0,
    and each coefficient is an exactly rounded sum over the groups.
    """
    SeriesSpec(a, beta, 0, 0)  # checks a and beta
    if regime not in _REGIMES:
        raise DomainError(f"regime must be one of {_REGIMES}")
    if regime == "a>-1" and not a > -1.0:
        raise DomainError("regime 'a>-1' requires a > -1")
    if regime == "a=-1" and a != -1.0:
        raise DomainError("regime 'a=-1' requires a == -1")
    if regime == "a<-1" and not a < -1.0:
        raise DomainError("regime 'a<-1' requires a < -1")
    if kind not in DERIVATIVE_KINDS:
        raise DomainError(f"unknown kind {kind!r}")
    (sx, xs), (sy, ys) = (STENCILS[f] for f in DERIVATIVE_KINDS[kind])
    groups = {}
    for s, ws in xs:
        for t, wt in ys:
            key = ((s + t) % 4, abs(s - t))
            groups[key] = groups.get(key, 0) + ws * wt
    parts = {}
    for (mu, nu), w in groups.items():
        if w == 0:
            continue
        w *= sx * sy
        k = _phase_index(mu, nu, COR42_PHASE)
        base = _base_form(a, beta, mu, nu, one_over_r=regime != "a>-1")
        for term in base.terms:
            # sin(2r - pi k/2) = cos(pi k/2) sin 2r - sin(pi k/2) cos 2r
            folded = (((_cos_half_pi(k), "sin2r"), (-_sin_half_pi(k), "cos2r"))
                      if term.osc == "sin2r" else ((1.0, term.osc),))
            for f, tag in folded:
                parts.setdefault((term.power, tag), []).append(w * f * term.coeff)
    sums = ((math.fsum(cs), power, tag) for (power, tag), cs in parts.items())
    terms = tuple(AsymptoticTerm(c, power, tag) for c, power, tag in sums if c != 0.0)
    return AsymptoticForm(terms, base.gamma_err, base.strict)

"""Large-r asymptotic forms of the weighted series and its derivative variants.

An :class:`AsymptoticForm` is a sum of terms ``coeff * r^{-power} * osc(r)``
with ``osc`` one of a constant, ``log r``, ``sin(2r + phase)`` or
``cos(2r + phase)``, plus the claimed error exponent.  Constructors cover the
negative-exponent regime (``alpha = -a > 0``, non-integer and integer), the
non-negative regime (growth ``r^a``) and the derivative-series tables.

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
from dataclasses import dataclass, field

from .errors import DomainError
from .specfun import (
    EULER_GAMMA,
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
    notes: str = field(default="", compare=False)


def eval_form(form: AsymptoticForm, r: float) -> float:
    """Sum of coeff * r^{-power} * osc(r) over the form's terms."""
    if r <= 0.0:
        raise DomainError("eval_form requires r > 0")
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


def _canonical_orders(m: int, m_prime: int) -> tuple[int, int]:
    if m < 0 or m_prime < 0:
        raise DomainError("m, m_prime must be >= 0")
    mu = m + m_prime
    nu = abs(m - m_prime)
    return mu, nu


def _cos_half_pi(nu: int) -> float:
    """cos(pi*nu/2) exactly (float cos leaves ~1e-16 residue at the zeros)."""
    return (1.0, 0.0, -1.0, 0.0)[nu % 4]


def _sin_half_pi(nu: int) -> float:
    return (0.0, 1.0, 0.0, -1.0)[nu % 4]


def _osc_phase(mu: int, nu: int, phase_convention: str) -> float:
    if phase_convention == "mu":
        return -0.5 * math.pi * mu
    if phase_convention == "nu":
        return -0.5 * math.pi * nu
    raise DomainError("phase_convention must be 'mu' or 'nu'")


def _one_over_r_coeffs(alpha: float, beta: float) -> tuple[float, float]:
    """The 1/r pair shared by the non-integer expansion, the integer one at
    alpha > 1 and (up to sign) the a < -1 derivative table:
    zeta(alpha, beta+1)/pi and -Phi(-1, alpha, beta+1)/pi, the coefficients of
    cos(pi nu/2) and of sin(2r + phase).  The second is at alpha = 1 also the
    oscillatory coefficient of ``leading_integer``, where the first diverges."""
    zeta_1r = hurwitz_zeta(alpha, beta + 1.0) / math.pi
    return zeta_1r, -phi_minus_one(alpha, beta + 1.0) / math.pi


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
    if alpha <= 0.0 or alpha == math.floor(alpha):
        raise DomainError("leading_noninteger requires non-integer alpha > 0")
    if beta <= -1.0:
        raise DomainError("beta must be > -1")
    mu, nu = _canonical_orders(m, m_prime)
    lead = (
        2.0 ** (alpha - 1.0)
        * gamma(1.0 - alpha)
        * reciprocal_gamma((nu - alpha + 2.0) / 2.0)
        * reciprocal_gamma((-nu - alpha + 2.0) / 2.0)
    )
    zeta_1r, osc_1r = _one_over_r_coeffs(alpha, beta)
    const_1r = _cos_half_pi(nu) * zeta_1r
    terms = []
    if lead != 0.0:
        terms.append(AsymptoticTerm(lead, alpha))
    if const_1r != 0.0:
        terms.append(AsymptoticTerm(const_1r, 1.0))
    if osc_1r != 0.0:
        terms.append(
            AsymptoticTerm(osc_1r, 1.0, "sin2r", _osc_phase(mu, nu, phase_convention))
        )
    return AsymptoticForm(tuple(terms), min(alpha + 1.0, 2.0))


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
    if not (isinstance(alpha, int) or alpha == math.floor(alpha)) or alpha < 1:
        raise DomainError("leading_integer requires integer alpha >= 1")
    alpha = int(alpha)
    if beta <= -1.0:
        raise DomainError("beta must be > -1")
    mu, nu = _canonical_orders(m, m_prime)
    if osc_term not in ("present", "absent"):
        raise DomainError("osc_term must be 'present' or 'absent'")
    phase = _osc_phase(mu, nu, COR42_PHASE)
    cos_half = _cos_half_pi(nu)
    terms = []
    if alpha == 1:
        if cos_half != 0.0:
            terms.append(AsymptoticTerm(cos_half / math.pi, 1.0, "logr"))
            const = -cos_half * (
                harmonic_extended(beta) + digamma((nu + 1.0) / 2.0) + math.log(2.0)
            ) / math.pi
            terms.append(AsymptoticTerm(const, 1.0))
        sin_half = _sin_half_pi(nu)
        if sin_half != 0.0:
            terms.append(AsymptoticTerm(0.5 * sin_half, 1.0))
        if osc_term == "present":
            terms.append(
                AsymptoticTerm(-phi_minus_one(1.0, beta + 1.0) / math.pi, 1.0, "sin2r", phase)
            )
        return AsymptoticForm(tuple(terms), 1.0, strict=True)
    zeta_1r, osc_1r = _one_over_r_coeffs(float(alpha), beta)
    if cos_half != 0.0:
        terms.append(AsymptoticTerm(cos_half * zeta_1r, 1.0))
    if osc_term == "present":
        terms.append(AsymptoticTerm(osc_1r, 1.0, "sin2r", phase))
    # error O(r^{-2+eps}) with eps arbitrarily small
    return AsymptoticForm(tuple(terms), 2.0, strict=True)


def leading_nonneg(a: float, m: int, m_prime: int) -> AsymptoticForm:
    """Leading growth for weight exponent a >= 0:

        S ~ 2^{-a-1} Gamma(a+1) r^a / (Gamma((-nu+a+2)/2) Gamma((nu+a+2)/2)),

    understood as the continuous extension: the coefficient is exactly 0 when
    (-nu+a+2)/2 is a nonpositive integer.
    """
    if a < 0.0:
        raise DomainError("leading_nonneg requires a >= 0")
    _, nu = _canonical_orders(m, m_prime)
    coeff = (
        2.0 ** (-a - 1.0)
        * gamma(a + 1.0)
        * reciprocal_gamma((-nu + a + 2.0) / 2.0)
        * reciprocal_gamma((nu + a + 2.0) / 2.0)
    )
    terms = (AsymptoticTerm(coeff, -a),) if coeff != 0.0 else ()
    return AsymptoticForm(terms, -a, strict=True)


_REGIMES = ("a>-1", "a=-1", "a<-1")


def derivative_series_form(kind: str, regime: str, a: float, beta: float) -> AsymptoticForm:
    """Leading form of sum (l+beta)^a X_l Y_l with X, Y in {J, J', J''}.

    ``kind`` is one of JJ, JdJ, dJdJ, JddJ, dJddJ, ddJddJ as in
    :mod:`bnsum.direct`; ``regime`` selects the a > -1 (growth r^a),
    a = -1 (log r / r) or a < -1 (1/r) table.
    """
    if regime not in _REGIMES:
        raise DomainError(f"regime must be one of {_REGIMES}")
    if beta <= -1.0:
        raise DomainError("beta must be > -1")
    if regime == "a>-1" and not a > -1.0:
        raise DomainError("regime 'a>-1' requires a > -1")
    if regime == "a=-1" and a != -1.0:
        raise DomainError("regime 'a=-1' requires a == -1")
    if regime == "a<-1" and not a < -1.0:
        raise DomainError("regime 'a<-1' requires a < -1")

    if regime == "a>-1":
        if kind == "JJ":
            c = 2.0 ** (-a - 1.0) * gamma(a + 1.0) * reciprocal_gamma(a / 2.0 + 1.0) ** 2
        elif kind == "dJdJ":
            c = gamma((a + 1.0) / 2.0) / (4.0 * math.sqrt(math.pi)) * reciprocal_gamma(a / 2.0 + 2.0)
        elif kind == "JddJ":
            c = -gamma((a + 1.0) / 2.0) / (4.0 * math.sqrt(math.pi)) * reciprocal_gamma(a / 2.0 + 2.0)
        elif kind == "ddJddJ":
            c = (
                3.0 * 2.0 ** (-a - 5.0) * (a + 2.0) * (a + 4.0)
                * gamma(a + 1.0) * reciprocal_gamma(a / 2.0 + 3.0) ** 2
            )
        elif kind in ("JdJ", "dJddJ"):
            return AsymptoticForm((), -a, strict=True)
        else:
            raise DomainError(f"unknown kind {kind!r}")
        return AsymptoticForm((AsymptoticTerm(c, -a),), -a, strict=True)

    pi = math.pi
    if regime == "a=-1":
        h = harmonic_extended(beta)
        psi_b = digamma(beta + 1.0)
        phi1 = phi_minus_one(1.0, beta + 1.0)
        table = {
            "JJ": ((1.0 / pi, "logr"), ((-h + math.log(2.0) + EULER_GAMMA) / pi, "const")),
            "JdJ": ((-phi1 / pi, "cos2r"),),
            "dJdJ": (
                (1.0 / pi, "logr"),
                ((-h + EULER_GAMMA - 1.0 + math.log(2.0)) / pi, "const"),
            ),
            "JddJ": ((-1.0 / pi, "logr"), ((psi_b - math.log(2.0) + 1.0) / pi, "const")),
            "dJddJ": ((phi1 / pi, "cos2r"),),
            "ddJddJ": (
                (1.0 / pi, "logr"),
                ((-3.0 * psi_b - 4.0 + math.log(8.0)) / (3.0 * pi), "const"),
            ),
        }
        gamma_err = 1.0
    else:  # a < -1
        z, w = _one_over_r_coeffs(-a, beta)
        table = {
            "JJ": ((z, "const"), (w, "sin2r")),
            "JdJ": ((w, "cos2r"),),
            "dJdJ": ((z, "const"), (-w, "sin2r")),
            "JddJ": ((z, "const"), (w, "sin2r")),
            "dJddJ": ((-w, "cos2r"),),
            "ddJddJ": ((z, "const"), (w, "sin2r")),
        }
        gamma_err = 2.0  # O(r^{-2+eps}) with eps arbitrarily small
    if kind not in table:
        raise DomainError(f"unknown kind {kind!r}")
    terms = tuple(AsymptoticTerm(c, 1.0, osc) for c, osc in table[kind])
    return AsymptoticForm(terms, gamma_err, strict=True)

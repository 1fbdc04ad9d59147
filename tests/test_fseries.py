"""Tests for the amplitude function F and its singular local behavior."""
import math

import mpmath
import numpy as np
import pytest

from bnsum.errors import DomainError, SingularityError
from bnsum.fseries import f_phase
from bnsum.specfun import gamma, lerch_unit_many

HALF_PI = math.pi / 2.0


def f_values(alpha, beta, mu, eps):
    """F at phi = pi/2 - eps for each signed eps of ``eps``."""
    eps = np.asarray(eps, dtype=float)
    return f_phase(lerch_unit_many(eps, alpha, beta + 1.0), eps, mu)


def f_mpmath(alpha, beta, mu, eps: float) -> float:
    """F at phi = pi/2 - eps in 30-digit mpmath, eps taken exactly."""
    with mpmath.workdps(30):
        phi = mpmath.pi / 2 - mpmath.mpf(eps)
        lam = mpmath.lerchphi(-mpmath.exp(2j * phi), alpha, beta + 1)
        return float(mpmath.re(-mpmath.exp(1j * phi * (mu + 2)) * lam))


def f_eval(alpha, beta, mu, phi: float, return_imag_residual: bool = False):
    """F_{alpha,beta,mu}(phi); optionally also the symmetrized-form imaginary residue.

    The symmetrized definition averages the phi and -phi Lerch branches; its
    imaginary part is an algebraic zero and serves as a numerical diagnostic.
    """
    if not (0.0 <= phi <= math.pi):
        raise DomainError("phi must lie in [0, pi]")
    value = float(f_values(alpha, beta, mu, [HALF_PI - phi])[0])
    if not return_imag_residual:
        return value
    lam_pos = lerch_unit_many(np.array([HALF_PI - phi]), alpha, beta + 1.0)[0]
    lam_neg = lerch_unit_many(np.array([phi - HALF_PI]), alpha, beta + 1.0)[0]
    # Phi(-e^{-2 i phi}) = Phi(-e^{2 i (pi - phi)}): both branches evaluated
    # independently, so conjugate symmetry is genuinely tested.
    sym = -0.5 * np.exp(-1j * phi * (mu + 2)) * (
        np.exp(2j * phi * (mu + 2)) * lam_pos + lam_neg
    )
    return value, abs(sym.imag)


def f_singular_model(alpha, mu, phi: float, side: str) -> float:
    """Leading local model of F near phi = pi/2 for 0 < alpha < 1."""
    if not (0.0 < alpha < 1.0):
        raise DomainError("singular model holds for 0 < alpha < 1")
    if side not in ("below", "above"):
        raise DomainError("side must be 'below' or 'above'")
    g = gamma(1.0 - alpha)
    if side == "below":
        if not phi < HALF_PI:
            raise DomainError("side='below' requires phi < pi/2")
        return 0.5 * g * (-((math.pi - 2.0 * phi) ** (alpha - 1.0))) * (
            -2.0 * math.sin(0.5 * math.pi * (mu + alpha))
        )
    if not phi > HALF_PI:
        raise DomainError("side='above' requires phi > pi/2")
    return 0.5 * g * (2.0 * phi - math.pi) ** (alpha - 1.0) * (
        -2.0 * math.sin(0.5 * math.pi * (mu - alpha))
    )


def brute_force_f(alpha, beta, mu, phi, terms=2_000_000):
    l = np.arange(1, terms + 1, dtype=float)
    return float(np.sum((-1.0) ** l * np.cos(phi * (mu + 2 * l)) / (l + beta) ** alpha))


class TestFEval:
    def test_brute_force_series(self):
        # convergent comparison only for alpha > 1
        for alpha, beta, mu, phi in [(1.5, 0.0, 0, 0.7), (2.0, 0.5, 3, 2.1),
                                     (1.2, 1.0, 2, 1.5)]:
            want = brute_force_f(alpha, beta, mu, phi)
            assert f_eval(alpha, beta, mu, phi) == pytest.approx(want, abs=5e-7)

    def test_parity(self):
        # F(pi - phi) = (-1)^mu F(phi)
        for mu in (0, 1, 2, 3):
            for phi in (0.3, 1.1, 1.5):
                assert f_eval(0.7, 0.3, mu, math.pi - phi) == pytest.approx(
                    (-1.0) ** mu * f_eval(0.7, 0.3, mu, phi), rel=1e-9, abs=1e-11
                )

    def test_imag_residual_small(self):
        _, resid = f_eval(1.5, 0.5, 2, 0.8, return_imag_residual=True)
        assert resid < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            f_eval(1.0, 0.0, 0, -0.2)

    def test_singular_point_raises(self):
        with pytest.raises(SingularityError):
            f_values(0.5, 0.0, 0, [0.0])

    def test_half_pi_value_alpha_gt_one(self):
        # F(pi/2) = cos(pi mu / 2) * zeta(alpha, beta+1) ... sign from -e^{i phi(mu+2)}
        from bnsum.specfun import hurwitz_zeta
        for mu in (0, 1, 2, 4):
            want = math.cos(HALF_PI * mu) * hurwitz_zeta(2.3, 1.4)
            assert f_eval(2.3, 0.4, mu, HALF_PI) == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestNearHalf:
    def test_matches_direct_eval(self):
        eps = np.array([1e-2, 1e-4, 1e-6])
        near = f_values(0.6, 0.2, 1, eps)
        want = [f_mpmath(0.6, 0.2, 1, e) for e in eps]
        np.testing.assert_allclose(near, want, rtol=1e-13)

    def test_subulp_nodes_finite(self):
        # distances below one ulp of pi/2 must still evaluate, not collapse
        eps = np.array([1e-20, 1e-30])
        vals = f_values(0.5, 0.0, 0, eps)
        assert np.all(np.isfinite(vals))
        # leading behavior ~ eps^{alpha-1} grows as eps -> 0
        assert abs(vals[1]) > abs(vals[0])

    def test_above_side(self):
        # pi/2 + eps is the angle pi/2 - (-eps)
        above = f_values(0.6, 0.2, 1, [-1e-3])
        np.testing.assert_allclose(above, [f_mpmath(0.6, 0.2, 1, -1e-3)], rtol=1e-13)


class TestSingularModel:
    def test_ratio_tends_to_one(self):
        prev = None
        for eps in (1e-3, 1e-5, 1e-7):
            val = float(f_values(0.4, 0.0, 1, [eps])[0])
            model = f_singular_model(0.4, 1, HALF_PI - eps, "below")
            ratio = val / model
            if prev is not None:
                assert abs(ratio - 1.0) < abs(prev - 1.0) + 1e-12
            prev = ratio
        assert abs(prev - 1.0) < 1e-4

    def test_domain(self):
        with pytest.raises(DomainError):
            f_singular_model(1.5, 0, 1.0, "below")
        with pytest.raises(DomainError):
            f_singular_model(0.5, 0, 1.0, "above")


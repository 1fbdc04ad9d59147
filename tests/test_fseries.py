"""Tests for the amplitude function F and its singular local behavior."""
import math

import numpy as np
import pytest

from bnsum.errors import DomainError, SingularityError
from bnsum.fseries import FParams, f_eval_many, f_eval_near_half_many
from bnsum.specfun import gamma, lerch_unit_many

HALF_PI = math.pi / 2.0


def f_eval(p: FParams, phi: float, return_imag_residual: bool = False):
    """F_{alpha,beta,mu}(phi); optionally also the symmetrized-form imaginary residue.

    The symmetrized definition averages the phi and -phi Lerch branches; its
    imaginary part is an algebraic zero and serves as a numerical diagnostic.
    """
    if not (0.0 <= phi <= math.pi):
        raise DomainError("phi must lie in [0, pi]")
    value = float(f_eval_many(p, np.array([phi]))[0])
    if not return_imag_residual:
        return value
    lam_pos = lerch_unit_many(np.array([phi]), p.alpha, p.beta + 1.0)[0]
    lam_neg = lerch_unit_many(np.array([math.pi - phi]), p.alpha, p.beta + 1.0)[0]
    # Phi(-e^{-2 i phi}) = Phi(-e^{2 i (pi - phi)}): both branches evaluated
    # independently, so conjugate symmetry is genuinely tested.
    sym = -0.5 * np.exp(-1j * phi * (p.mu + 2)) * (
        np.exp(2j * phi * (p.mu + 2)) * lam_pos + lam_neg
    )
    return value, abs(sym.imag)


def f_singular_model(p: FParams, phi: float, side: str) -> float:
    """Leading local model of F near phi = pi/2 for 0 < alpha < 1."""
    if not (0.0 < p.alpha < 1.0):
        raise DomainError("singular model holds for 0 < alpha < 1")
    if side not in ("below", "above"):
        raise DomainError("side must be 'below' or 'above'")
    g = gamma(1.0 - p.alpha)
    if side == "below":
        if not phi < HALF_PI:
            raise DomainError("side='below' requires phi < pi/2")
        return 0.5 * g * (-((math.pi - 2.0 * phi) ** (p.alpha - 1.0))) * (
            -2.0 * math.sin(0.5 * math.pi * (p.mu + p.alpha))
        )
    if not phi > HALF_PI:
        raise DomainError("side='above' requires phi > pi/2")
    return 0.5 * g * (2.0 * phi - math.pi) ** (p.alpha - 1.0) * (
        -2.0 * math.sin(0.5 * math.pi * (p.mu - p.alpha))
    )


def brute_force_f(alpha, beta, mu, phi, terms=2_000_000):
    l = np.arange(1, terms + 1, dtype=float)
    return float(np.sum((-1.0) ** l * np.cos(phi * (mu + 2 * l)) / (l + beta) ** alpha))


class TestFEval:
    def test_brute_force_series(self):
        # convergent comparison only for alpha > 1
        for alpha, beta, mu, phi in [(1.5, 0.0, 0, 0.7), (2.0, 0.5, 3, 2.1),
                                     (1.2, 1.0, 2, 1.5)]:
            p = FParams(alpha, beta, mu)
            want = brute_force_f(alpha, beta, mu, phi)
            assert f_eval(p, phi) == pytest.approx(want, abs=5e-7)

    def test_parity(self):
        # F(pi - phi) = (-1)^mu F(phi)
        for mu in (0, 1, 2, 3):
            p = FParams(0.7, 0.3, mu)
            for phi in (0.3, 1.1, 1.5):
                assert f_eval(p, math.pi - phi) == pytest.approx(
                    (-1.0) ** mu * f_eval(p, phi), rel=1e-9, abs=1e-11
                )

    def test_imag_residual_small(self):
        p = FParams(1.5, 0.5, 2)
        _, resid = f_eval(p, 0.8, return_imag_residual=True)
        assert resid < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            FParams(0.0, 0.0, 0)
        with pytest.raises(DomainError):
            FParams(1.0, -1.0, 0)
        with pytest.raises(DomainError):
            FParams(1.0, 0.0, -1)
        with pytest.raises(DomainError):
            FParams(math.nan, 0.0, 0)
        with pytest.raises(DomainError):
            FParams(1.0, math.nan, 0)
        with pytest.raises(DomainError):
            f_eval(FParams(1.0, 0.0, 0), -0.2)

    def test_singular_point_raises(self):
        with pytest.raises(SingularityError):
            f_eval_many(FParams(0.5, 0.0, 0), np.array([HALF_PI]))

    def test_half_pi_value_alpha_gt_one(self):
        # F(pi/2) = cos(pi mu / 2) * zeta(alpha, beta+1) ... sign from -e^{i phi(mu+2)}
        from bnsum.specfun import hurwitz_zeta
        for mu in (0, 1, 2, 4):
            p = FParams(2.3, 0.4, mu)
            want = math.cos(HALF_PI * mu) * hurwitz_zeta(2.3, 1.4)
            assert f_eval(p, HALF_PI) == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestNearHalf:
    def test_matches_direct_eval(self):
        p = FParams(0.6, 0.2, 1)
        eps = np.array([1e-2, 1e-4, 1e-6])
        near = f_eval_near_half_many(p, eps)
        direct = f_eval_many(p, HALF_PI - eps)
        np.testing.assert_allclose(near, direct, rtol=1e-9)

    def test_subulp_nodes_finite(self):
        # distances below one ulp of pi/2 must still evaluate, not collapse
        p = FParams(0.5, 0.0, 0)
        eps = np.array([1e-20, 1e-30])
        vals = f_eval_near_half_many(p, eps)
        assert np.all(np.isfinite(vals))
        # leading behavior ~ eps^{alpha-1} grows as eps -> 0
        assert abs(vals[1]) > abs(vals[0])

    def test_above_side(self):
        p = FParams(0.6, 0.2, 1)
        eps = np.array([1e-3])
        above = f_eval_near_half_many(p, eps, side=-1)
        direct = f_eval_many(p, HALF_PI + eps)
        np.testing.assert_allclose(above, direct, rtol=1e-9)


class TestSingularModel:
    def test_ratio_tends_to_one(self):
        p = FParams(0.4, 0.0, 1)
        prev = None
        for eps in (1e-3, 1e-5, 1e-7):
            val = float(f_eval_near_half_many(p, np.array([eps]))[0])
            model = f_singular_model(p, HALF_PI - eps, "below")
            ratio = val / model
            if prev is not None:
                assert abs(ratio - 1.0) < abs(prev - 1.0) + 1e-12
            prev = ratio
        assert abs(prev - 1.0) < 1e-4

    def test_domain(self):
        with pytest.raises(DomainError):
            f_singular_model(FParams(1.5, 0.0, 0), 1.0, "below")
        with pytest.raises(DomainError):
            f_singular_model(FParams(0.5, 0.0, 0), 1.0, "above")


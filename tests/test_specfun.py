"""Special-function kernel tests against mpmath as an independent oracle."""
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnsum import specfun
from bnsum.errors import DomainError, PoleError, SingularityError
from bnsum.kernels import bessel_j_col, bessel_rows, hankel_x0
from bnsum.specfun import (
    EULER_GAMMA,
    digamma,
    gamma,
    harmonic_extended,
    hurwitz_zeta,
    lerch_local_many,
    lerch_unit,
    lerch_unit_many,
    lerch_unit_series,
    phi_minus_one,
    reciprocal_gamma,
)

mpmath.mp.dps = 30


class TestGamma:
    def test_half_integer(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), abs=1e-15)

    def test_negative_argument(self):
        assert gamma(-1.5) == pytest.approx(float(mpmath.gamma(-1.5)), rel=1e-14, abs=0)

    def test_pole(self):
        with pytest.raises(PoleError):
            gamma(0.0)
        with pytest.raises(PoleError):
            gamma(-3.0)

    def test_reciprocal_vanishes_at_poles(self):
        assert reciprocal_gamma(0.0) == 0.0
        assert reciprocal_gamma(-2.0) == 0.0

    def test_reciprocal_matches(self):
        for x in (0.3, 1.7, -0.25, -4.5, 12.0, 171.3, -170.5):
            assert reciprocal_gamma(x) == pytest.approx(
                float(1.0 / mpmath.gamma(x)), rel=1e-12, abs=1e-300
            )

    def test_reciprocal_overflow_is_signed_inf(self):
        assert reciprocal_gamma(-171.25) == math.inf


class TestDigamma:
    def test_half(self):
        # psi(1/2) = -gamma - 2 ln 2
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-14)

    def test_against_mpmath(self):
        for x in (0.1, 1.0, 2.5, 11.25, 100.0, -0.7, -5.3):
            assert digamma(x) == pytest.approx(float(mpmath.digamma(x)), rel=1e-13, abs=1e-13)

    def test_harmonic_extended(self):
        # H_beta = psi(beta+1) + gamma; H_0 = 0, H_3 = 1 + 1/2 + 1/3
        assert harmonic_extended(0.0) == pytest.approx(0.0, abs=1e-14)
        assert harmonic_extended(3.0) == pytest.approx(11.0 / 6.0, abs=1e-13)


class TestHurwitzZeta:
    def test_basel(self):
        assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-14)

    def test_against_mpmath(self):
        for s, a in [(1.5, 1.0), (3.0, 0.5), (2.0, 7.3), (0.5, 1.2), (-0.5, 1.0),
                     (-3.0, 2.5), (4.7, 0.1), (1.0001, 1.0)]:
            want = float(mpmath.zeta(s, a))
            assert hurwitz_zeta(s, a) == pytest.approx(want, rel=1e-11)

    def test_s_one_pole(self):
        with pytest.raises(PoleError):
            hurwitz_zeta(1.0, 1.0)

    def test_negative_integer_bernoulli(self):
        # zeta(-n, a) = -B_{n+1}(a)/(n+1)
        assert hurwitz_zeta(-1.0, 1.0) == pytest.approx(-1.0 / 12.0, abs=1e-13)
        assert hurwitz_zeta(0.0, 0.5) == pytest.approx(0.0, abs=1e-13)


class TestPhiMinusOne:
    def test_ln2(self):
        assert phi_minus_one(1.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-13)

    def test_against_mpmath(self):
        for s, a in [(1.0, 1.7), (2.0, 1.0), (0.5, 2.2), (3.5, 0.4)]:
            want = float(mpmath.lerchphi(-1, s, a))
            assert phi_minus_one(s, a) == pytest.approx(want, rel=1e-11)
        # here (zeta(s, a/2) - zeta(s, (a+1)/2)) / 2^s cancels to 1.4e-12,
        # 4.8e-13 and 3.2e-13 relative; approx's default abs of 1e-12 hides that
        for s, a in [(0.9, 1000.0), (0.5, 1000.0), (1.5, 1000.0)]:
            want = float(mpmath.lerchphi(-1, s, a))
            assert phi_minus_one(s, a) == pytest.approx(want, rel=1e-13, abs=0.0)


class TestLerchUnit:
    def test_against_mpmath(self):
        for phi, alpha, v in [(0.3, 1.7, 1.0), (1.0, 0.5, 1.3), (2.7, 2.0, 0.7),
                              (1.45, 1.2, 1.0), (1.65, 0.8, 2.0), (math.pi, 1.5, 1.0)]:
            z = -mpmath.exp(2j * mpmath.mpf(phi))
            want = complex(mpmath.lerchphi(z, alpha, v))
            got = lerch_unit(phi, alpha, v)
            assert abs(got - want) < 5e-8 * max(1.0, abs(want))

    def test_half_pi_regular(self):
        # z = 1 exactly: Phi(1, alpha, v) = zeta(alpha, v) for alpha > 1
        got = lerch_unit(math.pi / 2.0, 2.5, 1.3)
        assert got.real == pytest.approx(hurwitz_zeta(2.5, 1.3), rel=1e-10)
        assert got.imag == pytest.approx(0.0, abs=1e-10)

    def test_half_pi_singular(self):
        with pytest.raises(SingularityError):
            lerch_unit(math.pi / 2.0, 0.5, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            lerch_unit(-0.1, 1.5, 1.0)
        with pytest.raises(DomainError):
            lerch_unit(1.0, 0.0, 1.0)

    def test_series_route_agreement(self):
        for phi, alpha, v in [(0.4, 1.5, 1.0), (2.0, 2.5, 0.8)]:
            a = lerch_unit(phi, alpha, v)
            b = lerch_unit_series(phi, alpha, v)
            assert abs(a - b) < 1e-8

    def test_local_expansion_consistency(self):
        # local (log z) expansion agrees with the integral route at the
        # boundary of its activation window
        for alpha, v in [(0.5, 1.0), (1.0, 1.3), (2.0, 0.9), (1.7, 2.0)]:
            phis = np.array([math.pi / 2 - 0.17, math.pi / 2 + 0.17])
            ell = 2.0 * phis - math.pi
            loc = lerch_local_many(ell, alpha, v)
            for phi, lval in zip(phis, loc):
                z = -mpmath.exp(2j * mpmath.mpf(float(phi)))
                want = complex(mpmath.lerchphi(z, alpha, v))
                assert abs(complex(lval) - want) < 1e-9 * max(1.0, abs(want))

    def test_far_interpolant_matches_integral(self):
        # the cached Chebyshev expansion against the quadrature it is built from
        rng = np.random.default_rng(11)
        phis = rng.uniform(0.0, math.pi, 800)
        phis = phis[np.abs(2.0 * phis - math.pi) >= specfun._NEAR_HALF_PI][:500]
        assert phis.size == 500
        for alpha in (0.05, 0.15, 0.5, 1.0, 1.5, 2.0, 3.0):
            for v in (0.01, 0.1, 0.5, 1.0, 2.0, 3.0):
                want = specfun._lerch_integral_many(phis, alpha, v)
                got = lerch_unit_many(math.pi / 2.0 - phis, alpha, v)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (alpha, v)

    def test_vectorized_matches_scalar(self):
        phis = np.linspace(0.1, 3.0, 17)
        many = lerch_unit_many(math.pi / 2.0 - phis, 1.3, 1.1)
        for phi, val in zip(phis, many):
            assert complex(val) == pytest.approx(
                lerch_unit(float(phi), 1.3, 1.1), rel=1e-12
            )

    def test_mirror_is_conjugate(self):
        # pi/2 + eps is the angle pi/2 - (-eps), where Phi(e^{-2 i eps}) is the
        # conjugate of Phi(e^{2 i eps}); the mirror half of every route relies
        # on it.  Angles on both sides of the seam and across (0, pi/2].
        rng = np.random.default_rng(5)
        eps = np.concatenate((rng.uniform(0.15, 0.2, 100),
                              math.pi / 2.0 - rng.uniform(0.0, math.pi / 2.0, 200)))
        for alpha in (0.05, 0.5, 1.0, 1.5, 2.85):
            for v in (0.01, 1.0, 3.0):
                lam = lerch_unit_many(eps, alpha, v)
                gap = np.max(np.abs(lerch_unit_many(-eps, alpha, v) - np.conj(lam)))
                assert gap <= 1e-13 * np.max(np.abs(lam)), (alpha, v)


def _complex_local(ells, alpha, v):
    """``lerch_local_many`` as it was summed in complex arithmetic (ascending
    powers of i*ell), frozen here as the reference for the real form."""
    alpha_int = alpha == math.floor(alpha)
    coeffs = [0.0 if alpha_int and k == int(alpha) - 1
              else hurwitz_zeta(alpha - k, v) / math.factorial(k) for k in range(48)]
    logz = 1j * ells
    acc = np.zeros(ells.shape, dtype=np.complex128)
    lp = np.ones(ells.shape, dtype=np.complex128)
    for c in coeffs:
        acc += lp * c
        lp *= logz
    with np.errstate(divide="ignore", invalid="ignore"):
        if alpha_int:
            n = int(alpha)
            head = -(logz ** (n - 1)) * (
                digamma(v) - digamma(float(n)) + np.log(-logz)) / math.factorial(n - 1)
        else:
            head = gamma(1.0 - alpha) * (-logz) ** (alpha - 1.0)
    head = np.where(ells == 0.0, 0.0, head)
    return np.exp(-1j * v * ells) * (acc + head)


class TestLerchLayer:
    def test_far_table_against_mpmath(self):
        # the alpha-dependent t-grid dropped the integral below t = 1e-250:
        # off by 3.0e-3 of max|Phi| at (alpha, v) = (0.01, 0.001).  Each case
        # takes one folded far angle of each sign, in turn from these.
        positive, negative = (0.1, 0.45, 1.2), (-0.3, -0.9, -1.35)
        cases = [(alpha, v) for alpha in (0.01, 0.02, 0.05, 0.07, 0.5, 3.0, 10.0)
                 for v in (1e-6, 0.01, 1.0, 3.0)]
        for i, (alpha, v) in enumerate(cases):
            phis = np.array([positive[i % 3], negative[i // 3 % 3]])
            with mpmath.workdps(20):
                want = np.array([complex(mpmath.lerchphi(-mpmath.exp(2j * mpmath.mpf(phi)),
                                                         alpha, v)) for phi in phis])
            scale = np.max(np.abs(want))
            got = specfun._lerch_integral_many(phis, alpha, v)
            assert np.max(np.abs(got - want)) <= 1e-14 * scale, (alpha, v)
            got = lerch_unit_many(math.pi / 2.0 - phis % math.pi, alpha, v)
            assert np.max(np.abs(got - want)) <= 1e-13 * scale, (alpha, v)

    def test_far_table_size_and_memory(self):
        # the t-rule does not depend on alpha; at alpha = 0.02 the old one
        # took 8,768 t-nodes and a cold build peaked at 34.7 MiB
        for alpha in (0.01, 0.5, 10.0):
            assert specfun._lerch_t_grid(alpha, 1.0)[0].size == 480
        tracemalloc.start()
        try:
            specfun._far_coeffs.__wrapped__(0.02, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_local_real_form_matches_complex(self):
        # over the reach of the near nodes and of the lerch_seam check,
        # |ell| <= 0.36, for which the real form sets its term count; the
        # complex reference sums all 48 terms.  v <= 1: at (alpha, v) = (2.85,
        # 3) the two forms differed by 1.9e-14 of max|Phi| at |ell| = 0.8,
        # where both are 4e-14 off mpmath (cancellation)
        ells = np.random.default_rng(29).uniform(-0.36, 0.36, 400)
        for alpha in (0.15, 0.5, 1.5, 2.85, 1.0, 2.0):
            pts = np.append(ells, 0.0) if alpha > 1.0 else ells
            for v in (0.01, 1.0):
                want = _complex_local(pts, alpha, v)
                got = lerch_local_many(pts, alpha, v)
                assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want)), (alpha, v)
            if alpha > 1.0:
                assert np.isfinite(got[-1])
            else:
                with pytest.raises(SingularityError):
                    lerch_local_many(np.array([0.3, 0.0]), alpha, 1.0)

    def test_local_series_against_mpmath(self):
        # the term count stops where |c_k| 0.35^k is 1e-17 of the largest:
        # 12-20 terms here, against the 48 it may take.  Up to v = 3 the
        # values stay within 4e-15 of max|Phi| of 20-digit mpmath, as they
        # were with 48 terms; integer alpha skips its zeroed coefficient
        ells = np.array([-0.36, -0.2, 0.02, 0.25, 0.349])
        for alpha in (0.15, 1.0, 2.0, 2.85):
            for v in (0.01, 1.0, 3.0):
                even, odd, _ = specfun._local_tables(alpha, v)
                assert even.size == odd.size <= 10, (alpha, v)
                with mpmath.workdps(20):
                    want = np.array([complex(mpmath.lerchphi(
                        mpmath.exp(1j * mpmath.mpf(float(e))), alpha, v)) for e in ells])
                got = lerch_local_many(ells, alpha, v)
                assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want)), (alpha, v)


class TestBesselJCol:
    def test_against_mpmath(self):
        # both regimes: just below hankel_x0 (recurrence), at it and above it
        # (Hankel's expansion), and 40 seeded points up to 2,000
        rng = np.random.default_rng(7)
        for nu in range(10):
            x0 = hankel_x0(nu)
            xs = np.concatenate((x0 * np.array([1.0 - 1e-12, 1.0, 1.0 + 1e-12]),
                                 rng.uniform(x0, 2000.0, 40)))
            got = bessel_j_col(nu, xs)
            want = np.array([float(mpmath.besselj(nu, mpmath.mpf(float(x)))) for x in xs])
            assert np.max(np.abs(got - want)) <= 2e-15, nu

    def test_below_x0_is_the_recurrence_row(self):
        rng = np.random.default_rng(8)
        for nu in (0, 1, 3, 9):
            xs = np.concatenate(([0.0, 1e-60], rng.uniform(0.0, hankel_x0(nu), 30)))
            assert np.array_equal(bessel_j_col(nu, xs), bessel_rows(nu, xs)[nu]), nu

    def test_many_orders_match_one_order_columns(self):
        # arguments on both sides of every order's x0, up to 2,000
        rng = np.random.default_rng(11)
        orders = list(range(10))
        x0s = np.array([hankel_x0(nu) for nu in orders])
        xs = np.concatenate((np.multiply.outer(x0s, [1.0 - 1e-12, 1.0, 1.0 + 1e-12]).ravel(),
                             [0.0, 1e-60], rng.uniform(0.0, 200.0, 100),
                             rng.uniform(0.0, 2000.0, 100)))
        cols = bessel_j_col(orders, xs)
        assert cols.shape == (len(orders), xs.size)
        for nu, col in zip(orders, cols):
            one = bessel_j_col(nu, xs)
            assert np.max(np.abs(col - one)) <= 2e-15, nu
            below = xs < hankel_x0(nu)
            assert np.array_equal(one[below], bessel_rows(nu, xs[below])[nu]), nu
            assert np.array_equal(col[~below], one[~below]), nu  # Hankel's expansion
            assert np.array_equal(bessel_j_col([nu], xs)[0], one), nu
        # a column depends on the largest order of the call, not on the others
        assert np.array_equal(bessel_j_col([9, 2], xs), cols[[9, 2]])

    def test_groups_match_separate_calls_bitwise(self):
        # a quadrature grid's rows: each group mixes both regimes, one has no
        # argument below x0, one has too few for the numpy kernel
        rng = np.random.default_rng(10)
        for nu in (0, 1, 3):
            x0 = hankel_x0(nu)
            groups = [rng.uniform(0.0, 3.0 * x0, 40), rng.uniform(x0, 200.0, 20),
                      np.concatenate((rng.uniform(x0, 90.0, 10), [0.5, x0 / 2])),
                      np.array([]), rng.uniform(0.0, 0.6 * x0, 25)]
            got = bessel_j_col(nu, np.concatenate(groups))
            alone = np.concatenate([bessel_j_col(nu, g) for g in groups])
            assert np.array_equal(got, alone), nu

    @settings(max_examples=30, deadline=None)
    @given(xs=st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1e-60]), st.floats(0.0, 400.0)),
                       min_size=1, max_size=40),
           nmax=st.integers(0, 60), nu=st.integers(0, 9), data=st.data())
    def test_value_depends_on_argument_alone(self, xs, nmax, nu, data):
        # up to _LOOP_MAX_COLUMNS arguments run the loop kernel, more the numpy kernel
        perm = data.draw(st.permutations(range(len(xs))))
        xs = np.array(xs)
        rows, col = bessel_rows(nmax, xs), bessel_j_col(nu, xs)
        assert np.array_equal(bessel_rows(nmax, xs[perm]), rows[:, perm])
        assert np.array_equal(bessel_j_col(nu, xs[perm]), col[perm])
        for j, x in enumerate(xs):
            assert np.array_equal(bessel_rows(nmax, [x])[:, 0], rows[:, j]), x
            assert bessel_j_col(nu, [x])[0] == col[j], x


@pytest.mark.parametrize("call", [
    lambda: lerch_unit(1.0, 1.7, math.nan),
    lambda: lerch_unit_series(1.0, math.nan, 1.3),
    lambda: phi_minus_one(1.0, math.nan),
    lambda: harmonic_extended(math.nan),
    lambda: hurwitz_zeta(2.0, math.nan),
    lambda: hurwitz_zeta(math.nan, 1.0),
    lambda: hurwitz_zeta(math.inf, 1.0),
    lambda: phi_minus_one(math.nan, 1.0),
    lambda: phi_minus_one(-math.inf, 1.0),
    lambda: lerch_unit_series(math.nan, 1.5, 1.0),
    lambda: lerch_unit_series(math.inf, 1.5, 1.0),
], ids=["lerch_unit", "lerch_unit_series", "phi_minus_one", "harmonic_extended",
        "hurwitz_zeta", "hurwitz_zeta_s", "hurwitz_zeta_s_inf", "phi_minus_one_s",
        "phi_minus_one_s_inf", "lerch_unit_series_phi", "lerch_unit_series_phi_inf"])
def test_nan_parameter_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()

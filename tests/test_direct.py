"""Tests for the Bessel-row kernel and the certified direct summation."""
import math

import mpmath
import numpy as np
import pytest

from bnsum import kernels
from bnsum.direct import (
    DERIVATIVE_KINDS,
    SeriesSpec,
    sum_derivative_series,
    sum_series,
)
from bnsum.errors import DomainError, ToleranceError
from bnsum.kernels import bessel_rows

mpmath.mp.dps = 25


def mp_series(a, beta, r, product):
    """sum_{l>=1} product(l, r) (l+beta)^a at 30 digits, for r <= 150."""
    with mpmath.workdps(30):
        rr = mpmath.mpf(r)
        return mpmath.fsum(product(l, rr) * (l + mpmath.mpf(beta)) ** a
                           for l in range(1, int(1.36 * r) + 80))


class TestBesselRows:
    def test_against_mpmath(self):
        rs = np.array([0.3, 2.0, 17.5, 80.0])
        rows = bessel_rows(12, rs)
        for j, r in enumerate(rs):
            for n in (0, 1, 5, 12):
                want = float(mpmath.besselj(n, float(r)))
                assert rows[n, j] == pytest.approx(want, abs=2e-15)

    def test_numpy_fallback_matches(self):
        # both kernels start a column at its own order: bit for bit equal
        rs = np.array([0.5, 4.2, 33.0])
        assert np.array_equal(bessel_rows(20, rs), kernels._rows_numpy(20, rs))

    def test_loop_kernel(self):
        # nmax = 600 at small r takes the rescale branch
        rs = np.array([0.3, 7.7, 80.0, 400.0])
        rows = kernels._rows_kernel(600, rs)
        assert np.array_equal(rows, kernels._rows_numpy(600, rs))
        for j, r in enumerate(rs):
            for n in (0, 3, 90, 600):
                want = float(mpmath.besselj(n, float(r)))
                assert rows[n, j] == pytest.approx(want, abs=2e-15)

    def test_one_column_matches_numpy_bitwise(self):
        # a one-column call runs the plain loop, a call of more than
        # _LOOP_MAX_COLUMNS the numpy kernel, which does the same arithmetic;
        # nmax = 600 at small r takes the rescale
        rng = np.random.default_rng(5)
        rs = [0.0, 1e-47, *10.0 ** rng.uniform(-3.0, 3.0, 20)]
        for r in rs:
            for nmax in (0, 1, 5, 600):
                got = bessel_rows(nmax, [r])
                wide = bessel_rows(nmax, np.full(kernels._LOOP_MAX_COLUMNS + 1, r))
                assert np.array_equal(np.repeat(got, wide.shape[1], axis=1), wide), (nmax, r)

    def test_rescale_at_phase_boundary_matches_numpy_bitwise(self):
        # at small r the recurrence rescales every few orders, so over nmax
        # 0..64 rescales fall above, at and below the first stored order
        for r in (1e-47, 1e-20, 1e-8, 1e-3, 0.7):
            for nmax in range(65):
                got = bessel_rows(nmax, [r])
                assert np.array_equal(got, kernels._rows_numpy(nmax, np.array([r])),
                                      equal_nan=True), (nmax, r)

    def test_dispatch_by_column_count(self, monkeypatch):
        calls = []
        numpy_kernel = kernels._rows_numpy

        def recording(nmax, rs):
            calls.append(rs.size)
            return numpy_kernel(nmax, rs)

        monkeypatch.setattr(kernels, "_rows_numpy", recording)
        bessel_rows(30, np.array([7.7]))
        assert calls == []
        # columns below _TINY_R never reach a kernel, so they do not count
        bessel_rows(30, np.concatenate([np.zeros(10), np.linspace(0.1, 40.0, 20)]))
        assert calls == []
        bessel_rows(30, np.linspace(0.1, 40.0, 64))
        assert calls == [64]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("n", [1, 64])
    def test_rejects_nonfinite_and_negative(self, bad, n):
        # one column runs the loop, 64 the numpy kernel
        rs = np.linspace(0.1, 40.0, n)
        rs[n // 2] = bad
        with pytest.raises(ValueError):
            bessel_rows(30, rs)

    @pytest.mark.parametrize("nmax", [0, 1, 3, 40, 600])
    def test_groups_match_separate_calls_bitwise(self, nmax):
        # groups of at most _LOOP_MAX_COLUMNS columns alone run the loop, the
        # group of 30 and the whole call the numpy kernel; an empty group too
        rng = np.random.default_rng(9)
        groups = [rng.uniform(0.0, 25.0, 30), np.array([0.0, 1e-60, 3.5, 17.0]),
                  np.array([]), 10.0 ** rng.uniform(-3.0, 2.5, 12), np.array([24.9]),
                  rng.uniform(0.0, 2.0, 6)]
        rows = bessel_rows(nmax, np.concatenate(groups))
        alone = np.concatenate([bessel_rows(nmax, g) for g in groups], axis=1)
        assert np.array_equal(rows, alone)

    def test_kernels_never_see_tiny_arguments(self, monkeypatch):
        seen = []

        def recording(kernel):
            def wrapper(nmax, rs):
                seen.append((kernel.__name__, rs.copy()))
                return kernel(nmax, rs)
            return wrapper

        for name in ("_rows_kernel", "_rows_numpy"):
            monkeypatch.setattr(kernels, name, recording(getattr(kernels, name)))
        tiny = np.array([0.0, 5e-324, 1e-60, 9.9e-51])
        for rs in (tiny[:1], np.concatenate([tiny, [1e-50, 3.0]]),
                   np.concatenate([tiny, np.linspace(0.1, 40.0, 40)]), np.tile(tiny, 10)):
            bessel_rows(12, rs)
        assert {name for name, _ in seen} == {"_rows_kernel", "_rows_numpy"}
        assert all(np.all(rs >= kernels._TINY_R) for _, rs in seen)

    def test_zero_argument(self):
        # 1, 0, 0, ... exactly, alone and among more than _LOOP_MAX_COLUMNS columns
        rs = np.concatenate([[0.0], np.linspace(0.1, 40.0, 30)])
        for nmax in (0, 4, 600):
            row = bessel_rows(nmax, np.array([0.0]))
            assert row[0, 0] == 1.0
            assert np.all(row[1:] == 0.0) and not np.signbit(row).any()
            assert np.array_equal(bessel_rows(nmax, rs)[:, :1], row)

    def test_tiny_r_leading_term(self):
        # below 1e-50 the recurrence overflows; J_n(r) = (r/2)^n / n! to
        # 1e-100 relative, down to 0 where that underflows
        rs = np.array([1e-51, 1e-60, 1e-100, 1e-300, 5e-324])
        wide = np.concatenate([rs, np.linspace(0.1, 40.0, 30)])
        for nmax in (0, 1, 5, 40):
            rows = bessel_rows(nmax, rs)
            assert np.array_equal(rows, bessel_rows(nmax, wide)[:, :rs.size])
            for j, r in enumerate(rs):
                assert np.array_equal(rows[:, j], bessel_rows(nmax, rs[j:j + 1])[:, 0])
                half = mpmath.mpf(float(r)) / 2
                for n in range(nmax + 1):
                    lead = float(half ** n / mpmath.factorial(n))
                    want = float(mpmath.besselj(n, mpmath.mpf(float(r))))
                    assert lead == want
                    assert rows[n, j] == pytest.approx(want, rel=1e-15, abs=1e-320), (n, r)


class TestSeriesSpec:
    def test_domain(self):
        with pytest.raises(DomainError):
            SeriesSpec(0.0, -1.0, 0, 0)
        with pytest.raises(DomainError):
            SeriesSpec(0.0, 0.0, -1, 0)


class TestSumSeries:
    def test_neumann_value(self):
        # a=0, m=m'=0: S = (1 - J_0(r)^2)/2
        for r in (0.5, 2.0, 11.0, 40.0):
            want = (1.0 - float(mpmath.besselj(0, r)) ** 2) / 2.0
            got = sum_series(SeriesSpec(0.0, 0.0, 0, 0), r)
            assert got.value == pytest.approx(want, abs=1e-13)
            assert abs(got.value - want) <= got.err_est

    def test_frozen_value_at_two(self):
        # (1 - J_0(2)^2)/2 with J_0(2) = 0.22389077914123567
        got = sum_series(SeriesSpec(0.0, 0.0, 0, 0), 2.0).value
        assert got == pytest.approx(0.47493645950776536, abs=1e-14)

    def test_zero_r(self):
        res = sum_series(SeriesSpec(-1.0, 0.0, 1, 0), 0.0)
        assert res.value == 0.0 and res.err_est == 0.0

    def test_symmetry_in_orders(self):
        a = sum_series(SeriesSpec(-1.5, 0.5, 2, 0), 7.0).value
        b = sum_series(SeriesSpec(-1.5, 0.5, 0, 2), 7.0).value
        assert a == pytest.approx(b, rel=1e-14)

    def test_mpmath_oracle(self):
        sp = SeriesSpec(-0.7, 0.3, 1, 0)
        r = 6.0
        want = float(mpmath.nsum(
            lambda l: mpmath.besselj(int(l), r) * mpmath.besselj(int(l) + 1, r)
            / (l + 0.3) ** 0.7,
            [1, mpmath.inf],
        ))
        got = sum_series(sp, r).value
        assert got == pytest.approx(want, abs=1e-11)

    # (l+beta)^a reaches 1e10 here, so the Bessel values' own error dominates
    @pytest.mark.parametrize("a, beta, r", [
        (-1.949, -0.99993, 60.3),
        (-2.5, -0.99993, 150.0),
        (-1.5, -0.9999, 128.2),
    ])
    def test_err_est_bounds_mpmath(self, a, beta, r):
        got = sum_series(SeriesSpec(a, beta, 2, 3), r)
        want = mp_series(a, beta, r,
                         lambda l, x: mpmath.besselj(l + 3, x) * mpmath.besselj(l + 2, x))
        assert abs(got.value - want) <= got.err_est

    @pytest.mark.parametrize("a, r", [(400.0, 5.0), (130.0, 50.0), (1e308, 5.0)])
    def test_nonfinite_raises(self, a, r):
        # (l+beta)^a overflows where J*J underflows; 1e308 overflows the
        # certificate's term ratio itself
        with pytest.raises(ToleranceError):
            sum_series(SeriesSpec(a, 0.0, 0, 0), r)

    def test_certified_tolerance(self):
        sp = SeriesSpec(2.0, 0.0, 0, 0)
        loose = sum_series(sp, 25.0, tol=1e-6)
        tight = sum_series(sp, 25.0, tol=1e-13)
        assert abs(loose.value - tight.value) <= loose.err_est

    def test_large_r_runs(self):
        res = sum_series(SeriesSpec(-1.0, 0.0, 0, 0), 800.0)
        assert math.isfinite(res.value)
        assert res.work < 3000


class TestDerivativeSeries:
    @pytest.mark.parametrize("kind", DERIVATIVE_KINDS)
    def test_against_mpmath(self, kind):
        a, beta, r = -1.2, 0.4, 5.0

        def dj(n, order):
            return float(mpmath.besselj(n, r, derivative=order))

        orders = {"JJ": (0, 0), "JdJ": (0, 1), "dJdJ": (1, 1),
                  "JddJ": (0, 2), "dJddJ": (1, 2), "ddJddJ": (2, 2)}[kind]
        want = sum(
            dj(l, orders[0]) * dj(l, orders[1]) * (l + beta) ** a for l in range(1, 40)
        )
        got = sum_derivative_series(kind, a, beta, r).value
        assert got == pytest.approx(want, abs=1e-11)

    @pytest.mark.parametrize("kind, orders, a, beta, r", [
        ("JdJ", (0, 1), -2.5, -0.99993, 150.0),
        ("dJdJ", (1, 1), -1.5, -0.9999, 40.9),
    ])
    def test_err_est_bounds_mpmath(self, kind, orders, a, beta, r):
        got = sum_derivative_series(kind, a, beta, r)
        want = mp_series(a, beta, r, lambda l, x: mpmath.besselj(l, x, derivative=orders[0])
                         * mpmath.besselj(l, x, derivative=orders[1]))
        assert abs(got.value - want) <= got.err_est

    def test_nonfinite_raises(self):
        with pytest.raises(ToleranceError):
            sum_derivative_series("JJ", 200.0, 0.0, 5.0)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            sum_derivative_series("JdddJ", 0.0, 0.0, 1.0)

    def test_jj_matches_sum_series(self):
        a, beta, r = -1.5, 0.5, 9.0
        assert sum_derivative_series("JJ", a, beta, r).value == pytest.approx(
            sum_series(SeriesSpec(a, beta, 0, 0), r).value, rel=1e-12
        )

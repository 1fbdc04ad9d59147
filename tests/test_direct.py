"""Tests for the Bessel-row kernel and the certified direct summation."""
import math

import mpmath
import numpy as np
import pytest

from bnsum import kernels
from bnsum.direct import (
    _HARD_CAP,
    DERIVATIVE_KINDS,
    SeriesSpec,
    _certified_length,
    stencil_factors,
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


def kapteyn_h(n, r):
    """Kapteyn's exponent n arccosh(n/r) - sqrt(n^2 - r^2), n >= r, written
    apart from ``kernels.kapteyn``."""
    return n * math.acosh(n / r) - math.sqrt(n * n - r * r)


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

    def test_recurrence_never_sees_tiny_arguments(self, monkeypatch):
        # a column below _TINY_R takes the power series' leading term, in a
        # call of one argument or of many: no recurrence starts at it
        seen = []

        def recording(fn):
            def wrapper(nmax, rs):
                seen.append((fn.__name__, np.atleast_1d(rs).copy()))
                return fn(nmax, rs)
            return wrapper

        for name in ("_start_order", "_start_orders", "_rows_numpy"):
            monkeypatch.setattr(kernels, name, recording(getattr(kernels, name)))
        tiny = np.array([0.0, 5e-324, 1e-60, 9.9e-51])
        for rs in (tiny[:1], np.concatenate([tiny, [1e-50, 3.0]]),
                   np.concatenate([tiny, np.linspace(0.1, 40.0, 40)]), np.tile(tiny, 10)):
            bessel_rows(12, rs)
        assert {name for name, _ in seen} == {"_start_order", "_start_orders", "_rows_numpy"}
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

    def test_start_orders_meet_the_kapteyn_margin(self):
        # the smallest M past n* = max(nmax, ceil(r)) with h(M) >= max(38,
        # h(n*) + 20), and the scalar form (the loop) equals the vector form
        # (the numpy kernel) integer for integer
        rng = np.random.default_rng(26)
        for nmax in (0, 1, 5, 12, 40, 150, 600, 2000):
            rs = np.concatenate([10.0 ** rng.uniform(-50.0, 4.0, 4000),
                                 rng.uniform(kernels._TINY_R, 25.0, 1000)])
            starts = kernels._start_orders(nmax, rs)
            assert starts.tolist() == [kernels._start_order(nmax, r) for r in rs.tolist()]
            for r, m in zip(rs[::25].tolist(), starts[::25].tolist()):
                n_star = max(nmax, math.ceil(r))
                target = max(38.0, kapteyn_h(n_star, r) + 20.0)
                assert kapteyn_h(m, r) >= target, (nmax, r, m)
                assert m - 1 == n_star or kapteyn_h(m - 1, r) < target, (nmax, r, m)

    @pytest.mark.parametrize("nmax, r", [(5, 47.298563304368805), (0, 135.72325355561395),
                                         (0, 8.83609172070774), (12, 140.09056559954817)])
    def test_start_orders_agree_at_a_ceiling_crossing(self, nmax, r):
        # r on a step of the start order, found by bisection: the last Newton
        # iterate is within rounding of an integer, and np.log rounds it to
        # the other side than math.log does, so the vector form's ceiling
        # alone would be one off; the scalar form decides there
        n_star = float(max(nmax, math.ceil(r)))
        log_r = math.log(r)
        target = max(38.0, kernels.kapteyn(n_star, r, log_r)[0] + 20.0)
        x = kernels._newton_start(n_star, r, log_r, target, math)
        assert abs(x - round(x)) < 1e-9 * x
        assert kernels._start_orders(nmax, np.array([r]))[0] == kernels._start_order(nmax, r)

    def test_short_starts_against_mpmath(self):
        # where a start too close to the turning point would show: few
        # stored orders at r in the quadrature's [20, 250], nmax right at
        # the turning point, and many orders at a small r
        rng = np.random.default_rng(27)
        cases = [(int(n), float(r)) for n, r in
                 zip(rng.integers(0, 13, 8), rng.uniform(20.0, 250.0, 8))]
        for r in rng.uniform(20.0, 250.0, 3):
            cases += [(math.ceil(r) - 1, r), (math.ceil(r) + 1, r)]
        cases.append((600, 0.3))
        for nmax, r in cases:
            row = bessel_rows(nmax, np.array([r]))[:, 0]
            orders = sorted({*range(min(nmax, 12) + 1), *np.linspace(0, nmax, 9).astype(int)})
            for n in orders:
                want = float(mpmath.besselj(n, mpmath.mpf(r)))
                assert row[n] == pytest.approx(want, abs=2e-15), (nmax, r, n)


class TestSeriesSpec:
    def test_domain(self):
        with pytest.raises(DomainError):
            SeriesSpec(0.0, -1.0, 0, 0)
        # an order is any integer; a float one, even 1.0, is refused
        for m, mp in ((1.5, 0), (0, 1.0), (0, "1")):
            with pytest.raises(DomainError):
                SeriesSpec(-0.5, 0.0, m, mp)
        spec = SeriesSpec(-0.5, 0.0, np.int64(-2), np.int32(1))
        assert (spec.m, spec.m_prime) == (-2, 1) and type(spec.m) is int


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
        assert a == pytest.approx(b, rel=1e-14, abs=0)

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
        # a tol above 1 leaves no term bound to fall below it in the search
        sp = SeriesSpec(2.0, 0.0, 0, 0)
        tight = sum_series(sp, 25.0, tol=1e-13)
        for tol in (1e-6, 10.0):
            loose = sum_series(sp, 25.0, tol=tol)
            assert abs(loose.value - tight.value) <= loose.err_est

    def test_large_r_runs(self):
        res = sum_series(SeriesSpec(-1.0, 0.0, 0, 0), 800.0)
        assert math.isfinite(res.value)
        assert res.work <= 1.15 * 800.0

    def test_reach_under_the_cap(self):
        res = sum_series(SeriesSpec(-0.5, 0.0, 0, 0), 9e5)
        assert math.isfinite(res.value) and res.work < _HARD_CAP
        assert _certified_length(0, 0, -0.5, 0.0, 9.99e5, 1e-12) == 999_636
        # the smallest certified length there is 1,000,036 terms
        with pytest.raises(ToleranceError):
            _certified_length(0, 0, -0.5, 0.0, 9.994e5, 1e-12)

    def test_certified_length_is_the_smallest(self):
        # a linear scan of Kapteyn's tail test from the shortest length on
        rng = np.random.default_rng(40)
        for _ in range(320):
            n1, n2 = (int(v) for v in rng.integers(-4, 5, 2))
            a = rng.uniform(-3.0, 3.0) if rng.random() < 0.5 else rng.uniform(0.0, 60.0)
            beta = rng.uniform(-1.0, 50.0)
            r, tol = 10.0 ** rng.uniform(-3.0, 3.5), 10.0 ** rng.uniform(-15.0, 0.5)
            big_a, log_r = max(a, 0.0), math.log(r)
            length = max(5, math.ceil(r) - min(n1, n2) - 1)
            while True:
                l = length + 1
                (h1, w1), (h2, w2) = (kernels.kapteyn(l + n, r, log_r) for n in (n1, n2))
                log_t = big_a * math.log(l + beta) - h1 - h2
                log_rho = big_a * math.log1p(1.0 / (l + beta)) - w1 - w2
                if log_rho < 0.0 and log_t - math.log(-math.expm1(log_rho)) <= math.log(tol):
                    break
                length += 1
            assert _certified_length(n1, n2, a, beta, r, tol) == length, (n1, n2, a, beta, r, tol)

    @pytest.mark.parametrize("derivative", [False, True])
    def test_certified_tail_below_tol(self, derivative):
        # the tail past the certified length, summed from a row twice as long
        rng = np.random.default_rng(28 + derivative)
        lowest = {"J": 0, "dJ": -1, "ddJ": -2}  # J'_l and J''_l reach down to l-1, l-2
        for i in range(40):
            a, beta = rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 2.0)
            m, mp = (int(v) for v in rng.integers(-3, 4, 2))
            r, tol = rng.uniform(0.5, 2000.0), float(rng.choice([1e-8, 1e-12]))
            if derivative:
                fx, fy = list(DERIVATIVE_KINDS.values())[i % 6]
                length = _certified_length(lowest[fx], lowest[fy], a, beta, r, tol)
                x, y = stencil_factors(bessel_rows(2 * length + 2, np.array([r]))[:, 0],
                                       (fx, fy), (length + 1, length + 1), length)
            else:
                length = _certified_length(m, mp, a, beta, r, tol)
                row = bessel_rows(2 * length + max(m, mp, 0), np.array([r]))[:, 0]
                x = row[length + 1 + mp: 2 * length + 1 + mp]
                y = row[length + 1 + m: 2 * length + 1 + m]
            l = np.arange(length + 1, 2 * length + 1)
            tail = float(np.sum(np.abs(x * y) * (l + beta) ** a))
            assert tail <= tol, (a, beta, m, mp, r, tol, length, tail)


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

    @pytest.mark.parametrize("kind", DERIVATIVE_KINDS)
    def test_zero_r(self, kind):
        # J'_1(0) = 1/2 and J''_2(0) = 1/4 are the only nonzero factors at 0,
        # and r = 1e-300 already reads the same
        a, beta = -1.0, 0.0
        want = {"dJdJ": (1.0 + beta) ** a / 4.0, "ddJddJ": (2.0 + beta) ** a / 16.0}.get(kind, 0.0)
        assert sum_derivative_series(kind, a, beta, 0.0).value == want
        near = sum_derivative_series(kind, a, beta, 1e-300).value
        assert near == pytest.approx(want, rel=1e-15, abs=1e-299)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            sum_derivative_series("JdddJ", 0.0, 0.0, 1.0)

    def test_jj_matches_sum_series(self):
        a, beta, r = -1.5, 0.5, 9.0
        assert sum_derivative_series("JJ", a, beta, r).value == pytest.approx(
            sum_series(SeriesSpec(a, beta, 0, 0), r).value, rel=1e-12
        )

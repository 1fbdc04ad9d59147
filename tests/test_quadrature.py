"""Integral-representation routes against the certified direct sum."""
import math

import pytest

from bnsum.direct import SeriesSpec, sum_series
from bnsum.errors import DomainError
from bnsum.quadrature import eval_exp2d, eval_hankel, eval_lifted


def oracle(a, beta, m, mp, r):
    return sum_series(SeriesSpec(a, beta, m, mp), r, tol=1e-13).value


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            eval_hankel(SeriesSpec(-1.5, 0.5, 1, 0), 5.0, abs_tol=0.0)
        with pytest.raises(DomainError):
            eval_hankel(SeriesSpec(-1.5, 0.5, 1, 0), 5.0, rel_tol=math.nan)


class TestHankel:
    @pytest.mark.parametrize("case", [
        (-2.0, 0.0, 0, 0, 3.0),
        (-1.5, 0.5, 1, 0, 5.0),
        (-0.5, 0.0, 1, 1, 10.0),   # alpha < 1: singular amplitude at pi/2
        (-1.0, 0.0, 2, 1, 30.0),
        (-2.5, 1.0, 0, 0, 1.0),
        (-0.3, 0.2, 3, 2, 20.0),
        (-1.5, 0.5, 5, 2, 1000.0),  # nu = 3: most nodes take Hankel's expansion
    ])
    def test_oracle_equivalence(self, case):
        a, b, m, mp, r = case
        res = eval_hankel(SeriesSpec(a, b, m, mp), r)
        assert res.value == pytest.approx(oracle(a, b, m, mp, r), abs=1e-8)
        assert type(res.value) is float

    @pytest.mark.parametrize("case", [
        (-0.5, 0.0, 1, 0, 400.0),
        (-0.3, 0.2, 3, 2, 200.0),
        (-0.5, 0.0, 1, 0, 1000.0),
    ])
    def test_singular_panels_capped(self, case):
        # alpha < 1: the u panels of eps = u^(1/alpha) are split by their eps
        # width like every other panel, so the work stays linear in r (an
        # uncapped mesh takes 127,008 and 79,632 nodes on the first two cases
        # and does not converge on the third)
        a, b, m, mp, r = case
        res = eval_hankel(SeriesSpec(a, b, m, mp), r)
        assert res.value == pytest.approx(oracle(a, b, m, mp, r), abs=1e-8)
        assert res.work < 20_000

    def test_r_zero(self):
        res = eval_hankel(SeriesSpec(-1.5, 0.5, 1, 0), 0.0)
        assert res.value == 0.0

    def test_canonicalizes_order_swap(self):
        a = eval_hankel(SeriesSpec(-1.5, 0.5, 0, 2), 5.0).value
        b = eval_hankel(SeriesSpec(-1.5, 0.5, 2, 0), 5.0).value
        assert a == pytest.approx(b, rel=1e-12)

    def test_parity_agreement(self):
        sp = SeriesSpec(-0.5, 0.0, 1, 1)
        half = eval_hankel(sp, 10.0, use_parity=True).value
        full = eval_hankel(sp, 10.0, use_parity=False).value
        assert half == pytest.approx(full, abs=1e-9)

    def test_rejects_nonnegative_a(self):
        with pytest.raises(DomainError):
            eval_hankel(SeriesSpec(0.5, 0.0, 0, 0), 1.0)

    def test_err_est_covers_truth(self):
        sp = SeriesSpec(-1.5, 0.0, 0, 0)
        res = eval_hankel(sp, 7.0)
        assert abs(res.value - oracle(-1.5, 0.0, 0, 0, 7.0)) <= max(res.err_est, 1e-9)


class TestExp2d:
    @pytest.mark.parametrize("case", [
        (-2.0, 0.0, 0, 0, 3.0),
        (-1.5, 0.5, 1, 0, 5.0),
        (-0.5, 0.0, 1, 1, 10.0),
    ])
    def test_oracle_equivalence(self, case):
        a, b, m, mp, r = case
        res = eval_exp2d(SeriesSpec(a, b, m, mp), r)
        assert res.value == pytest.approx(oracle(a, b, m, mp, r), abs=1e-7)
        assert type(res.value) is float

    def test_imag_residue_reported_small(self):
        res = eval_exp2d(SeriesSpec(-1.5, 0.0, 2, 0), 1.0)
        assert res.err_est < 1e-8

    def test_rejects_nonnegative_a(self):
        with pytest.raises(DomainError):
            eval_exp2d(SeriesSpec(0.0, 0.0, 0, 0), 1.0)


class TestLifted:
    @pytest.mark.parametrize("case", [
        (0.0, 0.0, 0, 0, 5.0),
        (0.5, 0.5, 1, 0, 5.0),
        (1.0, 0.0, 1, 0, 10.0),
        (2.0, 1.0, 2, 1, 8.0),
        (2.5, 0.0, 0, 0, 12.0),
    ])
    def test_oracle_equivalence(self, case):
        a, b, m, mp, r = case
        res = eval_lifted(SeriesSpec(a, b, m, mp), r)
        want = oracle(a, b, m, mp, r)
        assert res.value == pytest.approx(want, abs=max(1e-6, 1e-6 * abs(want)))
        assert type(res.value) is float

    def test_neumann_base_case(self):
        # a=0, m=m'=0: one recursion level reproduces (1 - J_0(r)^2)/2
        res = eval_lifted(SeriesSpec(0.0, 0.0, 0, 0), 5.0)
        want = oracle(0.0, 0.0, 0, 0, 5.0)
        assert res.value == pytest.approx(want, abs=1e-7)

    def test_rejects_negative_a_and_zero_r(self):
        with pytest.raises(DomainError):
            eval_lifted(SeriesSpec(-0.5, 0.0, 0, 0), 1.0)
        with pytest.raises(DomainError):
            eval_lifted(SeriesSpec(0.5, 0.0, 0, 0), 0.0)

"""Asymptotic-form constructors and their agreement with the direct sum."""
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

import bnsum
from bnsum.asymptotics import (
    COR42_PHASE,
    COR62_OSC_TERM,
    AsymptoticForm,
    AsymptoticTerm,
    derivative_series_form,
    eval_form,
    leading_integer,
    leading_noninteger,
    leading_nonneg,
)
from bnsum.direct import DERIVATIVE_KINDS, SeriesSpec, sum_derivative_series, sum_series
from bnsum.errors import DomainError
from bnsum.harness import derivative_decay, run_suite, window_envelope


class TestEvalForm:
    def test_single_const_term(self):
        form = AsymptoticForm((AsymptoticTerm(1.0, 1.0),), 2.0)
        assert eval_form(form, 10.0) == pytest.approx(0.1)

    def test_sin_term_phase(self):
        c = 3.7
        form = AsymptoticForm((AsymptoticTerm(c, 0.5, "sin2r", -math.pi / 2.0),), 1.0)
        r = math.pi / 2.0  # sin(2r - pi/2) = sin(pi - pi/2) = 1
        assert eval_form(form, r) == pytest.approx(c * r ** -0.5)

    def test_empty_form(self):
        assert eval_form(AsymptoticForm(), 3.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_form(AsymptoticForm(), 0.0)
        with pytest.raises(DomainError):
            AsymptoticTerm(math.inf, 1.0)
        with pytest.raises(DomainError):
            AsymptoticTerm(1.0, 1.0, osc="wiggle")


@pytest.mark.parametrize("make, args", [
    (leading_noninteger, (math.inf, 0.0, 0, 0)),
    (leading_noninteger, (math.nan, 0.0, 0, 0)),
    (leading_noninteger, (0.5, 0.0, 0.5, 0)),
    (leading_noninteger, (0.5, -1.0, 0, 0)),
    (leading_integer, (math.inf, 0.0, 0, 0)),
    (leading_integer, (math.nan, 0.0, 0, 0)),
    (leading_integer, (1, 0.0, 0, 1.0)),
    (leading_nonneg, (math.nan, 0, 0)),
    (leading_nonneg, (1.0, 0.5, 0)),
    (derivative_series_form, ("JJ", "a<-1", -1.5, math.inf)),
    (derivative_series_form, ("JJ", "a<-1", -1.5, -1.0)),
    (eval_form, (AsymptoticForm(), math.nan)),
    (eval_form, (AsymptoticForm(), math.inf)),
])
def test_bad_input_raises_domain_error(make, args):
    # a, beta and the orders go through SeriesSpec's check, r through eval_form's
    with pytest.raises(DomainError):
        make(*args)


class TestLeadingNoninteger:
    def test_half_zero_orders(self):
        form = leading_noninteger(0.5, 0.0, 0, 0)
        want = math.sqrt(math.pi / 2.0) / math.gamma(0.75) ** 2
        assert form.terms[0].coeff == pytest.approx(want, rel=1e-14, abs=0)
        assert form.gamma_err == 1.5

    def test_reflection_through_pole(self):
        # nu=2 puts Gamma(-0.25) in the denominator; coefficient stays finite
        form = leading_noninteger(0.5, 0.0, 2, 0)
        assert math.isfinite(form.terms[0].coeff)
        assert form.terms[0].coeff != 0.0

    def test_rejects_integer_alpha(self):
        with pytest.raises(DomainError):
            leading_noninteger(2.0, 0.0, 0, 0)

    def test_oracle_agreement(self):
        for alpha, beta, m, mp in [(0.5, 0.0, 0, 0), (1.5, 0.5, 2, 1), (2.5, 1.0, 1, 0)]:
            sp = SeriesSpec(-alpha, beta, m, mp)
            form = leading_noninteger(alpha, beta, m, mp)
            r = 307.7
            resid = abs(sum_series(sp, r).value - eval_form(form, r))
            assert resid < 20.0 * r ** (-form.gamma_err)


class TestLeadingInteger:
    def test_alpha_one_beta_zero(self):
        # (log r + gamma + log 2 - ln2 sin 2r)/(pi r)
        form = leading_integer(1, 0.0, 0, 0)
        r = 123.4
        gamma_e = 0.5772156649015329
        want = (math.log(r) + gamma_e + math.log(2.0)
                - math.log(2.0) * math.sin(2.0 * r)) / (math.pi * r)
        assert eval_form(form, r) == pytest.approx(want, rel=1e-12)
        assert form.strict

    def test_alpha_two_beta_zero(self):
        # (1/(pi r))[zeta(2) + 2^{-2}(zeta(2,1) - zeta(2,1/2)) sin 2r]
        form = leading_integer(2, 0.0, 0, 0)
        z2 = math.pi ** 2 / 6.0
        const = [t for t in form.terms if t.osc == "const"][0]
        osc = [t for t in form.terms if t.osc == "sin2r"][0]
        assert const.coeff == pytest.approx(z2 / math.pi, rel=1e-12)
        # 2^{-alpha}(zeta(alpha,1) - zeta(alpha,1/2)) = (2^{1-alpha} - 1) zeta(alpha)
        assert osc.coeff == pytest.approx((2.0 ** -1 - 1.0) * z2 / math.pi, rel=1e-10)

    def test_odd_nu_kills_log(self):
        form = leading_integer(1, 0.0, 1, 0)
        assert not any(t.osc == "logr" for t in form.terms)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            leading_integer(0, 0.0, 0, 0)

    def test_oracle_agreement(self):
        for alpha, beta, m, mp in [(1, 0.0, 0, 0), (2, 0.5, 1, 0), (3, 0.0, 2, 1)]:
            sp = SeriesSpec(-float(alpha), beta, m, mp)
            form = leading_integer(alpha, beta, m, mp)
            r = 307.7
            resid = abs(sum_series(sp, r).value - eval_form(form, r))
            # claimed error is o(1/r) (alpha=1) resp. O(r^{-2+eps})
            assert resid < 0.05 / r


class TestLeadingNonneg:
    def test_spot_values(self):
        assert leading_nonneg(0.0, 0, 0).terms[0].coeff == pytest.approx(0.5)
        assert leading_nonneg(2.0, 0, 0).terms[0].coeff == pytest.approx(0.25)
        assert leading_nonneg(0.0, 2, 0).terms == ()

    def test_odd_nu_reflection_identity(self):
        for nu in (1, 3, 5):
            c = leading_nonneg(0.0, nu, 0).terms[0].coeff
            assert c == pytest.approx(math.sin(nu * math.pi / 2.0) / (math.pi * nu),
                                      abs=1e-12)

    def test_recursion_consistency(self):
        def coeff(a, nu):
            t = leading_nonneg(a, nu, 0).terms
            return t[0].coeff if t else 0.0

        for a in (1.0, 2.0, 3.0):
            for nu in (0, 1, 2):
                lhs = coeff(a, nu)
                rhs = 0.5 * (coeff(a - 1.0, abs(nu - 1)) + coeff(a - 1.0, nu + 1))
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_growth_against_oracle(self):
        r = 400.0
        got = sum_series(SeriesSpec(1.0, 0.0, 0, 0), r).value
        assert got / eval_form(leading_nonneg(1.0, 0, 0), r) == pytest.approx(1.0, abs=0.02)


class TestDerivativeForms:
    def test_dJdJ_a_zero(self):
        form = derivative_series_form("dJdJ", "a>-1", 0.0, 0.0)
        assert form.terms[0].coeff == pytest.approx(0.25, rel=1e-13, abs=0)

    def test_JdJ_positive_regime_vanishes(self):
        assert derivative_series_form("JdJ", "a>-1", 0.3, 0.7).terms == ()

    def test_JJ_a_minus_one(self):
        # (log(2r) + gamma - ln 2 sin 2r)/(pi r) at beta = 0
        form = derivative_series_form("JJ", "a=-1", -1.0, 0.0)
        r = 55.0
        gamma_e = 0.5772156649015329
        assert eval_form(form, r) == pytest.approx(
            (math.log(2.0 * r) + gamma_e - math.log(2.0) * math.sin(2.0 * r)) / (math.pi * r),
            rel=1e-12,
        )

    def test_regime_mismatch(self):
        with pytest.raises(DomainError):
            derivative_series_form("JJ", "a=-1", -0.5, 0.0)
        with pytest.raises(DomainError):
            derivative_series_form("JJ", "a<-1", -1.0, 0.0)
        with pytest.raises(DomainError):
            derivative_series_form("JJ", "nope", 0.0, 0.0)

    def test_oracle_envelope_decreases(self):
        # each leading form leaves a residual whose window envelope shrinks
        from bnsum.harness import oscillation_grid, window_envelope
        cases = [
            ("dJdJ", "a>-1", 0.5, 0.3),
            ("JdJ", "a=-1", -1.0, 0.0),
            ("dJddJ", "a<-1", -1.7, 0.2),
        ]
        anchors = oscillation_grid(80.0, 500.0, 1.6)
        for kind, regime, a, beta in cases:
            form = derivative_series_form(kind, regime, a, beta)
            scale = -form.terms[0].power if form.terms else a

            def resid(r):
                return (sum_derivative_series(kind, a, beta, r).value
                        - eval_form(form, r)) / r ** scale

            env = window_envelope(resid, anchors, ratio=1.6, samples=48)
            assert np.all(np.diff(env) < 0.0)

    @pytest.mark.parametrize("a, beta", [(-1.0, 0.3), (-1.0, -0.6), (-1.7, 0.2), (-3.0, 0.0)])
    @pytest.mark.parametrize("kind", DERIVATIVE_KINDS)
    def test_residual_order(self, kind, a, beta):
        # r^min(-a, 2) |S - form| falls from r = 100 to 800 where the form
        # carries every term down to r^max(a, -2), and stays flat at a = -3,
        # whose error is O(r^-2); a missing or wrong-signed term of order
        # r^a holds the ratio near 1 or above
        ratio = derivative_decay(kind, a, beta)
        assert ratio <= (1.5 if a <= -2.0 else 1.0 / 1.5), ratio


class TestNegativeOrders:
    @pytest.mark.parametrize("make, a, beta, m, mp", [
        (leading_noninteger, -1.5, 0.3, -2, 1),
        (leading_noninteger, -0.5, 0.0, -1, 0),
        (leading_integer, -1.0, 0.2, -2, 1),
        (leading_integer, -1.0, 0.0, -1, -1),
        (leading_integer, -2.0, 0.3, -3, -1),
        (leading_nonneg, 1.0, 0.0, -1, 0),
        (leading_nonneg, 2.0, 0.0, -1, -1),
        (leading_nonneg, 1.5, 0.0, -3, 1),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_error_order_holds(self, make, a, beta, m, mp):
        # mu = m + m' enters signed and nu = |m - m'|: r^gamma_err |S - form|
        # does not grow from r = 200 to 1600, as at m, m' >= 0
        if make is leading_nonneg:
            form = make(a, m, mp)
        else:
            form = make(int(-a) if make is leading_integer else -a, beta, m, mp)
        spec = SeriesSpec(a, beta, m, mp)
        env = window_envelope(
            lambda r: r ** form.gamma_err * (sum_series(spec, r).value - eval_form(form, r)),
            np.array([200.0, 1600.0]), samples=16)
        assert env[1] <= 1.1 * env[0], env


def _snapshot(root: Path) -> dict:
    # interpreter and compiler caches are not package files
    return {
        str(p.relative_to(root)): (p.stat().st_size, p.stat().st_mtime_ns,
                                   hashlib.sha256(p.read_bytes()).hexdigest())
        for p in sorted(root.rglob("*"))
        if p.is_file() and "__pycache__" not in p.parts
    }


class TestPhaseConstants:
    def test_defaults_are_library_constants(self):
        assert leading_noninteger(1.5, 0.5, 2, 1) == leading_noninteger(
            1.5, 0.5, 2, 1, phase_convention=COR42_PHASE)
        assert leading_integer(1, 0.0, 0, 0) == leading_integer(
            1, 0.0, 0, 0, osc_term=COR62_OSC_TERM)
        for m, mp in ((0, 0), (2, 1), (3, 0)):
            (sin2r,) = [t for t in leading_integer(2, 0.5, m, mp).terms if t.osc == "sin2r"]
            assert sin2r.phase == -0.5 * math.pi * (m + mp)

    def test_suite_writes_nothing(self):
        root = Path(bnsum.__file__).parent
        before = _snapshot(root)
        rep = run_suite("asymptotics")
        assert _snapshot(root) == before
        assert rep.passed
        assert rep.phase_resolution == {"cor42_phase": COR42_PHASE,
                                        "cor62_osc_term": COR62_OSC_TERM}

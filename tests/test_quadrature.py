"""Integral-representation routes against the certified direct sum."""
import math
import time

import mpmath
import numpy as np
import pytest

from bnsum import fseries, kernels, quadrature
from bnsum.direct import EvalResult, SeriesSpec, sum_series
from bnsum.errors import ConvergenceError, DomainError
from bnsum.fseries import f_phase, lerch_factor
from bnsum.quadrature import HALF_PI, eval_exp2d, eval_hankel, eval_hankel_grid, eval_lifted


def oracle(a, beta, m, mp, r):
    return sum_series(SeriesSpec(a, beta, m, mp), r, tol=1e-13).value


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            eval_hankel(SeriesSpec(-1.5, 0.5, 1, 0), 5.0, abs_tol=0.0)
        with pytest.raises(DomainError):
            eval_hankel(SeriesSpec(-1.5, 0.5, 1, 0), 5.0, rel_tol=math.nan)


class TestConverge:
    def test_non_finite_row_ends_at_once(self):
        calls = []

        def evaluate(level, rows):
            calls.append(list(rows))
            return [(math.nan if i == 0 else 1.0, 1, 0.0) for i in rows]

        found = quadrature._converge(evaluate, 2, 1e-9, 1e-7, 1 << 20, "test")
        assert found[0] is None and found[1].value == 1.0
        assert calls == [[0, 1], [1]]


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
        # the exact 0, without a quadrature, on every route
        for route, tag in ((eval_hankel, "hankel"), (eval_exp2d, "exp2d")):
            assert route(SeriesSpec(-1.5, 0.5, 1, 0), 0.0) == EvalResult(0.0, 0.0, tag, 0)
        # before the lowering, which at r = 0 need not overflow: 10^9 steps
        for a in (0.5, 1e9):
            assert eval_lifted(SeriesSpec(a, 0.5, 0, 0), 0.0) == EvalResult(0.0, 0.0, "lifted", 0)

    def test_canonicalizes_order_swap(self):
        # the series is symmetric in m, m': both routes agree bit for bit
        for route in (eval_hankel, eval_exp2d):
            for spec in (SeriesSpec(-1.5, 0.5, 0, 2), SeriesSpec(-0.4, 0.3, 1, 4)):
                swapped = SeriesSpec(spec.a, spec.beta, spec.m_prime, spec.m)
                assert route(spec, 5.0) == route(swapped, 5.0)

    @pytest.mark.parametrize("a, beta, m, mp", [(-1.5, 0.5, 2, 0), (-0.4, 0.0, 1, 1),
                                                (-2.2, 1.3, 3, 4), (-0.7, -0.5, 5, 2)])
    def test_lower_is_one_term_for_negative_a(self, a, beta, m, mp):
        # no lowering step: one term with the Hankel sign (-1)^min(m, m')
        want = [(-1.0 if min(m, mp) % 2 else 1.0, m + mp, abs(m - mp))]
        for spec in (SeriesSpec(a, beta, m, mp), SeriesSpec(a, beta, mp, m)):
            alpha, terms = quadrature._lower(spec, 7.0)
            assert alpha == -a
            assert terms == want and all(type(c) is float for c, *_ in terms)

    def test_parity_agreement(self):
        sp = SeriesSpec(-0.5, 0.0, 1, 1)
        half = eval_hankel(sp, 10.0, use_parity=True).value
        full = eval_hankel(sp, 10.0, use_parity=False).value
        assert half == pytest.approx(full, abs=1e-9)

    def test_mirror_matches_half_on_many_terms(self):
        # F(pi - phi) = (-1)^mu F(phi) and J_nu(-x) = (-1)^nu J_nu(x), mu + nu
        # even: each term's integral over (pi/2, pi] equals the one over
        # [0, pi/2), also inside a sum whose odd-nu terms flip their sign
        alpha, terms = quadrature._lower(SeriesSpec(2.9, 0.3, 1, 0), 20.0)
        assert len(terms) == 7 and min(mu for _, mu, _ in terms) == -2
        assert {nu % 2 for *_, nu in terms} == {0, 1}
        for level in range(3):
            plain = quadrature._hankel_halves(alpha, 0.3, terms, [20.0], level)
            mirrored = quadrature._hankel_halves(alpha, 0.3, terms, [20.0], level, mirror=True)
            assert [n for _, n in mirrored] == [n for _, n in plain]
            assert mirrored[0][0] == pytest.approx(plain[0][0], rel=1e-12)

    def test_rejects_nonnegative_a(self):
        with pytest.raises(DomainError):
            eval_hankel(SeriesSpec(0.5, 0.0, 0, 0), 1.0)

    def test_err_est_covers_truth(self):
        sp = SeriesSpec(-1.5, 0.0, 0, 0)
        res = eval_hankel(sp, 7.0)
        assert abs(res.value - oracle(-1.5, 0.0, 0, 0, 7.0)) <= max(res.err_est, 1e-9)


_RNG = np.random.default_rng(3)
# alpha below and above 1 (the u-substitution and the graded panels), nu 0..3
GRID_SPECS = [SeriesSpec(a, float(_RNG.uniform(-0.9, 2.0)), m, mp)
              for a, m, mp in ((-0.4, 1, 1), (-0.7, 2, 1), (-1.5, 2, 0), (-2.2, 3, 0))]


class TestHankelGrid:
    @pytest.mark.parametrize("spec", GRID_SPECS)
    def test_rows_match_eval_hankel(self, spec):
        # r = 0 and a repeated r included; below r = 12.5 every Bessel
        # argument of a row is small, and its recurrence starts lower than
        # those of the other rows
        rs = [0.0, 3.7, 12.0, 12.0, 41.5, 96.0]
        grid = eval_hankel_grid(spec, rs)
        assert grid == [eval_hankel(spec, r) for r in rs]
        assert grid[0].value == 0.0 and grid[0].work == 0
        assert all(type(res.value) is float for res in grid)

    @pytest.mark.parametrize("spec, r", [(GRID_SPECS[0], 5.0), (GRID_SPECS[2], 40.0),
                                         (GRID_SPECS[3], 0.0), (GRID_SPECS[1], 250.0)])
    def test_one_row_is_bitwise_eval_hankel(self, spec, r):
        assert eval_hankel_grid(spec, [r]) == [eval_hankel(spec, r)]

    @pytest.mark.parametrize("spec", [SeriesSpec(-0.06, 0.0, 0, 0), SeriesSpec(-0.5, 0.0, 1, 0)])
    def test_unconverged_rows_are_none(self, spec):
        # at a = -0.06, r = 3,500 the second level has 74k nodes, more than
        # the quadrature allows, and its delta (3e-7) is far above tol
        tols = {"abs_tol": 1e-10, "rel_tol": 1e-10}
        rs = [2.0, 3500.0, 20.0, 0.0]
        grid = eval_hankel_grid(spec, rs, **tols)
        for r, got in zip(rs, grid):
            try:
                want = eval_hankel(spec, r, **tols)
            except ConvergenceError:
                want = None
            assert got == want
        assert (grid[1] is None) == (spec.a == -0.06)

    def test_empty_grid(self):
        assert eval_hankel_grid(GRID_SPECS[0], []) == []

    @pytest.mark.parametrize("spec, rs", [
        (SeriesSpec(0.5, 0.0, 0, 0), [1.0, 2.0]),
        (SeriesSpec(0.0, 0.0, 0, 0), [1.0]),
        (GRID_SPECS[0], [1.0, 5.0, -1.0]),
        (GRID_SPECS[0], [1.0, 5.0, math.nan]),
        (GRID_SPECS[0], [math.inf, 5.0]),
    ])
    def test_rejects_bad_grid_before_quadrature(self, spec, rs, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr("bnsum.quadrature._half_mesh", no_quadrature)
        with pytest.raises(DomainError):
            eval_hankel_grid(spec, rs)


def f_values(alpha, beta, mu, nodes, side=0):
    """F at phi = ``nodes`` (side 0) or at pi/2 - side*eps, eps = ``nodes``."""
    return f_phase(*lerch_factor(alpha, beta, nodes, side), mu)


def exp2d_unfolded(spec: SeriesSpec, r: float):
    """``eval_exp2d`` with one complex exponential per cell over all four
    phi-node sets (phi, pi - phi, eps on either side), unfolded, with the
    orders and F formed here rather than by the route's lowering."""
    alpha, mu, nu = -spec.a, spec.m + spec.m_prime, abs(spec.m - spec.m_prime)
    prefactor = 2.0 * (1j) ** (-mu) / math.pi ** 2

    def evaluate(level, _rows):
        nodes, weights, eps, eps_w = quadrature._half_mesh(r, alpha, level)
        cphi = np.concatenate((np.cos(nodes), -np.cos(nodes), np.sin(eps), -np.sin(eps)))
        w = np.concatenate((weights, weights, eps_w, eps_w))
        fvals = np.concatenate((
            f_values(alpha, spec.beta, mu, nodes),
            f_values(alpha, spec.beta, mu, math.pi - nodes),
            f_values(alpha, spec.beta, mu, eps, side=1),
            f_values(alpha, spec.beta, mu, eps, side=-1),
        ))
        tn, tw = quadrature._theta_rule(r, nu, level)
        ctheta = np.cos(tn)[None, :]
        rows = max(1, quadrature._KERNEL_CELLS // tn.size)
        inner = np.concatenate([np.exp(2j * r * cphi[i:i + rows, None] * ctheta) @ tw
                                for i in range(0, cphi.size, rows)])
        total = complex(np.sum(w * fvals * inner)) * prefactor
        return [(total.real, cphi.size * tn.size, abs(total.imag))]

    found = quadrature._converge(evaluate, 1, quadrature.ABS_TOL, quadrature.REL_TOL,
                                 4096 * quadrature._MAX_PANELS, "exp2d")
    return quadrature._single(found, "exp2d")


_RNG_EXP2D = np.random.default_rng(9)
# mu = m + m' odd and even, alpha below and above 1; at r = 90 the kernel
# spans more than 20 blocks of _KERNEL_CELLS
EXP2D_CASES = [(SeriesSpec(a, float(_RNG_EXP2D.uniform(-0.9, 2.0)), m, mp), r)
               for (a, m, mp), r in zip(((-0.4, 1, 0), (-0.7, 1, 1), (-1.5, 2, 1), (-2.2, 3, 1),
                                         (-0.3, 0, 2), (-1.2, 2, 1)),
                                        (*_RNG_EXP2D.uniform(0.5, 60.0, 4), 90.0, 90.0))]


class TestThetaRule:
    @pytest.mark.parametrize("r", [0.0, 1e-3, 0.5, 5.0, 90.0, 200.0])
    def test_matches_bessel_integral(self, r):
        # the part of the theta integrand that carries the value, cos(x cos t)
        # for even nu and sin(x cos t) for odd nu, integrates over [0, pi/2] to
        # (pi/2) cos(nu pi/2) J_nu(x) resp. (pi/2) sin(nu pi/2) J_nu(x).  The
        # float64 nodes move x cos t by about x * 1e-16 each, and a level-2 rule
        # sums up to 528 terms, hence the rounding allowance.
        xs = np.linspace(0.0, 2.0 * r, 50)
        for nu in (*range(7), 20):
            trig, phase = (np.cos, math.cos) if nu % 2 == 0 else (np.sin, math.sin)
            with mpmath.workdps(30):
                want = np.array([float(mpmath.besselj(nu, x)) for x in xs])
            want *= HALF_PI * phase(nu * HALF_PI)
            for level in range(3):
                tn, tw = quadrature._theta_rule(r, nu, level)
                got = trig(np.multiply.outer(xs, np.cos(tn))) @ tw
                assert np.all(np.abs(got - want) <= 4e-15 + 2e-17 * xs), (nu, level)


class TestExp2d:
    @pytest.mark.parametrize("spec, r", EXP2D_CASES)
    def test_fold_matches_unfolded_kernel(self, spec, r):
        # the mirrored nodes share one real cos/sin kernel: same mesh, same work
        got, want = eval_exp2d(spec, r), exp2d_unfolded(spec, r)
        assert got.work == want.work
        assert abs(got.value - want.value) <= 1e-13 * max(1e-2, abs(want.value))

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
        (2.9, 0.3, 0, 3, 20.0),  # orders down to -3 with m' > m; alpha 0.1
        (1.6143, 0.3407, 0, 0, 13.43),
        (0.9, -0.5, 3, 1, 40.0),
        (4.5, 0.2, 0, 2, 40.0),
        (2.0, 1.0, 1, 0, 10.0),  # integer beta == m: zero coefficients
        (3.0, 0.0, 0, 2, 15.0),
        (2.5, 0.5, 2, 1, 90.0),  # three steps, coefficients up to (r/2)^3
    ])
    def test_oracle_equivalence(self, case):
        a, b, m, mp, r = case
        res = eval_lifted(SeriesSpec(a, b, m, mp), r)
        want = oracle(a, b, m, mp, r)
        assert res.value == pytest.approx(want, abs=max(1e-6, 1e-6 * abs(want)))
        assert type(res.value) is float

    def test_runs_no_hankel_leaf(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eval_lifted called eval_hankel")

        monkeypatch.setattr(quadrature, "eval_hankel", refuse)
        res = eval_lifted(SeriesSpec(2.0, 0.5, 1, 0), 10.0)
        assert res.value == pytest.approx(oracle(2.0, 0.5, 1, 0, 10.0), rel=1e-6)

    @pytest.mark.parametrize("case", [
        (10.0, 0.0, 0, 0, 5.0),
        (20.0, 0.0, 0, 0, 5.0),
        (40.0, 0.0, 0, 0, 5.0),
        (2.9, 0.3, 0, 3, 20.0),  # orders k = -3..3, mu = k + m' down to 0
        (4.2, -0.4, 1, 0, 9.0),  # mu = k down to -4
        (1.5, 0.7, 0, 0, 3.0),
    ])
    def test_oracle_equivalence_tight(self, case):
        a, b, m, mp, r = case
        want = oracle(a, b, m, mp, r)
        assert eval_lifted(SeriesSpec(a, b, m, mp), r).value == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("a, beta, m, mp", [(0.0, 0.3, 0, 0), (2.9, 0.3, 0, 3),
                                                (4.2, -0.4, 1, 0), (7.0, 1.0, 2, 5)])
    def test_lower_shape(self, a, beta, m, mp):
        # n = floor(a) + 1 steps: orders m-n .. m+n, one beta, alpha in (0, 1]
        n = math.floor(a) + 1
        alpha, terms = quadrature._lower(SeriesSpec(a, beta, m, mp), 6.0)
        assert alpha == n - a
        ks = [mu - mp for _, mu, _ in terms]
        assert set(ks) <= set(range(m - n, m + n + 1)) and {m - n, m + n} <= set(ks)
        assert all(nu == abs(k - mp) and c != 0.0 for (c, _, nu), k in zip(terms, ks))

    def test_one_quadrature_over_distinct_terms(self, monkeypatch):
        calls = []
        halves = quadrature._hankel_halves

        def recorded(alpha, beta, terms, rs, level):
            calls.append((alpha, terms, rs, level))
            return halves(alpha, beta, terms, rs, level)

        monkeypatch.setattr(quadrature, "_hankel_halves", recorded)
        res = eval_lifted(SeriesSpec(2.0, 1.0, 1, 0), 10.0)  # beta == m
        assert [level for *_, level in calls] == list(range(len(calls)))
        terms = calls[0][1]
        assert all(terms is call[1] for call in calls)
        assert all(c != 0.0 for c, *_ in terms)
        assert len({term[1:] for term in terms}) == len(terms)
        meshes = [quadrature._half_mesh(rs[0], alpha, level) for alpha, _, rs, level in calls]
        assert res.work == len(terms) * sum(mesh[0].size + mesh[2].size for mesh in meshes)

    def test_one_lerch_factor_and_one_recurrence_per_half(self, monkeypatch):
        events, level_terms = [], []
        halves = quadrature._hankel_halves

        def level(alpha, beta, terms, rs, lvl):
            events.append("|")
            level_terms.append(terms)
            return halves(alpha, beta, terms, rs, lvl)

        def counted(tag, fn):
            def wrapper(*args):
                events.append(tag)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(quadrature, "_hankel_halves", level)
        monkeypatch.setattr(fseries, "lerch_unit_many", counted("u", fseries.lerch_unit_many))
        monkeypatch.setattr(fseries, "lerch_local_many", counted("l", fseries.lerch_local_many))
        monkeypatch.setattr(kernels, "bessel_rows", counted("r", kernels.bessel_rows))
        eval_lifted(SeriesSpec(2.9, 0.3, 0, 3), 20.0)
        assert len(level_terms[0]) == 7
        per_level = "".join(events).split("|")[1:]
        assert len(per_level) == len(level_terms) >= 2
        for seq in per_level:  # the smooth half's calls, then the eps half's
            cut = seq.rindex("u") + 1
            smooth, sing = seq[:cut], seq[cut:]
            assert smooth.count("u") == 1 and smooth.count("r") <= 1, seq
            assert sing.count("l") == 1 and sing.count("r") <= 1 and "l" not in smooth, seq

    def test_non_finite_level_raises_at_once(self, monkeypatch):
        # a = 300 at r = 5: the lowered coefficients overflow, so no level
        # could give a finite value; the quadrature refuses before level 0
        levels = []
        halves = quadrature._hankel_halves

        def recorded(alpha, beta, terms, rs, level):
            levels.append(level)
            return halves(alpha, beta, terms, rs, level)

        monkeypatch.setattr(quadrature, "_hankel_halves", recorded)
        with pytest.raises(ConvergenceError, match="lowering overflowed"):
            eval_lifted(SeriesSpec(300.0, 0.0, 0, 0), 5.0)
        assert levels == []

    def test_overflowed_lowering_stops_early(self):
        # at r = 5 the coefficients overflow within a few hundred of the
        # 20,001 steps, and an overflowed one never becomes finite again
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceError, match="lowering overflowed"):
            eval_lifted(SeriesSpec(20000.0, 0.0, 0, 0), 5.0)
        assert time.perf_counter() - t0 < 3.0

    @pytest.mark.parametrize("a, beta, m, mp", [(0.0, 0.3, 0, 0), (2.9, 0.3, 0, 3),
                                                (7.0, 1.0, 2, 5), (40.0, 0.0, 0, 0)])
    def test_lower_matches_fixed_width_steps(self, a, beta, m, mp):
        # growing the coefficient list with its support gives, bit for bit,
        # the steps over all 2n + 1 orders from the start
        n = int(a) + 1
        for r in (0.5, 5.0, 50.0):
            c = [0.0] * n + [1.0] + [0.0] * n
            for _ in range(n):
                c = [(beta - k) * c_k + r / 2.0 * (below + above) for k, c_k, below, above
                     in zip(range(m - n, m + n + 1), c, [0.0, *c], [*c[1:], 0.0])]
            want = [(-c_k if min(k, mp) % 2 else c_k, k + mp, abs(k - mp))
                    for c_k, k in zip(c, range(m - n, m + n + 1)) if c_k]
            assert quadrature._lower(SeriesSpec(a, beta, m, mp), r) == (n - a, want)

    def test_cancellation_beyond_repair_raises(self):
        # a = 200 at r = 5: the combination stays finite, but cancellation
        # leaves no correct digit, so the levels never agree
        with pytest.raises(ConvergenceError):
            eval_lifted(SeriesSpec(200.0, 0.0, 0, 0), 5.0)

    def test_neumann_base_case(self):
        # a=0, m=m'=0: one lowering step reproduces (1 - J_0(r)^2)/2
        res = eval_lifted(SeriesSpec(0.0, 0.0, 0, 0), 5.0)
        want = oracle(0.0, 0.0, 0, 0, 5.0)
        assert res.value == pytest.approx(want, abs=1e-7)

    def test_rejects_negative_a(self):
        with pytest.raises(DomainError):
            eval_lifted(SeriesSpec(-0.5, 0.0, 0, 0), 1.0)

    @pytest.mark.parametrize("p, q", [(-1, 0), (0, -1), (-2, 1), (-3, -1), (2, -2), (1, 3), (-1, 4)])
    def test_neumann_holds_at_negative_orders(self, p, q):
        # J_p J_q = ((-1)^q / pi) Int_0^pi J_{p-q}(2 r cos phi) cos((p+q) phi) dphi
        # for all integer orders (DLMF 10.9 with J_{-n} = (-1)^n J_n), so the
        # lowering keeps negative orders as they are
        with mpmath.workdps(20):
            for r in (0.7, 5.0):
                integral = mpmath.quad(
                    lambda phi: mpmath.besselj(p - q, 2 * r * mpmath.cos(phi))
                    * mpmath.cos((p + q) * phi), [0, mpmath.pi / 2, mpmath.pi])
                want = mpmath.besselj(p, r) * mpmath.besselj(q, r)
                assert abs((-1) ** q * integral / mpmath.pi - want) < 1e-15

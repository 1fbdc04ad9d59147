"""Integral-representation routes against the certified direct sum."""
import math
import time

import mpmath
import numpy as np
import pytest

from bnsum import kernels, quadrature, specfun
from bnsum.direct import EvalResult, SeriesSpec, sum_series
from bnsum.errors import ConvergenceError, DomainError
from bnsum.fseries import f_phase
from bnsum.quadrature import HALF_PI, eval_exp2d, eval_hankel, eval_hankel_grid, eval_lifted


def oracle(a, beta, m, mp, r):
    return sum_series(SeriesSpec(a, beta, m, mp), r, tol=1e-13).value


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            eval_hankel(SeriesSpec(-1.5, 0.5, 1, 0), 5.0, abs_tol=0.0)
        with pytest.raises(DomainError):
            eval_hankel(SeriesSpec(-1.5, 0.5, 1, 0), 5.0, rel_tol=math.nan)


class TestKronrodRule:
    @staticmethod
    def rules():
        """Nodes, K33 weights and the embedded G16 weights (0 at the 17
        Kronrod nodes) as the estimate sees them."""
        x, w = quadrature._KRONROD_X, quadrature._KRONROD_W
        return x, w, w * (1.0 - quadrature._KRONROD_SHARE)

    def test_gauss_nodes_are_embedded(self):
        gx, gw = np.polynomial.legendre.leggauss(16)
        x, w, g = self.rules()
        assert x.size == 33 and np.all(np.diff(x) > 0.0)
        assert np.max(np.abs(x[1::2] - gx)) <= 1e-15
        assert np.max(np.abs(g[1::2] - gw)) <= 1e-15 and np.all(g[0::2] == 0.0)
        assert np.all(w > 0.0)

    def test_exact_moments(self):
        # K33 integrates x^k exactly up to k = 49, the embedded G16 up to 31
        x, w, g = self.rules()
        for k in range(50):
            want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(math.fsum(w * x ** k) - want) <= 1e-15, k
            if k <= 31:
                assert abs(math.fsum(g * x ** k) - want) <= 1e-15, k


class TestConverge:
    def test_non_finite_row_ends_at_once(self):
        calls = []

        def evaluate(level, rows):
            # row 1 misses its tolerance on level 0 and meets it on level 1
            calls.append(list(rows))
            return [(math.nan, 1, 0.0) if i == 0 else (1.0, 1, 1.0 - level) for i in rows]

        found = quadrature._converge(evaluate, 2, 1e-9, 1e-7, 1 << 20, "test")
        assert found[0] is None and found[1].value == 1.0
        assert calls == [[0, 1], [1]]

    def test_row_past_max_nodes_ends(self):
        # a row that misses its tolerance on a level of more than max_nodes
        # nodes runs no further level; the other row refines on
        calls = []

        def evaluate(level, rows):
            calls.append(list(rows))
            return [(1.0, 100 if i == 0 else 10, 1.0 if level < 2 else 0.0) for i in rows]

        found = quadrature._converge(evaluate, 2, 1e-9, 1e-7, 50, "test")
        assert found[0] is None and found[1] == EvalResult(1.0, 0.0, "test", 30)
        assert calls == [[0, 1], [1], [1]]


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
        assert type(res.value) is float and type(res.err_est) is float

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
        # [0, pi/2), also inside a sum whose odd-nu terms flip their sign.  The
        # mirror half is twice the mean over both halves less the plain one.
        alpha, terms = quadrature._lower(SeriesSpec(2.9, 0.3, 1, 0), 20.0)
        assert len(terms) == 7 and min(mu for _, mu, _ in terms) == -2
        assert {nu % 2 for *_, nu in terms} == {0, 1}
        for level in range(3):
            args = (alpha, 0.3, terms, [20.0], level)
            plain = quadrature._hankel_halves(*args, quadrature._bessel_half)
            both = quadrature._hankel_halves(*args, quadrature._bessel_both)
            mirrored = [(2.0 * b - p, nb - n) for (b, nb, _), (p, n, _) in zip(both, plain)]
            assert [n for _, n in mirrored] == [n for _, n, _ in plain]
            assert mirrored[0][0] == pytest.approx(plain[0][0], rel=1e-12)

    def test_both_halves_share_one_driver_pass(self, monkeypatch):
        # use_parity=False takes its mirror column from the level's one Bessel
        # call and forms one Lerch factor per half; exp2d runs the same driver
        # on its theta columns and calls no Bessel routine
        events = []
        halves = quadrature._hankel_halves

        def level(*args):
            events.append("|")
            return halves(*args)

        def counted(tag, fn):
            def wrapper(*args):
                events.append(tag)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(quadrature, "_hankel_halves", level)
        monkeypatch.setattr(quadrature, "bessel_j_col", counted("j", quadrature.bessel_j_col))
        monkeypatch.setattr(quadrature, "lerch_unit_many",
                            counted("u", quadrature.lerch_unit_many))
        monkeypatch.setattr(kernels, "bessel_rows", counted("r", kernels.bessel_rows))
        spec = SeriesSpec(-0.5, 0.0, 1, 1)
        # a tolerance no estimate meets, so that every one of the 7 levels runs
        with pytest.raises(ConvergenceError):
            eval_hankel(spec, 10.0, use_parity=False, abs_tol=1e-300, rel_tol=1e-300)
        assert "".join(events) == "|jruu" * 7
        res = eval_hankel(spec, 10.0, use_parity=False)
        assert type(res.value) is float and type(res.err_est) is float
        events.clear()
        eval_exp2d(spec, 10.0)
        passes = events.count("|")
        assert passes >= 1 and "".join(events) == "|uu" * passes

    def test_rejects_nonnegative_a(self):
        with pytest.raises(DomainError):
            eval_hankel(SeriesSpec(0.5, 0.0, 0, 0), 1.0)

    def test_err_est_covers_truth(self):
        sp = SeriesSpec(-1.5, 0.0, 0, 0)
        res = eval_hankel(sp, 7.0)
        assert abs(res.value - oracle(-1.5, 0.0, 0, 0, 7.0)) <= max(res.err_est, 1e-9)


def draw_route_requests(rng, n):
    """``n`` seeded (route, spec, r), in turn hankel, exp2d and lifted: orders
    in -3..4, beta in (-0.9, 2), alpha >= 0.06, r log-uniform in [0.3, 300]
    (exp2d up to 120)."""
    routes = {"hankel": eval_hankel, "exp2d": eval_exp2d, "lifted": eval_lifted}
    requests = []
    for i in range(n):
        name = ("hankel", "exp2d", "lifted")[i % 3]
        m, mp = (int(k) for k in rng.integers(-3, 5, 2))
        beta = float(rng.uniform(-0.9, 2.0))
        r = float(np.exp(rng.uniform(math.log(0.3), math.log(120.0 if name == "exp2d" else 300.0))))
        if name == "lifted":
            a = float(rng.integers(0, 4) + rng.uniform(0.0, 0.94))
        else:
            a = -float(rng.uniform(0.06, 3.0))
        requests.append((routes[name], SeriesSpec(a, beta, m, mp), r))
    return requests


# err_est carries no rounding floor yet (ROADMAP item 3): lifted's lowered
# combination at r < 3 is up to 3.9e-14 off 40-digit mpmath with an err_est
# of 2.3e-14 (a = 3.19, r = 0.33), and the level difference missed such rows
# too.  Above this floor, |K33 - G16| must bound the quadrature's error.
ROUNDING_FLOOR = 1e-13


def test_err_est_bounds_the_oracle_distance():
    for route, spec, r in draw_route_requests(np.random.default_rng(11), 90):
        got, want = route(spec, r), sum_series(spec, r, tol=1e-15)
        assert abs(got.value - want.value) <= got.err_est + want.err_est + ROUNDING_FLOOR, \
            (got, want, spec, r)


_RNG = np.random.default_rng(3)
# alpha below and above 1 (eps = u^(1/alpha) and u = eps), nu 0..3
GRID_SPECS = [SeriesSpec(a, float(_RNG.uniform(-0.9, 2.0)), m, mp)
              for a, m, mp in ((-0.4, 1, 1), (-0.7, 2, 1), (-1.5, 2, 0), (-2.2, 3, 0))]


# Lerch nodes on both sides of the seam |ell| = 0.35, and values down to
# 6e-6 (r = 1, m, m' up to 3), where an error of either Lerch expansion
# near the seam shows against the value
SEAM_CASES = [(-0.2218, 0.3519, 3, 3, 1.0), (-0.5, 0.0, 2, 3, 1.0), (-0.15, 0.7, 2, 2, 1.0),
              (-0.3, -0.4, 3, 2, 1.0), (-0.5, 0.3, 1, 0, 20.0)]


def mpmath_series(a, beta, m, mp, r):
    """The series to 30 digits, summed until (r/2)^l / l! is far below 1e-30."""
    with mpmath.workdps(30):
        orders = range(1, int(r) + 60)
        return float(mpmath.fsum(mpmath.besselj(l + mp, r) * mpmath.besselj(l + m, r)
                                 * mpmath.mpf(l + beta) ** a for l in orders))


class TestSeam:
    @pytest.mark.parametrize("case", SEAM_CASES)
    def test_routes_against_mpmath(self, case):
        a, beta, m, mp, r = case
        spec, want = SeriesSpec(a, beta, m, mp), mpmath_series(*case)
        routes = {"hankel": eval_hankel(spec, r), "exp2d": eval_exp2d(spec, r),
                  "grid": eval_hankel_grid(spec, [r])[0]}
        for name, res in routes.items():
            assert abs(res.value - want) <= 1e-11 * abs(want) + 1e-14, (name, res.value, want)


# alpha = 1 (a = -1, or an integer a >= 0 after lowering) with even mu: F's
# logarithmic singularity at eps = 0, which the graded panels reach from 0
SINGULAR_CASES = [(-1.0, 0.0, 0, 0, 30.0), (-1.0, 1.0, 0, 0, 30.0), (-1.0, -0.99, 0, 0, 10.0)]
LIFTED_SINGULAR_CASES = [(a, 0.3, m, mp, r) for a in (0.0, 1.0, 2.0)
                         for m, mp, r in ((1, 0, 13.0), (2, 1, 2.0))]


class TestSingularEnd:
    # panels that leave out a sliver next to eps = 0 miss F's log mass there:
    # 1.5e-12 to 8.7e-12 of max(1e-2, |S|), which TestSeam's bound admits
    @staticmethod
    def check(res, case):
        want = sum_series(SeriesSpec(*case[:4]), case[4], tol=1e-15).value
        assert abs(res.value - want) <= 1e-13 * max(1e-2, abs(want)), (res, want)

    @pytest.mark.parametrize("case", SINGULAR_CASES)
    def test_routes_at_alpha_one(self, case):
        spec, r = SeriesSpec(*case[:4]), case[4]
        for res in (eval_hankel(spec, r), eval_exp2d(spec, r), eval_hankel_grid(spec, [r])[0]):
            self.check(res, case)

    @pytest.mark.parametrize("case", LIFTED_SINGULAR_CASES)
    def test_lifted_at_integer_a(self, case):
        self.check(eval_lifted(SeriesSpec(*case[:4]), case[4]), case)


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
    def test_unconverged_rows_are_none(self, spec, monkeypatch):
        # Bessel values past x = 5,000 read NaN here, so the row at r = 8,000
        # has a value that is not finite, which no level mends; a value
        # depends on its own argument, so the other rows converge as alone
        bessel = quadrature.bessel_j_col
        monkeypatch.setattr(quadrature, "bessel_j_col",
                            lambda orders, xs: np.where(xs > 5000.0, np.nan, bessel(orders, xs)))
        tols = {"abs_tol": 1e-10, "rel_tol": 1e-10}
        rs = [2.0, 8000.0, 20.0, 0.0]
        grid = eval_hankel_grid(spec, rs, **tols)
        for r, got in zip(rs, grid):
            try:
                want = eval_hankel(spec, r, **tols)
            except ConvergenceError:
                want = None
            assert got == want
        assert [res is None for res in grid] == [False, True, False, False]

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


def f_values(alpha, beta, mu, eps):
    """F at pi/2 - eps for each signed eps of ``eps``."""
    return f_phase(specfun.lerch_unit_many(eps, alpha, beta + 1.0), eps, mu)


def exp2d_unfolded(spec: SeriesSpec, r: float):
    """``eval_exp2d`` with one complex exponential per cell over both eps-node
    sets (pi/2 - eps and pi/2 + eps), unfolded, with the orders and F formed
    here rather than by the route's lowering."""
    alpha, mu, nu = -spec.a, spec.m + spec.m_prime, abs(spec.m - spec.m_prime)
    prefactor = 2.0 * (1j) ** (-mu) / math.pi ** 2

    def evaluate(level, _rows):
        eps, eps_w = quadrature._half_mesh(r, alpha, level)
        cphi = np.concatenate((np.sin(eps), -np.sin(eps)))
        w = np.concatenate((eps_w, eps_w))
        fvals = f_values(alpha, spec.beta, mu, np.concatenate((eps, -eps)))
        tn, tw = quadrature._theta_rule(r, nu, level)
        ctheta = np.cos(tn)[None, :]
        rows = max(1, quadrature._KERNEL_CELLS // tn.size)
        inner = np.concatenate([np.exp(2j * r * cphi[i:i + rows, None] * ctheta) @ tw
                                for i in range(0, cphi.size, rows)])
        total = complex(np.sum(w * fvals * inner)) * prefactor
        # a panel's K33 - G16 over both halves of the same eps panel
        weighted = (w * fvals * inner * prefactor).real.reshape(2, -1, 33)
        err = float(np.sum(np.abs((weighted * quadrature._KRONROD_SHARE).sum(axis=(0, 2)))))
        return [(total.real, cphi.size * tn.size, err + abs(total.imag))]

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

    @pytest.mark.parametrize("nu", [0, 1, 2, 5, 20, 40])
    def test_rule_at_n_matches_rule_at_2n(self, nu):
        # a one-pass exp2d rests on level 0 being exact to rounding on the
        # part that carries the value: doubling n changes it by rounding only,
        # that of each rule as in test_matches_bessel_integral
        trig = np.cos if nu % 2 == 0 else np.sin
        for r in (1e-3, 0.5, 3.0, 20.0, 90.0, 250.0, 400.0):
            xs = np.linspace(0.0, 2.0 * r, 64)
            n_rule, two_n_rule = (trig(np.multiply.outer(xs, np.cos(tn))) @ tw for tn, tw
                                  in (quadrature._theta_rule(r, nu, 0),
                                      quadrature._theta_rule(r, nu, 1)))
            assert np.all(np.abs(n_rule - two_n_rule) <= 8e-15 + 4e-17 * xs), (nu, r)


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
        assert type(res.value) is float and type(res.err_est) is float

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
        assert type(res.value) is float and type(res.err_est) is float

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

        def recorded(alpha, beta, terms, rs, level, kernel):
            calls.append((alpha, terms, rs, level))
            return halves(alpha, beta, terms, rs, level, kernel)

        monkeypatch.setattr(quadrature, "_hankel_halves", recorded)
        res = eval_lifted(SeriesSpec(2.0, 1.0, 1, 0), 10.0)  # beta == m
        assert [level for *_, level in calls] == list(range(len(calls)))
        terms = calls[0][1]
        assert all(terms is call[1] for call in calls)
        assert all(c != 0.0 for c, *_ in terms)
        assert len({term[1:] for term in terms}) == len(terms)
        meshes = [quadrature._half_mesh(rs[0], alpha, level) for alpha, _, rs, level in calls]
        assert res.work == len(terms) * sum(mesh[0].size for mesh in meshes)

    def test_one_lerch_factor_and_one_recurrence_per_half(self, monkeypatch):
        events, level_terms = [], []
        halves = quadrature._hankel_halves

        def level(alpha, beta, terms, rs, lvl, kernel):
            events.append("|")
            level_terms.append(terms)
            return halves(alpha, beta, terms, rs, lvl, kernel)

        def counted(tag, fn):
            def wrapper(*args):
                events.append(tag)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(quadrature, "_hankel_halves", level)
        monkeypatch.setattr(quadrature, "lerch_unit_many",
                            counted("u", quadrature.lerch_unit_many))
        monkeypatch.setattr(specfun, "lerch_local_many", counted("l", specfun.lerch_local_many))
        monkeypatch.setattr(kernels, "bessel_rows", counted("r", kernels.bessel_rows))
        # a tolerance no estimate meets, so that every one of the 7 levels runs
        with pytest.raises(ConvergenceError):
            eval_lifted(SeriesSpec(2.9, 0.3, 0, 3), 20.0, abs_tol=1e-300, rel_tol=1e-300)
        assert len(level_terms[0]) == 7
        per_level = "".join(events).split("|")[1:]
        assert len(per_level) == len(level_terms) == 7
        for seq in per_level:  # one pass over the half-range's eps nodes
            assert seq.count("r") <= 1 and seq.count("u") <= 1 and seq.count("l") <= 1, seq

    def test_non_finite_level_raises_at_once(self, monkeypatch):
        # a = 300 at r = 5: the lowered coefficients overflow, so no level
        # could give a finite value; the quadrature refuses before level 0
        levels = []
        halves = quadrature._hankel_halves

        def recorded(alpha, beta, terms, rs, level, kernel):
            levels.append(level)
            return halves(alpha, beta, terms, rs, level, kernel)

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

    @staticmethod
    def lower_over_all_orders(spec, r):
        # the steps over k = m-s-1 .. m+s+1 at step s, zeros at the ends kept
        m, mp, beta, half_r = spec.m, spec.m_prime, spec.beta, r / 2.0
        n = int(math.floor(spec.a)) + 1 if spec.a >= 0.0 else 0
        c = [1.0]
        for s in range(n):
            c = [(beta - k) * c_k + half_r * (below + above)
                 for k, c_k, below, above in zip(range(m - s - 1, m + s + 2), [0.0, *c, 0.0],
                                                 [0.0, 0.0, *c], [*c, 0.0, 0.0])]
            if not all(map(math.isfinite, c)):
                break
        s = len(c) // 2
        terms = [(-c_k if min(k, mp) % 2 else c_k, k + mp, abs(k - mp))
                 for c_k, k in zip(c, range(m - s, m + s + 1)) if c_k]
        return n - spec.a, terms

    def test_lower_drops_underflowed_ends(self):
        # an end coefficient that underflowed to 0 feeds only 0 outward, so
        # dropping it leaves every other one bit for bit
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = float(rng.choice([rng.integers(0, 61), rng.uniform(0.0, 60.0)]))
            beta = float(rng.choice([rng.integers(0, 4), rng.uniform(-0.99, 3.0)]))
            m, mp = (int(k) for k in rng.integers(0, 4, 2))
            spec, r = SeriesSpec(a, beta, m, mp), float(10.0 ** rng.uniform(-300.0, 3.0))
            got, want = quadrature._lower(spec, r), self.lower_over_all_orders(spec, r)
            assert got == want, (spec, r)

    def test_lower_at_tiny_r_is_fast(self):
        # 20,001 steps whose support stays a few orders wide once the ends
        # underflow; over all orders it took 1.5-2 s
        spec = SeriesSpec(20000.0, 0.5, 0, 0)
        t0 = time.perf_counter()
        quadrature._lower(spec, 1e-300)
        assert time.perf_counter() - t0 < 0.25
        with pytest.raises(ConvergenceError, match="lowering overflowed"):
            eval_lifted(spec, 1e-300)

    def test_underflowed_lowering_is_zero(self):
        # at r = 5e-324 every lowered coefficient underflows to 0 (r/2 is
        # 0), and so does the series
        spec = SeriesSpec(0.5, 0.0, 0, 0)
        assert quadrature._lower(spec, 5e-324) == (0.5, [])
        assert eval_lifted(spec, 5e-324) == EvalResult(0.0, 0.0, "lifted", 0)

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


class TestNegativeOrders:
    """m, m' in Z: Neumann's formula with J_{-n} = (-1)^n J_n holds at every
    integer order, so every route takes negative orders as they are."""

    @pytest.mark.parametrize("case", [
        (-0.5, 0.0, -1, 0, 7.0), (-1.5, 0.3, -2, 1, 12.0), (-0.7, 0.0, -3, -1, 20.0),
        (-2.5, 0.5, 0, -4, 15.0), (-1.0, 0.2, -2, -2, 6.0), (1.6, 0.3, -2, 0, 9.0),
        (0.5, 0.1, -3, -3, 4.0),
    ])
    def test_against_mpmath(self, case):
        a, beta, m, mp, r = case
        with mpmath.workdps(30):
            want = float(mpmath.fsum(
                mpmath.besselj(l + mp, r) * mpmath.besselj(l + m, r) * (l + mpmath.mpf(beta)) ** a
                for l in range(1, int(1.36 * r) + 80)))
        spec = SeriesSpec(a, beta, m, mp)
        routes = [sum_series]
        if a < 0.0:
            routes += [eval_hankel, eval_exp2d, lambda s, x: eval_hankel_grid(s, [x])[0]]
        else:
            routes.append(eval_lifted)
        for route in routes:
            assert route(spec, r).value == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("a", [-1.3, 0.0, 0.7, 2.0])
    def test_r_zero(self, a):
        # J_n(0) = delta_{n0}: only the term l = 2 of m = m' = -2 is left
        spec = SeriesSpec(a, 0.25, -2, -2)
        want = 2.25 ** a
        results = [sum_series(spec, 0.0)]
        if a < 0.0:
            results += [eval_hankel(spec, 0.0), eval_exp2d(spec, 0.0),
                        *eval_hankel_grid(spec, [0.0, 3.0, 0.0])[::2]]
        else:
            results.append(eval_lifted(spec, 0.0))
        for res in results:
            assert res.value == pytest.approx(want, rel=1e-15, abs=0)
            assert res.work == (2 if res.method == "oracle" else 0)

"""Integral-representation evaluators.

For a < 0 (weight exponent), the series equals

    S = ((-1)^min(m,m') / pi) * Int_0^pi J_nu(2 r cos phi) F_{alpha,beta,mu}(phi) dphi
      = (2 i^{-mu} / pi^2) * Int_0^{pi/2} Int_0^pi e^{2 i r cos phi cos theta}
                                   F_{alpha,beta,mu}(phi) cos(nu theta) dphi dtheta

with alpha = -a, mu = m+m', nu = |m-m'|.  For a >= 0 each step of the
recurrence (l+beta) J_{l+m} = (r/2) (J_{l+m-1} + J_{l+m+1}) + (beta-m) J_{l+m}
lowers a by one, to alpha = -a in (0, 1]: a linear combination of Hankel
integrands with one beta.  Neumann's product formula (DLMF 10.9) with
J_{-n} = (-1)^n J_n holds for every integer order, so orders that step below
0 keep the form with mu = k+m' and nu = |k-m'|.  a < 0 is the case of no
step, so both run one quadrature.  The exponential form integrates that one
term of a < 0, whose sign (-1)^min(m,m') = i^{-mu} i^{nu} its prefactor carries.

The phi-singularity of F at pi/2 (order alpha-1 for alpha < 1, logarithmic at
alpha = 1) is handled with a power-law substitution phi = pi/2 - u^{1/alpha}
resp. geometrically graded open panels; phi = pi/2 itself is never a node.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .direct import EvalResult, SeriesSpec, check_inputs
from .errors import ConvergenceError, DomainError
from .fseries import f_phase, lerch_factor
from .kernels import bessel_j_col
from .specfun import gauss_panel_nodes as _panel_nodes

HALF_PI = math.pi / 2.0
_SING_WIDTH = 0.4  # size of the graded region left of pi/2
_MAX_PANELS = 4096  # refinement stops once a level exceeds a multiple of this
_GRADING = 2.0  # ratio of the geometric panels towards pi/2 when alpha >= 1
_PANELS_PER_PERIOD = 4  # oscillation resolution of the phi meshes
# exp2d builds and contracts its real (phi, theta) kernel in blocks of phi
# rows of at most this many cells (512 KiB of float64), so its memory does not
# grow with r.  With rows of 66-532 theta nodes, warm eval_exp2d at r = 90 /
# 200 took 10-16 / 25-39 ms (a=-0.5, mu=0) and 11-18 / 29-41 ms (a=-1.5,
# mu=1) for every block size from 2^14 to 2^18 cells, within noise of each
# other (best of 5, four runs each; 2 CPUs, one BLAS thread).
_KERNEL_CELLS = 1 << 16
# default tolerances of the three routes: refinement stops once err_est is
# at most max(abs_tol, rel_tol * |value|)
ABS_TOL = 1e-9
REL_TOL = 1e-7


def _split(edges: np.ndarray, pieces: np.ndarray) -> np.ndarray:
    """Cut panel i of ``edges`` into ``pieces[i]`` equal panels."""
    starts = np.repeat(edges[:-1], pieces)
    steps = np.repeat(np.diff(edges) / pieces, pieces)
    offsets = np.arange(starts.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    return np.append(starts + offsets * steps, edges[-1])


def _pieces(widths: np.ndarray, r: float, level: int, least: int = 1) -> np.ndarray:
    """Panels per interval at refinement ``level``: enough that none is wider
    than pi^2 / (2 r), about 1.6 periods of J_nu(2 r cos phi), doubled once
    per level."""
    cap = HALF_PI / max(1.0, r / math.pi) * (4.0 / _PANELS_PER_PERIOD)
    return np.maximum(least, np.ceil(widths / cap)).astype(np.int64) << level


def _half_mesh(r: float, alpha: float, level: int):
    """Quadrature rule for [0, pi/2) split at pi/2 - 0.4.

    Returns (phi nodes, weights) for the smooth part and (eps nodes, weights)
    for the singular part, where eps = pi/2 - phi is kept as its own variable
    so that nodes arbitrarily close to pi/2 never round onto it.  The eps
    weights absorb the substitution jacobian.
    """
    smooth = np.array([0.0, HALF_PI - _SING_WIDTH])
    nodes, weights = _panel_nodes(_split(smooth, _pieces(np.diff(smooth), r, level, 4)))
    if alpha < 1.0:
        # eps = u^{1/alpha} flattens the eps^{alpha-1} blow-up of F; the u
        # panels are split by their width in eps, where J_nu oscillates.
        u_top = _SING_WIDTH ** alpha
        u_edges = np.concatenate(
            ([0.0], u_top * 3.0 ** (-np.arange(30, -1, -1, dtype=float)))
        )
        eps_widths = np.diff(u_edges ** (1.0 / alpha))
        un, uw = _panel_nodes(_split(u_edges, _pieces(eps_widths, r, level)))
        eps_nodes = un ** (1.0 / alpha)
        if eps_nodes[0] == 0.0:  # the smallest node; F is singular at eps = 0
            raise ConvergenceError(f"alpha = {alpha:g} is too small for the quadrature "
                                   "near phi = pi/2: eps = u^(1/alpha) underflows to 0")
        eps_weights = uw * (1.0 / alpha) * un ** (1.0 / alpha - 1.0)
    else:
        depth = int(math.ceil(46.0 * math.log(2.0) / math.log(_GRADING)))
        eps_edges = _SING_WIDTH * _GRADING ** (-np.arange(depth, -1, -1, dtype=float))
        eps_edges = _split(eps_edges, _pieces(np.diff(eps_edges), r, level))
        eps_nodes, eps_weights = _panel_nodes(eps_edges)
    return nodes, weights, eps_nodes, eps_weights


def _lower(spec: SeriesSpec, r: float):
    """(alpha, terms) of the module docstring's lowering at r:
    S = (2/pi) sum c Int_0^{pi/2} F_{alpha,beta,mu}(phi) J_nu(2 r cos phi) over the
    (c, mu, nu) of ``terms``: the c_k of sum_k c_k J_{l+k} (l+beta)^(a-n) over
    k = m-n .. m+n after n = floor(a) + 1 steps (none for a < 0), with (-1)^min(k, m')
    folded in.  An overflowed coefficient stays inf or NaN, so the steps stop at
    the first one and ``_hankel`` rejects it."""
    m, mp, beta, half_r = spec.m, spec.m_prime, spec.beta, r / 2.0
    n = int(math.floor(spec.a)) + 1 if spec.a >= 0.0 else 0
    c = [1.0]  # over k = m-s .. m+s after s steps
    for s in range(n):  # Python floats overflow to inf without a warning
        c = [(beta - k) * c_k + half_r * (below + above)
             for k, c_k, below, above in zip(range(m - s - 1, m + s + 2), [0.0, *c, 0.0],
                                             [0.0, 0.0, *c], [*c, 0.0, 0.0])]
        if not all(map(math.isfinite, c)):
            break
    s = len(c) // 2
    terms = [(-c_k if min(k, mp) % 2 else c_k, k + mp, abs(k - mp))
             for c_k, k in zip(c, range(m - s, m + s + 1)) if c_k]
    return n - spec.a, terms


def _half_lerch(alpha: float, beta: float, nodes: np.ndarray, side: int, mirror: bool = False):
    """``lerch_factor`` and phi of F on one part of a ``_half_mesh``: phi nodes
    (side 0) or eps nodes (side 1) in [0, pi/2), or with ``mirror`` their
    images pi - phi resp. pi/2 + eps in (pi/2, pi]."""
    if mirror:
        nodes, side = (nodes, -side) if side else (math.pi - nodes, 0)
    return lerch_factor(alpha, beta, nodes, side)


def _hankel_halves(alpha: float, beta: float, terms, rs: list[float], level: int,
                   mirror: bool = False):
    """(sum over [0, pi/2), product count) per r of ``rs`` of the integrand
    sum c * F_{alpha,beta,mu}(phi) J_nu(2 r cos phi) over the (c, mu, nu) of
    ``terms``.  Per half, over the rows' concatenated meshes, all terms share
    one Lerch factor of F and one Bessel call; a node's values depend on its
    own argument and each row sums its own slice, so a row's sum is that of a
    one-row call.

    With ``mirror`` the sum is over (pi/2, pi]: F on ``_half_lerch``'s mirrored
    nodes, with J_nu(-x) = (-1)^nu J_nu(x) folded into each c.
    """
    meshes = [_half_mesh(r, alpha, level) for r in rs]
    if mirror:
        terms = [(-c if nu % 2 else c, mu, nu) for c, mu, nu in terms]

    def half(k: int, side: int, trig) -> list[float]:
        nodes = np.concatenate([mesh[k] for mesh in meshes])
        weights = np.concatenate([mesh[k + 1] for mesh in meshes])
        sizes = [mesh[k].size for mesh in meshes]
        args = np.repeat(2.0 * np.array(rs), sizes) * trig(nodes)
        orders = sorted({nu for *_, nu in terms})
        cols = dict(zip(orders, bessel_j_col(orders, args)))
        lam, phis = _half_lerch(alpha, beta, nodes, side, mirror)
        products = (c * weights * f_phase(lam, phis, mu) * cols[nu] for c, mu, nu in terms)
        integrand = sum(products, next(products))  # a running sum; one term stays exact
        ends = itertools.accumulate(sizes)
        return [float(np.sum(integrand[end - size:end])) for size, end in zip(sizes, ends)]

    # near pi/2 the node is eps, and cos(pi/2 - eps) = sin(eps) never forms phi
    sums = zip(half(0, 0, np.cos), half(2, 1, np.sin), meshes)
    return [(smooth + sing, len(terms) * (mesh[0].size + mesh[2].size))
            for smooth, sing, mesh in sums]


def _converge(evaluate, count: int, abs_tol: float, rel_tol: float,
              max_nodes: int, tag: str) -> list[EvalResult | None]:
    """Refine ``count`` rows level by level, each until it meets its own
    tolerance; ``None`` for a row that does not within 7 levels, stops at
    ``max_nodes`` or has a value that is not finite.  ``evaluate(level,
    rows)`` returns (value, nodes, extra error) for each row index of
    ``rows``, the rows still refining."""
    results: list[EvalResult | None] = [None] * count
    prev: list[float | None] = [None] * count
    work = [0] * count
    live = list(range(count))
    for level in range(7):
        if not live:
            break
        refining = []
        for i, (value, n_nodes, extra_err) in zip(live, evaluate(level, live)):
            work[i] += n_nodes
            if prev[i] is not None:
                err = abs(value - prev[i]) + extra_err
                if err <= max(abs_tol, rel_tol * abs(value)):
                    results[i] = EvalResult(value, err, tag, work[i])
                    continue
            # no finer level mends a value that is not finite
            if math.isfinite(value) and (prev[i] is None or n_nodes <= max_nodes):
                prev[i] = value
                refining.append(i)
        live = refining
    return results


def _single(results: list[EvalResult | None], tag: str) -> EvalResult:
    if results[0] is None:
        raise ConvergenceError(f"{tag} quadrature did not reach tolerance")
    return results[0]


def _hankel(spec: SeriesSpec, rs, use_parity: bool, abs_tol: float,
            rel_tol: float, tag: str) -> list[EvalResult | None]:
    """``spec``'s series at each r of ``rs`` by its Hankel form, ``None`` where it does
    not converge; without ``use_parity`` each level averages [0, pi/2) and (pi/2, pi]."""
    rs = [float(r) for r in rs]
    for r in rs:
        check_inputs(r, abs_tol, rel_tol)
    positive = [i for i, r in enumerate(rs) if r > 0.0]
    if not positive:  # r = 0 only, where the lowering may run all floor(a) + 1 steps
        return [EvalResult(0.0, 0.0, tag, 0) for _ in rs]
    # r enters the lowering only for a >= 0, where eval_lifted passes one r
    alpha, terms = _lower(spec, rs[0])
    if not all(math.isfinite(c) for c, *_ in terms):
        raise ConvergenceError(f"{tag} lowering overflowed: a coefficient at a = {spec.a:g} "
                               "is not finite")

    def evaluate(level, rows):
        r_rows = [rs[positive[i]] for i in rows]
        sums = _hankel_halves(alpha, spec.beta, terms, r_rows, level)
        if not use_parity:
            mirrored = _hankel_halves(alpha, spec.beta, terms, r_rows, level, mirror=True)
            sums = [((raw + back) / 2.0, n + n2) for (raw, n), (back, n2) in zip(sums, mirrored)]
        return [(2.0 / math.pi * raw, n, 0.0) for raw, n in sums]

    found = iter(_converge(evaluate, len(positive), abs_tol, rel_tol,
                           16 * _MAX_PANELS * len(terms), tag))
    return [next(found) if r > 0.0 else EvalResult(0.0, 0.0, tag, 0) for r in rs]


def eval_hankel(spec: SeriesSpec, r: float, *, use_parity: bool = True,
                abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> EvalResult:
    """One-dimensional Hankel-transform route; requires a < 0."""
    if spec.a >= 0.0:
        raise DomainError("eval_hankel requires a < 0")
    return _single(_hankel(spec, [r], use_parity, abs_tol, rel_tol, "hankel"), "hankel")


def eval_hankel_grid(spec: SeriesSpec, rs, *, abs_tol: float = ABS_TOL,
                     rel_tol: float = REL_TOL) -> list[EvalResult | None]:
    """``eval_hankel`` at every r of ``rs``, as one batched quadrature.

    Each row keeps its own mesh and converges by itself, with the same work
    as ``eval_hankel``; ``None`` marks a row that did not converge.  Every r
    is checked before any quadrature runs.
    """
    if spec.a >= 0.0:
        raise DomainError("eval_hankel requires a < 0")
    return _hankel(spec, rs, True, abs_tol, rel_tol, "hankel")


def _theta_rule(r: float, nu: int, level: int):
    """n-point midpoint rule on [0, pi/2] with weights pi/(2n) cos(nu theta),
    for the theta integral of e^{i x cos theta} cos(nu theta), x <= 2 r.

    mu = m + m' and nu = |m - m'| have one parity, so the part of the
    integrand that carries the value, cos(x cos theta) cos(nu theta) for
    even nu and sin(x cos theta) cos(nu theta) for odd nu, is even in theta
    and symmetric under theta -> pi - theta.  On it the rule is the 4n-point
    periodic rule over a full period, which is exact but for aliased terms of
    order J_{4n-nu}(x).  |J_N(x)| < 1e-17 for all x <= X from N = 16 / 37 /
    154 / 267 / 484 at X = 1 / 10 / 100 / 200 / 400, and 4n >= x + 12 x^(1/3)
    + 16 + nu stays above that, so the rule is exact to rounding.  The other
    part (sin for even nu, cos for odd) is a quarter-range Struve-type
    integral whose F weight cancels analytically; it feeds only the
    imaginary residue.  Doubling n per level keeps each level's difference a
    measure of both directions.
    """
    x = 2.0 * r
    n = math.ceil((x + 12.0 * x ** (1.0 / 3.0) + 16.0 + nu) / 4.0) << level
    tn = (np.arange(n) + 0.5) * (HALF_PI / n)
    return tn, HALF_PI / n * np.cos(nu * tn)


def eval_exp2d(spec: SeriesSpec, r: float, *,
               abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> EvalResult:
    """Two-dimensional exponential oscillatory-integral route; requires a < 0.

    The integrand is ``_lower``'s single term (c, mu, nu), c inside the
    prefactor 2 i^{-mu} / pi^2.  phi runs on the Hankel route's mesh, with F
    from ``_half_lerch``; theta on ``_theta_rule``'s midpoint rule, exact to
    rounding on the part of the theta integrand that carries the value (a full
    period of a periodic analytic function, aliased only through J_{4n-nu}).
    The other part meets the F weight plus - minus (even mu) or plus + minus
    (odd mu), zero analytically, so it feeds only the imaginary residue that
    ``err_est`` adds.  No Bessel routine runs: the route checks the Hankel one
    independently.
    """
    if spec.a >= 0.0:
        raise DomainError("eval_exp2d requires a < 0")
    check_inputs(r, abs_tol, rel_tol)
    if r == 0.0:
        return EvalResult(0.0, 0.0, "exp2d", 0)
    alpha, ((_, mu, nu),) = _lower(spec, r)
    prefactor = 2.0 * (1j) ** (-mu) / math.pi ** 2

    def evaluate(level, _rows):
        nodes, weights, eps, eps_w = _half_mesh(r, alpha, level)
        # phi and pi - phi (eps on sides +1 and -1) have cosines of opposite
        # sign, so their kernels e^{+-i x} are conjugate: one real cos(x) and
        # one sin(x) per pair, x = 2 r cos(phi) cos(theta).  F is evaluated
        # on both sides, so the imaginary residue still checks the formula.
        plus, minus = (
            np.concatenate([w * f_phase(*_half_lerch(alpha, spec.beta, x, side, mirror), mu)
                            for x, w, side in ((nodes, weights, 0), (eps, eps_w, 1))])
            for mirror in (False, True))
        two_r_cphi = 2.0 * r * np.concatenate((np.cos(nodes), np.sin(eps)))
        tn, tw = _theta_rule(r, nu, level)
        ctheta = np.cos(tn)
        rows = max(1, _KERNEL_CELLS // tn.size)
        cos_sum, sin_sum = np.empty_like(plus), np.empty_like(plus)
        for i in range(0, plus.size, rows):
            x = np.multiply.outer(two_r_cphi[i:i + rows], ctheta)
            cos_sum[i:i + rows] = np.cos(x) @ tw
            sin_sum[i:i + rows] = np.sin(x, out=x) @ tw
        total = prefactor * complex(np.sum((plus + minus) * cos_sum),
                                    np.sum((plus - minus) * sin_sum))
        return [(total.real, 2 * plus.size * tn.size, abs(total.imag))]

    return _single(_converge(evaluate, 1, abs_tol, rel_tol, 4096 * _MAX_PANELS, "exp2d"), "exp2d")


def eval_lifted(spec: SeriesSpec, r: float, *,
                abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> EvalResult:
    """Lift a >= 0 to a Hankel-representable exponent via the Bessel recurrence.

    The lifted series is a combination of Hankel integrands, integrated as
    one quadrature; ``work`` counts its (term, node) products.  At r = 0 it is
    the exact 0, as on the Hankel route.
    """
    if spec.a < 0.0:
        raise DomainError("eval_lifted requires a >= 0")
    return _single(_hankel(spec, [r], True, abs_tol, rel_tol, "lifted"), "lifted")

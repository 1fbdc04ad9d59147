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
step, so both run one quadrature.  The two forms differ only in the kernel
column beside F: J_nu(2 r cos phi) from the Bessel rows, or its theta integral
J_nu(x) = (2 i^{-nu} / pi) Int_0^{pi/2} e^{i x cos theta} cos(nu theta) dtheta
(DLMF 10.9.2) plus a residue that integrates to 0 against F; i^{-nu} times the
sign (-1)^min(m,m') = i^{mu-nu} is the prefactor's i^{-mu}.

Every node of the half-range [0, pi/2) is written in the one variable
eps = pi/2 - phi, and its mirror image in (pi/2, pi] is pi/2 + eps, so
cos(phi) = +-sin(eps).  The singularity of F at eps = 0 (order alpha-1 for
alpha < 1, logarithmic at alpha = 1) is handled on (0, 0.4] by one graded
rule for every alpha, eps = u^p with p = 1 / min(alpha, 1); eps = 0 itself
is never a node.  F comes from ``specfun.lerch_unit_many`` and ``f_phase``
at eps, or at -eps on the mirror half: no route forms phi.

Every panel takes the 33-point Gauss-Kronrod rule, which embeds the 16-point
Gauss rule.  A level's value sums the K33 panel sums; its err_est, sum over
panels |K33 - G16|, is an estimate, not a bound.  A level that meets its
tolerance ends the route, one that misses it runs the next, every panel halved.
"""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from .direct import EvalResult, SeriesSpec, check_inputs, sum_series
from .errors import ConvergenceError, DomainError
from .fseries import f_phase
from .kernels import bessel_j_col
from .specfun import lerch_unit_many, panel_nodes

HALF_PI = math.pi / 2.0
_SING_WIDTH = 0.4  # size of the graded region left of pi/2
_MAX_PANELS = 4096  # refinement stops once a level exceeds a multiple of this
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

# The 33-point Kronrod extension of the 16-point Gauss-Legendre rule on
# [-1, 1] (Laurie, Math. Comp. 66, 1997), rounded from an 80-digit computation:
# its nonnegative nodes ascending, the Gauss nodes at odd positions, and their
# Kronrod weights.
_KRONROD_HALF_X = np.array([0.0, 0.09501250983763744, 0.18916857901808373, 0.2816035507792589,
                            0.37148378087841627, 0.45801677765722737, 0.5404076763521397,
                            0.6178762444026438, 0.6897411066817623, 0.755404408355003,
                            0.8142402870624444, 0.8656312023878318, 0.9091576670123429,
                            0.9445750230732326, 0.9715059509693926, 0.9894009349916499,
                            0.9982392741454446])
_KRONROD_HALF_W = np.array([0.0951542160804983, 0.09472840124723005, 0.09343867406092123,
                            0.09129203282819166, 0.08833750257911273, 0.08459580379259064,
                            0.08005394126371929, 0.07476982388559955, 0.06886299519153125,
                            0.062358806011834855, 0.055205633095422174, 0.047506215976407015,
                            0.039512951202421966, 0.031260543647380526, 0.022498859440049444,
                            0.013257930688091158, 0.004742777049247318])
_KRONROD_X = np.concatenate((-_KRONROD_HALF_X[:0:-1], _KRONROD_HALF_X))
_KRONROD_W = np.concatenate((_KRONROD_HALF_W[:0:-1], _KRONROD_HALF_W))
# (K33 - G16) / K33 weight at each node: a panel's K33 - G16 from its
# K33-weighted values, which stay finite where F is not (eps -> 0, alpha < 1)
_KRONROD_SHARE = np.ones(_KRONROD_X.size)
_KRONROD_SHARE[1::2] -= np.polynomial.legendre.leggauss(16)[1] / _KRONROD_W[1::2]


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


def _panel_error(weighted: np.ndarray) -> float:
    """sum over panels |K33 - G16| of an integrand from its K33-weighted values."""
    panels = weighted.reshape(-1, _KRONROD_X.size) * _KRONROD_SHARE
    return float(np.sum(np.abs(panels.sum(axis=1))))


def _half_mesh(r: float, alpha: float, level: int):
    """Quadrature rule for [0, pi/2) in eps = pi/2 - phi: ascending (eps nodes,
    K33 weights), 33 to a panel; graded panels on (0, 0.4] and then smooth
    ones on [0.4, pi/2].

    eps = u^p with p = 1 / min(alpha, 1) flattens the eps^(alpha-1) blow-up of
    F for alpha < 1 and is u = eps for alpha >= 1.  The u panels, from 0 by
    ratio 3 up to 0.4^(1/p), are split in equal u pieces by their steepest
    width in eps, p u^(p-1) du at the top, where J_nu oscillates: an equal
    piece is widest in eps at the top.  eps is the variable of every node, so
    nodes arbitrarily close to pi/2 never round onto it; the weights absorb
    the substitution jacobian.
    """
    g = min(alpha, 1.0)
    p = 1.0 / g
    u_top = _SING_WIDTH ** g
    u_edges = np.concatenate(([0.0], u_top * 3.0 ** (-np.arange(30, -1, -1, dtype=float))))
    steepest = p * np.diff(u_edges) * u_edges[1:] ** (p - 1.0)
    un, uw = panel_nodes(_split(u_edges, _pieces(steepest, r, level)), _KRONROD_X, _KRONROD_W)
    eps_nodes = un ** p
    if eps_nodes[0] == 0.0:  # the smallest node; F is singular at eps = 0
        raise ConvergenceError(f"alpha = {alpha:g} is too small for the quadrature "
                               "near phi = pi/2: eps = u^(1/alpha) underflows to 0")
    eps_weights = uw * p * un ** (p - 1.0)
    smooth = np.array([_SING_WIDTH, HALF_PI])
    nodes, weights = panel_nodes(_split(smooth, _pieces(np.diff(smooth), r, level, 4)),
                                 _KRONROD_X, _KRONROD_W)
    return np.concatenate((eps_nodes, nodes)), np.concatenate((eps_weights, weights))


def _lower(spec: SeriesSpec, r: float):
    """(alpha, terms) of the module docstring's lowering at r:
    S = (2/pi) sum c Int_0^{pi/2} F_{alpha,beta,mu}(phi) J_nu(2 r cos phi) over the
    (c, mu, nu) of ``terms``: the c_k of sum_k c_k J_{l+k} (l+beta)^(a-n) over
    k = m-n .. m+n after n = floor(a) + 1 steps (none for a < 0), with (-1)^min(k, m')
    folded in.  An overflowed coefficient stays inf or NaN, so the steps stop at
    the first one and ``_hankel`` rejects it."""
    m, mp, beta, half_r = spec.m, spec.m_prime, spec.beta, r / 2.0
    n = int(math.floor(spec.a)) + 1 if spec.a >= 0.0 else 0
    lo, c = m, [1.0]  # c_k over k = lo, lo + 1, ...
    for _ in range(n):  # Python floats overflow to inf without a warning
        c = [(beta - k) * c_k + half_r * (below + above)
             for k, c_k, below, above in zip(itertools.count(lo - 1), [0.0, *c, 0.0],
                                             [0.0, 0.0, *c], [*c, 0.0, 0.0])]
        # ends that underflowed to 0 feed only 0 outward: dropping them keeps
        # the list a few orders wide at tiny r instead of growing by 2 a step
        kept = [i for i, c_k in enumerate(c) if c_k] or [0]
        lo, c = lo - 1 + kept[0], c[kept[0]:kept[-1] + 1]
        if not all(map(math.isfinite, c)):
            break
    terms = [(-c_k if min(k, mp) % 2 else c_k, k + mp, abs(k - mp))
             for k, c_k in enumerate(c, lo) if c_k]
    return n - spec.a, terms


def _hankel_halves(alpha: float, beta: float, terms, rs: list[float], level: int, kernel):
    """(value, work, error estimate) per r of ``rs``: 2/pi times the mean over the
    halves of the integral of sum c * F_{alpha,beta,mu} K_nu over the (c, mu, nu)
    of ``terms``.  ``kernel(orders, args, r, level)``, args <= 2 r, gives the work
    per (node, term), a factor and per order one column for [0, pi/2) at eps, or
    two, the second for (pi/2, pi] at -eps.  The value is the real part, the
    estimate sum over panels |K33 - G16| of it plus the size of the imaginary
    part.  The rows share one kernel call and one Lerch factor per half and each
    sums its own slice; Bessel columns depend on their own argument alone, so a
    row's sums are those of a one-row call."""
    meshes = [_half_mesh(r, alpha, level) for r in rs]
    eps, weights = (np.concatenate(part) for part in zip(*meshes))
    sizes = [mesh[0].size for mesh in meshes]
    # cos(pi/2 - eps) = sin(eps) never forms phi
    args = np.repeat(2.0 * np.array(rs), sizes) * np.sin(eps)
    orders = sorted({nu for *_, nu in terms})
    work, factor, columns = kernel(orders, args, max(rs), level)
    cols = dict(zip(orders, columns))
    halves = [(signed, lerch_unit_many(signed, alpha, beta + 1.0))
              for signed in (eps, -eps)[:len(columns[0])]]
    products = (c * weights * f_phase(lam, signed, mu) * cols[nu][half]
                for half, (signed, lam) in enumerate(halves) for c, mu, nu in terms)
    integrand = sum(products, next(products))  # a running sum; one term stays exact
    scale = factor * 2.0 / math.pi / len(halves)
    return [(scale * float(np.sum(part.real)), work * len(terms) * part.size,
             scale * (_panel_error(part.real) + abs(float(np.sum(part.imag)))))
            for part in np.split(integrand, np.cumsum(sizes)[:-1])]


def _bessel_half(orders, args, r, level):
    """The Hankel kernel on [0, pi/2): J_nu, one product per (node, term)."""
    return 1, 1.0, [(col,) for col in bessel_j_col(orders, args)]


def _bessel_both(orders, args, r, level):
    """``_bessel_half`` and its mirror J_nu(-x) = (-1)^nu J_nu(x) on (pi/2, pi]."""
    return 2, 1.0, [(j, -j if nu % 2 else j) for nu, j in zip(orders, bessel_j_col(orders, args))]


def _converge(evaluate, count: int, abs_tol: float, rel_tol: float,
              max_nodes: int, tag: str) -> list[EvalResult | None]:
    """Refine ``count`` rows level by level, each until its error estimate
    meets its own tolerance; ``None`` for a row that does not within 7 levels,
    stops at ``max_nodes`` or has a value that is not finite.  ``evaluate(level,
    rows)`` returns (value, nodes, error estimate) for each row index of
    ``rows``, the rows still refining."""
    results: list[EvalResult | None] = [None] * count
    work = [0] * count
    live = list(range(count))
    for level in range(7):
        if not live:
            break
        refining = []
        for i, (value, n_nodes, err) in zip(live, evaluate(level, live)):
            work[i] += n_nodes
            if not math.isfinite(value):
                continue  # no finer level mends a value that is not finite
            if err <= max(abs_tol, rel_tol * abs(value)):
                results[i] = EvalResult(value, err, tag, work[i])
            elif n_nodes <= max_nodes:
                refining.append(i)
        live = refining
    return results


def _single(results: list[EvalResult | None], tag: str) -> EvalResult:
    if results[0] is None:
        raise ConvergenceError(f"{tag} quadrature did not reach tolerance")
    return results[0]


def _at_zero(spec: SeriesSpec, tag: str) -> EvalResult:
    """The oracle's exact value at r = 0: (beta - m)^a at m = m' < 0, else 0."""
    return dataclasses.replace(sum_series(spec, 0.0), method=tag, work=0)


def _hankel(spec: SeriesSpec, rs, kernel, abs_tol: float, rel_tol: float, tag: str,
            max_work: int = _KRONROD_X.size * _MAX_PANELS) -> list[EvalResult | None]:
    """``spec``'s series at each r of ``rs`` by ``kernel``, ``None`` where it does not
    converge; a level past ``max_work`` per term refines no further."""
    rs = [float(r) for r in rs]
    for r in rs:
        check_inputs(r, abs_tol, rel_tol)
    positive = [r for r in rs if r > 0.0]
    # r enters the lowering only for a >= 0, where eval_lifted passes one r;
    # at r = 0 it could run all floor(a) + 1 steps for what the oracle sums exactly
    alpha, terms = _lower(spec, rs[0]) if positive else (0.0, [])
    zero = _at_zero(spec, tag) if len(positive) < len(rs) or not terms else None
    if not terms:  # r = 0 only, or every lowered coefficient underflowed to 0
        return [zero] * len(rs)
    if not all(math.isfinite(c) for c, *_ in terms):
        raise ConvergenceError(f"{tag} lowering overflowed: a coefficient at a = {spec.a:g} "
                               "is not finite")

    def evaluate(level, rows):
        return _hankel_halves(alpha, spec.beta, terms, [positive[i] for i in rows], level, kernel)

    found = iter(_converge(evaluate, len(positive), abs_tol, rel_tol, max_work * len(terms), tag))
    return [next(found) if r > 0.0 else zero for r in rs]


def eval_hankel(spec: SeriesSpec, r: float, *, use_parity: bool = True,
                abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> EvalResult:
    """One-dimensional Hankel-transform route; requires a < 0.  Without ``use_parity``
    each level integrates both halves of [0, pi] on one Bessel column and its mirror."""
    if spec.a >= 0.0:
        raise DomainError("eval_hankel requires a < 0")
    kernel = _bessel_half if use_parity else _bessel_both
    return _single(_hankel(spec, [r], kernel, abs_tol, rel_tol, "hankel"), "hankel")


def eval_hankel_grid(spec: SeriesSpec, rs, *, abs_tol: float = ABS_TOL,
                     rel_tol: float = REL_TOL) -> list[EvalResult | None]:
    """``eval_hankel`` at every r of ``rs``, as one batched quadrature.

    Each row keeps its own mesh and converges by itself, with the same work
    as ``eval_hankel``; ``None`` marks a row that did not converge.  Every r
    is checked before any quadrature runs.
    """
    if spec.a >= 0.0:
        raise DomainError("eval_hankel requires a < 0")
    return _hankel(spec, rs, _bessel_half, abs_tol, rel_tol, "hankel")


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
    imaginary residue.  n doubles with each level of the phi mesh; the rule is
    exact to rounding at every n, so the phi panels' |K33 - G16| stands for
    the whole quadrature error.
    """
    x = 2.0 * r
    n = math.ceil((x + 12.0 * x ** (1.0 / 3.0) + 16.0 + nu) / 4.0) << level
    tn = (np.arange(n) + 0.5) * (HALF_PI / n)
    return tn, HALF_PI / n * np.cos(nu * tn)


def _theta_kernel(orders, args, r, level):
    """exp2d's kernel: J_nu as i^{-nu} (C + i S) at x and its conjugate at -x, from
    ``_theta_rule``'s cos and sin sums C and S in blocks of at most ``_KERNEL_CELLS``
    cells; work counts both.  The factor 2/pi multiplies the phi sum: on every
    node it would add a rounding there."""
    (nu,) = orders  # a < 0: one term
    tn, tw = _theta_rule(r, nu, level)
    ctheta = np.cos(tn)
    rows = max(1, _KERNEL_CELLS // tn.size)
    c, s = np.empty((2, args.size))
    for i in range(0, args.size, rows):
        x = np.multiply.outer(args[i:i + rows], ctheta)
        c[i:i + rows] = np.cos(x) @ tw
        s[i:i + rows] = np.sin(x, out=x) @ tw
    q = (1, -1j, -1, 1j)[nu % 4]  # i^{-nu}, exact
    return 2 * tn.size, 2.0 / math.pi, [(q * (c + 1j * s), q * (c - 1j * s))]


def eval_exp2d(spec: SeriesSpec, r: float, *,
               abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> EvalResult:
    """Two-dimensional exponential oscillatory-integral route; requires a < 0.

    ``_hankel`` over both halves with ``_theta_kernel``, exact to rounding on the
    part of the theta integrand that carries the value; the other part integrates
    to 0 against F and feeds only the imaginary residue that ``err_est`` adds.
    No Bessel routine runs, so the route checks the Hankel one independently.  A
    level refines on up to 4096 * ``_MAX_PANELS`` cells.
    """
    if spec.a >= 0.0:
        raise DomainError("eval_exp2d requires a < 0")
    found = _hankel(spec, [r], _theta_kernel, abs_tol, rel_tol, "exp2d", 4096 * _MAX_PANELS)
    return _single(found, "exp2d")


def eval_lifted(spec: SeriesSpec, r: float, *,
                abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> EvalResult:
    """Lift a >= 0 to a Hankel-representable exponent via the Bessel recurrence.

    The lifted series is a combination of Hankel integrands, integrated as
    one quadrature; ``work`` counts its (term, node) products.  At r = 0 it is
    the oracle's exact value, as on the Hankel route.
    """
    if spec.a < 0.0:
        raise DomainError("eval_lifted requires a >= 0")
    return _single(_hankel(spec, [r], _bessel_half, abs_tol, rel_tol, "lifted"), "lifted")

"""Integral-representation evaluators.

For a < 0 (weight exponent), the series equals

    S = ((-1)^m' / pi) * Int_0^pi J_nu(2 r cos phi) F_{alpha,beta,mu}(phi) dphi
      = (2 i^{-mu} / pi^2) * Int_0^{pi/2} Int_0^pi e^{2 i r cos phi cos theta}
                                   F_{alpha,beta,mu}(phi) cos(nu theta) dphi dtheta

with alpha = -a.  For a >= 0 the series is lifted to the a < 0 regime through
the Bessel recurrence J_{l+m} = r (J_{l+m-1} + J_{l+m+1}) / (2 (l+m)) and a
geometric split of (l+beta)^a / (l+m).

The phi-singularity of F at pi/2 (order alpha-1 for alpha < 1, logarithmic at
alpha = 1) is handled with a power-law substitution phi = pi/2 - u^{1/alpha}
resp. geometrically graded open panels; phi = pi/2 itself is never a node.
"""
from __future__ import annotations

import math

import numpy as np

from .direct import EvalResult, SeriesSpec, check_inputs
from .errors import ConvergenceError, DomainError
from .fseries import FParams, f_eval_many, f_eval_near_half_many
from .kernels import bessel_rows
from .specfun import bessel_j_col, gauss_panel_nodes as _panel_nodes

HALF_PI = math.pi / 2.0
_SING_WIDTH = 0.4  # size of the graded region left of pi/2
_MAX_PANELS = 4096  # refinement stops once a level exceeds a multiple of this
_GRADING = 2.0  # ratio of the geometric panels towards pi/2 when alpha >= 1
_PANELS_PER_PERIOD = 4  # oscillation resolution of the smooth and theta meshes
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


def _bessel_signed(order: int, args: np.ndarray) -> np.ndarray:
    """J_order at real arguments of either sign (J_n(-x) = (-1)^n J_n(x))."""
    vals = bessel_j_col(order, np.abs(args))
    if order % 2:
        vals = np.where(args < 0.0, -vals, vals)
    return vals


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
        eps_weights = uw * (1.0 / alpha) * un ** (1.0 / alpha - 1.0)
    else:
        depth = int(math.ceil(46.0 * math.log(2.0) / math.log(_GRADING)))
        eps_edges = _SING_WIDTH * _GRADING ** (-np.arange(depth, -1, -1, dtype=float))
        eps_edges = _split(eps_edges, _pieces(np.diff(eps_edges), r, level))
        eps_nodes, eps_weights = _panel_nodes(eps_edges)
    return nodes, weights, eps_nodes, eps_weights


def _hankel_half(p: FParams, nu: int, r: float, level: int):
    nodes, weights, eps, eps_w = _half_mesh(r, p.alpha, level)
    total = float(np.sum(weights * f_eval_many(p, nodes)
                         * bessel_j_col(nu, 2.0 * r * np.cos(nodes))))
    # cos(pi/2 - eps) = sin(eps), evaluated without forming phi
    total += float(np.sum(eps_w * f_eval_near_half_many(p, eps)
                          * bessel_j_col(nu, 2.0 * r * np.sin(eps))))
    return total, nodes.size + eps.size


def _hankel_full(p: FParams, nu: int, r: float, level: int):
    # Mirror of the half mesh onto (pi/2, pi]; F evaluated there directly so
    # the parity-reduction identity can be tested against this route.
    nodes, weights, eps, eps_w = _half_mesh(r, p.alpha, level)
    total = 0.0
    for sgn in (1, -1):
        phi = nodes if sgn == 1 else math.pi - nodes
        jv = _bessel_signed(nu, 2.0 * r * np.cos(phi))
        total += float(np.sum(weights * f_eval_many(p, phi) * jv))
        je = _bessel_signed(nu, 2.0 * r * sgn * np.sin(eps))
        total += float(np.sum(eps_w * f_eval_near_half_many(p, eps, side=sgn) * je))
    return total, 2 * (nodes.size + eps.size)


def _converge(evaluate, abs_tol: float, rel_tol: float, max_nodes: int,
                     tag: str) -> EvalResult:
    prev = None
    work = 0
    for level in range(7):
        value, n_nodes, extra_err = evaluate(level)
        work += n_nodes
        if prev is not None:
            err = abs(value - prev) + extra_err
            if err <= max(abs_tol, rel_tol * abs(value)):
                return EvalResult(value, err, tag, work)
            if n_nodes > max_nodes:
                break
        prev = value
    raise ConvergenceError(f"{tag} quadrature did not reach tolerance (work={work})")


def eval_hankel(spec: SeriesSpec, r: float, *, use_parity: bool = True,
                abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> EvalResult:
    """One-dimensional Hankel-transform route; requires a < 0."""
    if spec.a >= 0.0:
        raise DomainError("eval_hankel requires a < 0")
    check_inputs(r, abs_tol, rel_tol)
    sp = spec.canonical()
    if r == 0.0:
        return EvalResult(0.0, 0.0, "hankel", 0)
    p = FParams(-sp.a, sp.beta, sp.mu)
    sign = -1.0 if sp.m_prime % 2 else 1.0

    def evaluate(level):
        if use_parity:
            raw, n = _hankel_half(p, sp.nu, r, level)
            raw *= 2.0
        else:
            raw, n = _hankel_full(p, sp.nu, r, level)
        return sign / math.pi * raw, n, 0.0

    return _converge(evaluate, abs_tol, rel_tol, 16 * _MAX_PANELS, "hankel")


def _theta_rule(r: float, nu: int, level: int):
    edges = np.array([0.0, HALF_PI])
    tn, tw = _panel_nodes(_split(edges, _pieces(np.diff(edges), r, level, 4)))
    return tn, tw * np.cos(nu * tn)


def eval_exp2d(spec: SeriesSpec, r: float, *,
               abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> EvalResult:
    """Two-dimensional exponential oscillatory-integral route; requires a < 0."""
    if spec.a >= 0.0:
        raise DomainError("eval_exp2d requires a < 0")
    check_inputs(r, abs_tol, rel_tol)
    sp = spec.canonical()
    p = FParams(-sp.a, sp.beta, sp.mu)
    prefactor = 2.0 * (1j) ** (-sp.mu) / math.pi ** 2

    def evaluate(level):
        nodes, weights, eps, eps_w = _half_mesh(r, p.alpha, level)
        cphi = np.concatenate((np.cos(nodes), -np.cos(nodes), np.sin(eps), -np.sin(eps)))
        w = np.concatenate((weights, weights, eps_w, eps_w))
        fvals = np.concatenate((
            f_eval_many(p, nodes),
            f_eval_many(p, math.pi - nodes),
            f_eval_near_half_many(p, eps, side=1),
            f_eval_near_half_many(p, eps, side=-1),
        ))
        tn, tw = _theta_rule(r, sp.nu, level)
        kernel = np.exp(2j * r * cphi[:, None] * np.cos(tn)[None, :])
        inner = kernel @ tw
        total = complex(np.sum(w * fvals * inner)) * prefactor
        return total.real, cphi.size * tn.size, abs(total.imag)

    return _converge(evaluate, abs_tol, rel_tol, 4096 * _MAX_PANELS, "exp2d")


def eval_lifted(spec: SeriesSpec, r: float, *,
                abs_tol: float = ABS_TOL, rel_tol: float = REL_TOL) -> EvalResult:
    """Lift a >= 0 to Hankel-representable exponents via the Bessel recurrence."""
    if spec.a < 0.0:
        raise DomainError("eval_lifted requires a >= 0")
    check_inputs(r, abs_tol, rel_tol)
    if r == 0.0:
        raise DomainError("eval_lifted requires r > 0")
    depth = int(math.floor(spec.a)) + 3
    nmax = max(spec.m, spec.m_prime) + depth + 2
    row = bessel_rows(nmax, np.array([r]))[:, 0]
    memo: dict = {}

    def S(a: float, beta: float, m: int, mp: int):
        key = (a, beta, m, mp)
        if key in memo:
            return memo[key]
        if m < 0:  # m == -1: shift the summation index once
            v, e, wk = S(a, beta + 1.0, 0, mp + 1)
            v += row[0] * row[mp + 1] * (1.0 + beta) ** a
            out = (v, e, wk)
        elif a < 0.0:
            res = eval_hankel(SeriesSpec(a, beta, m, mp), r, abs_tol=abs_tol, rel_tol=rel_tol)
            out = (res.value, res.err_est, res.work)
        else:
            n = int(math.floor(a)) + 1
            tot = 0.0
            err = 0.0
            wk = 0
            half_r = r / 2.0
            for i in range(n + 1):
                c = (beta - m) ** i
                for m_shift in (m - 1, m + 1):
                    v, e, w_ = S(a - 1.0 - i, beta, m_shift, mp)
                    tot += half_r * c * v
                    err += abs(half_r * c) * e
                    wk += w_
            c = (beta - m) ** (n + 1)
            v, e, w_ = S(a - 1.0 - n, beta, m, mp)
            tot += c * v
            err += abs(c) * e
            wk += w_
            out = (tot, err, wk)
        memo[key] = out
        return out

    value, err, work = S(spec.a, spec.beta, spec.m, spec.m_prime)
    return EvalResult(float(value), err, "lifted", work)  # Bessel row terms are numpy scalars

"""Amplitude function F_{alpha,beta,mu}(phi) of the integral representations.

F is the boundary value of a Lerch transcendent on the unit circle,

    F(phi) = Re(-e^{i phi (mu+2)} Phi(-e^{2 i phi}, alpha, beta+1))
           = sum_{l>=1} (-1)^l cos(phi (mu + 2l)) / (l + beta)^alpha,

smooth on [0, pi] except possibly at phi = pi/2, where it carries an
algebraic singularity of order alpha-1 when alpha < 1 (logarithmic at
alpha = 1 for even mu).
"""
from __future__ import annotations

import math

import numpy as np

from .specfun import _NEAR_HALF_PI, lerch_local_many, lerch_unit_many

HALF_PI = math.pi / 2.0


def lerch_factor(alpha: float, beta: float, eps: np.ndarray, side: int):
    """F's Lerch factor Phi(-e^{2 i phi}, alpha, beta+1), which is free of mu,
    and phi, at phi = pi/2 - side*eps for eps = ``eps`` (|eps| <= pi/2) and
    side +-1.  eps is its own variable, so nodes within one ulp of pi/2 stay
    distinct.  Nodes with |ell| = 2 |eps| below specfun's seam take the local
    series, the others the far table."""
    eps = np.asarray(eps, dtype=np.float64)
    phis = HALF_PI - side * eps
    near = np.abs(2.0 * eps) < _NEAR_HALF_PI
    lam = np.empty(eps.shape, dtype=np.complex128)
    lam[near] = lerch_local_many(-2.0 * side * eps[near], alpha, beta + 1.0)
    lam[~near] = lerch_unit_many(phis[~near], alpha, beta + 1.0)
    return lam, phis


def f_phase(lam: np.ndarray, phis: np.ndarray, mu: int) -> np.ndarray:
    """F = Re(-e^{i phi (mu+2)} lam) from its Lerch factor ``lam`` at ``phis``."""
    return np.real(-np.exp(1j * phis * (mu + 2)) * lam)


def f_eval_many(alpha: float, beta: float, mu: int, phis: np.ndarray) -> np.ndarray:
    """F at ``phis``; no bnsum code calls it.  Kept only for ``perfbench/tracer.py``,
    which wraps it by name; it goes when a benchmark change drops it from TARGETS."""
    return f_phase(lerch_unit_many(phis, alpha, beta + 1.0), phis, mu)


def f_eval_near_half_many(alpha: float, beta: float, mu: int, eps: np.ndarray,
                          side: int = 1) -> np.ndarray:
    """F at pi/2 - side*eps; kept for the tracer, and to go, like ``f_eval_many``."""
    return f_phase(*lerch_factor(alpha, beta, eps, side), mu)

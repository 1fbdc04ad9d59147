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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import lerch_local_many, lerch_unit_many

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class FParams:
    alpha: float
    beta: float
    mu: int

    def __post_init__(self):
        if not self.alpha > 0.0:  # NaN fails too
            raise DomainError("FParams requires alpha > 0")
        if not self.beta > -1.0:
            raise DomainError("FParams requires beta > -1")
        if self.mu < 0:
            raise DomainError("FParams requires mu >= 0")


def lerch_factor(alpha: float, beta: float, nodes: np.ndarray, side: int = 0):
    """F's Lerch factor Phi(-e^{2 i phi}, alpha, beta+1), which is free of mu,
    and phi: at phi = ``nodes`` (side 0) or pi/2 - side*eps, eps = ``nodes``."""
    nodes = np.asarray(nodes, dtype=np.float64)
    if not side:
        return lerch_unit_many(nodes, alpha, beta + 1.0), nodes
    return lerch_local_many(-2.0 * side * nodes, alpha, beta + 1.0), HALF_PI - side * nodes


def f_phase(lam: np.ndarray, phis: np.ndarray, mu: int) -> np.ndarray:
    """F = Re(-e^{i phi (mu+2)} lam) from its Lerch factor ``lam`` at ``phis``."""
    return np.real(-np.exp(1j * phis * (mu + 2)) * lam)


def f_eval_many(p: FParams, phis: np.ndarray) -> np.ndarray:
    """Vectorized F over an array of angles in [0, pi]."""
    return f_phase(*lerch_factor(p.alpha, p.beta, phis), p.mu)


def f_eval_near_half_many(p: FParams, eps: np.ndarray, side: int = 1) -> np.ndarray:
    """F at phi = pi/2 - side*eps for small eps > 0, parametrized by eps.

    The distance to pi/2 enters the singular factor directly instead of
    through phi, so nodes closer to pi/2 than one ulp stay distinguishable.
    Requires |eps| below the convergence range of the local expansion (< pi).
    """
    if side not in (1, -1):
        raise DomainError("side must be +1 (below pi/2) or -1 (above)")
    return f_phase(*lerch_factor(p.alpha, p.beta, eps, side), p.mu)

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

from .errors import DomainError, SingularityError
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


def f_eval_many(p: FParams, phis: np.ndarray) -> np.ndarray:
    """Vectorized F over an array of angles in [0, pi]."""
    phis = np.asarray(phis, dtype=np.float64)
    if p.alpha <= 1.0 and np.any(phis == HALF_PI):
        raise SingularityError("F singular at phi=pi/2 for alpha <= 1")
    lam = lerch_unit_many(phis, p.alpha, p.beta + 1.0)
    return np.real(-np.exp(1j * phis * (p.mu + 2)) * lam)


def f_eval_near_half_many(p: FParams, eps: np.ndarray, side: int = 1) -> np.ndarray:
    """F at phi = pi/2 - side*eps for small eps > 0, parametrized by eps.

    The distance to pi/2 enters the singular factor directly instead of
    through phi, so nodes closer to pi/2 than one ulp stay distinguishable.
    Requires |eps| below the convergence range of the local expansion (< pi).
    """
    eps = np.asarray(eps, dtype=np.float64)
    if side not in (1, -1):
        raise DomainError("side must be +1 (below pi/2) or -1 (above)")
    if p.alpha <= 1.0 and np.any(eps == 0.0):
        raise SingularityError("F singular at phi=pi/2 for alpha <= 1")
    lam = lerch_local_many(-2.0 * side * eps, p.alpha, p.beta + 1.0)
    phase = np.exp(1j * (HALF_PI - side * eps) * (p.mu + 2))
    return np.real(-phase * lam)

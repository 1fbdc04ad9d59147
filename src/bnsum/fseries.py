"""Amplitude function F_{alpha,beta,mu}(phi) of the integral representations.

F is the boundary value of a Lerch transcendent on the unit circle,

    F(phi) = Re(-e^{i phi (mu+2)} Phi(-e^{2 i phi}, alpha, beta+1))
           = sum_{l>=1} (-1)^l cos(phi (mu + 2l)) / (l + beta)^alpha,

smooth on [0, pi] except possibly at phi = pi/2, where it carries an
algebraic singularity of order alpha-1 when alpha < 1 (logarithmic at
alpha = 1 for even mu).  The routes write phi = pi/2 - eps; the Lerch factor,
which is free of mu, is ``specfun.lerch_unit_many`` at eps, and ``f_phase``
turns it into F for one mu without forming phi.
"""
from __future__ import annotations

import numpy as np

from .specfun import lerch_unit_many


def f_phase(lam: np.ndarray, eps: np.ndarray, mu: int) -> np.ndarray:
    """F = Re(i^mu e^{-i (mu+2) eps} lam) at phi = pi/2 - eps from its Lerch
    factor ``lam``; -e^{i (mu+2) pi/2} = i^mu is taken exactly."""
    return np.real((1, 1j, -1, -1j)[mu % 4] * np.exp(-1j * (mu + 2) * eps) * lam)


def f_eval_many(alpha: float, beta: float, mu: int, phis: np.ndarray) -> np.ndarray:
    """F at ``phis``; no bnsum code calls it.  Kept only for ``perfbench/tracer.py``,
    which wraps it by name; it goes when a benchmark change drops it from TARGETS."""
    eps = np.pi / 2.0 - np.asarray(phis, dtype=np.float64)
    return f_phase(lerch_unit_many(eps, alpha, beta + 1.0), eps, mu)


def f_eval_near_half_many(alpha: float, beta: float, mu: int, eps: np.ndarray,
                          side: int = 1) -> np.ndarray:
    """F at pi/2 - side*eps; kept for the tracer, and to go, like ``f_eval_many``."""
    eps = side * np.asarray(eps, dtype=np.float64)
    return f_phase(lerch_unit_many(eps, alpha, beta + 1.0), eps, mu)

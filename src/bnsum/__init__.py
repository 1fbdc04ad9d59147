"""Numerical evaluation of weighted Bessel product series
sum_{l>=1} J_{l+m'}(r) J_{l+m}(r) (l+beta)^a by direct summation, integral
representations, and large-r asymptotic expansions, with a cross-validation
harness."""

from .asymptotics import (
    derivative_series_form,
    eval_form,
    leading_integer,
    leading_noninteger,
    leading_nonneg,
)
from .direct import EvalResult, SeriesSpec, sum_derivative_series, sum_series
from .errors import (
    BnsumError,
    ConvergenceError,
    DomainError,
    PoleError,
    SingularityError,
    ToleranceError,
)
from .harness import run_suite
from .quadrature import eval_exp2d, eval_hankel, eval_lifted

__version__ = "0.1.0"

__all__ = [
    "BnsumError",
    "ConvergenceError",
    "DomainError",
    "EvalResult",
    "PoleError",
    "SeriesSpec",
    "SingularityError",
    "ToleranceError",
    "derivative_series_form",
    "eval_exp2d",
    "eval_form",
    "eval_hankel",
    "eval_lifted",
    "leading_integer",
    "leading_noninteger",
    "leading_nonneg",
    "run_suite",
    "sum_derivative_series",
    "sum_series",
]

"""Numerical evaluation of weighted Bessel product series
sum_{l>=1} J_{l+m'}(r) J_{l+m}(r) (l+beta)^a by direct summation, integral
representations, and large-r asymptotic expansions, with a cross-validation
harness."""

from .asymptotics import (
    AsymptoticForm,
    AsymptoticTerm,
    derivative_series_form,
    eval_form,
    leading_integer,
    leading_noninteger,
    leading_nonneg,
)
from .direct import (
    DERIVATIVE_KINDS,
    EvalResult,
    SeriesSpec,
    sum_derivative_series,
    sum_series,
)
from .errors import (
    BnsumError,
    ConvergenceError,
    DomainError,
    PoleError,
    SingularityError,
    ToleranceError,
)
from .fseries import FParams, f_eval, f_eval_many, f_singular_model
from .harness import SUITES, ValidationReport, run_suite
from .kernels import bessel_rows
from .quadrature import QuadratureConfig, eval_exp2d, eval_hankel, eval_lifted
from .specfun import (
    digamma,
    gamma,
    harmonic_extended,
    hurwitz_zeta,
    lerch_unit,
    phi_minus_one,
    reciprocal_gamma,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticForm",
    "AsymptoticTerm",
    "BnsumError",
    "ConvergenceError",
    "DERIVATIVE_KINDS",
    "DomainError",
    "EvalResult",
    "FParams",
    "PoleError",
    "QuadratureConfig",
    "SUITES",
    "SeriesSpec",
    "SingularityError",
    "ToleranceError",
    "ValidationReport",
    "bessel_rows",
    "derivative_series_form",
    "digamma",
    "eval_exp2d",
    "eval_form",
    "eval_hankel",
    "eval_lifted",
    "f_eval",
    "f_eval_many",
    "f_singular_model",
    "gamma",
    "harmonic_extended",
    "hurwitz_zeta",
    "leading_integer",
    "leading_noninteger",
    "leading_nonneg",
    "lerch_unit",
    "phi_minus_one",
    "reciprocal_gamma",
    "run_suite",
    "sum_derivative_series",
    "sum_series",
]

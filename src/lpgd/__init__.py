"""Low-precision gradient descent laboratory.

Fixed-point and small floating-point number systems with exact stochastic
rounding, an instrumented gradient-descent engine that splits each step's
rounding error into gradient and update components, and estimators for the
convergence-rate factors those errors induce.
"""

from .qnum import QFormat, FixedVec, make_format, parse_rational
from .lpfloat import FloatFormat, parse_float_format
from .rounding import RoundScheme, parse_scheme
from .rng import RandomStream
from .objectives import Objective, make_objective
from .gdengine import GDConfig, RunResult, run, run_ensemble

__all__ = [
    "QFormat",
    "FixedVec",
    "make_format",
    "parse_rational",
    "FloatFormat",
    "parse_float_format",
    "RoundScheme",
    "parse_scheme",
    "RandomStream",
    "Objective",
    "make_objective",
    "GDConfig",
    "RunResult",
    "run",
    "run_ensemble",
]

"""Core contribution: re-optimization, perfect-(n) oracles, feedback loops."""

from repro.core.feedback import FeedbackIteration, FeedbackLoop, FeedbackResult
from repro.core.interceptor import ReoptimizationInterceptor
from repro.core.oracle import TrueCardinalityOracle
from repro.core.reoptimizer import (
    ReoptimizationReport,
    ReoptimizationStep,
)
from repro.core.triggers import (
    DEFAULT_THRESHOLD,
    ReoptimizationPolicy,
    q_error,
)

__all__ = [
    "DEFAULT_THRESHOLD",
    "FeedbackIteration",
    "FeedbackLoop",
    "FeedbackResult",
    "ReoptimizationInterceptor",
    "ReoptimizationPolicy",
    "ReoptimizationReport",
    "ReoptimizationStep",
    "TrueCardinalityOracle",
    "q_error",
]

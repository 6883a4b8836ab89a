"""Pseudo-Euclidean billiards, geodesic flows on quadrics and surfaces of
revolution, and pseudo-confocal quadric families."""

from .errors import (
    ChartError,
    CoefficientOverflowError,
    ConfigError,
    DegenerateMemberError,
    DegenerateMetricError,
    DimensionMismatchError,
    EnvelopeDegenerateError,
    EscapeError,
    GrazeError,
    LocalChartError,
    LorentzBilliardError,
    RootNotConvergedError,
    SingularNormalError,
    StepUnderflowError,
    TrajectoryStopped,
)
from .metric import CausalClass, Metric, as_vector, cross2

__all__ = [
    "CausalClass",
    "ChartError",
    "CoefficientOverflowError",
    "ConfigError",
    "DegenerateMemberError",
    "DegenerateMetricError",
    "DimensionMismatchError",
    "EnvelopeDegenerateError",
    "EscapeError",
    "GrazeError",
    "LocalChartError",
    "LorentzBilliardError",
    "Metric",
    "RootNotConvergedError",
    "SingularNormalError",
    "StepUnderflowError",
    "TrajectoryStopped",
    "as_vector",
    "cross2",
]

__version__ = "0.1.0"

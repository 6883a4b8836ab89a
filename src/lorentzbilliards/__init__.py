"""Pseudo-Euclidean billiards, geodesic flows on quadrics and surfaces of
revolution, and pseudo-confocal quadric families."""

from .errors import (
    ChartError,
    ConfigError,
    DegenerateMemberError,
    DegenerateMetricError,
    DimensionMismatchError,
    EnvelopeDegenerateError,
    EscapeError,
    GrazeError,
    LocalChartError,
    LorentzBilliardError,
    SingularNormalError,
    StencilError,
    StepUnderflowError,
    TrajectoryStopped,
    TropicReached,
)
from .metric import CausalClass, Metric, as_vector, cross2

__all__ = [
    "CausalClass",
    "ChartError",
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
    "SingularNormalError",
    "StencilError",
    "StepUnderflowError",
    "TrajectoryStopped",
    "TropicReached",
    "as_vector",
    "cross2",
]

__version__ = "0.1.0"

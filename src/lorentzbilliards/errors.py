"""Exception types shared across the package."""


class LorentzBilliardError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(LorentzBilliardError):
    """Operands live in spaces of different dimensions."""


class DegenerateMetricError(LorentzBilliardError):
    """The Gram matrix is (numerically) singular."""


class SingularNormalError(LorentzBilliardError):
    """The normal is light-like: orthogonal decomposition is undefined."""


class TrajectoryStopped(LorentzBilliardError):
    """The trajectory hit a singular boundary point; the map is undefined there."""


class EscapeError(LorentzBilliardError):
    """A ray has no forward intersection with the boundary."""


class GrazeError(LorentzBilliardError):
    """A ray meets the boundary tangentially (double root)."""


class ChartError(LorentzBilliardError):
    """A line does not belong to the domain of the requested chart."""


class LocalChartError(LorentzBilliardError):
    """No second intersection exists in the local chart."""


class DegenerateMemberError(LorentzBilliardError):
    """A family parameter landed on (or too close to) a pole of the family."""


class StepUnderflowError(LorentzBilliardError):
    """The adaptive step size collapsed without reaching a stopping locus;
    `state` is the last accepted state (a `surface_flow.FlowState`) when
    the integrator raised it."""

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


class RootNotConvergedError(LorentzBilliardError):
    """A root iteration ended without meeting its tolerance."""


class CoefficientOverflowError(LorentzBilliardError, OverflowError):
    """A polynomial term or coefficient leaves the float range."""


class EnvelopeDegenerateError(LorentzBilliardError):
    """The line family is (locally) flat: no envelope point."""


class ConfigError(LorentzBilliardError):
    """Malformed configuration input."""

"""Exception types shared across the package."""


class WaveError(Exception):
    """Base class for all tlwaves errors."""


class ParameterDomainError(WaveError, ValueError):
    """Physical parameters outside the admissible regime."""


class NoSolitaryWaveError(WaveError):
    """Existence hypotheses fail: subsonic speed or vanishing nonlinearity."""


class PoleProximityError(WaveError):
    """Velocity value too close to the pole of the interface reconstruction."""


class StepSizeTooLargeError(WaveError):
    """ODE integration step rejected by the energy-drift monitor."""


class SingularModeError(WaveError):
    """A per-mode linear system of the traveling-wave operator is singular."""


class DegenerateInnerProductError(WaveError):
    """Stabilizing-factor denominator has collapsed to zero (bad iterate)."""


class NotConvergedError(WaveError):
    """Iteration cap reached before meeting the residual/update tolerances."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InputFormatError(WaveError, ValueError):
    """A config file or data table does not have the structure its reader expects."""


class DomainTooSmallError(WaveError):
    """Computed profile does not decay below tolerance at the boundary."""


class DomainTooSmallWarning(UserWarning):
    """Non-strict variant of DomainTooSmallError."""


class FitError(WaveError):
    """Base class for curve-fitting failures."""


class InsufficientDataError(FitError):
    """Too few samples for the requested fit."""


class SignChangeError(FitError):
    """Decay-fit window contains data of mixed sign."""


class NoBracketError(FitError):
    """Objective is monotone over the exponent search interval."""

"""Exception types shared across the package, and the stage an error
names."""
from contextlib import contextmanager


class NlswkbError(Exception):
    """Base class for package errors.  `stage` names the stage of the plan
    or run it left, if any."""
    stage: str | None = None


@contextmanager
def stage(name: str):
    """Name `name` as the stage of any NlswkbError that leaves the body."""
    try:
        yield
    except NlswkbError as exc:
        exc.stage = name
        raise


class GridError(NlswkbError):
    """Invalid grid construction."""


class FieldError(NlswkbError):
    """Invalid field data (shape mismatch, non-finite samples)."""


class _TimedError(NlswkbError):
    """An error at one simulation time: carries that time."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class CausticError(_TimedError):
    """Operation requested at or past the caustic horizon."""


class InversionError(_TimedError):
    """Ray-map inversion failed to converge or left the marker chart."""


class StencilError(_TimedError):
    """Too few stored time nodes for a finite-difference time stencil."""


class _SolverError(_TimedError):
    """A time integration stopped: carries the simulation time it reached
    and the eps of the solve."""

    def __init__(self, message: str, time: float | None = None,
                 eps: float | None = None):
        super().__init__(message, time)
        self.eps = eps


class ResolutionError(_SolverError):
    """Spectral tail grew beyond the trusted fraction of the band."""


class DivergenceError(_SolverError):
    """Non-finite values appeared during time integration."""


class ConfigError(NlswkbError):
    """Invalid experiment configuration."""

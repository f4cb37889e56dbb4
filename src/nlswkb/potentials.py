"""External potentials and initial phases with pointwise evaluators.

Ray tracing needs V, its derivative and its second derivative at arbitrary
points on the line, not just on the grid, so each kind carries closed-form
evaluators.  They take an (M,) array of points and return (M,) arrays,
the layout the ray bundle stores.  Supported potential kinds:

* ``zero``
* ``harmonic``: V = omega^2 x^2 / 2 (sub-quadratic growth, the only
  unbounded kind admitted)
* ``bounded_periodic``: closed-form callables, e.g. ``cosine``

Initial phase kinds are ``zero`` and ``quadratic`` (phi0 = q y^2 / 2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldError
from .fields import RealField
from .grids import PeriodicGrid

POTENTIAL_KINDS = ("zero", "harmonic", "bounded_periodic")
PHASE_KINDS = ("zero", "quadratic")


@dataclass(frozen=True)
class PotentialSpec:
    kind: str
    omega: float | None = None
    callables: tuple | None = None  # (value, gradient, hessian), each f(t, x)

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls("zero")

    @classmethod
    def harmonic(cls, omega: float) -> "PotentialSpec":
        return cls("harmonic", omega=float(omega))

    @classmethod
    def cosine(cls, amplitude: float, length: float, cycles: int = 1) -> "PotentialSpec":
        """V(x) = A cos(2 pi m x / L): the stock bounded-periodic fixture."""
        kv = 2 * np.pi * cycles / length

        def value(t, x):
            return amplitude * np.cos(kv * x)

        def gradient(t, x):
            return -amplitude * kv * np.sin(kv * x)

        def hessian(t, x):
            return -amplitude * kv**2 * np.cos(kv * x)

        return cls("bounded_periodic", callables=(value, gradient, hessian))

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise FieldError(f"unknown potential kind {self.kind!r}")
        if self.kind == "harmonic" and self.omega is None:
            raise FieldError("harmonic potential needs a frequency")
        if self.kind == "bounded_periodic" and self.callables is None:
            raise FieldError("bounded_periodic potential needs callables")

    # -- evaluators on (M,) points ------------------------------------------

    def value(self, t: float, x: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "harmonic":
            return 0.5 * (self.omega * x) ** 2
        return self.callables[0](t, x)

    def gradient(self, t: float, x: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "harmonic":
            return self.omega**2 * x
        return self.callables[1](t, x)

    def hessian(self, t: float, x: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(x)
        if self.kind == "harmonic":
            return np.full_like(x, self.omega**2)
        return self.callables[2](t, x)

    def sample_on(self, grid: PeriodicGrid, t: float = 0.0, role: str = "potential") -> RealField:
        if self.kind == "zero":
            return RealField.zeros(grid, role=role)
        return RealField(grid, self.value(t, grid.nodes), role=role)

    def subquadratic_bound(self, grid: PeriodicGrid, t: float = 0.0) -> float:
        """Max |V''| over the box; must be finite (admissibility)."""
        bound = float(np.abs(self.hessian(t, grid.nodes)).max())
        if not np.isfinite(bound):
            raise FieldError("potential Hessian is not bounded on the box")
        return bound


@dataclass(frozen=True)
class InitialPhaseSpec:
    kind: str
    curvature: float | None = None  # q; phi0 = q y^2 / 2

    @classmethod
    def zero(cls) -> "InitialPhaseSpec":
        return cls("zero")

    @classmethod
    def quadratic(cls, curvature: float) -> "InitialPhaseSpec":
        return cls("quadratic", curvature=float(curvature))

    def __post_init__(self):
        if self.kind not in PHASE_KINDS:
            raise FieldError(f"unknown phase kind {self.kind!r}")
        if self.kind == "quadratic" and self.curvature is None:
            raise FieldError("quadratic phase needs a curvature")

    # -- evaluators on (M,) points ------------------------------------------

    def value(self, y: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(y)
        return 0.5 * (y * self.curvature * y)

    def gradient(self, y: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(y)
        return y * self.curvature

    def hessian(self, y: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(y)
        return np.full_like(y, self.curvature)

    def sample_on(self, grid: PeriodicGrid, role: str = "initial-phase") -> RealField:
        if self.kind == "zero":
            return RealField.zeros(grid, role=role)
        return RealField(grid, self.value(grid.nodes), role=role)

    def is_periodic_compatible(self) -> bool:
        """True when the phase extends periodically (labels may wrap)."""
        return self.kind != "quadratic"


def potential_is_periodic_compatible(potential: PotentialSpec) -> bool:
    """True when the ray displacement field inherits box periodicity."""
    return potential.kind in ("zero", "bounded_periodic")


def map_is_affine(potential: PotentialSpec, phase: InitialPhaseSpec) -> bool:
    """True when the ray map is exactly affine in the labels.

    Holds when both Hessians are constant in space: zero/harmonic potential
    with zero/quadratic phase.  The variational matrix is then
    label-independent and interpolation of the map is exact.
    """
    return potential.kind in ("zero", "harmonic") and phase.kind in ("zero", "quadratic")

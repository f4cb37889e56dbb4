"""External potentials and initial phases with pointwise evaluators.

Ray tracing needs V, grad V and the Hessian of V at arbitrary points on
the line, not just on the grid, so each kind carries closed-form
evaluators.  Points are (M, 1) arrays; gradients come back as (M, 1) and
Hessians as (M, 1, 1), the layout the ray bundle stores.  Supported
potential kinds:

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


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] != 1:
        raise FieldError("points must have shape (M,) or (M, 1)")
    return pts


@dataclass(frozen=True)
class PotentialSpec:
    kind: str
    omega: float | None = None
    callables: tuple | None = None  # (value, gradient, hessian), each f(t, pts)

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

        def value(t, pts):
            return amplitude * np.cos(kv * pts[:, 0])

        def gradient(t, pts):
            return (-amplitude * kv * np.sin(kv * pts[:, 0]))[:, None]

        def hessian(t, pts):
            return (-amplitude * kv**2 * np.cos(kv * pts[:, 0]))[:, None, None]

        return cls("bounded_periodic", callables=(value, gradient, hessian))

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise FieldError(f"unknown potential kind {self.kind!r}")
        if self.kind == "harmonic" and self.omega is None:
            raise FieldError("harmonic potential needs a frequency")
        if self.kind == "bounded_periodic" and self.callables is None:
            raise FieldError("bounded_periodic potential needs callables")

    # -- evaluators ---------------------------------------------------------

    def value(self, t: float, points: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        if self.kind == "zero":
            return np.zeros(pts.shape[0])
        if self.kind == "harmonic":
            return 0.5 * (self.omega * pts[:, 0]) ** 2
        return np.asarray(self.callables[0](t, pts), dtype=float)

    def gradient(self, t: float, points: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        if self.kind == "zero":
            return np.zeros_like(pts)
        if self.kind == "harmonic":
            return self.omega**2 * pts
        return np.asarray(self.callables[1](t, pts), dtype=float)

    def hessian(self, t: float, points: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        if self.kind == "zero":
            return np.zeros((pts.shape[0], 1, 1))
        if self.kind == "harmonic":
            return np.full((pts.shape[0], 1, 1), self.omega**2)
        return np.asarray(self.callables[2](t, pts), dtype=float)

    def sample_on(self, grid: PeriodicGrid, t: float = 0.0, role: str = "potential") -> RealField:
        if self.kind == "zero":
            return RealField.zeros(grid, role=role)
        return RealField(grid, self.value(t, grid.nodes[0]), role=role)

    def subquadratic_bound(self, grid: PeriodicGrid, t: float = 0.0) -> float:
        """Max Hessian magnitude over the box; must be finite (admissibility)."""
        hess = self.hessian(t, grid.nodes[0])
        bound = float(np.abs(hess).max()) if hess.size else 0.0
        if not np.isfinite(bound):
            raise FieldError("potential Hessian is not bounded on the box")
        return bound


@dataclass(frozen=True, eq=False)
class InitialPhaseSpec:
    kind: str
    curvature: np.ndarray | None = None  # q as a (1, 1) array; phi0 = q y^2 / 2

    @classmethod
    def zero(cls) -> "InitialPhaseSpec":
        return cls("zero")

    @classmethod
    def quadratic(cls, curvature) -> "InitialPhaseSpec":
        q = np.atleast_2d(np.asarray(curvature, dtype=float))
        if q.shape != (1, 1):
            raise FieldError("quadratic phase curvature must be a single number")
        q.setflags(write=False)
        return cls("quadratic", curvature=q)

    def __post_init__(self):
        if self.kind not in PHASE_KINDS:
            raise FieldError(f"unknown phase kind {self.kind!r}")
        if self.kind == "quadratic" and self.curvature is None:
            raise FieldError("quadratic phase needs a curvature")

    def value(self, points: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        if self.kind == "zero":
            return np.zeros(pts.shape[0])
        return 0.5 * np.einsum("ma,ab,mb->m", pts, self.curvature, pts)

    def gradient(self, points: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        if self.kind == "zero":
            return np.zeros_like(pts)
        return pts @ self.curvature.T

    def hessian(self, points: np.ndarray) -> np.ndarray:
        pts = _as_points(points)
        if self.kind == "zero":
            return np.zeros((pts.shape[0], 1, 1))
        return np.broadcast_to(self.curvature, (pts.shape[0], 1, 1)).copy()

    def sample_on(self, grid: PeriodicGrid, role: str = "initial-phase") -> RealField:
        if self.kind == "zero":
            return RealField.zeros(grid, role=role)
        return RealField(grid, self.value(grid.nodes[0]), role=role)

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

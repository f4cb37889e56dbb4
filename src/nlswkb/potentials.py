"""External potentials and initial phases as closed-form triples.

Ray tracing reads V and phi0 only through their value, first and second
derivative at arbitrary points on the line, so each spec is that triple of
evaluators plus the flags the ray code reads.  The evaluators take an (M,)
array of points and return (M,) arrays, the layout the ray bundle stores;
every potential is time-independent.  The flags:

* ``periodic``: the spec extends box-periodically, so the ray displacement
  does too and labels may wrap;
* ``quadratic`` (potentials): V'' is constant in space.  Both initial
  phases are quadratic, so the ray map is then exactly affine in the labels.

Potentials: ``zero``, ``harmonic`` (V = omega^2 x^2 / 2, sub-quadratic
growth, the only unbounded one admitted) and ``cosine`` (bounded and
periodic).  Initial phases: ``zero`` and ``quadratic`` (phi0 = q y^2 / 2).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FieldError
from .grids import PeriodicGrid


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    value: Callable        # f(x), each of the three
    gradient: Callable
    hessian: Callable
    periodic: bool
    quadratic: bool

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls(np.zeros_like, np.zeros_like, np.zeros_like, periodic=True,
                   quadratic=True)

    @classmethod
    def harmonic(cls, omega: float) -> "PotentialSpec":
        omega = float(omega)
        return cls(lambda x: 0.5 * (omega * x) ** 2,
                   lambda x: omega**2 * x,
                   lambda x: np.full_like(x, omega**2),
                   periodic=False, quadratic=True)

    @classmethod
    def cosine(cls, amplitude: float, length: float, cycles: int = 1) -> "PotentialSpec":
        """V(x) = A cos(2 pi m x / L): the stock bounded-periodic fixture."""
        kv = 2 * np.pi * cycles / length
        return cls(lambda x: amplitude * np.cos(kv * x),
                   lambda x: -amplitude * kv * np.sin(kv * x),
                   lambda x: -amplitude * kv**2 * np.cos(kv * x),
                   periodic=True, quadratic=False)

    def subquadratic_bound(self, grid: PeriodicGrid) -> float:
        """Max |V''| over the box; must be finite (admissibility)."""
        bound = float(np.abs(self.hessian(grid.nodes)).max())
        if not np.isfinite(bound):
            raise FieldError("potential Hessian is not bounded on the box")
        return bound


@dataclass(frozen=True, eq=False)
class InitialPhaseSpec:
    value: Callable        # f(y), each of the three
    gradient: Callable
    hessian: Callable
    periodic: bool

    @classmethod
    def zero(cls) -> "InitialPhaseSpec":
        return cls(np.zeros_like, np.zeros_like, np.zeros_like, periodic=True)

    @classmethod
    def quadratic(cls, curvature: float) -> "InitialPhaseSpec":
        q = float(curvature)
        return cls(lambda y: 0.5 * (y * q * y),
                   lambda y: y * q,
                   lambda y: np.full_like(y, q),
                   periodic=False)

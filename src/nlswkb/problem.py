"""Problem container: one semiclassical Cauchy problem on a periodic box.

The equation solved throughout the package is

    i eps d_t u + (eps^2/2) Lap u = V u + eps^kappa |u|^2 u,
    u(0, x) = (a0 + eps a1)(x) exp(i phi0(x) / eps),

with kappa in {0, 1, 2} selecting the coupling regime.  Fractional kappa in
(0, 1) is rejected: those regimes need different machinery.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fields import ComplexField, RealField
from .grids import PeriodicGrid
from .potentials import InitialPhaseSpec, PotentialSpec

SUPPORTED_KAPPA = (0.0, 1.0, 2.0)


def gaussian_field(grid: PeriodicGrid, width: float = 1.0, amplitude: float = 1.0,
                   center: float = 0.0, role: str = "") -> ComplexField:
    """amplitude * exp(-((x - center)/width)^2), the stock data profile.

    Schwartz-class, so periodization error on boxes with L >= 16*width is
    below double precision.
    """
    arg = ((grid.nodes[0] - float(center)) / width) ** 2
    return ComplexField(grid, amplitude * np.exp(-arg), role=role)


@dataclass(frozen=True, eq=False)
class SemiclassicalProblem:
    eps: float
    kappa: float
    a0: ComplexField
    a1: ComplexField | None = None
    potential: PotentialSpec = PotentialSpec.zero()
    phase: InitialPhaseSpec = InitialPhaseSpec.zero()

    def __post_init__(self):
        if not (np.isfinite(self.eps) and 0 < self.eps <= 1):
            raise ConfigError(f"eps must lie in (0, 1], got {self.eps}")
        if float(self.kappa) not in SUPPORTED_KAPPA:
            raise ConfigError(
                f"kappa must be one of {SUPPORTED_KAPPA} (fractional orders in (0,1) "
                f"are out of scope), got {self.kappa}"
            )
        if self.a1 is not None and self.a1.grid != self.a0.grid:
            raise ConfigError("the amplitude correction must share the a0 grid")
        object.__setattr__(self, "eps", float(self.eps))
        object.__setattr__(self, "kappa", float(self.kappa))

    @property
    def grid(self) -> PeriodicGrid:
        return self.a0.grid

    def initial_amplitude(self) -> ComplexField:
        """a0 + eps a1, or a0 alone without a correction."""
        vals = self.a0.values.copy()
        if self.a1 is not None:
            vals = vals + self.eps * self.a1.values
        return ComplexField(self.grid, vals, role="initial-amplitude")

    def initial_phase_field(self) -> RealField:
        return self.phase.sample_on(self.grid)

    def initial_state(self) -> ComplexField:
        phi0 = self.initial_phase_field()
        u0 = self.initial_amplitude().values * np.exp(1j * phi0.values / self.eps)
        return ComplexField(self.grid, u0, role="initial-state")

    def potential_field(self, t: float = 0.0) -> RealField:
        return self.potential.sample_on(self.grid, t=t)

"""Geometric-optics approximants for the weakly coupled regimes.

For coupling exponent kappa >= 1 the oscillatory solution is approximated
by

    u(t, x) ~ a(t, x) exp(i eps^(kappa-1) G(t, x)) exp(i phi(t, x)/eps),

with phi the eikonal phase, a the transported amplitude

    a(t, x) = a0(y(t, x)) / sqrt(J_t(y(t, x))),

and G the nonlinear self-modulation accumulated along rays,

    G(t, x) = -int_0^t |a0(y)|^2 / J_s(y) ds  at  y = y(t, x).

At kappa = 1 the modulation enters at order one; at kappa = 2 it is an
O(eps) correction on top of the free profile.  Everything here is valid
strictly before the caustic horizon of the underlying ray bundle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CausticError, FieldError
from .fields import ComplexField, RealField, interpolate_periodic
from .grids import PeriodicGrid
from .problem import SemiclassicalProblem
from .rays import (LabelMap, RayBundle, eikonal_phase, invert_flow,
                   jacobian_at_labels)


def transport_amplitude(lmap: LabelMap, a0: ComplexField) -> ComplexField:
    """a(t, x) = a0(y(t, x)) / sqrt(J_t(y(t, x))), pre-caustic."""
    avals = interpolate_periodic(a0, lmap.labels)
    jvals = jacobian_at_labels(lmap)
    if jvals.min() <= 0:
        raise CausticError("Jacobian not positive", time=lmap.time)
    return ComplexField(lmap.grid, avals / np.sqrt(jvals),
                        role="transported-amplitude")


def self_modulation_phase(lmap: LabelMap, a0: ComplexField) -> RealField:
    """G(t, x): minus the ray integral of |a0|^2 / J up to t.

    The per-marker integral of 1/J is the one the ray march carries as a
    variable of its RK4 step, carried to the Eulerian grid
    through the label map.  J > 0 on [0, t] holds because the map is
    pre-caustic.
    """
    ivals = lmap.interp_series(lmap.bundle.jac_inv_integral[lmap.index])
    amag = np.abs(interpolate_periodic(a0, lmap.labels)) ** 2
    return RealField(lmap.grid, -(amag * ivals), role="self-modulation")


@dataclass(frozen=True, eq=False)
class WKBProfile:
    """The eps-free profiles of the approximant at one time: transported
    amplitude `a`, eikonal phase `phi` and self-modulation `g`.

    Only `assemble` reads eps, so one profile serves a whole eps sweep.
    The modulus of an assembled state equals |a| by construction.
    """
    kappa: float
    a: ComplexField
    phi: RealField
    g: RealField
    horizon: float | None

    @property
    def regime(self) -> str:
        return "critical" if self.kappa == 1 else "subcritical"

    def assemble(self, eps: float, include_modulation: bool = True) -> ComplexField:
        """a e^(i eps^(kappa-1) G) e^(i phi/eps).

        With `include_modulation=False` the bare free profile a e^(i phi/eps)
        is produced (the kappa = 2 comparison profile).
        """
        slow = eps ** (self.kappa - 1) * self.g.values if include_modulation else 0.0
        phase = slow + self.phi.values / eps
        regime = self.regime if include_modulation else "free-profile"
        return ComplexField(self.a.grid, self.a.values * np.exp(1j * phase),
                            role=f"wkb-{regime}")


def build_approximant(problem: SemiclassicalProblem, bundle: RayBundle, t: float,
                      x_grid: PeriodicGrid | None = None) -> WKBProfile:
    """The kappa >= 1 profiles at t from a traced bundle, on one label map."""
    if problem.kappa < 1:
        raise FieldError("ray-based approximants need kappa >= 1")
    lmap = invert_flow(bundle, t, x_grid or problem.grid)
    a0 = problem.initial_amplitude()
    return WKBProfile(kappa=problem.kappa, a=transport_amplitude(lmap, a0),
                      phi=eikonal_phase(lmap), g=self_modulation_phase(lmap, a0),
                      horizon=bundle.t_caustic)


def separation_profile(a0: ComplexField, a0_tilde: ComplexField, delta: float,
                       eps: float, t: float) -> RealField:
    """Leading-order separation |a0 sin((t/eps)(|a0_tilde|^2 - |a0|^2))|.

    This is the modulus of the phase-difference term that drives the
    O(delta)-data, O(1)-output divergence: the two first phase coefficients
    differ by |a0_tilde|^2 - |a0|^2 = O(delta), and the factor t/eps turns
    that into an order-one phase as soon as t >= eps/delta.
    """
    if a0.grid != a0_tilde.grid:
        raise FieldError("profiles live on different grids")
    if not delta > 0:
        raise FieldError(f"delta must be positive, got {delta}")
    gap = np.abs(a0_tilde.values) ** 2 - np.abs(a0.values) ** 2
    vals = np.abs(a0.values * np.sin((t / eps) * gap))
    return RealField(a0.grid, vals, role="separation-profile")

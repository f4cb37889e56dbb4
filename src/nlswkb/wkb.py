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
from .rays import (RayBundle, _interp_marker_series_1d, _Line1D, eikonal_phase,
                   jacobian_at_labels, invert_flow)


def _simpson_weights(n: int) -> np.ndarray:
    """Quadrature weights over n equal intervals: composite Simpson, with a
    3/8 tail when the interval count is odd (keeps O(h^4) accuracy)."""
    if n == 0:
        return np.zeros(1)
    if n == 1:
        return np.array([0.5, 0.5])
    w = np.zeros(n + 1)
    if n % 2 == 0:
        w[0] = w[n] = 1.0 / 3.0
        w[1:n:2] = 4.0 / 3.0
        w[2:n:2] = 2.0 / 3.0
        return w
    m = n - 3
    if m > 0:
        w[0] = 1.0 / 3.0
        w[1:m:2] = 4.0 / 3.0
        w[2:m:2] = 2.0 / 3.0
        w[m] += 1.0 / 3.0
    w[m] += 3.0 / 8.0
    w[m + 1] += 9.0 / 8.0
    w[m + 2] += 9.0 / 8.0
    w[n] += 3.0 / 8.0
    return w


def transport_amplitude(bundle: RayBundle, a0: ComplexField, t: float,
                        x_grid: PeriodicGrid) -> ComplexField:
    """a(t, x) = a0(y(t, x)) / sqrt(J_t(y(t, x))), pre-caustic."""
    labels = invert_flow(bundle, t, x_grid)
    avals = interpolate_periodic(a0, labels.points())
    jvals = jacobian_at_labels(bundle, t, x_grid)
    if jvals.min() <= 0:
        raise CausticError("Jacobian not positive at requested time")
    out = (avals.reshape(x_grid.shape)) / np.sqrt(jvals)
    return ComplexField(x_grid, out, role="transported-amplitude")


def self_modulation_phase(bundle: RayBundle, a0: ComplexField, t: float,
                          x_grid: PeriodicGrid) -> RealField:
    """G(t, x): minus the ray integral of |a0|^2 / J up to t.

    The integral is evaluated per marker with composite Simpson over the
    stored time nodes, then carried to the Eulerian grid through the label
    map.  Requires J > 0 on [0, t].
    """
    it = bundle.time_index(t)
    jslab = bundle.jac[: it + 1]
    if jslab.min() <= 0:
        raise CausticError("Jacobian crossed zero inside the modulation integral")
    weights = _simpson_weights(it)
    integral = bundle.dt * np.tensordot(weights, 1.0 / jslab, axes=(0, 0))

    labels, _, _ = _Line1D(bundle, it).invert(x_grid.nodes[0])
    ivals = _interp_marker_series_1d(bundle, integral, labels)
    amag = np.abs(interpolate_periodic(a0, labels)) ** 2
    g = -(amag * ivals).reshape(x_grid.shape)
    return RealField(x_grid, g, role="self-modulation")


def extract_amplitude(u: ComplexField, phi_eik: RealField, eps: float) -> ComplexField:
    """Strip the fast eikonal oscillation: a = u exp(-i phi/eps)."""
    if u.grid != phi_eik.grid:
        raise FieldError("state and phase live on different grids")
    return ComplexField(u.grid, u.values * np.exp(-1j * phi_eik.values / eps),
                        role="extracted-amplitude")


@dataclass(frozen=True, eq=False)
class WKBApproximant:
    """One assembled approximant at a fixed time.

    `slow_phase` holds the order-one modulation (eps^(kappa-1) G), and
    `fast_phase` the eikonal phase that is divided by eps at assembly; the
    modulus of the assembled state equals |amplitude| by construction.
    """
    regime: str
    time: float
    eps: float
    amplitude: ComplexField
    slow_phase: RealField
    fast_phase: RealField
    horizon: float | None = None

    def assemble(self) -> ComplexField:
        phase = self.slow_phase.values + self.fast_phase.values / self.eps
        return ComplexField(self.amplitude.grid,
                            self.amplitude.values * np.exp(1j * phase),
                            role=f"wkb-{self.regime}")


def build_approximant(problem: SemiclassicalProblem, bundle: RayBundle, t: float,
                      x_grid: PeriodicGrid | None = None,
                      include_modulation: bool = True) -> WKBApproximant:
    """Assemble the kappa >= 1 approximant from a traced bundle.

    With `include_modulation=False` the bare free profile a e^(i phi/eps)
    is produced (the kappa = 2 comparison profile).
    """
    if problem.kappa < 1:
        raise FieldError("ray-based approximants need kappa >= 1")
    grid = x_grid or problem.grid
    a0 = problem.initial_amplitude()
    a = transport_amplitude(bundle, a0, t, grid)
    phi = eikonal_phase(bundle, t, grid)
    if include_modulation:
        g = self_modulation_phase(bundle, a0, t, grid)
        slow = RealField(grid, problem.eps ** (problem.kappa - 1) * g.values,
                         role="slow-phase")
        regime = "critical" if problem.kappa == 1 else "subcritical"
    else:
        slow = RealField.zeros(grid, role="slow-phase")
        regime = "free-profile"
    return WKBApproximant(regime=regime, time=t, eps=problem.eps, amplitude=a,
                          slow_phase=slow, fast_phase=phi, horizon=bundle.t_caustic)


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

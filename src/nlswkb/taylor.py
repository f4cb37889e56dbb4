"""Small-time Taylor expansion of the strongly coupled phase system.

With zero potential and zero initial phase, kappa = 0, the exact
phase-amplitude pair (Phi, A) of

    d_t Phi + |grad Phi|^2/2 + |A|^2 = 0,      Phi(0) = 0,
    d_t A + grad Phi . grad A + A Lap Phi / 2 = 0,   A(0) = a0,

is even in time in the amplitude and odd in the phase:

    Phi(t) = sum_{j>=1} t^(2j-1) Phi_j,    A(t) = sum_{j>=0} t^(2j) A_j.

Matching powers of t gives the closed recursion implemented below as
generic truncated-series arithmetic (convolution sums over coefficient
fields, spatial derivatives spectral):

    Phi_j = -( sum_{p+q=j, p,q>=1} grad Phi_p . grad Phi_q / 2
             + sum_{p+q=j-1} A_p conj(A_q) ) / (2j-1)
    A_j   = -( sum_{p+q=j, p>=1} ( grad Phi_p . grad A_q
             + A_q Lap Phi_p / 2 ) ) / (2j)

so Phi_1 = -|a0|^2 and each further order costs one convolution.  The
truncation u_K = a0 exp(i sum_{j<=K} t^(2j-1) Phi_j / eps) approximates the
semiclassical flow for t << eps^(1/(2K+1)); K = 1 solves the pointwise ODE
i eps d_t u = |u|^2 u exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldError
from .fields import ComplexField, RealField, gradient_values, laplacian_values
from .grids import PeriodicGrid

MAX_ORDER = 4


@dataclass(frozen=True, eq=False)
class TaylorCoefficients:
    a0: ComplexField
    order: int
    phases: tuple[RealField, ...]        # Phi_1 .. Phi_K, coefficient of t^(2j-1)
    amplitudes: tuple[ComplexField, ...]  # A_1 .. A_K, coefficient of t^(2j)

    @property
    def grid(self) -> PeriodicGrid:
        return self.a0.grid


def taylor_phase_coefficients(a0: ComplexField, order: int) -> TaylorCoefficients:
    """Phase and amplitude coefficients up to t^(2*order-1) / t^(2*order)."""
    if not 1 <= order <= MAX_ORDER:
        raise FieldError(f"order must lie in [1, {MAX_ORDER}], got {order}")
    grid = a0.grid
    amp = [a0.values]
    phi: list[np.ndarray] = [None]  # 1-based
    amp_grad = [gradient_values(grid, amp[0])]
    phi_grad: list = [None]
    phi_lap: list = [None]

    for j in range(1, order + 1):
        quad = np.zeros(grid.shape)
        for p in range(1, j):
            quad += 0.5 * sum(gp * gq for gp, gq in zip(phi_grad[p], phi_grad[j - p]))
        dens = np.zeros(grid.shape, dtype=complex)
        for p in range(0, j):
            dens += amp[p] * np.conj(amp[j - 1 - p])
        phi_j = -(quad + dens.real) / (2 * j - 1)
        phi.append(phi_j)
        phi_grad.append(gradient_values(grid, phi_j))
        phi_lap.append(laplacian_values(grid, phi_j))

        rhs = np.zeros(grid.shape, dtype=complex)
        for p in range(1, j + 1):
            q = j - p
            rhs += sum(gp * ga for gp, ga in zip(phi_grad[p], amp_grad[q]))
            rhs += 0.5 * amp[q] * phi_lap[p]
        a_j = -rhs / (2 * j)
        amp.append(a_j)
        amp_grad.append(gradient_values(grid, a_j))

    return TaylorCoefficients(
        a0=a0,
        order=order,
        phases=tuple(RealField(grid, phi[j], role=f"phase-coefficient-{j}")
                     for j in range(1, order + 1)),
        amplitudes=tuple(ComplexField(grid, amp[j], role=f"amplitude-coefficient-{j}")
                         for j in range(1, order + 1)),
    )


def phase_sum(coeffs: TaylorCoefficients, t: float, order: int | None = None) -> RealField:
    """sum_{j<=order} t^(2j-1) Phi_j."""
    k = coeffs.order if order is None else order
    if not 1 <= k <= coeffs.order:
        raise FieldError(f"order {k} outside computed range [1, {coeffs.order}]")
    total = np.zeros(coeffs.grid.shape)
    for j in range(1, k + 1):
        total += t ** (2 * j - 1) * coeffs.phases[j - 1].values
    return RealField(coeffs.grid, total, role="taylor-phase")


def assemble_uK(coeffs: TaylorCoefficients, eps: float, t: float,
                order: int | None = None) -> ComplexField:
    """u_K = a0 exp(i sum_{j<=K} t^(2j-1) Phi_j / eps)."""
    phase = phase_sum(coeffs, t, order=order)
    vals = coeffs.a0.values * np.exp(1j * phase.values / eps)
    return ComplexField(coeffs.grid, vals, role="taylor-state")


def validity_horizon(eps: float, order: int) -> float:
    """Time scale eps^(1/(2K+1)) below which the order-K truncation holds."""
    return float(eps ** (1.0 / (2 * order + 1)))

"""Phase-amplitude reformulation of the strongly coupled (kappa = 0) flow.

Writing u = a exp(i phi / eps) with a complex amplitude turns the
semiclassical equation into the coupled system

    d_t phi + |grad phi|^2/2 + V + |a|^2 = 0,
    d_t a + grad phi . grad a + a Lap phi / 2 = i (eps/2) Lap a,

whose solutions stay eps-uniformly smooth: all the stiffness of the
original equation is absorbed into the explicit phase division.  Three
variants are solved here:

* ``full``: the system above; the skew-adjoint i(eps/2) Lap term is applied
  exactly in Fourier space inside a Strang split (transport half-step, skew
  full-step, transport half-step), the transport part by RK4 with 2/3-rule
  dealiasing of the quadratic products.
* ``skew_free``: the same data with the i(eps/2) Lap term switched off; the
  remaining system contains no eps at all.
* ``limit``: the skew-free equations started from the eps-independent data
  a0; its (rho, v) = (|a|^2, grad phi) marginal solves the compressible
  Euler system with pressure law grad rho.

The corrector solve linearizes the system around the limit trajectory and
carries the i/2 Lap a source plus the first data correction a1; pairing the
limit with eps * corrector reproduces the full solve to O(eps^2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, ResolutionError
from .fields import (ComplexField, RealField, derivative_values, gradient_values,
                     laplacian_values)
from .grids import PeriodicGrid
from .problem import SemiclassicalProblem

VARIANTS = ("full", "skew_free", "limit")


@dataclass(frozen=True, eq=False)
class GrenierState:
    """Phase, amplitude and velocity v = grad phi at one time."""
    time: float
    phi: RealField
    a: ComplexField
    v: tuple[RealField, ...]

    @classmethod
    def from_phi(cls, time: float, phi: RealField, a: ComplexField) -> "GrenierState":
        grads = gradient_values(phi.grid, phi.values)
        v = tuple(RealField(phi.grid, g, role=f"velocity-{ax}")
                  for ax, g in enumerate(grads))
        return cls(time=time, phi=phi, a=a, v=v)

    @property
    def grid(self) -> PeriodicGrid:
        return self.phi.grid

    def density(self) -> RealField:
        return self.a.abs2(role="density")

    def consistency_errors(self) -> dict[str, float]:
        """Gradient defect of the stored velocity."""
        grads = gradient_values(self.grid, self.phi.values)
        grad_err = max(float(np.abs(g - vf.values).max())
                       for g, vf in zip(grads, self.v))
        return {"gradient": grad_err}


@dataclass(frozen=True, eq=False)
class GrenierTrajectory:
    variant: str
    problem: SemiclassicalProblem
    dt: float
    states: tuple[GrenierState, ...]
    mass: np.ndarray       # integral of |a|^2 at stored times
    tail_fraction: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.states])

    @property
    def grid(self) -> PeriodicGrid:
        return self.states[0].grid

    def final(self) -> GrenierState:
        return self.states[-1]

    def state_at(self, t: float) -> GrenierState:
        times = self.times
        idx = int(np.argmin(np.abs(times - t)))
        if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} not stored (nearest {times[idx]})")
        return self.states[idx]

    def mass_drift(self) -> float:
        ref = abs(self.mass[0])
        return float(np.abs(self.mass - self.mass[0]).max() / max(ref, 1e-300))


@dataclass(frozen=True, eq=False)
class CorrectorState:
    time: float
    phi1: RealField
    a1: ComplexField


@dataclass(frozen=True, eq=False)
class CorrectorTrajectory:
    states: tuple[CorrectorState, ...]
    dt: float

    def final(self) -> CorrectorState:
        return self.states[-1]


# ---------------------------------------------------------------------------
# transport right-hand side


class _Transport:
    """Dealiased pseudo-spectral RHS of the coupled transport system."""

    def __init__(self, grid: PeriodicGrid, vvals: np.ndarray):
        self.grid = grid
        self.v = vvals
        self.mask = grid.dealias_mask

    def _dealias(self, arr: np.ndarray) -> np.ndarray:
        out = np.fft.ifftn(np.fft.fftn(arr) * self.mask)
        return out if np.iscomplexobj(arr) else out.real

    def __call__(self, phi: np.ndarray, a: np.ndarray):
        grid = self.grid
        gphi = gradient_values(grid, phi)
        lphi = laplacian_values(grid, phi)
        ga = gradient_values(grid, a)
        grad_sq = sum(g * g for g in gphi)
        adv = sum(gp * gax for gp, gax in zip(gphi, ga))
        dphi = -0.5 * grad_sq - self.v - np.abs(a) ** 2
        da = -adv - 0.5 * a * lphi
        return self._dealias(dphi), self._dealias(da)


def _rk4(rhs, phi, a, h):
    k1p, k1a = rhs(phi, a)
    k2p, k2a = rhs(phi + 0.5 * h * k1p, a + 0.5 * h * k1a)
    k3p, k3a = rhs(phi + 0.5 * h * k2p, a + 0.5 * h * k2a)
    k4p, k4a = rhs(phi + h * k3p, a + h * k3a)
    return (phi + (h / 6) * (k1p + 2 * k2p + 2 * k3p + k4p),
            a + (h / 6) * (k1a + 2 * k2a + 2 * k3a + k4a))


def _kept_band_tail(grid: PeriodicGrid, spec: np.ndarray) -> float:
    """Energy fraction in the top third of the retained (dealiased) band."""
    total = np.sum(np.abs(spec) ** 2)
    if total == 0:
        return 0.0
    inner = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        k = grid.axis_wavenumbers(axis)
        kept = (2.0 / 3.0) * np.abs(k).max()
        shape = [1] * grid.dim
        shape[axis] = grid.sizes[axis]
        inner &= (np.abs(k) <= (2.0 / 3.0) * kept).reshape(shape)
    band = ~inner & grid.dealias_mask
    tail = np.sum((np.abs(spec) ** 2)[band])
    return float(tail / total)


def solve_phase_amplitude(problem: SemiclassicalProblem, t_final: float, dt: float,
                          variant: str = "full", store_every: int = 1,
                          tail_tol: float = 1e-8) -> GrenierTrajectory:
    """March the phase-amplitude system to t_final.

    dt is adjusted so an integer number of steps lands exactly on t_final;
    negative t_final integrates backward.  States are stored every
    `store_every` steps (the final state always).  A ResolutionError is
    raised when the amplitude spectrum fills the top of the retained band,
    a DivergenceError on non-finite values.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if problem.potential.kind == "harmonic":
        raise ConfigError(
            "the phase-amplitude solver runs on bounded potentials only; "
            "harmonic confinement goes through the ray decomposition")
    grid = problem.grid
    vvals = problem.potential_field().values

    if variant == "limit":
        a = problem.a0.values.astype(complex)
    else:
        a = problem.initial_amplitude().values.copy()
    phi = problem.initial_phase_field().values.astype(float)

    n_steps = max(1, int(round(abs(t_final) / dt)))
    h = t_final / n_steps
    eps = problem.eps
    rhs = _Transport(grid, vvals)
    skew_phase = np.exp(-0.5j * eps * grid.wavenumber_sq * h)

    states = [GrenierState.from_phi(0.0, RealField(grid, phi, role="phase"),
                                    ComplexField(grid, a, role="amplitude"))]
    cell = grid.cell_volume
    mass = [cell * float(np.sum(np.abs(a) ** 2))]
    tails = [_kept_band_tail(grid, np.fft.fftn(a))]

    for n in range(n_steps):
        if variant == "full":
            phi, a = _rk4(rhs, phi, a, 0.5 * h)
            a = np.fft.ifftn(np.fft.fftn(a) * skew_phase)
            phi, a = _rk4(rhs, phi, a, 0.5 * h)
        else:
            phi, a = _rk4(rhs, phi, a, h)
        t = (n + 1) * h
        if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(a))):
            raise DivergenceError("phase-amplitude solve hit non-finite values",
                                  time=t)
        if (n + 1) % store_every == 0 or n == n_steps - 1:
            spec = np.fft.fftn(a)
            tail = _kept_band_tail(grid, spec)
            if tail > tail_tol:
                raise ResolutionError(
                    f"amplitude spectrum tail fraction {tail:.3e} exceeds "
                    f"{tail_tol:.1e}", time=t)
            states.append(GrenierState.from_phi(
                t, RealField(grid, phi.copy(), role="phase"),
                ComplexField(grid, a.copy(), role="amplitude")))
            mass.append(cell * float(np.sum(np.abs(a) ** 2)))
            tails.append(tail)

    return GrenierTrajectory(variant=variant, problem=problem, dt=h,
                             states=tuple(states), mass=np.array(mass),
                             tail_fraction=np.array(tails))


# ---------------------------------------------------------------------------
# corrector


class _HermiteCoeffs:
    """Cubic Hermite time interpolation of the limit trajectory.

    Uses stored states and their exact PDE time derivatives, so the
    interpolation error is O(h^4) and does not degrade the RK4 marching of
    the corrector.
    """

    def __init__(self, limit: GrenierTrajectory):
        self.grid = limit.grid
        times = limit.times
        gaps = np.diff(times)
        if len(gaps) == 0:
            raise ConfigError("limit trajectory has a single state")
        if np.abs(gaps - gaps[0]).max() > 1e-9 * max(1.0, abs(gaps[0])):
            raise ConfigError("limit trajectory must be stored on a uniform time grid")
        self.h = float(gaps[0])
        self.times = times
        vvals = limit.problem.potential_field().values
        rhs = _Transport(self.grid, vvals)
        self.phi = [s.phi.values for s in limit.states]
        self.a = [s.a.values for s in limit.states]
        self.dphi = []
        self.da = []
        for p, amp in zip(self.phi, self.a):
            dp, da = rhs(p, amp)
            self.dphi.append(dp)
            self.da.append(da)

    def __call__(self, t: float):
        pos = (t - self.times[0]) / self.h
        i = int(np.clip(np.floor(pos + 1e-12), 0, len(self.times) - 2))
        u = pos - i
        if abs(u) < 1e-12:
            return self.phi[i], self.a[i]
        if abs(u - 1) < 1e-12:
            return self.phi[i + 1], self.a[i + 1]
        h = self.h
        h00 = 2 * u**3 - 3 * u**2 + 1
        h10 = u**3 - 2 * u**2 + u
        h01 = -2 * u**3 + 3 * u**2
        h11 = u**3 - u**2
        phi = (h00 * self.phi[i] + h10 * h * self.dphi[i]
               + h01 * self.phi[i + 1] + h11 * h * self.dphi[i + 1])
        a = (h00 * self.a[i] + h10 * h * self.da[i]
             + h01 * self.a[i + 1] + h11 * h * self.da[i + 1])
        return phi, a


def solve_corrector(limit: GrenierTrajectory, a1: ComplexField | None = None,
                    store_every: int = 1) -> CorrectorTrajectory:
    """Linearized phase-amplitude flow around the limit trajectory.

        d_t phi1 + grad phi . grad phi1 + 2 Re(conj(a) a1) = 0,   phi1(0) = 0,
        d_t a1 + grad phi . grad a1 + grad phi1 . grad a
               + a1 Lap phi / 2 + a Lap phi1 / 2 = (i/2) Lap a,   a1(0) = a1_data.

    Marches RK4 on the stored time grid of `limit`, with the coefficient
    pair (phi, a) Hermite-interpolated at the stage times.  With real a0
    and a1_data = 0, a1 stays purely imaginary and phi1 stays zero.
    """
    if limit.variant != "limit":
        raise ConfigError("corrector must be driven by a variant='limit' trajectory")
    grid = limit.grid
    if a1 is not None and a1.grid != grid:
        raise ConfigError("a1 data lives on a different grid than the trajectory")
    coeffs = _HermiteCoeffs(limit)
    h = coeffs.h
    mask = grid.dealias_mask

    def dealias(arr):
        out = np.fft.ifftn(np.fft.fftn(arr) * mask)
        return out if np.iscomplexobj(arr) else out.real

    def rhs(t, phi1, a1v):
        phi, a = coeffs(t)
        gphi = gradient_values(grid, phi)
        ga = gradient_values(grid, a)
        lphi = laplacian_values(grid, phi)
        la = laplacian_values(grid, a)
        gphi1 = gradient_values(grid, phi1)
        ga1 = gradient_values(grid, a1v)
        lphi1 = laplacian_values(grid, phi1)
        dphi1 = -(sum(gp * g1 for gp, g1 in zip(gphi, gphi1))
                  + 2.0 * (np.conj(a) * a1v).real)
        da1 = -(sum(gp * g1 for gp, g1 in zip(gphi, ga1))
                + sum(g1 * g for g1, g in zip(gphi1, ga))
                + 0.5 * a1v * lphi + 0.5 * a * lphi1) + 0.5j * la
        return dealias(dphi1), dealias(da1)

    phi1 = np.zeros(grid.shape)
    a1v = (a1.values.copy() if a1 is not None
           else np.zeros(grid.shape, dtype=complex))
    states = [CorrectorState(float(coeffs.times[0]),
                             RealField(grid, phi1, role="phase-corrector"),
                             ComplexField(grid, a1v, role="amplitude-corrector"))]

    for i in range(len(coeffs.times) - 1):
        t = float(coeffs.times[i])
        k1p, k1a = rhs(t, phi1, a1v)
        k2p, k2a = rhs(t + 0.5 * h, phi1 + 0.5 * h * k1p, a1v + 0.5 * h * k1a)
        k3p, k3a = rhs(t + 0.5 * h, phi1 + 0.5 * h * k2p, a1v + 0.5 * h * k2a)
        k4p, k4a = rhs(t + h, phi1 + h * k3p, a1v + h * k3a)
        phi1 = phi1 + (h / 6) * (k1p + 2 * k2p + 2 * k3p + k4p)
        a1v = a1v + (h / 6) * (k1a + 2 * k2a + 2 * k3a + k4a)
        if not (np.all(np.isfinite(phi1)) and np.all(np.isfinite(a1v))):
            raise DivergenceError("corrector solve hit non-finite values", time=t + h)
        if (i + 1) % store_every == 0 or i == len(coeffs.times) - 2:
            states.append(CorrectorState(
                float(coeffs.times[i + 1]),
                RealField(grid, phi1.copy(), role="phase-corrector"),
                ComplexField(grid, a1v.copy(), role="amplitude-corrector")))

    return CorrectorTrajectory(states=tuple(states), dt=h)


def assemble_supercritical(state: GrenierState, eps: float,
                           corrector: CorrectorState | None = None) -> ComplexField:
    """u = a exp(i phi1) exp(i phi / eps); without corrector the phase shift
    is dropped (leading-order assembly, accurate in L^2 only up to O(t))."""
    phase = state.phi.values / eps
    vals = state.a.values
    if corrector is not None:
        if abs(corrector.time - state.time) > 1e-9 * max(1.0, abs(state.time)):
            raise ConfigError("corrector and state times differ")
        phase = phase + corrector.phi1.values
    return ComplexField(state.grid, vals * np.exp(1j * phase),
                        role="supercritical-state")


def euler_residual(traj: GrenierTrajectory) -> dict[str, float]:
    """Sup-norm residuals of the compressible Euler system along a limit
    trajectory: momentum d_t v + (v.grad) v + grad V + grad rho and
    continuity d_t rho + div(rho v), time derivatives by centered
    differences over the stored nodes."""
    if traj.variant != "limit":
        raise ConfigError("Euler residual applies to the limit trajectory")
    grid = traj.grid
    times = traj.times
    if len(times) < 3:
        raise ConfigError("need at least three stored states")
    vpot = gradient_values(grid, traj.problem.potential_field().values)
    mom_worst = 0.0
    cont_worst = 0.0
    for i in range(1, len(times) - 1):
        dt2 = times[i + 1] - times[i - 1]
        sm, s0, sp = traj.states[i - 1], traj.states[i], traj.states[i + 1]
        rho0 = s0.density().values
        v0 = [vf.values for vf in s0.v]
        for axis in range(grid.dim):
            dv_dt = (sp.v[axis].values - sm.v[axis].values) / dt2
            adv = sum(v0[b] * derivative_values(grid, v0[axis], axis=b)
                      for b in range(grid.dim))
            grho = derivative_values(grid, rho0, axis=axis)
            res = dv_dt + adv + vpot[axis] + grho
            mom_worst = max(mom_worst, float(np.abs(res).max()))
        drho_dt = (sp.density().values - sm.density().values) / dt2
        div = sum(derivative_values(grid, rho0 * v0[a], axis=a)
                  for a in range(grid.dim))
        cont = drho_dt + div
        cont_worst = max(cont_worst, float(np.abs(cont).max()))
    return {"momentum": mom_worst, "continuity": cont_worst,
            "max": max(mom_worst, cont_worst)}

"""Split-step Fourier reference solver for the semiclassical cubic equation

    i eps d_t u + (eps^2/2) Lap u = V u + eps^kappa |u|^2 u.

Strang arrangement per step of size h: kinetic half-step (Fourier multiplier
exp(-i eps |k|^2 h / 4)), full potential-plus-nonlinear step (pointwise
exact, the modulus is invariant there), kinetic half-step.  Both substeps
are unitary, so mass is conserved to roundoff; energy drift is the O(h^2)
splitting signature and is tracked as a diagnostic.

The solver is the measuring stick the asymptotic constructions are compared
against, so its defaults are conservative: h = eps/50 resolves the fast
phase, and segments between requested output times are subdivided so every
output lands exactly on a step boundary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, ResolutionError
from .fields import ComplexField, gradient_values
from .grids import PeriodicGrid
from .problem import SemiclassicalProblem


@dataclass(frozen=True, eq=False)
class NLSSolution:
    problem: SemiclassicalProblem
    times: np.ndarray
    states: tuple[ComplexField, ...]
    mass: np.ndarray
    energy: np.ndarray
    dt: float

    @property
    def grid(self) -> PeriodicGrid:
        return self.states[0].grid

    def final(self) -> ComplexField:
        return self.states[-1]

    def state_at(self, t: float) -> ComplexField:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t} not an output time (nearest {self.times[idx]})")
        return self.states[idx]

    def mass_drift(self) -> float:
        ref = max(abs(self.mass[0]), 1e-300)
        return float(np.abs(self.mass - self.mass[0]).max() / ref)

    def energy_drift(self) -> float:
        ref = max(abs(self.energy[0]), 1e-300)
        return float(np.abs(self.energy - self.energy[0]).max() / ref)


def _upper_third_tail(grid: PeriodicGrid, spec: np.ndarray) -> float:
    total = np.sum(np.abs(spec) ** 2)
    if total == 0:
        return 0.0
    outer = np.zeros(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        k = grid.axis_wavenumbers(axis)
        cut = (2.0 / 3.0) * np.abs(k).max()
        shape = [1] * grid.dim
        shape[axis] = grid.sizes[axis]
        outer |= (np.abs(k) > cut).reshape(shape)
    return float(np.sum((np.abs(spec) ** 2)[outer]) / total)


def nls_energy(problem: SemiclassicalProblem, u: ComplexField, t: float = 0.0) -> float:
    """Conserved Hamiltonian: (eps^2/2)|grad u|^2 + V|u|^2 + (eps^kappa/2)|u|^4."""
    grid = u.grid
    eps = problem.eps
    grads = gradient_values(grid, u.values)
    kinetic = 0.5 * eps**2 * sum(np.abs(g) ** 2 for g in grads)
    vvals = problem.potential_field(t).values
    density = np.abs(u.values) ** 2
    quartic = 0.5 * eps**problem.kappa * density**2
    return grid.cell_volume * float(np.sum(kinetic + vvals * density + quartic))


def solve_nls(problem: SemiclassicalProblem, t_final: float, dt: float | None = None,
              output_times=None, tail_tol: float = 1e-8,
              initial_state: ComplexField | None = None) -> NLSSolution:
    """Propagate the semiclassical equation to t_final.

    output_times must be strictly increasing and positive, ending at
    t_final (it is appended when missing).  Within each segment the step is
    shrunk to seg / ceil(seg / dt) so outputs land exactly on step
    boundaries.  Raises ResolutionError when an output state carries more
    than tail_tol of its power in the upper third of the spectrum, and
    DivergenceError on non-finite values.
    """
    if t_final <= 0:
        raise ConfigError("t_final must be positive")
    if dt is None:
        dt = problem.eps / 50.0
    if dt <= 0:
        raise ConfigError("dt must be positive")

    grid = problem.grid
    eps = problem.eps
    kappa = problem.kappa
    if output_times is None:
        outputs = [float(t_final)]
    else:
        outputs = [float(t) for t in output_times]
        if any(b <= a for a, b in zip(outputs, outputs[1:])) or outputs[0] <= 0:
            raise ConfigError("output_times must be strictly increasing and positive")
        if outputs[-1] < t_final - 1e-12:
            outputs.append(float(t_final))
        elif abs(outputs[-1] - t_final) > 1e-9 * max(1.0, t_final):
            raise ConfigError("output_times may not pass t_final")

    if initial_state is None:
        u = problem.initial_state().values.copy()
    else:
        if initial_state.grid != grid:
            raise ConfigError("initial_state grid mismatch")
        u = initial_state.values.copy()
    vvals = problem.potential_field().values
    ksq = grid.wavenumber_sq

    times = [0.0]
    states = [ComplexField(grid, u.copy(), role="reference-state")]
    cell = grid.cell_volume
    mass = [cell * float(np.sum(np.abs(u) ** 2))]
    energy = [nls_energy(problem, states[0])]

    t_cur = 0.0
    for t_next in outputs:
        seg = t_next - t_cur
        n = max(1, int(np.ceil(seg / dt - 1e-12)))
        h = seg / n
        half_kinetic = np.exp(-0.25j * eps * ksq * h)
        for _ in range(n):
            u = np.fft.ifftn(np.fft.fftn(u) * half_kinetic)
            u = u * np.exp(-1j * (h / eps) * (vvals + eps**kappa * np.abs(u) ** 2))
            u = np.fft.ifftn(np.fft.fftn(u) * half_kinetic)
        t_cur = t_next
        if not np.all(np.isfinite(u)):
            raise DivergenceError("reference solve hit non-finite values", time=t_cur)
        spec = np.fft.fftn(u)
        tail = _upper_third_tail(grid, spec)
        if tail > tail_tol:
            raise ResolutionError(
                f"spectral tail fraction {tail:.3e} exceeds {tail_tol:.1e}; "
                "increase the grid size", time=t_cur)
        field = ComplexField(grid, u.copy(), role="reference-state")
        times.append(t_cur)
        states.append(field)
        mass.append(cell * float(np.sum(np.abs(u) ** 2)))
        energy.append(nls_energy(problem, field, t_cur))

    return NLSSolution(problem=problem, times=np.array(times),
                       states=tuple(states), mass=np.array(mass),
                       energy=np.array(energy), dt=dt)


def step_convergence_audit(problem: SemiclassicalProblem, t_final: float,
                           dts) -> dict:
    """Self-convergence of the splitting: errors at t_final of each dt
    against a solve at the finest dt divided by four, with the fitted
    log-log slope (expect 2)."""
    from .fitting import fit_power_law
    dts = sorted(float(d) for d in dts)
    if len(dts) < 3:
        raise ConfigError("need at least three step sizes")
    ref = solve_nls(problem, t_final, dt=dts[0] / 4.0).final()
    errors = []
    for d in dts:
        sol = solve_nls(problem, t_final, dt=d).final()
        diff = sol.values - ref.values
        errors.append(float(np.sqrt(ref.grid.cell_volume * np.sum(np.abs(diff) ** 2))))
    fit = fit_power_law(np.array(dts), np.array(errors))
    return {"dts": dts, "errors": errors, "slope": fit.slope, "r2": fit.r2}

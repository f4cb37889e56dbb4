"""Split-step Fourier reference solver for the semiclassical cubic equation

    i eps d_t u + (eps^2/2) Lap u = V u + eps^kappa |u|^2 u.

Strang arrangement per step of size h: kinetic half-step (Fourier multiplier
exp(-i eps |k|^2 h / 4)), full potential-plus-nonlinear step (pointwise
exact, the modulus is invariant there), kinetic half-step.  Both substeps
are unitary, so mass is conserved to roundoff; energy drift is the O(h^2)
splitting signature and is tracked as a diagnostic.  Between two outputs
the adjacent kinetic half-steps of consecutive steps merge into one full
kinetic step, so a step costs one forward and one inverse FFT.

solve_nls_sweep marches the problems of a sweep (one grid, one set of
output times) as rows of one array, each row at its own step size and step
count; one step of every row costs the same two FFT calls, and each row's
arithmetic is that of its own solve.  solve_nls is its one-row call.

The solver is the measuring stick the asymptotic constructions are compared
against, so its defaults are conservative: h = eps/50 resolves the fast
phase, and segments between requested output times are subdivided so every
output lands exactly on a step boundary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, ResolutionError
from .fields import ComplexField, derivative_values, tail_fraction
from .grids import PeriodicGrid
from .problem import SemiclassicalProblem, relative_drift, time_index

TAIL_TOL = 1e-8   # largest power fraction an output keeps in the upper third


@dataclass(frozen=True, eq=False)
class NLSSolution:
    problem: SemiclassicalProblem
    times: np.ndarray
    states: tuple[ComplexField, ...]
    mass: np.ndarray
    energy: np.ndarray
    dt: float

    def final(self) -> ComplexField:
        return self.states[-1]

    def state_at(self, t: float) -> ComplexField:
        return self.states[time_index(self.times, t)]

    def mass_drift(self) -> float:
        return relative_drift(self.mass)

    def energy_drift(self) -> float:
        return relative_drift(self.energy)


def segment_steps(output_times, dt: float) -> list[int]:
    """Step count of each output segment [0, t_1], [t_1, t_2], ...: a
    segment of length seg is split into max(1, ceil(seg/dt)) equal steps
    (seg/dt within 1e-12 above an integer rounds down), so every output
    lands exactly on a step boundary."""
    bounds = [0.0] + [float(t) for t in output_times]
    return [max(1, int(np.ceil((b - a) / dt - 1e-12)))
            for a, b in zip(bounds, bounds[1:])]


def nls_energy(problem: SemiclassicalProblem, u: ComplexField) -> float:
    """Conserved Hamiltonian: (eps^2/2)|grad u|^2 + V|u|^2 + (eps^kappa/2)|u|^4."""
    return _energies(u.grid, [problem], u.values[np.newaxis])[0]


def _energies(grid: PeriodicGrid, problems, u: np.ndarray) -> list[float]:
    """nls_energy of each row u[r] on grid, a state of problems[r]; one FFT
    pair covers every row."""
    grads = derivative_values(grid, u)
    energies = []
    for problem, row, grad in zip(problems, u, grads):
        eps = problem.eps
        kinetic = 0.5 * eps**2 * np.abs(grad) ** 2
        vvals = problem.potential_field().values
        density = np.abs(row) ** 2
        quartic = 0.5 * eps**problem.kappa * density**2
        energies.append(grid.spacing
                        * float(np.sum(kinetic + vvals * density + quartic)))
    return energies


def _output_times(t_final: float, output_times) -> list[float]:
    if output_times is None:
        return [float(t_final)]
    outputs = [float(t) for t in output_times]
    if any(b <= a for a, b in zip(outputs, outputs[1:])) or outputs[0] <= 0:
        raise ConfigError("output_times must be strictly increasing and positive")
    if outputs[-1] < t_final - 1e-12:
        outputs.append(float(t_final))
    elif abs(outputs[-1] - t_final) > 1e-9 * max(1.0, t_final):
        raise ConfigError("output_times may not pass t_final")
    return outputs


def _step(u, uh, kinetic, scale, vphase, theta, scratch, rot) -> None:
    """One fused step of every row, in place: uh holds the states after
    their opening kinetic multiplier and ends after the next one."""
    # u *= exp(-i (h/eps)(V + eps^kappa |u|^2)) in physical space
    np.fft.ifft(uh, out=u)
    np.multiply(u.real, u.real, out=theta)
    np.multiply(u.imag, u.imag, out=scratch)
    theta += scratch
    theta *= scale
    theta += vphase
    np.cos(theta, out=rot.real)
    np.sin(theta, out=rot.imag)
    u *= rot
    np.fft.fft(u, out=uh)
    # the closing kinetic half-step merges with the next opening one
    uh *= kinetic


def solve_nls(problem: SemiclassicalProblem, t_final: float, dt: float | None = None,
              output_times=None) -> NLSSolution:
    """Propagate the semiclassical equation to t_final.

    output_times must be strictly increasing and positive, ending at
    t_final (it is appended when missing).  Within each segment the step is
    shrunk to seg / ceil(seg / dt) so outputs land exactly on step
    boundaries (segment_steps); dt defaults to eps/50.  Raises
    ResolutionError when an output state carries more than TAIL_TOL of its
    power in the upper third of the spectrum, and DivergenceError on
    non-finite values; both carry the time and eps of the solve.  This is
    the one-row call of solve_nls_sweep.
    """
    out = solve_nls_sweep([problem], t_final, [dt], output_times=output_times)[0]
    if isinstance(out, Exception):
        raise out
    return out


def solve_nls_sweep(problems: list[SemiclassicalProblem], t_final: float, dts,
                    output_times=None
                    ) -> list[NLSSolution | ResolutionError | DivergenceError]:
    """solve_nls for every problem at once, in one march.

    The problems share one grid, t_final and output times; dts[r] (None
    for eps/50) belongs to problems[r], which starts from its own initial
    state.  The states are the rows of one array, and every row
    keeps its own step size, kinetic multipliers, phase scale and
    segment_steps count, so its arithmetic is that of its own solve.  Each
    loop pass advances every row by one step at a cost of two FFT calls,
    however many rows there are.  A row that reaches an output closes its
    step with a half kinetic multiplier and is checked there.  Returns one
    outcome per problem, in order: its solution, or the ResolutionError or
    DivergenceError its own solve would raise, with its eps and time.  A
    row that fails, or is done, leaves the stack; the others march on
    unchanged.
    """
    if t_final <= 0:
        raise ConfigError("t_final must be positive")
    if len(problems) != len(dts):
        raise ConfigError("a sweep takes one dt per problem")
    dts = [p.eps / 50.0 if dt is None else dt for p, dt in zip(problems, dts)]
    if any(dt <= 0 for dt in dts):
        raise ConfigError("dt must be positive")
    outputs = _output_times(t_final, output_times)
    grid = problems[0].grid
    if any(p.grid != grid for p in problems):
        raise ConfigError("the problems of a sweep must share one grid")
    starts = [p.initial_state() for p in problems]

    # work buffers, one row per stacked problem: u in physical space, uh in
    # Fourier space, theta for the pointwise phase and rot for its rotation
    # factor exp(i theta); per row, the kinetic multiplier of its next
    # step, its closing half-step, and its potential phase and phase scale
    shape = (len(problems), grid.size)
    u, uh, rot, kinetic, half = np.empty((5,) + shape, dtype=complex)
    theta, scratch, vphase = np.empty((3,) + shape)
    u[:] = [s.values for s in starts]
    scale = np.empty((len(problems), 1))
    vvals = [p.potential_field().values for p in problems]
    ksq = grid.wavenumber_sq
    cell = grid.spacing
    bounds = [0.0] + outputs
    counts = [segment_steps(outputs, dt) for dt in dts]

    rows = list(range(len(problems)))     # problem index of each stack row
    segment = [0] * len(problems)         # output each stack row marches to
    left = np.array([c[0] for c in counts])   # its steps left to get there
    times = [[0.0] for _ in problems]
    states = [[ComplexField(grid, s.values, role="reference-state")]
              for s in starts]
    mass = [[cell * float(np.sum(np.abs(s.values) ** 2))] for s in starts]
    energy = [[e] for e in _energies(grid, problems, u)]
    outcomes = [None] * len(problems)

    def begin(at):
        # open the next segment of stack rows `at`, whose u rows hold the
        # states at its start: kinetic half-step of the segment's h
        for r in np.flatnonzero(at):
            i, k = rows[r], segment[r]
            eps, kappa = problems[i].eps, problems[i].kappa
            h = (bounds[k + 1] - bounds[k]) / counts[i][k]
            half[r] = np.exp(-0.25j * eps * ksq * h)
            kinetic[r] = np.exp(-0.5j * eps * ksq * h)
            vphase[r] = -(h / eps) * vvals[i]
            scale[r] = -(h / eps) * eps**kappa
        uh[at] = np.fft.fft(u[at]) * half[at]

    begin(np.ones(len(rows), dtype=bool))
    while rows:
        n = int(left.min())
        work = (u, uh, kinetic, scale, vphase, theta, scratch, rot)
        for _ in range(n - 1):
            _step(*work)
        at = left == n
        kinetic[at] = half[at]
        _step(*work)
        left -= n

        # the rows at an output run the checks of their own solve there
        u[at] = np.fft.ifft(uh[at])
        tails = tail_fraction(uh[at], ~grid.dealias_mask)
        done = np.zeros(len(rows), dtype=bool)
        passed = []
        for r, tail in zip(np.flatnonzero(at), tails):
            i, t_cur = rows[r], bounds[segment[r] + 1]
            eps = problems[i].eps
            if not np.all(np.isfinite(u[r])):
                outcomes[i] = DivergenceError(
                    "reference solve hit non-finite values", time=t_cur, eps=eps)
                done[r] = True
                continue
            if tail > TAIL_TOL:
                outcomes[i] = ResolutionError(
                    f"spectral tail fraction {tail:.3e} exceeds {TAIL_TOL:.1e}; "
                    "increase the grid size", time=t_cur, eps=eps)
                done[r] = True
                continue
            times[i].append(t_cur)
            states[i].append(ComplexField(grid, u[r], role="reference-state"))
            mass[i].append(cell * float(np.sum(np.abs(u[r]) ** 2)))
            passed.append(r)
        energies = _energies(grid, [problems[rows[r]] for r in passed],
                             u[passed]) if passed else []
        for r, e in zip(passed, energies):
            i = rows[r]
            energy[i].append(e)
            segment[r] += 1
            if segment[r] == len(outputs):
                outcomes[i] = NLSSolution(
                    problem=problems[i], times=np.array(times[i]),
                    states=tuple(states[i]), mass=np.array(mass[i]),
                    energy=np.array(energy[i]), dt=dts[i])
                done[r] = True
            else:
                left[r] = counts[i][segment[r]]

        if done.any():
            # the kept rows move to the front of the buffers, which shrink
            # to views of them, so a leaving row allocates nothing
            keep = ~done
            m = int(keep.sum())
            for buf in (u, uh, kinetic, half, vphase, scale):
                buf[:m] = buf[keep]
            u, uh, rot, theta, scratch, kinetic, half, vphase, scale = (
                buf[:m] for buf in (u, uh, rot, theta, scratch, kinetic,
                                    half, vphase, scale))
            left, at = left[keep], at[keep]
            rows = [i for i, k in zip(rows, keep) if k]
            segment = [k for k, kept in zip(segment, keep) if kept]
        if rows and at.any():
            begin(at)
    return outcomes


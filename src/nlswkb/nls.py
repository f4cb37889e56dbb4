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
arithmetic is that of its own solve.  solve_nls is its one-row call.  The
rows are a problem.RowStack, checked at t = 0 and at each output
(problem.TAIL_TOL).

The solver is the measuring stick the asymptotic constructions are compared
against, so its defaults are conservative: dt = eps / STEPS_PER_EPS = eps/50
resolves the fast phase, and each segment between requested output times
is a problem.March of that dt: its step count is rounded up, so every
output lands exactly on a step boundary and no step is longer than dt.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, ResolutionError
from .fields import ComplexField, derivative_values, tail_fraction
from .grids import PeriodicGrid
from .problem import (March, RowCheck, RowStack, SemiclassicalProblem, StoredStates,
                      grid_mass, relative_drift)

STEPS_PER_EPS = 50.0

_CHECK = RowCheck("reference solve hit non-finite values",
                  "spectral tail fraction {tail:.3e} exceeds {tol:.1e}; "
                  "increase the grid size")


@dataclass(frozen=True, eq=False)
class NLSSolution(StoredStates):
    problem: SemiclassicalProblem
    times: np.ndarray
    states: tuple[ComplexField, ...]
    mass: np.ndarray
    energy: np.ndarray
    dt: float

    def energy_drift(self) -> float:
        return relative_drift(self.energy)


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
    if not outputs:
        raise ConfigError("output_times must name at least one time")
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
    t_final (it is appended when missing).  Each segment takes the steps
    of March(seg, dt): seg / dt rounded up, so outputs land exactly on step
    boundaries and no step is longer than dt; dt defaults to
    eps / STEPS_PER_EPS.  The initial state and every output are checked
    (problem.TAIL_TOL); the first that fails raises its ResolutionError or
    DivergenceError.
    This is the one-row call of solve_nls_sweep.
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
    for eps / STEPS_PER_EPS) belongs to problems[r].  Every row keeps its
    own segment marches, kinetic multipliers and phase scale, so its
    arithmetic is that of its own solve, and a step of all rows costs two
    FFT calls.  Every row is checked at t = 0, and a row that reaches an
    output closes its step with a half kinetic multiplier and is checked
    there.  Returns RowStack.results.
    """
    if t_final <= 0:
        raise ConfigError("t_final must be positive")
    if len(problems) != len(dts):
        raise ConfigError("a sweep takes one dt per problem")
    dts = [p.eps / STEPS_PER_EPS if dt is None else dt for p, dt in zip(problems, dts)]
    outputs = _output_times(t_final, output_times)
    bounds = [0.0] + outputs
    # marches[r][k]: the steps of row r over the segment that ends at outputs[k]
    marches = [[March(b - a, dt) for a, b in zip(bounds, outputs)] for dt in dts]
    st = RowStack(problems)
    grid = problems[0].grid

    # the stack's buffers: u and uh in physical and Fourier space, theta and
    # rot = exp(i theta) for the pointwise phase; per row, the kinetic
    # multiplier of its next step, its closing half-step, its potential
    # phase and phase scale, its next output and its steps left to it
    shape = (len(problems), grid.size)
    st.u, st.uh, st.rot, st.kinetic, st.half = np.empty((5,) + shape, dtype=complex)
    st.theta, st.scratch, st.vphase = np.empty((3,) + shape)
    st.scale = np.empty((len(problems), 1))
    st.segment = np.zeros(len(problems), dtype=int)
    st.left = np.array([m[0].steps for m in marches])
    st.u[:] = [p.initial_state().values for p in problems]
    vvals = [p.potential_field().values for p in problems]
    ksq = grid.wavenumber_sq

    def record(at):
        # the nodes (time, state, mass, energy) of stack rows `at`
        rows, values = [st.rows[r] for r in np.flatnonzero(at)], st.u[at]
        energies = _energies(grid, [problems[i] for i in rows], values)
        for i, k, row, e in zip(rows, st.segment[at], values, energies):
            state = ComplexField(grid, row, role="reference-state")
            st.nodes[i].append((bounds[k], state, grid_mass(grid, row), e))

    # a row whose initial state fails the check of an output leaves at t = 0
    st.check(_CHECK, [0.0] * len(problems),
             tail_fraction(np.fft.fft(st.u), ~grid.dealias_mask), [st.u])
    at = np.ones(len(st.rows), dtype=bool)
    record(at)
    while st.rows:
        # open the next segment of the stack rows `at`, whose u rows hold
        # the states at its start: kinetic half-step of the segment's h
        for r in np.flatnonzero(at):
            i, k = st.rows[r], st.segment[r]
            eps, kappa = problems[i].eps, problems[i].kappa
            h = marches[i][k].h
            st.half[r] = np.exp(-0.25j * eps * ksq * h)
            st.kinetic[r] = np.exp(-0.5j * eps * ksq * h)
            st.vphase[r] = -(h / eps) * vvals[i]
            st.scale[r] = -(h / eps) * eps**kappa
        if at.any():
            st.uh[at] = np.fft.fft(st.u[at]) * st.half[at]

        n = int(st.left.min())
        work = (st.u, st.uh, st.kinetic, st.scale, st.vphase, st.theta,
                st.scratch, st.rot)
        for _ in range(n - 1):
            _step(*work)
        at = st.left == n
        st.kinetic[at] = st.half[at]
        _step(*work)
        st.left -= n

        # the rows at an output run the checks of their own solve there
        st.u[at] = np.fft.ifft(st.uh[at])
        at = at[st.check(_CHECK, [bounds[k + 1] for k in st.segment[at]],
                         tail_fraction(st.uh[at], ~grid.dealias_mask), [st.u], at)]
        st.segment[at] += 1
        if at.any():
            record(at)
        done = st.segment == len(outputs)
        for r in np.flatnonzero(at & ~done):
            st.left[r] = marches[st.rows[r]][st.segment[r]].steps
        if done.any():
            at = at[st.drop(done)]
    return st.results(lambda i, times, states, mass, energy: NLSSolution(
        problem=problems[i], times=np.array(times), states=states,
        mass=np.array(mass), energy=np.array(energy), dt=dts[i]))

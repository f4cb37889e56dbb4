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

The march holds phi and a in Fourier space (rfft and fft along the last
axis) and takes every eps of a sweep as a row of one array: the skew step
is a multiply by a per-row phase, and one transport right-hand side costs
six transforms in four calls for all rows together.  The rows are a
problem.RowStack, checked at t = 0 and at every step (problem.TAIL_TOL).

The corrector solve marches the limit and its linearization, which
carries the i/2 Lap a source plus the first data correction a1, as one
system: they are rows 0 and 1 of one spectral state, (phi, phi1) and
(a, a1), and each RK4 stage transforms both rows together.  Pairing the
limit with eps * corrector reproduces the full solve to O(eps^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, ResolutionError
from .fields import ComplexField, RealField, derivative_values, tail_fraction
from .grids import PeriodicGrid
from .problem import (March, RowCheck, RowStack, SemiclassicalProblem, StoredStates,
                      grid_mass, rk4)

VARIANTS = ("full", "skew_free", "limit")
_CHECK = RowCheck("phase-amplitude solve hit non-finite values",
                  "amplitude spectrum tail fraction {tail:.3e} exceeds {tol:.1e}")
_CORRECTOR_CHECK = RowCheck("corrector solve hit non-finite values")


@dataclass(frozen=True, eq=False)
class GrenierState:
    """Phase, amplitude and velocity v = grad phi at one time."""
    time: float
    phi: RealField
    a: ComplexField
    v: RealField

    @property
    def grid(self) -> PeriodicGrid:
        return self.phi.grid

    def density(self) -> RealField:
        return self.a.abs2(role="density")


@dataclass(frozen=True, eq=False)
class GrenierTrajectory(StoredStates):
    variant: str
    problem: SemiclassicalProblem
    dt: float
    states: tuple[GrenierState, ...]
    mass: np.ndarray       # integral of |a|^2 at stored times
    tail_fraction: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.states])


@dataclass(frozen=True, eq=False)
class CorrectorState:
    """The limit (phi, a) and its first-order corrector (phi1, a1)."""
    time: float
    phi: RealField
    a: ComplexField
    phi1: RealField
    a1: ComplexField


@dataclass(frozen=True, eq=False)
class CorrectorTrajectory(StoredStates):
    states: tuple[CorrectorState, ...]
    mass: np.ndarray       # integral of |a|^2 of the limit at stored times
    dt: float
    times = GrenierTrajectory.times


# ---------------------------------------------------------------------------
# spectral transport right-hand side and the batched march


class _Transport:
    """Dealiased pseudo-spectral RHS of the coupled transport system with
    the potential values `vvals`, from spectral state to spectral rate in
    six transforms in four calls whatever the number of rows.

    The spectral state is phi_hat = rfft(phi) over the N/2 + 1 non-negative
    modes and a_hat = fft(a) over all N, along the last axis so that a
    stack of solves marches as rows of one array.  The object also holds
    the work arrays of a march, kept from call to call: a march then
    allocates no large array per stage, so the heap neither grows nor
    returns pages to the system between stages."""

    def __init__(self, grid: PeriodicGrid, vvals: np.ndarray):
        self.v = vvals
        self.n = n = grid.size
        half = n // 2 + 1
        self.ik = grid.ik
        self.lap = -grid.wavenumber_sq
        # complex 1/0, the values numpy casts the boolean mask to, so that
        # dealiasing a complex spectrum needs no cast
        self.mask = grid.dealias_mask.astype(complex)
        self.ik_half = self.ik[:half]
        self.lap_half = self.lap[:half]
        self.mask_half = self.mask[:half]
        self._work = {}

    def work(self, name: str, shape: tuple, dtype=complex) -> np.ndarray:
        """The work array `name`.  It is allocated once; when a sweep drops
        a failed row, the smaller array is a leading view of that first
        allocation, contiguous like it."""
        buf = self._work.get(name)
        if buf is None or buf.shape != shape:
            first = np.empty(math.prod(shape), dtype) if buf is None else buf.base
            buf = self._work[name] = first[:math.prod(shape)].reshape(shape)
        return buf

    def phase_derivatives(self, phi_hat: np.ndarray) -> np.ndarray:
        """grad phi and Lap phi at the nodes, stacked on a new first axis:
        one transform of the pair, into a work array."""
        pair = self.work("phase pair", (2,) + phi_hat.shape)
        np.multiply(phi_hat, self.ik_half, out=pair[0])
        np.multiply(phi_hat, self.lap_half, out=pair[1])
        out = self.work("g", pair.shape[:-1] + (self.n,), float)
        return np.fft.irfft(pair, self.n, out=out)

    def amplitude_and_gradient(self, a_hat: np.ndarray) -> np.ndarray:
        """a and grad a at the nodes, stacked on a new first axis: one
        transform of the pair, in place in a work array."""
        pair = self.work("a", (2,) + a_hat.shape)
        pair[0] = a_hat
        np.multiply(a_hat, self.ik, out=pair[1])
        return np.fft.ifft(pair, out=pair)

    def node_rates(self, gphi, lphi, a, ga) -> None:
        """The transport rates at the nodes from grad phi, Lap phi, a and
        grad a: d_t phi is written over lphi and d_t a over ga, and a is
        overwritten."""
        mod2 = np.square(a.real, out=self.work("mod2", a.shape, float))
        mod2 += np.square(a.imag, out=self.work("square", a.shape, float))
        # da = -(gphi ga) - (0.5 a) lphi, in the ga buffer
        np.multiply(0.5, a, out=a)
        np.multiply(a, lphi, out=a)
        _negate(np.multiply(gphi, ga, out=ga))
        ga -= a
        # dphi = (-0.5 gphi) gphi - V - (Re(a)^2 + Im(a)^2), in the lphi buffer
        dphi = np.multiply(-0.5, gphi, out=lphi)
        dphi *= gphi
        dphi -= self.v
        dphi -= mod2

    def __call__(self, phi_hat: np.ndarray, a_hat: np.ndarray, out) -> None:
        """The rates (d_t phi_hat, d_t a_hat), written into the pair `out`."""
        gphi, lphi = self.phase_derivatives(phi_hat)
        a, ga = self.amplitude_and_gradient(a_hat)
        self.node_rates(gphi, lphi, a, ga)
        rate_phi = np.fft.rfft(lphi, out=out[0])
        rate_a = np.fft.fft(ga, out=out[1])
        rate_phi *= self.mask_half
        rate_a *= self.mask


def _negate(z: np.ndarray) -> None:
    """z = -z in place for a contiguous complex z, through its float view:
    the same sign flips as complex negation, in numpy's vectorized loop."""
    np.negative(z.view(float), out=z.view(float))


def _potential_rows(problems: list[SemiclassicalProblem]) -> np.ndarray:
    """V of each problem at the nodes of its grid, one row each; the march
    takes box-periodic potentials only."""
    for problem in problems:
        if not problem.potential.periodic:
            raise ConfigError(
                "the phase-amplitude solver runs on box-periodic potentials "
                "only; harmonic confinement goes through the ray decomposition")
    return np.array([p.potential_field().values for p in problems])


def solve_phase_amplitude(problem: SemiclassicalProblem, t_final: float, dt: float,
                          variant: str = "full", store_every: int = 1
                          ) -> GrenierTrajectory:
    """March the phase-amplitude system to t_final.

    The march takes the steps of March(t_final, dt, store_every), t_final
    over dt rounded up, so it lands exactly on t_final (backward for
    negative t_final) in steps never longer than dt, and keeps the states
    of its stored steps.  The initial state and every step are checked
    (problem.TAIL_TOL); the first that fails raises its ResolutionError or
    DivergenceError.
    This is the one-row call of solve_phase_amplitude_sweep.
    """
    out = solve_phase_amplitude_sweep([problem], t_final, dt, variant=variant,
                                      store_every=store_every)[0]
    if isinstance(out, Exception):
        raise out
    return out


def solve_phase_amplitude_sweep(problems: list[SemiclassicalProblem],
                                t_final: float, dt: float,
                                variant: str = "full", store_every: int = 1
                                ) -> list[GrenierTrajectory | ResolutionError
                                          | DivergenceError]:
    """solve_phase_amplitude for every problem at once, in one march.

    The problems share one grid, one dt and one t_final, so their spectral
    states are the rows of one array and every transform covers all rows.
    Returns RowStack.results.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
    st = RowStack(problems)
    grid = problems[0].grid
    st.v = _potential_rows(problems)
    if variant == "limit":
        a = np.array([p.a0.values for p in problems], dtype=complex)
    else:
        a = np.array([p.initial_amplitude().values for p in problems])
    phi = np.array([p.initial_phase_field().values for p in problems])

    march = March(t_final, dt, store_every)
    eps = np.array([[p.eps] for p in problems])
    st.phi_hat, st.a_hat = np.fft.rfft(phi), np.fft.fft(a)
    st.skew_phase = np.exp(-0.5j * eps * grid.wavenumber_sq * march.h)
    rhs = _Transport(grid, st.v)

    def step():
        if variant == "full":
            rk4(rhs, (st.phi_hat, st.a_hat), 0.5 * march.h, rhs.work)
            st.a_hat *= st.skew_phase
            rk4(rhs, (st.phi_hat, st.a_hat), 0.5 * march.h, rhs.work)
        else:
            rk4(rhs, (st.phi_hat, st.a_hat), march.h, rhs.work)

    def check(n):
        # a row that fails, its initial state included, leaves the stack
        # and so takes its tail fraction off st.tail
        st.tail = tail_fraction(st.a_hat, grid.kept_band_top)
        st.check(_CHECK, [march.time(n)] * len(st.rows), st.tail,
                 [st.phi_hat, st.a_hat])
        rhs.v = st.v
        return bool(st.rows)

    def store(n):
        # the nodes (state, mass, tail fraction) of every stack row; those
        # of t = 0 from the initial arrays
        if n:
            phi_n, a_n = np.fft.irfft(st.phi_hat, rhs.n), np.fft.ifft(st.a_hat)
        else:
            phi_n, a_n = phi[st.rows], a[st.rows]
        velocity = np.fft.irfft(st.phi_hat * rhs.ik_half, rhs.n)
        for r, i in enumerate(st.rows):
            st.nodes[i].append((GrenierState(
                march.time(n), RealField(grid, phi_n[r], role="phase"),
                ComplexField(grid, a_n[r], role="amplitude"),
                RealField(grid, velocity[r], role="velocity")),
                grid_mass(grid, a_n[r]), float(st.tail[r])))

    march.run(step, check, store)
    return st.results(lambda i, states, mass, tails: GrenierTrajectory(
        variant=variant, problem=problems[i], dt=march.h, states=states,
        mass=np.array(mass), tail_fraction=np.array(tails)))


# ---------------------------------------------------------------------------
# corrector


def solve_corrector(problem: SemiclassicalProblem, t_final: float, dt: float,
                    store_every: int = 1) -> CorrectorTrajectory:
    """The limit march (variant="limit") together with its linearization,

        d_t phi1 + grad phi . grad phi1 + 2 Re(conj(a) a1) = 0,   phi1(0) = 0,
        d_t a1 + grad phi . grad a1 + grad phi1 . grad a
               + a1 Lap phi / 2 + a Lap phi1 / 2 = (i/2) Lap a,   a1(0) = a1_data,

    as one system.  The spectral state stacks the limit and the corrector
    as rows 0 and 1 of (phi, phi1) and (a, a1), and every step is one RK4
    step of the pair: each stage transforms both rows in four calls, takes
    the limit rates of row 0 by the arithmetic of the limit march (so the
    limit rows are the limit march's bit for bit) and the corrector rates
    of row 1 from the row-0 fields of the same stage.  a1_data is
    problem.a1 (zero without one).  At t = 0 and at every step the limit is
    checked as the sweep checks a row, then the corrector for finite values,
    and the first failure is raised; the states of the stored steps of
    March(t_final, dt, store_every), whose steps are never longer than dt,
    are kept.  With real a0 and a1_data = 0, a1 stays purely imaginary and
    phi1 stays zero.
    """
    grid = problem.grid
    rhs = _Transport(grid, _potential_rows([problem])[0])
    half_lap = 0.5j * rhs.lap
    march = March(t_final, dt, store_every)

    def rates(phi_hat, a_hat, out):
        work = rhs.work
        g = rhs.phase_derivatives(phi_hat)
        fields = rhs.amplitude_and_gradient(a_hat)
        (gphi, gphi1), (lphi, lphi1) = g
        (a, a1), (ga, ga1) = fields
        # the corrector rates first, as the limit rates are written over
        # the limit fields; 2 Re(conj(a) a1) is held before a1 is scaled
        prod = np.conjugate(a, out=work("product", a.shape))
        prod *= a1
        twice_re = np.multiply(2.0, prod.real, out=prod.real)
        # da1 = -(gphi ga1 + gphi1 ga + (0.5 a1) lphi + (0.5 a) lphi1),
        # built in the ga1 buffer
        term = work("term", a.shape)
        np.multiply(gphi, ga1, out=ga1)
        ga1 += np.multiply(gphi1, ga, out=term)
        np.multiply(0.5, a1, out=a1)
        ga1 += np.multiply(a1, lphi, out=a1)
        ga1 += np.multiply(np.multiply(0.5, a, out=term), lphi1, out=term)
        _negate(ga1)
        # dphi1 = -(gphi gphi1 + 2 Re(conj(a) a1)), in the lphi1 buffer
        dphi1 = np.multiply(gphi, gphi1, out=lphi1)
        dphi1 += twice_re
        np.negative(dphi1, out=dphi1)
        rhs.node_rates(gphi, lphi, a, ga)
        rate_phi = np.fft.rfft(g[1], out=out[0])
        rate_a = np.fft.fft(fields[1], out=out[1])
        rate_a[1] += np.multiply(half_lap, a_hat[0], out=term)
        rate_phi *= rhs.mask_half
        rate_a *= rhs.mask

    a1 = (problem.a1.values if problem.a1 is not None
          else np.zeros(grid.size, dtype=complex))
    # the initial (phi, a, phi1, a1): the t = 0 node stores these arrays
    start = (problem.initial_phase_field().values, problem.a0.values,
             np.zeros(grid.size), a1)
    phi_hat = np.fft.rfft(np.array(start[::2]))
    a_hat = np.fft.fft(np.array(start[1::2], dtype=complex))
    states, mass = [], []

    def check(n):
        t = march.time(n)
        error = (_CHECK.error(t, problem.eps, (phi_hat[0], a_hat[0]),
                              tail_fraction(a_hat[0], grid.kept_band_top))
                 or _CORRECTOR_CHECK.error(t, problem.eps, (phi_hat[1], a_hat[1])))
        if error is not None:
            raise error
        return True

    def store(n):
        phi, a, phi1, a1 = start
        if n:
            (phi, phi1), (a, a1) = np.fft.irfft(phi_hat, rhs.n), np.fft.ifft(a_hat)
        states.append(CorrectorState(
            march.time(n), RealField(grid, phi, role="phase"),
            ComplexField(grid, a, role="amplitude"),
            RealField(grid, phi1, role="phase-corrector"),
            ComplexField(grid, a1, role="amplitude-corrector")))
        mass.append(grid_mass(grid, a))

    march.run(lambda: rk4(rates, (phi_hat, a_hat), march.h, rhs.work), check, store)
    return CorrectorTrajectory(states=tuple(states), mass=np.array(mass), dt=march.h)


def euler_residual(traj: GrenierTrajectory) -> dict[str, float]:
    """Sup-norm residuals of the compressible Euler system along a limit
    trajectory: momentum d_t v + v d_x v + d_x V + d_x rho and continuity
    d_t rho + d_x(rho v), time derivatives by centered differences over the
    stored nodes."""
    if traj.variant != "limit":
        raise ConfigError("Euler residual applies to the limit trajectory")
    grid = traj.problem.grid
    times = traj.times
    if len(times) < 3:
        raise ConfigError("need at least three stored states")
    vpot = derivative_values(grid, traj.problem.potential_field().values)
    mom_worst = 0.0
    cont_worst = 0.0
    for i in range(1, len(times) - 1):
        dt2 = times[i + 1] - times[i - 1]
        sm, s0, sp = traj.states[i - 1], traj.states[i], traj.states[i + 1]
        rho0 = s0.density().values
        v0 = s0.v.values
        dv_dt = (sp.v.values - sm.v.values) / dt2
        adv = v0 * derivative_values(grid, v0)
        res = dv_dt + adv + vpot + derivative_values(grid, rho0)
        mom_worst = max(mom_worst, float(np.abs(res).max()))
        drho_dt = (sp.density().values - sm.density().values) / dt2
        cont = drho_dt + derivative_values(grid, rho0 * v0)
        cont_worst = max(cont_worst, float(np.abs(cont).max()))
    return {"momentum": mom_worst, "continuity": cont_worst,
            "max": max(mom_worst, cont_worst)}

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
six transforms for all rows together.

The corrector solve linearizes the system around the limit trajectory and
carries the i/2 Lap a source plus the first data correction a1; pairing the
limit with eps * corrector reproduces the full solve to O(eps^2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, ResolutionError
from .fields import ComplexField, RealField, derivative_values
from .grids import PeriodicGrid
from .problem import SemiclassicalProblem

VARIANTS = ("full", "skew_free", "limit")


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
# spectral transport right-hand side and the batched march


class _Spectral:
    """Multipliers of the spectral state: phi_hat = rfft(phi) over the
    N/2 + 1 non-negative modes, a_hat = fft(a) over all N, along the last
    axis so that a stack of solves marches as rows of one array."""

    def __init__(self, grid: PeriodicGrid):
        self.n = n = grid.sizes[0]
        half = n // 2 + 1
        self.ik = grid.ik
        self.lap = -grid.wavenumber_sq
        self.mask = grid.dealias_mask
        self.ik_half = self.ik[:half]
        self.lap_half = self.lap[:half]
        self.mask_half = self.mask[:half]

    def phase_derivatives(self, phi_hat: np.ndarray):
        """grad phi and Lap phi at the nodes."""
        return (np.fft.irfft(phi_hat * self.ik_half, self.n),
                np.fft.irfft(phi_hat * self.lap_half, self.n))

    def amplitude_and_gradient(self, a_hat: np.ndarray):
        """a and grad a at the nodes."""
        return np.fft.ifft(a_hat), np.fft.ifft(a_hat * self.ik)


class _Transport(_Spectral):
    """Dealiased pseudo-spectral RHS of the coupled transport system, from
    spectral state to spectral rate in six transforms whatever the number
    of rows."""

    def __init__(self, grid: PeriodicGrid, vvals: np.ndarray):
        super().__init__(grid)
        self.v = vvals

    def __call__(self, phi_hat: np.ndarray, a_hat: np.ndarray):
        gphi, lphi = self.phase_derivatives(phi_hat)
        a, ga = self.amplitude_and_gradient(a_hat)
        dphi = -0.5 * gphi * gphi - self.v - (a.real ** 2 + a.imag ** 2)
        da = -(gphi * ga) - 0.5 * a * lphi
        return (np.fft.rfft(dphi) * self.mask_half,
                np.fft.fft(da) * self.mask)


def _rk4(rhs, phi, a, h):
    """One classical RK4 step.  The weighted stage sum k1 + 2 k2 + 2 k3 + k4
    accumulates, in that order, in the arrays of the first stage."""
    k_phi, k_a = rhs(phi, a)
    sum_phi, sum_a = k_phi, k_a
    for c, w in ((0.5, 2), (0.5, 2), (1.0, 1)):
        k_phi, k_a = rhs(phi + c * h * k_phi, a + c * h * k_a)
        sum_phi += w * k_phi
        sum_a += w * k_a
    return phi + (h / 6) * sum_phi, a + (h / 6) * sum_a


def _kept_band_tail(grid: PeriodicGrid, spec: np.ndarray) -> np.ndarray:
    """Energy fraction in the top third of the retained (dealiased) band,
    one value per row of `spec`."""
    power = spec.real ** 2 + spec.imag ** 2
    total = power.sum(axis=-1)
    tail = power[..., grid.kept_band_top].sum(axis=-1)
    return np.divide(tail, total, out=np.zeros_like(total), where=total != 0)


def solve_phase_amplitude(problem: SemiclassicalProblem, t_final: float, dt: float,
                          variant: str = "full", store_every: int = 1,
                          tail_tol: float = 1e-8) -> GrenierTrajectory:
    """March the phase-amplitude system to t_final.

    dt is adjusted so an integer number of steps lands exactly on t_final;
    negative t_final integrates backward.  States are stored every
    `store_every` steps (the final state always).  A ResolutionError is
    raised when the amplitude spectrum fills the top of the retained band,
    a DivergenceError on non-finite values.  This is the one-row call of
    solve_phase_amplitude_sweep.
    """
    out = solve_phase_amplitude_sweep([problem], t_final, dt, variant=variant,
                                      store_every=store_every,
                                      tail_tol=tail_tol)[0]
    if isinstance(out, Exception):
        raise out
    return out


def solve_phase_amplitude_sweep(problems: list[SemiclassicalProblem],
                                t_final: float, dt: float,
                                variant: str = "full", store_every: int = 1,
                                tail_tol: float = 1e-8
                                ) -> list[GrenierTrajectory | ResolutionError
                                          | DivergenceError]:
    """solve_phase_amplitude for every problem at once, in one march.

    The problems share one grid, one dt and one t_final, so their spectral
    states are the rows of one array and every transform covers all rows.
    Returns one outcome per problem, in order: its trajectory, or the
    ResolutionError or DivergenceError its own solve would raise, with its
    eps and time.  A row that fails leaves the stack; the others march on
    unchanged.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}, got {variant!r}")
    grid = problems[0].grid
    for problem in problems:
        if problem.potential.kind == "harmonic":
            raise ConfigError(
                "the phase-amplitude solver runs on bounded potentials only; "
                "harmonic confinement goes through the ray decomposition")
        if problem.grid != grid:
            raise ConfigError("the problems of a sweep must share one grid")

    vvals = np.array([p.potential_field().values for p in problems])
    if variant == "limit":
        a = np.array([p.a0.values for p in problems], dtype=complex)
    else:
        a = np.array([p.initial_amplitude().values for p in problems])
    phi = np.array([p.initial_phase_field().values for p in problems],
                   dtype=float)

    n_steps = max(1, int(round(abs(t_final) / dt)))
    h = t_final / n_steps
    phi_hat = np.fft.rfft(phi)
    a_hat = np.fft.fft(a)
    eps = np.array([[p.eps] for p in problems])
    skew_phase = np.exp(-0.5j * eps * grid.wavenumber_sq * h)
    rhs = _Transport(grid, vvals)
    cell = grid.cell_volume
    rows = list(range(len(problems)))     # problem index of each stack row
    states = [[] for _ in problems]
    mass = [[] for _ in problems]
    tails = [[] for _ in problems]
    outcomes = [None] * len(problems)

    def store(t, phi, a, tail):
        velocity = np.fft.irfft(phi_hat * rhs.ik_half, rhs.n)
        for r, i in enumerate(rows):
            states[i].append(GrenierState(
                t, RealField(grid, phi[r], role="phase"),
                ComplexField(grid, a[r], role="amplitude"),
                RealField(grid, velocity[r], role="velocity")))
            mass[i].append(cell * float(np.sum(np.abs(a[r]) ** 2)))
            tails[i].append(float(tail[r]))

    def drop(failed, error):
        # the outcome of each failed stack row r is error(r, its eps)
        nonlocal phi_hat, a_hat, skew_phase, rows
        for r in np.flatnonzero(failed):
            outcomes[rows[r]] = error(r, problems[rows[r]].eps)
        keep = ~failed
        phi_hat, a_hat = phi_hat[keep], a_hat[keep]
        skew_phase, rhs.v = skew_phase[keep], rhs.v[keep]
        rows = [i for i, k in zip(rows, keep) if k]

    store(0.0, phi, a, _kept_band_tail(grid, a_hat))
    for n in range(n_steps):
        if variant == "full":
            phi_hat, a_hat = _rk4(rhs, phi_hat, a_hat, 0.5 * h)
            a_hat *= skew_phase
            phi_hat, a_hat = _rk4(rhs, phi_hat, a_hat, 0.5 * h)
        else:
            phi_hat, a_hat = _rk4(rhs, phi_hat, a_hat, h)
        t = (n + 1) * h
        finite = (np.isfinite(phi_hat).all(axis=-1)
                  & np.isfinite(a_hat).all(axis=-1))
        if not finite.all():
            drop(~finite, lambda r, eps: DivergenceError(
                "phase-amplitude solve hit non-finite values",
                time=t, eps=eps))
        if (n + 1) % store_every == 0 or n == n_steps - 1:
            tail = _kept_band_tail(grid, a_hat)
            unresolved = tail > tail_tol
            if unresolved.any():
                drop(unresolved, lambda r, eps: ResolutionError(
                    f"amplitude spectrum tail fraction {tail[r]:.3e} exceeds "
                    f"{tail_tol:.1e}", time=t, eps=eps))
                tail = tail[~unresolved]
            store(t, np.fft.irfft(phi_hat, rhs.n), np.fft.ifft(a_hat), tail)
        if not rows:
            break

    for i in rows:
        outcomes[i] = GrenierTrajectory(
            variant=variant, problem=problems[i], dt=h,
            states=tuple(states[i]), mass=np.array(mass[i]),
            tail_fraction=np.array(tails[i]))
    return outcomes


# ---------------------------------------------------------------------------
# corrector


class _HermiteCoeffs:
    """Cubic Hermite time interpolation of the limit trajectory, in the
    spectral state of the march.

    Uses stored states and their exact PDE time derivatives, so the
    interpolation error is O(h^4) and does not degrade the RK4 marching of
    the corrector.  The corrector walks the nodes in time order, so each
    node's spectral state and rate is computed once and only the two
    nodes of the current interval are held.
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
        self.states = limit.states
        self.rhs = _Transport(self.grid, limit.problem.potential_field().values)
        self.nodes = {}

    def node(self, i: int):
        """(phi_hat, a_hat, dphi_hat, da_hat) at stored state i."""
        if i not in self.nodes:
            st = self.states[i]
            phi_hat, a_hat = np.fft.rfft(st.phi.values), np.fft.fft(st.a.values)
            self.nodes = {j: n for j, n in self.nodes.items() if j == i - 1}
            self.nodes[i] = (phi_hat, a_hat, *self.rhs(phi_hat, a_hat))
        return self.nodes[i]

    def __call__(self, t: float):
        pos = (t - self.times[0]) / self.h
        i = int(np.clip(np.floor(pos + 1e-12), 0, len(self.times) - 2))
        u = pos - i
        if abs(u) < 1e-12:
            return self.node(i)[:2]
        if abs(u - 1) < 1e-12:
            return self.node(i + 1)[:2]
        phi0, a0, dphi0, da0 = self.node(i)
        phi1, a1, dphi1, da1 = self.node(i + 1)
        h = self.h
        h00 = 2 * u**3 - 3 * u**2 + 1
        h10 = u**3 - 2 * u**2 + u
        h01 = -2 * u**3 + 3 * u**2
        h11 = u**3 - u**2
        phi = h00 * phi0 + h10 * h * dphi0 + h01 * phi1 + h11 * h * dphi1
        a = h00 * a0 + h10 * h * da0 + h01 * a1 + h11 * h * da1
        return phi, a


def solve_corrector(limit: GrenierTrajectory, a1: ComplexField | None = None,
                    store_every: int = 1) -> CorrectorTrajectory:
    """Linearized phase-amplitude flow around the limit trajectory.

        d_t phi1 + grad phi . grad phi1 + 2 Re(conj(a) a1) = 0,   phi1(0) = 0,
        d_t a1 + grad phi . grad a1 + grad phi1 . grad a
               + a1 Lap phi / 2 + a Lap phi1 / 2 = (i/2) Lap a,   a1(0) = a1_data.

    Marches RK4 on the stored time grid of `limit`, with the coefficient
    pair (phi, a) Hermite-interpolated at the stage times.  Coefficients
    and corrector live in the spectral state of the phase-amplitude march;
    the (i/2) Lap a source is a spectral multiply.  With real a0 and
    a1_data = 0, a1 stays purely imaginary and phi1 stays zero.
    """
    if limit.variant != "limit":
        raise ConfigError("corrector must be driven by a variant='limit' trajectory")
    grid = limit.grid
    if a1 is not None and a1.grid != grid:
        raise ConfigError("a1 data lives on a different grid than the trajectory")
    coeffs = _HermiteCoeffs(limit)
    h = coeffs.h
    sp = _Spectral(grid)

    def rhs(t, phi1_hat, a1_hat):
        phi_hat, a_hat = coeffs(t)
        gphi, lphi = sp.phase_derivatives(phi_hat)
        a, ga = sp.amplitude_and_gradient(a_hat)
        gphi1, lphi1 = sp.phase_derivatives(phi1_hat)
        a1v, ga1 = sp.amplitude_and_gradient(a1_hat)
        dphi1 = -(gphi * gphi1 + 2.0 * (np.conj(a) * a1v).real)
        da1 = -(gphi * ga1 + gphi1 * ga + 0.5 * a1v * lphi + 0.5 * a * lphi1)
        return (np.fft.rfft(dphi1) * sp.mask_half,
                (np.fft.fft(da1) + 0.5j * sp.lap * a_hat) * sp.mask)

    phi1 = np.zeros(grid.shape)
    a1v = (a1.values.copy() if a1 is not None
           else np.zeros(grid.shape, dtype=complex))
    phi1_hat, a1_hat = np.fft.rfft(phi1), np.fft.fft(a1v)
    states = [CorrectorState(float(coeffs.times[0]),
                             RealField(grid, phi1, role="phase-corrector"),
                             ComplexField(grid, a1v, role="amplitude-corrector"))]

    for i in range(len(coeffs.times) - 1):
        t = float(coeffs.times[i])
        k1p, k1a = rhs(t, phi1_hat, a1_hat)
        k2p, k2a = rhs(t + 0.5 * h, phi1_hat + 0.5 * h * k1p,
                       a1_hat + 0.5 * h * k1a)
        k3p, k3a = rhs(t + 0.5 * h, phi1_hat + 0.5 * h * k2p,
                       a1_hat + 0.5 * h * k2a)
        k4p, k4a = rhs(t + h, phi1_hat + h * k3p, a1_hat + h * k3a)
        phi1_hat = phi1_hat + (h / 6) * (k1p + 2 * k2p + 2 * k3p + k4p)
        a1_hat = a1_hat + (h / 6) * (k1a + 2 * k2a + 2 * k3a + k4a)
        if not (np.all(np.isfinite(phi1_hat)) and np.all(np.isfinite(a1_hat))):
            raise DivergenceError("corrector solve hit non-finite values",
                                  time=t + h, eps=limit.problem.eps)
        if (i + 1) % store_every == 0 or i == len(coeffs.times) - 2:
            states.append(CorrectorState(
                float(coeffs.times[i + 1]),
                RealField(grid, np.fft.irfft(phi1_hat, sp.n),
                          role="phase-corrector"),
                ComplexField(grid, np.fft.ifft(a1_hat),
                             role="amplitude-corrector")))

    return CorrectorTrajectory(states=tuple(states), dt=h)


def euler_residual(traj: GrenierTrajectory) -> dict[str, float]:
    """Sup-norm residuals of the compressible Euler system along a limit
    trajectory: momentum d_t v + v d_x v + d_x V + d_x rho and continuity
    d_t rho + d_x(rho v), time derivatives by centered differences over the
    stored nodes."""
    if traj.variant != "limit":
        raise ConfigError("Euler residual applies to the limit trajectory")
    grid = traj.grid
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

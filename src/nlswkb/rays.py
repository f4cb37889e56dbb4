"""Hamiltonian ray tracing for the eikonal equation.

The phase d_t phi + (d_x phi)^2/2 + V = 0, phi(0) = phi0, is solved by
characteristics: rays (x, xi) obey

    dx/dt = xi,          x(0) = y,
    dxi/dt = -V'(x),     xi(0) = phi0'(y),

together with the variational pair J = d_y x, Xi = d_y xi,

    dJ/dt = Xi,          J(0) = 1,
    dXi/dt = -V'' J,     Xi(0) = phi0''(y),

the action dS/dt = xi^2/2 - V, S(0) = phi0(y), and the ray integral of
1/J that the self-modulation of the WKB phase reads, dg/dt = 1/J,
g(0) = 0.  On the line every one of these is a scalar per ray.  The
Jacobian J starts at 1; the first time min_y J crosses a positive
threshold is the caustic horizon, beyond which the Eulerian phase stops
existing and label inversion refuses to run.  The march takes the steps
of problem.March(span, dt, store_every), never longer than dt, and stores
its nodes but takes min_y J at every step, so a caller that reads the
final node alone holds no trajectory; a `HamiltonJacobiResidual` takes the
eikonal residual in the same pass, from every node the march hands it.

Inversion of the label-to-position map uses monotone bracketing plus
safeguarded Newton on a cubic Hermite interpolant of the stored map (values
x, slopes J), which is exact for affine maps (zero/harmonic potential with
zero/quadratic phase) and O(h^4) otherwise.  `invert_flow` runs it once per
(bundle, time, grid) and returns a `LabelMap` that carries any per-marker
series to the grid.  Off-marker evaluation of the action uses the identity
d_y S = xi J, and the Eulerian phase gradient is the transported momentum
xi(t, y(t, x)).
"""
from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CausticError, InversionError, StencilError
from .fields import RealField, interpolate_periodic
from .grids import PeriodicGrid
from .problem import March, RowCheck, SemiclassicalProblem, rk4, time_index

CAUSTIC_THRESHOLD = 0.1
# the Hamilton-Jacobi residual is checked while min_y J stays above this
RESIDUAL_MIN_JACOBIAN = 0.3
# the nodes its fourth-order d_t stencil spans
RESIDUAL_STENCIL_NODES = 5
_CHECK = RowCheck("ray integration produced non-finite values")


@dataclass(frozen=True, eq=False)
class RayBundle:
    """The marker rays at the nodes of March(t_final, dt, store_every),
    whose steps are `dt` (its h, never longer than the dt asked for), and
    min_y J at every step."""
    markers: PeriodicGrid
    y: np.ndarray        # (Nm,) labels: the marker nodes
    times: np.ndarray    # (K,) stored times
    x: np.ndarray        # (K, Nm) positions
    xi: np.ndarray       # (K, Nm) momenta
    jac: np.ndarray      # (K, Nm) J = d_y x
    xivar: np.ndarray    # (K, Nm) d_y xi
    action: np.ndarray   # (K, Nm) S
    jac_inv_integral: np.ndarray  # (K, Nm) int_0^t 1/J ds
    min_jacobian: np.ndarray      # (M+1,) min_y J at every step
    dt: float            # the step
    problem: SemiclassicalProblem

    @property
    def step_times(self) -> np.ndarray:
        """The time of every step, the times of `min_jacobian`."""
        return self.times[0] + self.dt * np.arange(len(self.min_jacobian))

    @property
    def t_caustic(self) -> float | None:
        """The caustic horizon: caustic_time at CAUSTIC_THRESHOLD."""
        return _first_crossing(self.step_times, self.min_jacobian,
                               CAUSTIC_THRESHOLD)

    def time_index(self, t: float) -> int:
        return time_index(self.times, t)

    def is_periodic_compatible(self) -> bool:
        """The ray displacement is box-periodic: labels may wrap."""
        return self.problem.potential.periodic and self.problem.phase.periodic

    def is_affine(self) -> bool:
        """The ray map is affine in the labels: V'' is constant, and both
        initial phases are quadratic."""
        return self.problem.potential.quadratic


def _ray_rhs(potential, x, xi, jac, xiv, s, g, out):
    # s and g ride along: the action rate depends on (x, xi) only, the
    # rate of g = int 1/J on J only
    dx, dxi, djac, dxiv, ds, dg = out
    np.copyto(dx, xi)
    np.negative(potential.gradient(x), out=dxi)
    np.copyto(djac, xiv)
    np.negative(np.multiply(potential.hessian(x), jac, out=dxiv), out=dxiv)
    np.subtract(0.5 * xi**2, potential.value(x), out=ds)
    np.divide(1.0, jac, out=dg)


def integrate_ray_state(potential, x0, xi0, jac0, xiv0, s0, t0, march: March,
                        visit=None):
    """Classic RK4 on the ray + variational + action system and the
    integral g of 1/J from t0 (rate 1/J, g(t0) = 0), one (Nm,) array per
    variable.

    Returns (times, x, xi, jac, xivar, action, jac_inv_integral,
    min_jacobian).  The six variables, each of shape (K, Nm), are stored
    at the K nodes of `march`, a problem.March of the span from t0;
    min_jacobian, of shape (M+1,), is min_y J at step 0 and at each of
    its M steps, which land the last node exactly on the end of the span.
    A negative span integrates backward.  Each step is problem.rk4 in
    place.  The five ray variables must stay finite: the initial state and
    every step are checked, and the first that fails raises DivergenceError
    at its time.
    Past a zero of J the integral means nothing, and nothing reads it there.
    visit(t, state), if given, gets the time and the six state arrays of
    step 0 and of every step right after its check; the arrays are the
    march's own, which the next step overwrites.
    """
    stored = tuple(np.empty((march.nodes, x0.shape[0])) for _ in range(6))
    times = []
    mins = np.empty(march.steps + 1)
    state = (x0.copy(), xi0.copy(), jac0.copy(), xiv0.copy(), s0.copy(),
             np.zeros_like(x0))
    rhs = functools.partial(_ray_rhs, potential)
    # one array per work name, allocated at the first step of the march
    work = functools.cache(lambda name, shape, dtype: np.empty(shape, dtype))

    def check(n):
        error = _CHECK.error(march.time(n, t0), None, state[:5])
        if error is not None:
            raise error
        mins[n] = state[2].min()
        if visit is not None:
            visit(march.time(n, t0), state)
        return True

    def store(n):
        for out, v in zip(stored, state):
            out[len(times)] = v
        times.append(march.time(n, t0))

    march.run(lambda: rk4(rhs, state, march.h, work), check, store)
    return (np.array(times), *stored, mins)


def integrate_flow(problem: SemiclassicalProblem, markers: PeriodicGrid,
                   t_final: float, dt: float, store_every: int = 1,
                   visit=None) -> RayBundle:
    """Trace the marker-grid rays of `problem` up to t_final: integrate_ray_state
    of March(t_final, dt, store_every), whose steps, t_final over dt
    rounded up, are never longer than dt.

    visit(node), if given, gets every step of the march, step 0 included,
    right after its check, as a one-node RayBundle whose arrays are views
    of the march state: they hold the node only during the call.
    """
    potential, phase = problem.potential, problem.phase
    potential.subquadratic_bound(markers)  # admissibility: finite Hessian on the box

    y, march = markers.nodes, March(t_final, dt, store_every)

    def node(t, state):
        visit(RayBundle(markers, y, np.array([t]), *(v[None] for v in state),
                        state[2].min(keepdims=True), march.h, problem))

    times, *stored, mins = integrate_ray_state(
        potential, y, phase.gradient(y), np.ones_like(y), phase.hessian(y),
        phase.value(y), 0.0, march, None if visit is None else node)
    return RayBundle(markers, y, times, *stored, mins, march.h, problem)


def _first_crossing(times: np.ndarray, series: np.ndarray, threshold: float) -> float | None:
    below = series <= threshold
    if not below.any():
        return None
    i = int(np.argmax(below))
    if i == 0:
        return float(times[0])
    t0, t1 = times[i - 1], times[i]
    v0, v1 = series[i - 1], series[i]
    frac = (v0 - threshold) / (v0 - v1)
    return float(t0 + frac * (t1 - t0))


def caustic_time(bundle: RayBundle, threshold: float = CAUSTIC_THRESHOLD) -> float | None:
    """First time min_y J crosses the threshold, linearly interpolated.

    None means no crossing inside the integrated window.
    """
    if not 0 < threshold < 1:
        raise ValueError(f"caustic threshold must lie in (0,1), got {threshold}")
    return _first_crossing(bundle.step_times, bundle.min_jacobian, threshold)


# ---------------------------------------------------------------------------
# cubic Hermite machinery on the marker line


def _hermite(u, h, f0, f1, d0, d1):
    """Cubic Hermite interpolant at the offset u in [0, 1] of a cell of
    width h, from the end values f0, f1 and the end slopes d0, d1."""
    u2, u3 = u * u, u * u * u
    return ((2 * u3 - 3 * u2 + 1) * f0 + (u3 - 2 * u2 + u) * h * d0
            + (-2 * u3 + 3 * u2) * f1 + (u3 - u2) * h * d1)


def _hermite_deriv(u, h, f0, f1, d0, d1):
    u2 = u * u
    return ((6 * u2 - 6 * u) * f0 + (3 * u2 - 4 * u + 1) * h * d0
            + (-6 * u2 + 6 * u) * f1 + (3 * u2 - 2 * u) * h * d1) / h


@dataclass(frozen=True, eq=False)
class LabelMap:
    """Ray labels y(t, x) on an Eulerian grid at one stored time node.

    Built by `invert_flow`.  It keeps the Hermite cell and offset `u` of
    every target, so any per-marker series is carried to the grid without
    inverting the ray map again.
    """
    bundle: RayBundle
    grid: PeriodicGrid
    index: int           # stored time node
    labels: np.ndarray   # (N,) labels, unwrapped
    cells: np.ndarray    # (N,) Hermite cell of each target
    u: np.ndarray        # (N,) position inside the cell, in [0, 1]

    @property
    def time(self) -> float:
        return float(self.bundle.times[self.index])

    def eval_series(self, values: np.ndarray, slopes: np.ndarray) -> np.ndarray:
        """Hermite-evaluate a per-marker series, given with its label
        slopes, at the located cells."""
        if self.bundle.is_periodic_compatible():
            values, slopes = np.append(values, values[0]), np.append(slopes, slopes[0])
        h = self.bundle.y[1] - self.bundle.y[0]
        c = self.cells
        return _hermite(self.u, h, values[c], values[c + 1], slopes[c], slopes[c + 1])

    def interp_series(self, series: np.ndarray) -> np.ndarray:
        """Per-marker scalar series evaluated at the labels.

        Affine maps have label-independent series (returned as constant);
        periodic-compatible maps interpolate trigonometrically; the
        remaining mixed case falls back to a cubic spline.
        """
        bundle = self.bundle
        if bundle.is_affine():
            spread = np.abs(series - series[0]).max()
            if spread > 1e-8 * max(1.0, np.abs(series[0])):
                raise InversionError("series expected constant on an affine flow",
                                     time=self.time)
            return np.full(self.labels.shape, float(series[0]))
        if bundle.is_periodic_compatible():
            return interpolate_periodic(RealField(bundle.markers, series),
                                        self.labels)
        from scipy.interpolate import CubicSpline
        return CubicSpline(bundle.y, series)(self.labels)


def invert_flow(bundle: RayBundle, t: float, x_grid: PeriodicGrid) -> LabelMap:
    """Labels y(t, x) on the Eulerian grid, with |x(t, y) - x| <= 1e-10.

    Pre-caustic only.  The stored map, extended by one wrap cell when the
    configuration is periodic-compatible, is bracketed and solved by
    safeguarded Newton on its Hermite interpolant; labels may leave the
    marker box only for periodic-compatible configurations (wrapped) or
    raise otherwise.
    """
    if bundle.t_caustic is not None and t >= bundle.t_caustic:
        raise CausticError(
            f"at or past the caustic horizon {bundle.t_caustic:.6g}", time=t)
    it = bundle.time_index(t)
    y, x, m = bundle.y, bundle.x[it], bundle.jac[it]
    span = bundle.markers.length
    periodic = bundle.is_periodic_compatible()
    if periodic:
        y, x, m = np.append(y, y[0] + span), np.append(x, x[0] + span), np.append(m, m[0])
    if not np.all(np.diff(x) > 0):
        raise InversionError(
            "the stored ray map is not strictly increasing: rays cross "
            "between markers, so the marker grid (the problem grid in the "
            "ray drivers) is too coarse", time=t)
    targets = x_grid.nodes
    if periodic:
        reduced = x[0] + np.mod(targets - x[0], span)
    elif targets.min() < x[0] or targets.max() > x[-1]:
        raise InversionError(
            f"the stored ray map covers [{x[0]:.6g}, {x[-1]:.6g}], short of "
            f"the grid [{targets.min():.6g}, {targets.max():.6g}]: the ray "
            "drivers use the problem grid as the marker grid, so a focusing "
            "quadratic phase (phase.curvature < 0) pulls the map off the grid "
            "edges", time=t)
    else:
        reduced = targets
    h = y[1] - y[0]
    cells = np.clip(np.searchsorted(x, reduced, side="right") - 1, 0, len(x) - 2)
    f0, f1 = x[cells], x[cells + 1]
    d0, d1 = m[cells], m[cells + 1]
    lo = np.zeros_like(reduced)
    hi = np.ones_like(reduced)
    u = np.clip((reduced - f0) / np.where(f1 > f0, f1 - f0, 1.0), 0.0, 1.0)
    scale = max(1.0, np.abs(x).max())
    for _ in range(80):
        val = _hermite(u, h, f0, f1, d0, d1) - reduced
        if np.all(np.abs(val) <= 1e-12 * scale):
            break
        pos = val > 0
        hi = np.where(pos, np.minimum(hi, u), hi)
        lo = np.where(~pos, np.maximum(lo, u), lo)
        slope = _hermite_deriv(u, h, f0, f1, d0, d1) * h
        step = np.where(np.abs(slope) > 0, val / np.where(slope != 0, slope, 1.0), 0.0)
        u_new = u - step
        bad = (u_new < lo) | (u_new > hi) | ~np.isfinite(u_new)
        u = np.where(bad, 0.5 * (lo + hi), u_new)
    worst = float(np.abs(_hermite(u, h, f0, f1, d0, d1) - reduced).max())
    if worst > 1e-10 * scale:
        raise InversionError(
            f"Newton inversion did not reach tolerance (worst residual "
            f"{worst:.3e})", time=t)
    labels = y[cells] + u * h + (targets - reduced)
    return LabelMap(bundle=bundle, grid=x_grid, index=it, labels=labels,
                    cells=cells, u=u)


def eikonal_phase(lmap: LabelMap) -> RealField:
    """Eulerian phase phi(t, x) = S(t, y(t, x)), pre-caustic."""
    b, it = lmap.bundle, lmap.index
    # d_y S = xi J along the marker line
    svals = lmap.eval_series(b.action[it], b.xi[it] * b.jac[it])
    return RealField(lmap.grid, svals, role="eikonal-phase")


def momentum_field(lmap: LabelMap) -> np.ndarray:
    """Transported momentum xi(t, y(t, x)): the Eulerian phase gradient,
    one value per grid node."""
    b, it = lmap.bundle, lmap.index
    return lmap.eval_series(b.xi[it], b.xivar[it])


def jacobian_at_labels(lmap: LabelMap) -> np.ndarray:
    """J(t, y(t, x)) on the Eulerian grid."""
    return lmap.interp_series(lmap.bundle.jac[lmap.index])


# ---------------------------------------------------------------------------
# consistency checks


def jacobian_consistency(bundle: RayBundle, t: float) -> float:
    """Max relative gap between J = d_y x and finite differences of x.

    Periodic-compatible displacements difference with wraparound; otherwise
    edges use one-sided second-order stencils.
    """
    it = bundle.time_index(t)
    h = bundle.markers.spacing
    x = bundle.x[it]
    if bundle.is_periodic_compatible():
        d = x - bundle.y  # difference the periodic displacement
        jac_fd = (np.roll(d, -1) - np.roll(d, 1)) / (2 * h) + 1.0
    else:
        jac_fd = np.gradient(x, h, edge_order=2)
    ref = np.abs(bundle.jac[it]).max()
    return float(np.abs(jac_fd - bundle.jac[it]).max() / max(ref, 1e-30))


def check_residual_nodes(nodes: int, time: float) -> None:
    """Raise StencilError at `time` when `nodes`, the march nodes above
    the Jacobian floor, are fewer than the residual's time stencil spans."""
    if nodes < RESIDUAL_STENCIL_NODES:
        raise StencilError(
            f"not enough march nodes above the Jacobian floor: {nodes}, "
            f"the time stencil needs {RESIDUAL_STENCIL_NODES}", time=time)


class HamiltonJacobiResidual:
    """Sup-norm residual of d_t phi + |grad phi|^2/2 + V on `x_grid`, taken
    during the ray march of `problem`: pass `add` as the `visit` of
    integrate_flow, then read `value()`.

    d_t phi is the fourth-order centred stencil over RESIDUAL_STENCIL_NODES
    consecutive nodes, one step apart, and grad phi is the transported
    momentum.  The check runs while min_y J stays above
    RESIDUAL_MIN_JACOBIAN and stops at the first node at or below it:
    closer to the caustic the time derivatives of the phase blow up and
    finite differencing is no longer meaningful.  The window holds the
    phase and momentum of the last nodes, values computed as each node
    arrives, never the nodes, whose arrays the march overwrites.
    """

    def __init__(self, problem: SemiclassicalProblem, x_grid: PeriodicGrid):
        self.grid, self.vvals = x_grid, problem.potential.value(x_grid.nodes)
        self.window = deque(maxlen=RESIDUAL_STENCIL_NODES)
        self.nodes, self.time, self.worst, self.floor = 0, None, 0.0, False

    def add(self, node: RayBundle) -> None:
        """Take one march node, a one-node bundle."""
        if self.floor or node.min_jacobian[0] <= RESIDUAL_MIN_JACOBIAN:
            self.floor = True
            return
        self.nodes, self.time = self.nodes + 1, float(node.times[0])
        lmap = invert_flow(node, self.time, self.grid)
        self.window.append((eikonal_phase(lmap).values, momentum_field(lmap)))
        if len(self.window) == RESIDUAL_STENCIL_NODES:
            (p0, _), (p1, _), (_, mom), (p3, _), (p4, _) = self.window
            dphi_dt = (-p4 + 8 * p3 - 8 * p1 + p0) / (12 * node.dt)
            res = np.abs(dphi_dt + 0.5 * mom ** 2 + self.vvals).max()
            self.worst = max(self.worst, float(res))

    def value(self) -> float:
        """The residual over the nodes taken; StencilError, at the last of
        them, when they are fewer than RESIDUAL_STENCIL_NODES."""
        check_residual_nodes(self.nodes, self.time)
        return self.worst

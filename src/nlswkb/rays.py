"""Hamiltonian ray tracing for the eikonal equation.

The phase d_t phi + |grad phi|^2/2 + V = 0, phi(0) = phi0, is solved by
characteristics: rays (x, xi) obey

    dx/dt = xi,          x(0) = y,
    dxi/dt = -grad V,    xi(0) = grad phi0(y),

together with the variational system M = grad_y x, Xi = grad_y xi,

    dM/dt = Xi,          M(0) = I,
    dXi/dt = -Hess V . M,  Xi(0) = Hess phi0(y),

and the action dS/dt = |xi|^2/2 - V, S(0) = phi0(y).  The Jacobian
J = det M starts at 1; the first time min_y J crosses a positive threshold
is the caustic horizon, beyond which the Eulerian phase stops existing and
label inversion refuses to run.

Inversion of the label-to-position map uses monotone bracketing plus
safeguarded Newton on a cubic Hermite interpolant of the stored map (values
x, slopes M), which is exact for affine maps (zero/harmonic potential with
zero/quadratic phase) and O(h^4) otherwise.  `invert_flow` runs it once per
(bundle, time, grid) and returns a `LabelMap` that carries any per-marker
series to the grid.  Off-marker evaluation of the
action uses the identity grad_y S = xi . M, and the Eulerian phase gradient
is the transported momentum xi(t, y(t, x)).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CausticError, DivergenceError, InversionError
from .fields import RealField, gradient_values, interpolate_periodic
from .grids import PeriodicGrid
from .potentials import map_is_affine, potential_is_periodic_compatible
from .problem import SemiclassicalProblem

DEFAULT_CAUSTIC_THRESHOLD = 0.1


@dataclass(frozen=True, eq=False)
class RayBundle:
    markers: PeriodicGrid
    y: np.ndarray        # (Nm, 1) labels; the trailing axes have size 1
    times: np.ndarray    # (M+1,)
    x: np.ndarray        # (M+1, Nm, 1)
    xi: np.ndarray       # (M+1, Nm, 1)
    mvar: np.ndarray     # (M+1, Nm, 1, 1)  grad_y x
    xivar: np.ndarray    # (M+1, Nm, 1, 1)  grad_y xi
    jac: np.ndarray      # (M+1, Nm)  mvar[..., 0, 0], the 1x1 determinant
    action: np.ndarray   # (M+1, Nm)
    problem: SemiclassicalProblem
    caustic_threshold: float
    t_caustic: float | None

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def time_index(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(
                f"t={t} is not a stored time node (nearest: {self.times[idx]}); "
                "choose dt so targets land on nodes"
            )
        return idx

    def min_jacobian(self) -> np.ndarray:
        return self.jac.min(axis=1)

    def is_periodic_compatible(self) -> bool:
        return (potential_is_periodic_compatible(self.problem.potential)
                and self.problem.phase.is_periodic_compatible())

    def is_affine(self) -> bool:
        return map_is_affine(self.problem.potential, self.problem.phase)


def _ray_rhs(potential, t, x, xi, mv, xiv, s):
    # s rides along: the action rate depends on (x, xi) only
    grad = potential.gradient(t, x)
    hess = potential.hessian(t, x)
    val = potential.value(t, x)
    dx = xi
    dxi = -grad
    dmv = xiv
    dxiv = -np.einsum("mab,mbc->mac", hess, mv)
    ds = 0.5 * np.sum(xi**2, axis=1) - val
    return dx, dxi, dmv, dxiv, ds


def integrate_ray_state(potential, x0, xi0, mv0, xiv0, s0, t0, t_final, dt):
    """Classic RK4 on the ray + variational + action system.

    Returns (times, x, xi, mvar, xivar, action) with every step stored.
    The step count is round((t_final - t0)/dt); dt is adjusted so the last
    node lands exactly on t_final.  Negative spans integrate backward.
    """
    span = t_final - t0
    n_steps = max(1, int(round(abs(span) / dt)))
    h = span / n_steps
    dim = x0.shape[1]
    nm = x0.shape[0]

    times = t0 + h * np.arange(n_steps + 1)
    xs = np.empty((n_steps + 1, nm, dim))
    xis = np.empty_like(xs)
    mvs = np.empty((n_steps + 1, nm, dim, dim))
    xivs = np.empty_like(mvs)
    ss = np.empty((n_steps + 1, nm))

    state = (x0.copy(), xi0.copy(), mv0.copy(), xiv0.copy(), s0.copy())
    xs[0], xis[0], mvs[0], xivs[0], ss[0] = state

    for n in range(n_steps):
        t = times[n]
        k1 = _ray_rhs(potential, t, *state)
        s2 = tuple(v + 0.5 * h * k for v, k in zip(state, k1))
        k2 = _ray_rhs(potential, t + 0.5 * h, *s2)
        s3 = tuple(v + 0.5 * h * k for v, k in zip(state, k2))
        k3 = _ray_rhs(potential, t + 0.5 * h, *s3)
        s4 = tuple(v + h * k for v, k in zip(state, k3))
        k4 = _ray_rhs(potential, t + h, *s4)
        state = tuple(
            v + (h / 6.0) * (a + 2 * b + 2 * c + d)
            for v, a, b, c, d in zip(state, k1, k2, k3, k4)
        )
        if not all(np.all(np.isfinite(v)) for v in state):
            raise DivergenceError("ray integration produced non-finite values",
                                  time=float(times[n + 1]))
        xs[n + 1], xis[n + 1], mvs[n + 1], xivs[n + 1], ss[n + 1] = state

    return times, xs, xis, mvs, xivs, ss


def integrate_flow(problem: SemiclassicalProblem, markers: PeriodicGrid,
                   t_final: float, dt: float,
                   caustic_threshold: float = DEFAULT_CAUSTIC_THRESHOLD) -> RayBundle:
    """Trace the marker-grid rays of `problem` up to t_final."""
    if not 0 < caustic_threshold < 1:
        raise ValueError(f"caustic threshold must lie in (0,1), got {caustic_threshold}")
    potential, phase = problem.potential, problem.phase
    potential.subquadratic_bound(markers)  # admissibility: finite Hessian on the box

    y = markers.nodes[0][:, None].copy()
    nm = y.shape[0]

    x0 = y.copy()
    xi0 = phase.gradient(y)
    mv0 = np.ones((nm, 1, 1))
    xiv0 = phase.hessian(y)
    s0 = phase.value(y)

    times, xs, xis, mvs, xivs, ss = integrate_ray_state(
        potential, x0, xi0, mv0, xiv0, s0, 0.0, t_final, dt)

    jac = mvs[..., 0, 0]
    t_caustic = _first_crossing(times, jac.min(axis=1), caustic_threshold)
    return RayBundle(markers=markers, y=y, times=times, x=xs, xi=xis, mvar=mvs,
                     xivar=xivs, jac=jac, action=ss, problem=problem,
                     caustic_threshold=caustic_threshold, t_caustic=t_caustic)


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


def caustic_time(bundle: RayBundle, threshold: float | None = None) -> float | None:
    """First time min_y J crosses the threshold, linearly interpolated.

    None means no crossing inside the integrated window.
    """
    thr = bundle.caustic_threshold if threshold is None else threshold
    if not 0 < thr < 1:
        raise ValueError(f"caustic threshold must lie in (0,1), got {thr}")
    return _first_crossing(bundle.times, bundle.min_jacobian(), thr)


# ---------------------------------------------------------------------------
# cubic Hermite machinery on the marker line


def _hermite_eval(u, h, f0, f1, d0, d1):
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

    def eval_series(self, values: np.ndarray, slopes: np.ndarray) -> np.ndarray:
        """Hermite-evaluate a per-marker series, given with its label
        slopes, at the located cells."""
        if self.bundle.is_periodic_compatible():
            values, slopes = np.append(values, values[0]), np.append(slopes, slopes[0])
        h = self.bundle.y[1, 0] - self.bundle.y[0, 0]
        c = self.cells
        return _hermite_eval(self.u, h, values[c], values[c + 1], slopes[c], slopes[c + 1])

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
                raise InversionError("series expected constant on an affine flow")
            return np.full(self.labels.shape, float(series[0]))
        if bundle.is_periodic_compatible():
            field = RealField(bundle.markers, series.reshape(bundle.markers.shape))
            return interpolate_periodic(field, self.labels)
        from scipy.interpolate import CubicSpline
        return CubicSpline(bundle.y[:, 0], series)(self.labels)


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
            f"t={t} is at or past the caustic horizon {bundle.t_caustic:.6g}")
    it = bundle.time_index(t)
    y, x, m = bundle.y[:, 0], bundle.x[it, :, 0], bundle.mvar[it, :, 0, 0]
    span = bundle.markers.lengths[0]
    periodic = bundle.is_periodic_compatible()
    if periodic:
        y, x, m = np.append(y, y[0] + span), np.append(x, x[0] + span), np.append(m, m[0])
    if not np.all(np.diff(x) > 0):
        raise InversionError(
            "stored ray map is not strictly increasing; past a caustic or "
            "marker grid too coarse")
    targets = x_grid.nodes[0]
    if periodic:
        reduced = x[0] + np.mod(targets - x[0], span)
    elif targets.min() < x[0] or targets.max() > x[-1]:
        raise InversionError(
            "target positions leave the stored ray map; enlarge the marker "
            "grid to cover the pulled-back box")
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
        val = _hermite_eval(u, h, f0, f1, d0, d1) - reduced
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
    worst = float(np.abs(_hermite_eval(u, h, f0, f1, d0, d1) - reduced).max())
    if worst > 1e-10 * scale:
        raise InversionError(
            f"Newton inversion did not reach tolerance (worst residual {worst:.3e})",
            worst_residual=worst)
    labels = y[cells] + u * h + (targets - reduced)
    return LabelMap(bundle=bundle, grid=x_grid, index=it, labels=labels,
                    cells=cells, u=u)


def eikonal_phase(lmap: LabelMap) -> RealField:
    """Eulerian phase phi(t, x) = S(t, y(t, x)), pre-caustic."""
    b, it = lmap.bundle, lmap.index
    # grad_y S = xi . M along the marker line
    slope = b.xi[it, :, 0] * b.mvar[it, :, 0, 0]
    svals = lmap.eval_series(b.action[it], slope)
    return RealField(lmap.grid, svals.reshape(lmap.grid.shape), role="eikonal-phase")


def momentum_field(lmap: LabelMap) -> np.ndarray:
    """Transported momentum xi(t, y(t, x)): the Eulerian phase gradient.

    Returns an array of shape (*grid.shape, 1).
    """
    b, it = lmap.bundle, lmap.index
    vals = lmap.eval_series(b.xi[it, :, 0], b.xivar[it, :, 0, 0])
    return vals.reshape(*lmap.grid.shape, 1)


def jacobian_at_labels(lmap: LabelMap) -> np.ndarray:
    """J(t, y(t, x)) on the Eulerian grid."""
    jvals = lmap.interp_series(lmap.bundle.jac[lmap.index])
    return jvals.reshape(lmap.grid.shape)


# ---------------------------------------------------------------------------
# consistency checks


def jacobian_consistency(bundle: RayBundle, t: float) -> float:
    """Max relative gap between J = d_y x and finite differences of x.

    Periodic-compatible displacements difference with wraparound; otherwise
    edges use one-sided second-order stencils.
    """
    it = bundle.time_index(t)
    h = bundle.markers.spacings[0]
    x = bundle.x[it, :, 0]
    if bundle.is_periodic_compatible():
        d = x - bundle.y[:, 0]  # difference the periodic displacement
        jac_fd = (np.roll(d, -1) - np.roll(d, 1)) / (2 * h) + 1.0
    else:
        jac_fd = np.gradient(x, h, edge_order=2)
    ref = np.abs(bundle.jac[it]).max()
    return float(np.abs(jac_fd - bundle.jac[it]).max() / max(ref, 1e-30))


def hamilton_jacobi_residual(bundle: RayBundle, x_grid: PeriodicGrid,
                             gradient: str = "momentum",
                             min_jacobian: float = 0.3,
                             stride: int = 1) -> float:
    """Sup-norm residual of d_t phi + |grad phi|^2/2 + V over checkable nodes.

    d_t uses a fourth-order centered stencil over stored nodes, so the check
    runs on interior nodes whose min-Jacobian stays above `min_jacobian`;
    closer to the caustic the time derivatives of the phase blow up and
    finite differencing is no longer meaningful.  `gradient` selects the
    transported momentum (valid for any fixture) or the spectral gradient
    of the phase field (valid when the phase is box-periodic).
    """
    if gradient not in ("momentum", "spectral"):
        raise ValueError(f"unknown gradient mode {gradient!r}")
    horizon = _first_crossing(bundle.times, bundle.min_jacobian(), min_jacobian)
    tmax = horizon if horizon is not None else np.inf
    usable = np.nonzero(bundle.times < tmax)[0]
    if len(usable) < 5:
        raise ValueError("not enough stored nodes below the Jacobian floor")
    last = usable[-1]
    idx = list(range(2, last - 1, stride))
    if not idx:
        raise ValueError("stride too large for the stored window")

    h = bundle.dt

    @functools.cache
    def label_map(i: int) -> LabelMap:
        return invert_flow(bundle, float(bundle.times[i]), x_grid)

    @functools.cache
    def phi(i: int) -> np.ndarray:
        return eikonal_phase(label_map(i)).values

    worst = 0.0
    for i in idx:
        dphi_dt = (-phi(i + 2) + 8 * phi(i + 1) - 8 * phi(i - 1) + phi(i - 2)) / (12 * h)
        if gradient == "momentum":
            mom = momentum_field(label_map(i))
            grad_sq = np.sum(mom**2, axis=-1)
        else:
            grads = gradient_values(x_grid, phi(i))
            grad_sq = sum(g**2 for g in grads)
        vvals = bundle.problem.potential.value(float(bundle.times[i]), x_grid.nodes[0])
        res = np.abs(dphi_dt + 0.5 * grad_sq + vvals).max()
        worst = max(worst, float(res))
    return worst

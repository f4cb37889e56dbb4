"""Problem container: one semiclassical Cauchy problem on a periodic box,
and the helpers that every solver shares: the check of a time step, the
fixed-step march (its step count, store schedule and checked loop) and
its one in-place RK4 step, stored-time lookup, drift of a conserved
series, and the row bookkeeping of the marches (the row check and the
stack of a sweep's rows).

The equation solved throughout the package is

    i eps d_t u + (eps^2/2) Lap u = V u + eps^kappa |u|^2 u,
    u(0, x) = (a0 + eps a1)(x) exp(i phi0(x) / eps),

with kappa in {0, 1, 2} selecting the coupling regime.  Fractional kappa in
(0, 1) is rejected: those regimes need different machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, ResolutionError
from .fields import ComplexField, RealField
from .grids import PeriodicGrid
from .potentials import InitialPhaseSpec, PotentialSpec

SUPPORTED_KAPPA = (0.0, 1.0, 2.0)

TAIL_TOL = 1e-8
"""The largest power fraction a checked state may keep in the band its
march watches.  nls checks ~grid.dealias_mask, the upper third of the
spectrum: the split-step march keeps every mode, so a fast phase that
outruns the grid shows there first.  phase_amplitude checks
grid.kept_band_top, the top third of the band its 2/3-rule dealiasing
keeps: every stage zeroes the modes above that band."""


def check_dt(dt: float) -> None:
    """Refuse a time step that is not positive and finite (nan included)."""
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"dt must be positive, got {dt}")


class March:
    """A fixed-step march over `span`: `steps` steps of h = span / steps,
    where steps is |span| / dt rounded up, at least one, so the march
    lands exactly on span (backward for a negative span) in steps never
    longer than dt.  A ratio within 1e-12 above a whole number rounds
    down, the one slack of that bound, so a dt that divides the span up
    to roundoff keeps its own count.  Every solver takes its step count
    and step from here.  It stores step 0, every `store_every`-th step and
    the last step, each once; `nodes` counts them."""

    def __init__(self, span: float, dt: float, store_every: int = 1):
        check_dt(dt)
        if store_every < 1:
            raise ConfigError(f"store_every must be at least 1, got {store_every}")
        self.steps = max(1, math.ceil(abs(span) / dt - 1e-12))
        self.h, self.every = span / self.steps, store_every
        self.nodes = self.steps // store_every + 1 + (self.steps % store_every > 0)

    def time(self, n: int, start: float = 0.0) -> float:
        """The time of step n from `start`; the added start keeps the first
        node of a backward march at +0.0, where n h alone is -0.0."""
        return start + n * self.h

    def run(self, step, check, store) -> None:
        """The march: check(0), then per step n = 1, ..., steps step() and
        check(n), and store(n) after the check of each stored step.  A
        check raises its error, or returns False once no sweep row is left,
        which ends the march."""
        for n in range(self.steps + 1):
            if n:
                step()
            if not check(n):
                return
            if n % self.every == 0 or n == self.steps:
                store(n)


def rk4(rhs, state, h, work) -> None:
    """One classical RK4 step, written into the tuple of arrays `state`, of
    the autonomous system whose right-hand side rhs(*state, out=rates)
    writes its rates into the arrays `rates`.  Each stage state is
    v + (c h) k; the weighted sum k1 + 2 k2 + 2 k3 + k4 is accumulated in
    that order as each stage ends, and v += (h/6) sum.  The stage states,
    the stage rates and the sums are work(name, shape, dtype) arrays, so a
    march that keeps them allocates no array per step."""
    total, k, stage = (tuple(work(f"{role} {i}", v.shape, v.dtype)
                             for i, v in enumerate(state))
                       for role in ("sum", "rate", "stage"))
    rhs(*state, out=total)
    prev = total
    for c, w in ((0.5, 2), (0.5, 2), (1.0, 1)):
        for v, s, r in zip(state, stage, prev):
            np.add(v, np.multiply(c * h, r, out=s), out=s)
        rhs(*stage, out=k)
        for t, s, r in zip(total, stage, k):
            t += np.multiply(w, r, out=s)
        prev = k
    for v, t in zip(state, total):
        v += np.multiply(h / 6, t, out=t)


def time_index(times: np.ndarray, t: float) -> int:
    """Index of the stored time nearest to t, which must lie within
    1e-9 * max(1, |t|) of it (ValueError otherwise)."""
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(
            f"t={t} is not a stored time node (nearest: {times[idx]}); "
            "choose dt so targets land on nodes"
        )
    return idx


def grid_mass(grid: PeriodicGrid, values: np.ndarray) -> float:
    """The integral of |values|^2 over the box, the mass a march stores."""
    return grid.spacing * float(np.sum(np.abs(values) ** 2))


def relative_drift(series: np.ndarray) -> float:
    """Largest departure of a conserved series from its first value,
    relative to that value."""
    ref = max(abs(series[0]), 1e-300)
    return float(np.abs(series - series[0]).max() / ref)


class StoredStates:
    """The stored `states` of a march's solution: final() is the last one;
    state_at(t) and mass_drift() read their `times` and `mass`."""

    def final(self):
        return self.states[-1]

    def state_at(self, t: float):
        return self.states[time_index(self.times, t)]

    def mass_drift(self) -> float:
        return relative_drift(self.mass)


@dataclass(frozen=True)
class RowCheck:
    """A march's check of one row of its state, the arrays `row`, in the
    march's words: a non-finite row fails with DivergenceError(diverged),
    else a row whose tail fraction exceeds TAIL_TOL with
    ResolutionError(unresolved), its {tail} and {tol} fields filled in.
    Both carry the eps and time."""
    diverged: str
    unresolved: str = ""

    def error(self, time, eps, row, tail=0.0):
        if not all(np.isfinite(v).all() for v in row):
            return DivergenceError(self.diverged, time=time, eps=eps)
        if tail > TAIL_TOL:
            return ResolutionError(self.unresolved.format(tail=tail, tol=TAIL_TOL),
                                   time=time, eps=eps)
        return None


class RowStack:
    """The problems of a sweep, on one grid, as the rows of one stack:
    `rows` holds the problem index of each stack row, `nodes` the tuples a
    problem's march stores, `outcomes` the error of each problem whose row
    failed, and each array attribute the march sets one stack row per
    index of its first axis."""

    def __init__(self, problems: list[SemiclassicalProblem]):
        if not problems:
            raise ConfigError("a sweep needs at least one problem")
        if any(p.grid != problems[0].grid for p in problems):
            raise ConfigError("the problems of a sweep must share one grid")
        self.problems = problems
        self.rows = list(range(len(problems)))
        self.nodes = [[] for _ in problems]
        self.outcomes = [None] * len(problems)

    def check(self, rule: RowCheck, times, tails, buffers, at=None) -> np.ndarray:
        """Run `rule` on the stack rows `at` (a mask; all by default) of
        `buffers`, with one item of times and tails each; record each
        failure as its problem's outcome and drop its row.  Returns the
        kept mask."""
        checked = range(len(self.rows)) if at is None else np.flatnonzero(at)
        failed = np.zeros(len(self.rows), dtype=bool)
        for r, t, tail in zip(checked, times, tails):
            i = self.rows[r]
            self.outcomes[i] = rule.error(t, self.problems[i].eps,
                                          [buf[r] for buf in buffers], tail)
            failed[r] = self.outcomes[i] is not None
        return self.drop(failed) if failed.any() else ~failed

    def drop(self, leaving: np.ndarray) -> np.ndarray:
        """Take the stack rows `leaving` (a mask) off the stack: the kept
        rows move to the front of every buffer, which shrinks to a view of
        them, so no buffer is allocated again.  Returns the kept mask."""
        keep = ~leaving
        m = int(keep.sum())
        for name, buf in vars(self).items():
            if isinstance(buf, np.ndarray):
                buf[:m] = buf[keep]
                vars(self)[name] = buf[:m]
        self.rows = [i for i, k in zip(self.rows, keep) if k]
        return keep

    def results(self, build) -> list:
        """One outcome per problem i: its error, or else build(i, *columns)
        of the columns of its nodes."""
        return [build(i, *zip(*self.nodes[i])) if out is None else out
                for i, out in enumerate(self.outcomes)]


def gaussian_field(grid: PeriodicGrid, width: float = 1.0, amplitude: float = 1.0,
                   center: float = 0.0, role: str = "") -> ComplexField:
    """amplitude * exp(-((x - center)/width)^2), the stock data profile.

    Schwartz-class, so periodization error on boxes with L >= 16*width is
    below double precision.
    """
    arg = ((grid.nodes - float(center)) / width) ** 2
    return ComplexField(grid, amplitude * np.exp(-arg), role=role)


@dataclass(frozen=True, eq=False)
class SemiclassicalProblem:
    eps: float
    kappa: float
    a0: ComplexField
    a1: ComplexField | None = None
    potential: PotentialSpec = PotentialSpec.zero()
    phase: InitialPhaseSpec = InitialPhaseSpec.zero()

    def __post_init__(self):
        if not (np.isfinite(self.eps) and 0 < self.eps <= 1):
            raise ConfigError(f"eps must lie in (0, 1], got {self.eps}")
        if float(self.kappa) not in SUPPORTED_KAPPA:
            raise ConfigError(
                f"kappa must be one of {SUPPORTED_KAPPA} (fractional orders in (0,1) "
                f"are out of scope), got {self.kappa}"
            )
        if self.a1 is not None and self.a1.grid != self.a0.grid:
            raise ConfigError("the amplitude correction must share the a0 grid")
        object.__setattr__(self, "eps", float(self.eps))
        object.__setattr__(self, "kappa", float(self.kappa))

    @property
    def grid(self) -> PeriodicGrid:
        return self.a0.grid

    def initial_amplitude(self) -> ComplexField:
        """a0 + eps a1, or a0 alone without a correction."""
        vals = self.a0.values.copy()
        if self.a1 is not None:
            vals = vals + self.eps * self.a1.values
        return ComplexField(self.grid, vals, role="initial-amplitude")

    def initial_phase_field(self) -> RealField:
        return RealField(self.grid, self.phase.value(self.grid.nodes),
                         role="initial-phase")

    def initial_state(self) -> ComplexField:
        phi0 = self.initial_phase_field()
        u0 = self.initial_amplitude().values * np.exp(1j * phi0.values / self.eps)
        return ComplexField(self.grid, u0, role="initial-state")

    def potential_field(self) -> RealField:
        return RealField(self.grid, self.potential.value(self.grid.nodes),
                         role="potential")

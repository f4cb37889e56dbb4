"""Experiment drivers: convergence sweeps, the instability demonstration,
norm-growth tracking, the small-time ODE window, and one-shot solver runs.

Every driver consumes an ExperimentConfig (usually parsed from JSON),
returns an ExperimentResult holding a JSON-ready report, plot-ready CSV
rows, and optional field dumps, and never touches the filesystem itself;
artifact writing lives in the reporting module so a failed run leaves no
partial output behind.  Sweeps run their eps values serially, in config
order.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import nls, phase_amplitude, rays, taylor, wkb
from .errors import ConfigError, ResolutionError
from .fields import ComplexField, l2_linf_norm, lp_norm, sobolev_norm
from .fitting import fit_power_law
from .grids import PeriodicGrid
from .potentials import InitialPhaseSpec, PotentialSpec
from .problem import SemiclassicalProblem, gaussian_field

KINDS = ("converge", "instability", "normgrowth", "odewindow", "single")
CONVERGE_TARGETS = ("supercritical_leading", "supercritical_corrector",
                    "critical", "subcritical", "skew_free")
SINGLE_SOLVERS = ("rays", "wkb", "grenier", "nls")
# drivers whose solver steps at a fixed dt: the default when time.rule is not
# "fixed", keyed by (kind, solver) for single runs and (kind, target) else
_FIXED_STEP_DEFAULTS = {
    ("single", "rays"): 1e-3,
    ("single", "grenier"): 2e-3,
    ("converge", "supercritical_leading"): 2e-3,
    ("converge", "supercritical_corrector"): 2e-3,
    ("converge", "skew_free"): 2.5e-3,
}
# drivers that integrate rays next to an NLS solve step them to t_final in
# this many steps, whatever the eps
_RAY_STEPS = 64
_RAY_DRIVERS = (("single", "wkb"), ("converge", "critical"),
                ("converge", "subcritical"))
_SKEW_FREE_TIMES = (0.05, 0.1, 0.2, 0.3)
_ODE_POWERS = (0.6, 0.45, 0.3, 0.2)
_INSTABILITY_OUTPUTS = 8


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class FieldSpecConfig:
    """Selector for one profile of initial data."""
    shape: str = "gaussian"       # gaussian | constant | zero
    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0
    imaginary: bool = False
    chirp: float = 0.0

    def validate(self, label: str) -> None:
        if self.shape not in ("gaussian", "constant", "zero"):
            raise ConfigError(f"{label}.shape must be gaussian/constant/zero, "
                              f"got {self.shape!r}")
        if self.shape == "gaussian" and self.width <= 0:
            raise ConfigError(f"{label}.width must be positive")
        # an unenveloped quadratic phase is not periodic on the box
        if self.chirp != 0.0 and self.shape != "gaussian":
            raise ConfigError(f"{label}.chirp needs a gaussian envelope")

    def build(self, grid: PeriodicGrid, role: str) -> ComplexField:
        if self.shape == "zero":
            return ComplexField.zeros(grid, role=role)
        if self.shape == "constant":
            vals = np.full(grid.shape, complex(self.amplitude))
        else:
            vals = gaussian_field(grid, width=self.width, amplitude=self.amplitude,
                                  center=self.center, role=role).values.astype(complex)
            if self.chirp != 0.0:
                arg = (grid.nodes[0] - self.center) ** 2
                vals = vals * np.exp(1j * self.chirp * arg)
        if self.imaginary:
            vals = 1j * vals
        return ComplexField(grid, vals, role=role)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    eps: tuple[float, ...]
    kappa: float = 0.0
    grid_length: float = 32.0
    grid_size: int = 1024
    a0: FieldSpecConfig = field(default_factory=FieldSpecConfig)
    a1: FieldSpecConfig | None = None
    b0: FieldSpecConfig | None = None
    potential_kind: str = "zero"          # zero | cosine
    potential_amplitude: float = 0.0
    potential_cycles: int = 1
    phase_kind: str = "zero"              # zero | quadratic
    phase_curvature: float = 0.0
    target: str | None = None             # converge only
    solver: str | None = None             # single only
    variant: str = "full"                 # single grenier run
    t_final: float = 0.2
    schedule: tuple[float, ...] | None = None
    dt: float | None = None
    dt_rule: str = "eps_over"             # eps_over | fixed
    dt_factor: float = 50.0
    sobolev_orders: tuple[int, ...] = (0, 1, 2)
    alpha: float = 0.5
    time_factor: float = 2.0
    window_order: int = 2
    taylor_order: int = 2
    m_orders: tuple[int, ...] = (1, 2)
    resolution_const: float = 0.25
    exponent_n: int = 3
    exponent_s: float = 0.25
    exponent_k: float = 0.25
    max_resolution_doublings: int = 2
    output_dir: str | None = None
    dump_fields: bool = False

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not self.eps:
            raise ConfigError("eps list is empty")
        eps = self.eps
        if any(e <= 0 or e > 1 for e in eps):
            raise ConfigError("eps values must lie in (0, 1]")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("eps list must be strictly decreasing")
        if self.kappa not in (0.0, 1.0, 2.0):
            raise ConfigError("kappa must be 0, 1 or 2")
        if self.grid_length <= 0 or self.grid_size < 8:
            raise ConfigError("grid must have positive length and size >= 8")
        if self.grid_size & (self.grid_size - 1):
            raise ConfigError("grid size must be a power of two")
        self.a0.validate("a0")
        if self.a1 is not None:
            self.a1.validate("a1")
        if self.b0 is not None:
            self.b0.validate("b0")
        if self.potential_kind not in ("zero", "cosine"):
            raise ConfigError("potential kind must be zero or cosine")
        if self.phase_kind not in ("zero", "quadratic"):
            raise ConfigError("phase kind must be zero or quadratic")
        if self.dt_rule not in ("eps_over", "fixed"):
            raise ConfigError("dt rule must be eps_over or fixed")
        if self.dt_rule == "fixed" and (self.dt is None or self.dt <= 0):
            raise ConfigError("fixed dt rule needs a positive dt")
        if self.dt_rule == "eps_over" and self.dt_factor <= 0:
            raise ConfigError("dt factor must be positive")
        if self.t_final <= 0:
            raise ConfigError("t_final must be positive")
        if self.kind == "converge":
            if self.target not in CONVERGE_TARGETS:
                raise ConfigError(
                    f"converge target must be one of {CONVERGE_TARGETS}")
            expected_kappa = {"supercritical_leading": 0.0,
                              "supercritical_corrector": 0.0,
                              "skew_free": 0.0,
                              "critical": 1.0,
                              "subcritical": 2.0}[self.target]
            if self.kappa != expected_kappa:
                raise ConfigError(
                    f"target {self.target} requires kappa={expected_kappa}")
            if self.target == "supercritical_corrector" and self.a1 is None:
                raise ConfigError("corrector target needs a1 data")
        if self.kind == "single" and self.solver not in SINGLE_SOLVERS:
            raise ConfigError(f"single runs need solver in {SINGLE_SOLVERS}")
        if self.kind == "instability":
            self._validate_flat("instability")
            if self.b0 is None:
                raise ConfigError("instability needs a b0 perturbation profile")
            if self.window_order < 2:
                raise ConfigError("window order must be >= 2")
            if not 0 < self.alpha <= 1.0 - 1.0 / self.window_order:
                raise ConfigError(
                    "alpha must satisfy 0 < alpha <= 1 - 1/window_order so the "
                    "perturbation dominates the eps scale")
            if not 1 <= self.taylor_order <= taylor.MAX_ORDER:
                raise ConfigError("taylor order out of range")
        if self.kind == "normgrowth":
            self._validate_flat("normgrowth")
            needed = int(np.ceil(self.resolution_const * self.grid_length
                                 / min(self.eps)))
            if self.grid_size < needed:
                raise ConfigError(
                    f"normgrowth at eps={min(self.eps)} needs grid size >= "
                    f"{needed} (rule N >= {self.resolution_const}*L/eps)")
            # probe the exponent algebra arguments early
            flow_exponents(self.exponent_n, self.exponent_s, self.exponent_k)
        if self.kind == "odewindow":
            self._validate_flat("odewindow")
            if not 1 <= self.taylor_order <= taylor.MAX_ORDER:
                raise ConfigError("taylor order out of range")

    def _validate_flat(self, label: str) -> None:
        if self.kappa != 0.0:
            raise ConfigError(f"{label} runs require kappa=0")
        if self.potential_kind != "zero" or self.phase_kind != "zero":
            raise ConfigError(f"{label} runs require V=0 and zero initial phase")

    # -- construction ------------------------------------------------------

    def grid(self, size: int | None = None) -> PeriodicGrid:
        return PeriodicGrid.line(self.grid_length, size or self.grid_size)

    def potential(self) -> PotentialSpec:
        if self.potential_kind == "zero":
            return PotentialSpec.zero()
        return PotentialSpec.cosine(self.potential_amplitude, self.grid_length,
                                    self.potential_cycles)

    def phase(self) -> InitialPhaseSpec:
        if self.phase_kind == "zero":
            return InitialPhaseSpec.zero()
        return InitialPhaseSpec.quadratic(np.array([[self.phase_curvature]]))

    def problem(self, eps: float, size: int | None = None,
                with_a1: bool = True) -> SemiclassicalProblem:
        grid = self.grid(size)
        a0 = self.a0.build(grid, role="initial-amplitude")
        a1 = None
        if with_a1 and self.a1 is not None:
            a1 = self.a1.build(grid, role="amplitude-correction-1")
        return SemiclassicalProblem(eps=eps, kappa=self.kappa, a0=a0, a1=a1,
                                    potential=self.potential(), phase=self.phase())

    def resolve_dt(self, eps: float) -> float:
        if self.dt_rule == "fixed":
            return float(self.dt)
        return eps / self.dt_factor

    def stepping_dt(self, eps: float) -> float:
        """The dt the driver passes to its time-stepping solver at this eps.

        That solver is the ray integrator for single rays runs, the
        phase-amplitude march for single grenier runs and the kappa = 0
        convergence targets, and the split-step NLS solve for every other
        driver.  The first group ignores eps and takes time.dt only under
        the "fixed" rule; the NLS drivers follow `resolve_dt`.
        """
        if self.solves_nls:
            return self.resolve_dt(eps)
        default = _FIXED_STEP_DEFAULTS[self._step_key]
        return self.dt if self.dt_rule == "fixed" else default

    @property
    def ray_dt(self) -> float | None:
        """The dt of the driver's ray integration, or None when it integrates
        no rays: stepping_dt for single rays runs, t_final / _RAY_STEPS for
        the drivers that compare an NLS solve with a WKB approximant."""
        if self._step_key == ("single", "rays"):
            return self.stepping_dt(self.eps[0])
        if self._step_key in _RAY_DRIVERS:
            return self.t_final / _RAY_STEPS
        return None

    @property
    def _step_key(self) -> tuple[str, str]:
        return (self.kind, self.solver if self.kind == "single" else self.target)

    @property
    def solves_nls(self) -> bool:
        """True when the driver's time-stepping solver is the split-step NLS
        solve (see stepping_dt)."""
        return self._step_key not in _FIXED_STEP_DEFAULTS

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        raw = asdict(self)
        out = {
            "kind": raw.pop("kind"),
            "eps": list(raw.pop("eps")),
            "kappa": raw.pop("kappa"),
            "grid": {"length": raw.pop("grid_length"),
                     "size": raw.pop("grid_size")},
            "data": {"a0": raw.pop("a0"),
                     "a1": raw.pop("a1"),
                     "b0": raw.pop("b0")},
            "potential": {"kind": raw.pop("potential_kind"),
                          "amplitude": raw.pop("potential_amplitude"),
                          "cycles": raw.pop("potential_cycles")},
            "phase": {"kind": raw.pop("phase_kind"),
                      "curvature": raw.pop("phase_curvature")},
            "time": {"final": raw.pop("t_final"),
                     "schedule": (list(self.schedule)
                                  if self.schedule is not None else None),
                     "dt": raw.pop("dt"),
                     "rule": raw.pop("dt_rule"),
                     "factor": raw.pop("dt_factor")},
            "norms": {"sobolev_orders": list(raw.pop("sobolev_orders")),
                      "m_orders": list(raw.pop("m_orders"))},
            "instability": {"alpha": raw.pop("alpha"),
                            "time_factor": raw.pop("time_factor"),
                            "window_order": raw.pop("window_order"),
                            "taylor_order": raw.pop("taylor_order")},
            "growth": {"resolution_const": raw.pop("resolution_const"),
                       "exponents": {"n": raw.pop("exponent_n"),
                                     "s": raw.pop("exponent_s"),
                                     "k": raw.pop("exponent_k")},
                       "max_resolution_doublings":
                           raw.pop("max_resolution_doublings")},
            "target": raw.pop("target"),
            "solver": raw.pop("solver"),
            "variant": raw.pop("variant"),
            "output": {"dir": raw.pop("output_dir"),
                       "dump_fields": raw.pop("dump_fields")},
        }
        raw.pop("schedule")
        if raw:
            raise RuntimeError(f"unserialized config fields: {sorted(raw)}")
        return out


_FIELD_KEYS = {"shape", "amplitude", "width", "center", "imaginary", "chirp"}


def _field_spec(node, label: str) -> FieldSpecConfig | None:
    if node is None:
        return None
    if not isinstance(node, dict):
        raise ConfigError(f"{label} must be an object or null")
    extra = set(node) - _FIELD_KEYS
    if extra:
        raise ConfigError(f"unknown keys in {label}: {sorted(extra)}")
    return FieldSpecConfig(**{k: node[k] for k in node})


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Parse the nested JSON schema into a flat config; unknown keys are
    rejected so typos cannot silently disable a knob."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    known = {"kind", "eps", "kappa", "grid", "data", "potential", "phase",
             "time", "norms", "instability", "growth", "target", "solver",
             "variant", "output"}
    extra = set(raw) - known
    if extra:
        raise ConfigError(f"unknown top-level config keys: {sorted(extra)}")

    def section(name: str, keys: set[str]) -> dict:
        node = raw.get(name) or {}
        if not isinstance(node, dict):
            raise ConfigError(f"{name} must be an object")
        bad = set(node) - keys
        if bad:
            raise ConfigError(f"unknown keys in {name}: {sorted(bad)}")
        return node

    grid = section("grid", {"length", "size"})
    data = section("data", {"a0", "a1", "b0"})
    pot = section("potential", {"kind", "amplitude", "cycles"})
    phase = section("phase", {"kind", "curvature"})
    time = section("time", {"final", "schedule", "dt", "rule", "factor"})
    norms = section("norms", {"sobolev_orders", "m_orders"})
    instab = section("instability", {"alpha", "time_factor", "window_order",
                                     "taylor_order"})
    growth = section("growth", {"resolution_const", "exponents",
                                "max_resolution_doublings"})
    expo = growth.get("exponents") or {}
    if set(expo) - {"n", "s", "k"}:
        raise ConfigError("growth.exponents allows keys n, s, k only")
    out = section("output", {"dir", "dump_fields"})

    if "kind" not in raw:
        raise ConfigError("config is missing 'kind'")
    if "eps" not in raw:
        raise ConfigError("config is missing 'eps'")
    eps = raw["eps"]
    if not isinstance(eps, (list, tuple)):
        raise ConfigError("eps must be a list")

    defaults = ExperimentConfig(kind="single", eps=(1.0,), solver="nls")
    schedule = time.get("schedule")
    cfg = ExperimentConfig(
        kind=raw["kind"],
        eps=tuple(float(e) for e in eps),
        kappa=float(raw.get("kappa", defaults.kappa)),
        grid_length=float(grid.get("length", defaults.grid_length)),
        grid_size=int(grid.get("size", defaults.grid_size)),
        a0=_field_spec(data.get("a0", {"shape": "gaussian"}), "a0"),
        a1=_field_spec(data.get("a1"), "a1"),
        b0=_field_spec(data.get("b0"), "b0"),
        potential_kind=pot.get("kind", defaults.potential_kind),
        potential_amplitude=float(pot.get("amplitude", 0.0)),
        potential_cycles=int(pot.get("cycles", 1)),
        phase_kind=phase.get("kind", defaults.phase_kind),
        phase_curvature=float(phase.get("curvature", 0.0)),
        target=raw.get("target"),
        solver=raw.get("solver"),
        variant=raw.get("variant", defaults.variant),
        t_final=float(time.get("final", defaults.t_final)),
        schedule=(tuple(float(t) for t in schedule)
                  if schedule is not None else None),
        dt=(float(time["dt"]) if time.get("dt") is not None else None),
        dt_rule=time.get("rule", defaults.dt_rule),
        dt_factor=float(time.get("factor", defaults.dt_factor)),
        sobolev_orders=tuple(int(s) for s in
                             norms.get("sobolev_orders", defaults.sobolev_orders)),
        alpha=float(instab.get("alpha", defaults.alpha)),
        time_factor=float(instab.get("time_factor", defaults.time_factor)),
        window_order=int(instab.get("window_order", defaults.window_order)),
        taylor_order=int(instab.get("taylor_order", defaults.taylor_order)),
        m_orders=tuple(int(m) for m in norms.get("m_orders", defaults.m_orders)),
        resolution_const=float(growth.get("resolution_const",
                                          defaults.resolution_const)),
        exponent_n=int(expo.get("n", defaults.exponent_n)),
        exponent_s=float(expo.get("s", defaults.exponent_s)),
        exponent_k=float(expo.get("k", defaults.exponent_k)),
        max_resolution_doublings=int(growth.get("max_resolution_doublings",
                                                defaults.max_resolution_doublings)),
        output_dir=out.get("dir"),
        dump_fields=bool(out.get("dump_fields", False)),
    )
    cfg.validate()
    return cfg


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply CLI --set key.path=value pairs onto the raw config dict.

    Values parse as JSON when possible and fall back to plain strings, so
    --set time.final=0.3 and --set target=critical both work.
    """
    import json

    out = {k: v for k, v in raw.items()}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        path, text = item.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        keys = path.split(".")
        node = out
        for k in keys[:-1]:
            nxt = node.get(k)
            if not isinstance(nxt, dict):
                nxt = {}
            node[k] = dict(nxt)
            node = node[k]
        node[keys[-1]] = value
    return out


# ---------------------------------------------------------------------------
# result container and small helpers


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    report: dict
    csv_rows: list
    field_dumps: list   # (name, field, time) triples

    @property
    def passed(self) -> bool:
        return bool(self.report.get("passed", False))


def _verdict(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _finish(kind: str, config: ExperimentConfig, body: dict,
            verdicts: list[dict], rows: list, dumps: list) -> ExperimentResult:
    report = {"kind": kind, "config": config.to_dict(), "verdicts": verdicts,
              "passed": all(v["passed"] for v in verdicts)}
    report.update(body)
    return ExperimentResult(report=report, csv_rows=rows, field_dumps=dumps)


def flow_exponents(n: int, s: float, k: float) -> dict:
    """Growth exponent of compensated Sobolev norms under the oscillatory
    rescaling: e(n, s, k) = s - k - k(n/2 - 1 - s), computed in the factored
    form s - k(n/2 - s) so e vanishes exactly at the window boundary
    k = k_lower = s/(n/2 - s).  The norm diverges along the family iff
    e < 0 with k_lower < k <= s."""
    if int(n) != n or n < 3:
        raise ConfigError("dimension n must be an integer >= 3")
    n = int(n)
    if not 0 < s < n / 2 - 1:
        raise ConfigError("s must satisfy 0 < s < n/2 - 1")
    half = n / 2 - s
    k_lower = s / half
    exponent = s - k * half
    diverges = bool(exponent < 0 and k_lower < k <= s)
    return {"exponent": float(exponent), "diverges": diverges,
            "k_lower": float(k_lower)}


# ---------------------------------------------------------------------------
# convergence driver


def _fit_block(eps_used, errors, expected: float, window: tuple[float, float],
               min_points: int = 4) -> dict:
    block = {"eps": list(eps_used), "errors": list(errors),
             "expected_slope": expected,
             "window": [window[0], window[1]]}
    if len(eps_used) < min_points:
        block.update({"slope": None, "intercept": None, "r2": None,
                      "passed": False,
                      "note": f"fewer than {min_points} resolved points"})
        return block
    fit = fit_power_law(eps_used, errors, min_points=min_points)
    block.update({"slope": fit.slope, "intercept": fit.intercept,
                  "r2": fit.r2,
                  "passed": bool(window[0] <= fit.slope <= window[1])})
    return block


def run_convergence(config: ExperimentConfig) -> ExperimentResult:
    config.validate()
    target = config.target
    if target in ("supercritical_leading", "supercritical_corrector"):
        return _run_supercritical_convergence(config)
    if target == "skew_free":
        return _run_skew_free_convergence(config)
    return _run_profile_convergence(config)


def _run_supercritical_convergence(config: ExperimentConfig) -> ExperimentResult:
    t = config.t_final
    dt = config.stepping_dt(config.eps[0])
    orders = config.sobolev_orders
    corrector_mode = config.target == "supercritical_corrector"

    limit_problem = config.problem(config.eps[0], with_a1=False)
    limit = phase_amplitude.solve_phase_amplitude(
        limit_problem, t, dt, variant="limit", store_every=1)
    corr = None
    if corrector_mode:
        grid = config.grid()
        a1 = config.a1.build(grid, role="amplitude-correction-1")
        corr = phase_amplitude.solve_corrector(limit, a1).final()
    lim = limit.final()

    outcomes = phase_amplitude.solve_phase_amplitude_sweep(
        [config.problem(eps) for eps in config.eps], t, dt, variant="full",
        store_every=max(1, int(round(t / dt))))

    def one(eps, traj):
        if isinstance(traj, ResolutionError):
            return {"eps": eps, "resolved": False, "detail": str(traj)}
        if isinstance(traj, Exception):
            raise traj
        st = traj.final()
        row = {"eps": eps, "resolved": True, "mass_drift": traj.mass_drift(),
               "errors": {}}
        for s in orders:
            if corrector_mode:
                da = st.a - lim.a - (eps * corr.a1)
                dphi_vals = (st.phi.values - lim.phi.values
                             - eps * corr.phi1.values)
            else:
                da = st.a - lim.a
                dphi_vals = st.phi.values - lim.phi.values
            dphi = type(st.phi)(st.grid, dphi_vals, role="phase-gap")
            row["errors"][s] = {"a": sobolev_norm(da, s),
                                "phi": sobolev_norm(dphi, s)}
        return row

    rows = [one(eps, traj) for eps, traj in zip(config.eps, outcomes)]
    resolved = [r for r in rows if r["resolved"]]
    eps_used = [r["eps"] for r in resolved]

    verdicts = []
    fits = {}
    csv_rows = []
    if corrector_mode:
        expected, window = 2.0, (1.7, 2.3)
        sums = [sum(r["errors"][s]["a"] + r["errors"][s]["phi"]
                    for s in orders) for r in resolved]
        fits["corrector_combined"] = _fit_block(eps_used, sums, expected, window)
        verdicts.append(_verdict(
            "corrector_combined_slope", fits["corrector_combined"]["passed"],
            f"slope {fits['corrector_combined'].get('slope')} in {window}"))
        for r in resolved:
            for s in orders:
                csv_rows.append((r["eps"], s, "corrector_a_H",
                                 r["errors"][s]["a"]))
                csv_rows.append((r["eps"], s, "corrector_phi_H",
                                 r["errors"][s]["phi"]))
    else:
        expected, window = 1.0, (0.8, 1.2)
        for s in orders:
            a_errs = [r["errors"][s]["a"] for r in resolved]
            phi_errs = [r["errors"][s]["phi"] / t for r in resolved]
            fits[f"a_H{s}"] = _fit_block(eps_used, a_errs, expected, window)
            fits[f"phi_H{s}_over_t"] = _fit_block(eps_used, phi_errs,
                                                  expected, window)
            verdicts.append(_verdict(
                f"amplitude_H{s}_slope", fits[f"a_H{s}"]["passed"],
                f"slope {fits[f'a_H{s}'].get('slope')} in {window}"))
            verdicts.append(_verdict(
                f"phase_H{s}_slope", fits[f"phi_H{s}_over_t"]["passed"],
                f"slope {fits[f'phi_H{s}_over_t'].get('slope')} in {window}"))
        for r in resolved:
            for s in orders:
                csv_rows.append((r["eps"], s, "a_H", r["errors"][s]["a"]))
                csv_rows.append((r["eps"], s, "phi_H_over_t",
                                 r["errors"][s]["phi"] / t))
    flagged = [r["eps"] for r in rows if not r["resolved"]]
    if flagged:
        verdicts.append(_verdict("resolution", False,
                                 f"under-resolved eps excluded: {flagged}"))
    body = {"t": t, "dt": dt, "per_eps": rows, "fits": fits,
            "under_resolved": flagged}
    return _finish("converge", config, body, verdicts, csv_rows, [])


def _run_skew_free_convergence(config: ExperimentConfig) -> ExperimentResult:
    times = list(config.schedule or _SKEW_FREE_TIMES)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError("schedule must be strictly increasing")
    dt = config.stepping_dt(config.eps[0])
    for tt in times:
        steps = tt / dt
        if abs(steps - round(steps)) > 1e-9:
            raise ConfigError(f"dt {dt} does not divide schedule time {tt}")
    orders = config.sobolev_orders

    problems = [config.problem(eps, with_a1=False) for eps in config.eps]
    n_first = int(round(times[0] / dt))
    fulls = phase_amplitude.solve_phase_amplitude_sweep(
        problems, times[-1], dt, variant="full", store_every=n_first)
    frees = phase_amplitude.solve_phase_amplitude_sweep(
        problems, times[-1], dt, variant="skew_free", store_every=n_first)

    def one(eps, full, free):
        for traj in (full, free):
            if isinstance(traj, Exception):
                raise traj
        row = {"eps": eps, "errors": {}}
        for tt in times:
            sf = full.state_at(tt)
            sk = free.state_at(tt)
            gap = type(sf.phi)(sf.grid, sf.phi.values - sk.phi.values,
                               role="phase-gap")
            row["errors"][tt] = {s: sobolev_norm(gap, s) for s in orders}
        return row

    rows = [one(*row) for row in zip(config.eps, fulls, frees)]
    eps_used = [r["eps"] for r in rows]
    t_ref = times[-1]

    fits = {}
    verdicts = []
    csv_rows = []
    for s in orders:
        errs = [r["errors"][t_ref][s] for r in rows]
        fits[f"eps_slope_H{s}"] = _fit_block(eps_used, errs, 1.0, (0.8, 1.2))
        verdicts.append(_verdict(
            f"eps_slope_H{s}", fits[f"eps_slope_H{s}"]["passed"],
            f"slope {fits[f'eps_slope_H{s}'].get('slope')} in (0.8, 1.2)"))
    for r in rows:
        t_errs = [r["errors"][tt][orders[0]] for tt in times]
        key = f"t_slope_H{orders[0]}_eps{r['eps']:g}"
        fits[key] = _fit_block(times, t_errs, 2.0, (1.7, 2.3),
                               min_points=min(4, len(times)))
        verdicts.append(_verdict(key, fits[key]["passed"],
                                 f"t-slope {fits[key].get('slope')} in (1.7, 2.3)"))
    for r in rows:
        for tt in times:
            for s in orders:
                csv_rows.append((r["eps"], s, f"phi_gap_H_t{tt:g}",
                                 r["errors"][tt][s]))
    body = {"times": times, "dt": dt, "per_eps": rows, "fits": fits,
            "under_resolved": []}
    return _finish("converge", config, body, verdicts, csv_rows, [])


def _run_profile_convergence(config: ExperimentConfig) -> ExperimentResult:
    """Critical (kappa=1) and sub-critical (kappa=2) profile comparisons in
    the combined L2/Linf metric."""
    t = config.t_final
    critical = config.target == "critical"
    problems = [config.problem(eps, with_a1=False) for eps in config.eps]
    solutions = nls.solve_nls_sweep(
        problems, t, [config.stepping_dt(eps) for eps in config.eps])

    def one(eps, problem, sol):
        if isinstance(sol, ResolutionError):
            return {"eps": eps, "resolved": False, "detail": str(sol)}
        if isinstance(sol, Exception):
            raise sol
        bundle = rays.integrate_flow(problem, problem.a0.grid, t,
                                     dt=config.ray_dt)
        approx = wkb.build_approximant(problem, bundle, t,
                                       include_modulation=critical)
        diff = sol.final() - approx.assemble()
        row = {"eps": eps, "resolved": True, "error": l2_linf_norm(diff),
               "mass_drift": sol.mass_drift(),
               "energy_drift": sol.energy_drift()}
        if not critical:
            with_mod = wkb.build_approximant(problem, bundle, t,
                                             include_modulation=True)
            shift = with_mod.assemble() - approx.assemble()
            row["modulation_size"] = l2_linf_norm(shift)
        return row

    rows = [one(*row) for row in zip(config.eps, problems, solutions)]
    resolved = [r for r in rows if r["resolved"]]
    errors = [r["error"] for r in resolved]
    a0_field = config.a0.build(config.grid(), role="initial-amplitude")
    ref_norm = l2_linf_norm(a0_field)

    verdicts = []
    monotone = all(b < a for a, b in zip(errors, errors[1:]))
    verdicts.append(_verdict("error_decreases", monotone,
                             f"errors across eps grid: {errors}"))
    threshold = 0.05 * ref_norm
    small = bool(errors and errors[-1] < threshold)
    verdicts.append(_verdict(
        "final_error_small", small,
        f"error {errors[-1] if errors else None} vs 0.05*|a0| = {threshold}"))
    if not critical:
        budget_ok = all(r["modulation_size"] <= r["error"] for r in resolved)
        verdicts.append(_verdict(
            "modulation_below_error", budget_ok,
            "slow-phase correction stays below the measured error"))
    flagged = [r["eps"] for r in rows if not r["resolved"]]
    if flagged:
        verdicts.append(_verdict("resolution", False,
                                 f"under-resolved eps excluded: {flagged}"))
    csv_rows = [(r["eps"], "", "profile_L2Linf", r["error"]) for r in resolved]
    if not critical:
        csv_rows += [(r["eps"], "", "modulation_L2Linf", r["modulation_size"])
                     for r in resolved]
    body = {"t": t, "per_eps": rows, "reference_norm": ref_norm,
            "fits": {}, "under_resolved": flagged}
    return _finish("converge", config, body, verdicts, csv_rows, [])


# ---------------------------------------------------------------------------
# instability driver


def _instability_outputs(t_eps: float) -> list[float]:
    """Output times of both instability solves: _INSTABILITY_OUTPUTS equal
    segments ending at t_eps."""
    n = _INSTABILITY_OUTPUTS
    return [t_eps * (j + 1) / n for j in range(n)]


def run_instability(config: ExperimentConfig) -> ExperimentResult:
    config.validate()
    if config.kind != "instability":
        raise ConfigError("config kind must be instability")
    c = config.time_factor

    def one(eps):
        delta = eps ** config.alpha
        t_eps = c * eps / delta
        horizon = taylor.validity_horizon(eps, config.taylor_order)
        flagged = bool(t_eps >= horizon)
        size = config.grid_size
        attempt = 0
        while True:
            grid = PeriodicGrid.line(config.grid_length, size)
            a0 = config.a0.build(grid, role="initial-amplitude")
            b0 = config.b0.build(grid, role="perturbation")
            polar = np.abs((np.conj(a0.values) * b0.values).real).max()
            if polar < 1e-12:
                raise ConfigError(
                    "perturbation is not polarized along a0 "
                    "(Re(conj(a0) b0) vanishes); no phase response expected")
            tilde_vals = a0.values + delta * b0.values
            a_tilde = ComplexField(grid, tilde_vals, role="perturbed-amplitude")
            base = SemiclassicalProblem(eps=eps, kappa=0.0, a0=a0)
            pert = SemiclassicalProblem(eps=eps, kappa=0.0, a0=a_tilde)
            outputs = _instability_outputs(t_eps)
            dt = config.stepping_dt(eps)
            pair = nls.solve_nls_sweep([base, pert], t_eps, [dt, dt],
                                       output_times=outputs)
            # the first failure in (base, pert) order is the one the two
            # solves run one after the other would raise
            exc = next((o for o in pair if isinstance(o, Exception)), None)
            if exc is None:
                break
            if not isinstance(exc, ResolutionError):
                raise exc
            attempt += 1
            if attempt > config.max_resolution_doublings:
                raise ResolutionError(
                    f"instability run still under-resolved at N={size}: "
                    f"{exc}", time=exc.time, eps=eps) from exc
            size *= 2
        sol_u, sol_v = pair

        separations = []
        for tt in outputs:
            diff = sol_u.state_at(tt) - sol_v.state_at(tt)
            separations.append(lp_norm(diff, 2))
        data_gap = ComplexField(grid, delta * b0.values, role="data-gap")
        distances = {s: sobolev_norm(data_gap, s)
                     for s in config.sobolev_orders}
        sup_sep = max(separations)
        ratios = {s: sup_sep / distances[s] for s in distances}

        # analytic prediction, compared where the phase argument is O(1)
        cal_idx = max(0, int(round(_INSTABILITY_OUTPUTS / (2 * c))) - 1)
        t_cal = outputs[cal_idx]
        pred = wkb.separation_profile(a0, a_tilde, delta, eps, t_cal)
        pred_norm = lp_norm(pred, 2)
        meas = separations[cal_idx]
        agreement = abs(meas - pred_norm) / meas if meas > 0 else np.inf

        return {"eps": eps, "delta": delta, "t_eps": t_eps,
                "window_horizon": horizon, "window_flagged": flagged,
                "grid_size_used": size, "output_times": outputs,
                "separations": separations, "separation_final": separations[-1],
                "separation_sup": sup_sep, "initial_distances": distances,
                "ratios": ratios, "prediction_time": t_cal,
                "prediction_norm": pred_norm, "prediction_agreement": agreement,
                "mass_drift": max(sol_u.mass_drift(), sol_v.mass_drift())}

    rows = [one(eps) for eps in config.eps]
    eps_list = [r["eps"] for r in rows]
    finals = [r["separation_final"] for r in rows]
    verdicts = []

    floor = 0.5 * finals[0]
    stays_up = all(f >= floor for f in finals)
    verdicts.append(_verdict(
        "separation_persists", stays_up,
        f"separations {finals} vs 0.5x largest-eps value {floor}"))

    s_ref = 1 if 1 in config.sobolev_orders else config.sobolev_orders[0]
    dists = [r["initial_distances"][s_ref] for r in rows]
    fit = _fit_block(eps_list, dists, config.alpha,
                     (config.alpha - 0.05, config.alpha + 0.05))
    verdicts.append(_verdict(
        f"data_distance_H{s_ref}_slope", fit["passed"],
        f"H^{s_ref} distance slope {fit.get('slope')} vs {config.alpha} +- 0.05"))

    ratio_rows = [r["ratios"][s_ref] for r in rows]
    ratio_monotone = all(b > a for a, b in zip(ratio_rows, ratio_rows[1:]))
    verdicts.append(_verdict(
        "blowup_ratio_monotone", ratio_monotone,
        f"sup-separation / H^{s_ref} data distance: {ratio_rows}"))

    # two gaps separate the run from the analytic profile: a bounded shape
    # mismatch (the profile's sin(theta) vs the exact 2 sin(theta/2), about
    # 11% at the calibration time) and O(delta) dropped data terms; the 20%
    # band only accommodates both once the perturbation itself is small
    small = [r for r in rows if r["delta"] <= 0.15]
    agreements = [r["prediction_agreement"] for r in small]
    agree_ok = all(a <= 0.2 for a in agreements)
    verdicts.append(_verdict(
        "prediction_agreement", agree_ok,
        f"relative gap to the analytic profile at t*delta/eps=O(1), "
        f"runs with delta <= 0.15: {agreements}"))

    csv_rows = []
    for r in rows:
        csv_rows.append((r["eps"], "", "separation_final", r["separation_final"]))
        csv_rows.append((r["eps"], "", "separation_sup", r["separation_sup"]))
        for s in config.sobolev_orders:
            csv_rows.append((r["eps"], s, "initial_distance_H",
                             r["initial_distances"][s]))
            csv_rows.append((r["eps"], s, "blowup_ratio", r["ratios"][s]))
        csv_rows.append((r["eps"], "", "prediction_agreement",
                         r["prediction_agreement"]))
    body = {"per_eps": rows, "fits": {f"distance_H{s_ref}": fit},
            "window_flagged": [r["eps"] for r in rows if r["window_flagged"]]}
    return _finish("instability", config, body, verdicts, csv_rows, [])


# ---------------------------------------------------------------------------
# norm growth driver


def run_norm_growth(config: ExperimentConfig) -> ExperimentResult:
    config.validate()
    if config.kind != "normgrowth":
        raise ConfigError("config kind must be normgrowth")
    t = config.t_final
    grid = config.grid()
    a0 = config.a0.build(grid, role="initial-amplitude")
    initial_norms = {m: sobolev_norm(a0, m, homogeneous=True)
                     for m in config.m_orders}

    solutions = nls.solve_nls_sweep(
        [config.problem(eps, with_a1=False) for eps in config.eps], t,
        [config.stepping_dt(eps) for eps in config.eps])

    def one(eps, sol):
        if isinstance(sol, Exception):
            raise sol
        state = sol.final()
        norms = {m: sobolev_norm(state, m, homogeneous=True)
                 for m in config.m_orders}
        return {"eps": eps, "norms": norms,
                "compensated": {m: eps**m * norms[m] for m in norms},
                "mass": lp_norm(state, 2), "mass_drift": sol.mass_drift()}

    rows = [one(*row) for row in zip(config.eps, solutions)]
    verdicts = []
    spreads = {}
    for m in config.m_orders:
        vals = [r["compensated"][m] for r in rows]
        spread = max(vals) / min(vals)
        spreads[m] = spread
        verdicts.append(_verdict(
            f"compensated_spread_m{m}", spread <= 4.0,
            f"eps^{m}*Hdot^{m} ratios {vals}, max/min {spread:.3f} <= 4"))

    masses = [r["mass"] for r in rows]
    mass_spread = max(masses) - min(masses)
    verdicts.append(_verdict(
        "mass_eps_independent", mass_spread <= 1e-10 * max(masses),
        f"L2 at probe time across eps: spread {mass_spread:.3e}"))

    exponents = flow_exponents(config.exponent_n, config.exponent_s,
                               config.exponent_k)
    csv_rows = []
    for r in rows:
        for m in config.m_orders:
            csv_rows.append((r["eps"], m, "Hdot_norm", r["norms"][m]))
            csv_rows.append((r["eps"], m, "compensated", r["compensated"][m]))
        csv_rows.append((r["eps"], "", "mass", r["mass"]))
    body = {"t": t, "per_eps": rows, "initial_norms": initial_norms,
            "spreads": spreads, "exponents": exponents}
    return _finish("normgrowth", config, body, verdicts, csv_rows, [])


# ---------------------------------------------------------------------------
# ODE window driver


def run_ode_window(config: ExperimentConfig) -> ExperimentResult:
    config.validate()
    if config.kind != "odewindow":
        raise ConfigError("config kind must be odewindow")
    powers = list(config.schedule or _ODE_POWERS)
    if any(b >= a for a, b in zip(powers, powers[1:])):
        raise ConfigError("schedule lists decreasing eps-powers (increasing times)")
    grid = config.grid()
    a0 = config.a0.build(grid, role="initial-amplitude")
    ref_norm = lp_norm(a0, 2)
    coeffs = taylor.taylor_phase_coefficients(a0, order=1)

    def one(eps):
        times = [eps**p for p in powers]
        problem = config.problem(eps, with_a1=False)
        sol = nls.solve_nls(problem, times[-1], dt=config.stepping_dt(eps),
                            output_times=times)
        errors = []
        for tt in times:
            u1 = taylor.assemble_uK(coeffs, eps, tt, order=1)
            errors.append(lp_norm(sol.state_at(tt) - u1, 2))
        return {"eps": eps, "times": times, "errors": errors,
                "mass_drift": sol.mass_drift()}

    rows = [one(eps) for eps in config.eps]
    verdicts = []
    for r in rows:
        first_three = r["errors"][:3]
        mono = all(b > a for a, b in zip(first_three, first_three[1:]))
        verdicts.append(_verdict(
            f"error_grows_eps{r['eps']:g}", mono,
            f"L2 errors across the window {r['errors']}"))
        verdicts.append(_verdict(
            f"start_small_eps{r['eps']:g}", r["errors"][0] <= 0.25 * ref_norm,
            f"error {r['errors'][0]:.3e} at t=eps^{powers[0]}"))
        verdicts.append(_verdict(
            f"end_order_one_eps{r['eps']:g}", r["errors"][-1] >= 0.25 * ref_norm,
            f"error {r['errors'][-1]:.3e} at t=eps^{powers[-1]}"))
    csv_rows = []
    for r in rows:
        for p, tt, err in zip(powers, r["times"], r["errors"]):
            csv_rows.append((r["eps"], "", f"ode_error_p{p:g}", err))
    body = {"powers": powers, "per_eps": rows}
    return _finish("odewindow", config, body, verdicts, csv_rows, [])


# ---------------------------------------------------------------------------
# single-run drivers


def run_single(config: ExperimentConfig) -> ExperimentResult:
    config.validate()
    if config.kind != "single":
        raise ConfigError("config kind must be single")
    eps = config.eps[0]
    problem = config.problem(eps)
    dumps = []

    if config.solver == "rays":
        bundle = rays.integrate_flow(problem, problem.a0.grid,
                                     config.t_final, dt=config.stepping_dt(eps))
        residual = rays.hamilton_jacobi_residual(bundle, problem.a0.grid)
        consistency = rays.jacobian_consistency(bundle, config.t_final)
        verdicts = [
            _verdict("eikonal_residual", residual <= 1e-6,
                     f"sup residual {residual:.3e} <= 1e-6"),
            _verdict("jacobian_consistency", consistency <= 1e-6,
                     f"relative defect {consistency:.3e} <= 1e-6"),
        ]
        body = {"eps": eps, "caustic_time": bundle.t_caustic,
                "min_jacobian": [float(bundle.jac[i].min())
                                 for i in range(len(bundle.times))][::10],
                "hamilton_jacobi_residual": residual,
                "jacobian_consistency": consistency}
        rows = [(eps, "", "hj_residual", residual),
                (eps, "", "jacobian_consistency", consistency)]
        return _finish("single", config, body, verdicts, rows, dumps)

    if config.solver == "wkb":
        t = config.t_final
        bundle = rays.integrate_flow(problem, problem.a0.grid, t,
                                     dt=config.ray_dt)
        approx = wkb.build_approximant(problem, bundle, t)
        sol = nls.solve_nls(problem, t, dt=config.stepping_dt(eps))
        err = l2_linf_norm(sol.final() - approx.assemble())
        verdicts = []
        body = {"eps": eps, "t": t, "error_L2Linf": err,
                "regime": approx.regime, "horizon": approx.horizon,
                "mass_drift": sol.mass_drift()}
        rows = [(eps, "", "profile_L2Linf", err)]
        if config.dump_fields:
            dumps = [("wkb_approximant", approx.assemble(), t),
                     ("reference_state", sol.final(), t)]
        return _finish("single", config, body, verdicts, rows, dumps)

    if config.solver == "grenier":
        traj = phase_amplitude.solve_phase_amplitude(
            problem, config.t_final, config.stepping_dt(eps),
            variant=config.variant)
        drift = traj.mass_drift()
        tol = 1e-8 if config.variant != "full" else 1e-6
        verdicts = [_verdict("mass_conservation", drift <= tol,
                             f"relative drift {drift:.3e} <= {tol:g}")]
        body = {"eps": eps, "variant": config.variant, "dt": traj.dt,
                "mass_drift": drift,
                "tail_fraction_max": float(traj.tail_fraction.max())}
        if config.variant == "limit":
            res = phase_amplitude.euler_residual(traj)
            body["euler_residual"] = res
        rows = [(eps, "", "mass_drift", drift)]
        if config.dump_fields:
            st = traj.final()
            dumps = [("amplitude", st.a, st.time), ("phase", st.phi, st.time)]
        return _finish("single", config, body, verdicts, rows, dumps)

    # nls
    sol = nls.solve_nls(problem, config.t_final, dt=config.stepping_dt(eps))
    verdicts = [
        _verdict("mass_conservation", sol.mass_drift() <= 1e-10,
                 f"relative drift {sol.mass_drift():.3e} <= 1e-10"),
        _verdict("energy_drift", sol.energy_drift() <= 1e-6,
                 f"relative drift {sol.energy_drift():.3e} <= 1e-6"),
    ]
    body = {"eps": eps, "t": config.t_final, "mass_drift": sol.mass_drift(),
            "energy_drift": sol.energy_drift(), "dt": sol.dt}
    rows = [(eps, "", "mass_drift", sol.mass_drift()),
            (eps, "", "energy_drift", sol.energy_drift())]
    if config.dump_fields:
        dumps = [("reference_state", sol.final(), config.t_final)]
    return _finish("single", config, body, verdicts, rows, dumps)


_DISPATCH = {"converge": run_convergence, "instability": run_instability,
             "normgrowth": run_norm_growth, "odewindow": run_ode_window,
             "single": run_single}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    return _DISPATCH[config.kind](config)


def dry_run_plan(config: ExperimentConfig) -> dict:
    """Resolved execution plan without any solving: per-eps step counts and
    grid sizes, for --dry-run."""
    config.validate()
    plan = []
    for eps in config.eps:
        dt = config.stepping_dt(eps)
        entry = {"eps": eps, "dt": dt, "grid_size": config.grid_size}
        if config.kind == "instability":
            delta = eps ** config.alpha
            entry["delta"] = delta
            entry["t_eps"] = config.time_factor * eps / delta
            outputs = _instability_outputs(entry["t_eps"])
            entry["steps"] = sum(nls.segment_steps(outputs, dt))
        elif config.kind == "odewindow":
            entry["times"] = [eps**p for p in config.schedule or _ODE_POWERS]
            entry["steps"] = sum(nls.segment_steps(entry["times"], dt))
        elif config.target == "skew_free":
            times = config.schedule or _SKEW_FREE_TIMES
            entry["steps"] = int(np.ceil(times[-1] / dt))
        elif config.solves_nls:
            entry["steps"] = sum(nls.segment_steps([config.t_final], dt))
        else:
            entry["steps"] = int(np.ceil(config.t_final / dt))
        if config.ray_dt is not None:
            entry["ray_dt"] = config.ray_dt
        plan.append(entry)
    return {"kind": config.kind, "target": config.target,
            "solver": config.solver, "config": config.to_dict(), "plan": plan}

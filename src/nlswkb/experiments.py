"""Experiment drivers: convergence sweeps, the instability demonstration,
norm-growth tracking, the small-time ODE window, and one-shot solver runs.

The table `DRIVERS` holds one `Driver` record per value of
ExperimentConfig.driver.  The config schema (config.py) and the run plan
(plan.py) derive their rules from it, so this module imports neither.
A driver is an ordered tuple of named stages, whose bodies live in
stages.py and instability.py.  `run_experiment(config, plan)`, the one
runner, calls them in order on the plan that `Plan.build` made of the
config.

A run returns an ExperimentResult holding a JSON-ready report, plot-ready
CSV rows, and optional field dumps, and never touches the filesystem
itself; artifact writing lives in the reporting module so a failed run
leaves no partial output behind.  Sweeps run their eps values in config
order.  After the solve stage the runner raises the first failed solve,
except that the supercritical, critical and subcritical drivers record an
under-resolved eps and go on.  An error that leaves a stage names it.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np

from . import instability, stages
from .errors import ConfigError, stage
from .fields import sobolev_norm
from .instability import NORMGROWTH_ORDERS
from .problem import SUPPORTED_KAPPA
from .stages import _flag_unresolved, _raise_failed, _verdict

# Driver.checks: the checks of one driver's config; the rules of the method
NORMGROWTH_RESOLUTION = 0.25  # a normgrowth grid needs N >= this * L / min(eps)


def _needs_a1(config: ExperimentConfig) -> None:
    if config.data.a1 is None:
        raise ConfigError("corrector target needs a1 data")


def _check_instability(config: ExperimentConfig) -> None:
    b0 = config.data.b0
    if b0 is None:
        raise ConfigError("instability needs a b0 perturbation profile")
    # 0.5 = 1 - 1/2, the bound of the window of order 2
    if not 0 < config.instability.alpha <= 0.5:
        raise ConfigError("alpha must satisfy 0 < alpha <= 0.5 so the "
                          "perturbation dominates the eps scale")
    # on a doubled grid the nodes of this one are kept, so a perturbation
    # polarized here stays polarized after every doubling
    problem = config.problem(config.eps[0])
    polar = (np.conj(problem.a0.values)
             * b0.build(problem.grid, role="perturbation").values).real
    if np.abs(polar).max() < 1e-12:
        raise ConfigError(
            "perturbation is not polarized along a0 "
            "(Re(conj(a0) b0) vanishes); no phase response expected")


def _check_normgrowth(config: ExperimentConfig) -> None:
    eps = min(config.eps)
    needed = int(np.ceil(NORMGROWTH_RESOLUTION * config.grid.build().length / eps))
    if config.grid.size < needed:
        raise ConfigError(
            f"normgrowth at eps={eps} needs grid size >= "
            f"{needed} (rule N >= {NORMGROWTH_RESOLUTION}*L/eps)")
    # each compensated spread divides by these norms
    a0 = config.problem(eps).a0
    if not all(sobolev_norm(a0, m, homogeneous=True) for m in NORMGROWTH_ORDERS):
        raise ConfigError("normgrowth needs a nonconstant a0: the Hdot^m norms of a "
                          "zero or constant profile vanish")


@dataclass(frozen=True)
class Driver:
    """One value of ExperimentConfig.driver: the stages that run it and the
    rules that check its config and plan its run.  stages is the ordered
    tuple of (name, body) pairs that run_experiment calls in turn, each
    body(config, plan, run) as stages.py describes: a "rays" stage if the
    driver traces rays, a "solve" stage, after which the runner applies the
    failure rule to its sweeps, and a "measure" stage.  flags: the failure
    rule records an under-resolved eps instead of raising its error.  csv:
    the errors.csv rows that the runner reads off the report body, as
    (label, body path) pairs (see _csv_rows).  march_dt is the dt of its
    one eps-independent march, which divides each time of its schedule
    (None: the NLS solve at eps / nls.STEPS_PER_EPS); times is "final",
    "schedule", "eps_powers" (eps^p for the schedule's powers p) or
    "instability"; rays is "march" (the rays are its march) or "wkb" (rays
    to t in 64 steps)."""
    kind: str                           # the config kind that runs it
    stages: tuple[tuple[str, Callable], ...]
    kappas: tuple[float, ...] | None    # the kappa it accepts; None: unread
    csv: tuple[tuple[str, str], ...] = ()
    flags: bool = False                 # records an under-resolved eps
    flat: bool = False                  # needs V=0 and zero initial phase
    march_dt: float | None = None
    times: str = "final"
    schedule: tuple[float, ...] | None = None  # "schedule" times, "eps_powers" powers
    rays: str | None = None
    # other keys it reads that some driver does not
    keys: tuple[str, ...] = ()
    checks: tuple[Callable, ...] = ()   # checks(config) of its own config


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    report: dict
    csv_rows: list
    field_dumps: list   # (name, field, time) triples

    @property
    def passed(self) -> bool:
        return bool(self.report.get("passed", False))


def _csv_rows(body: dict, table) -> list:
    """The errors.csv rows (eps, s, label, value) of a report body: for each
    (label, path) of a driver's csv table, the values at the dotted `path`
    in each per-eps row of the body (the body itself for a single run); a
    row that lacks a key of the path has none.  A "*" in the path stands
    for every key of a dict: the key of the last "*" fills the s column
    ("" without one), the keys of any earlier ones format label."""
    def leaves(node, path, keys=()):
        if not path:
            return [(keys, node)]
        if path[0] == "*":
            return [leaf for key, child in node.items()
                    for leaf in leaves(child, path[1:], keys + (key,))]
        return leaves(node[path[0]], path[1:], keys) if path[0] in node else []

    return [(row["eps"], keys[-1] if keys else "", label.format(*keys[:-1]), value)
            for label, path in table for row in body.get("per_eps", [body])
            for keys, value in leaves(row, path.split("."))]


# ---------------------------------------------------------------------------
# the drivers, one record per value of ExperimentConfig.driver; their order
# is that of the solvers and targets in NAMED and of the CLI subcommands

DRIVERS = {
    "rays": Driver("single", stages.RAYS, None, march_dt=1e-3, rays="march",
                   csv=(("hj_residual", "hamilton_jacobi_residual"),
                        ("jacobian_consistency", "jacobian_consistency"))),
    "wkb": Driver("single", stages.WKB, (1.0, 2.0), rays="wkb",
                  csv=(("profile_L2Linf", "error_L2Linf"),),
                  keys=("data.a1", "output.dump_fields")),
    "grenier": Driver("single", stages.GRENIER, (0.0,), march_dt=2e-3,
                      csv=(("mass_drift", "mass_drift"),),
                      keys=("output.dump_fields",)),
    "nls": Driver("single", stages.NLS, SUPPORTED_KAPPA,
                  csv=(("mass_drift", "mass_drift"), ("energy_drift", "energy_drift")),
                  keys=("data.a1", "output.dump_fields")),
    "supercritical_leading": Driver(
        "converge", stages.SUPERCRITICAL, (0.0,), march_dt=2e-3, flags=True,
        csv=(("a_H", "errors.*.a"),), keys=("data.a1",)),
    "supercritical_corrector": Driver(
        "converge", stages.SUPERCRITICAL, (0.0,), march_dt=2e-3, flags=True,
        csv=(("corrector_a_H", "errors.*.a"), ("corrector_phi_H", "errors.*.phi")),
        keys=("data.a1",), checks=(_needs_a1,)),
    "critical": Driver("converge", stages.PROFILE, (1.0,), rays="wkb", flags=True,
                       csv=(("profile_L2Linf", "error"),)),
    "subcritical": Driver("converge", stages.PROFILE, (2.0,), rays="wkb", flags=True,
                          csv=(("profile_L2Linf", "error"),
                               ("modulation_L2Linf", "modulation_size"))),
    "skew_free": Driver("converge", stages.SKEW_FREE, (0.0,), march_dt=2.5e-3,
                        times="schedule", schedule=(0.05, 0.1, 0.2, 0.3),
                        csv=(("phi_gap_H_t{:g}", "errors.*.*"),)),
    "instability": Driver(
        "instability", instability.INSTABILITY, (0.0,), times="instability",
        keys=("data.b0", "instability.alpha"), flat=True, checks=(_check_instability,),
        csv=(("separation_final", "separation_final"),
             ("separation_sup", "separation_sup"),
             ("prediction_agreement", "prediction_agreement"),
             ("initial_distance_H", "initial_distances.*"), ("blowup_ratio", "ratios.*"))),
    "normgrowth": Driver(
        "normgrowth", instability.NORMGROWTH, (0.0,), flat=True,
        checks=(_check_normgrowth,),
        csv=(("mass", "mass"), ("Hdot_norm", "norms.*"), ("compensated", "compensated.*"))),
    "odewindow": Driver("odewindow", instability.ODEWINDOW, (0.0,), times="eps_powers",
                        schedule=(0.6, 0.45, 0.3, 0.2), flat=True),
}


KINDS = tuple(sorted({d.kind for d in DRIVERS.values()}))
# kind -> the key that selects its driver; a kind of one driver has none
SELECTORS = {"single": "solver", "converge": "target"}
# selector key -> the drivers it names, in table order
NAMED = {key: tuple(name for name, d in DRIVERS.items() if d.kind == kind)
         for kind, key in SELECTORS.items()}


def run_experiment(config: ExperimentConfig, plan: Plan) -> ExperimentResult:
    """Run the driver of `config`, a config from `config_from_dict`, on
    `plan`, which `Plan.build` made of it: call the bodies of its stages in
    order on one shared namespace.  An NlswkbError that leaves a stage
    carries the stage's name as its `stage`.  Right after the solve stage
    the runner applies the failure rule to the outcomes of its sweeps: it
    raises the first failed one in config order, or for a driver that
    flags, records each under-resolved eps, which adds a failed
    "resolution" verdict.  The field dumps are kept under
    output.dump_fields."""
    driver = DRIVERS[config.driver]
    run = SimpleNamespace(sweeps=(), flagged=[], verdicts=[], fits={}, csv_rows=[], dumps=())
    for name, body in driver.stages:
        with stage(name):
            body(config, plan, run)
            if name == "solve" and driver.flags:
                _flag_unresolved(config.eps, run)
            elif name == "solve":
                _raise_failed(*run.sweeps)
    if run.flagged:
        run.verdicts.append(_verdict("resolution", False,
                                     f"under-resolved eps excluded: {run.flagged}"))
    report = {"kind": config.kind, "config": asdict(config), "verdicts": run.verdicts,
              "passed": all(v["passed"] for v in run.verdicts), **run.body}
    rows = _csv_rows(run.body, driver.csv) + run.csv_rows
    dumps = list(run.dumps) if config.output.dump_fields else []
    return ExperimentResult(report=report, csv_rows=rows, field_dumps=dumps)

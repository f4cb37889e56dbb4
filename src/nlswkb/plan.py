"""The run plan: per eps, the dt, output times and step count of the
driver's time stepper, the ray dt, and the instability scales and grid
ladder, worked out before any solve.  Building it makes every check a run
makes before its first solve.  The CLI builds it once and prints it
(--dry-run, through `plan_json`) or hands that same object to
`experiments.run_experiment`, whose driver takes its steps from it.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import reduce

from . import nls, rays
from .config import DEFAULTS, ExperimentConfig
from .errors import ConfigError, stage
from .experiments import DRIVERS, SELECTORS
from .instability import INSTABILITY_TIME_FACTOR
from .problem import March

INSTABILITY_DOUBLINGS = 2     # the grid doublings an instability eps may move to


@dataclass(frozen=True)
class EpsPlan:
    """What a run does at one eps."""
    eps: float
    dt: float                       # dt of the driver's time stepper
    grid_size: int                  # the grid it starts on
    times: tuple[float, ...]        # output times; the solve stops at the last
    steps: int                      # steps the stepper takes to times[-1]
    ray_dt: float | None = None     # dt of the ray integration, if any
    delta: float | None = None      # instability: perturbation size eps^alpha
    t_eps: float | None = None      # instability: final time 2 eps / delta
    grid_ladder: tuple[int, ...] | None = None  # instability: grid_size and its doublings


@dataclass(frozen=True)
class Plan:
    """The steps of a whole run, one EpsPlan per eps in config order, worked
    out before any solve.  Every driver reads its dt, output times, scales
    and grids from it, and --dry-run prints it."""
    rows: tuple[EpsPlan, ...]
    # the driver's Driver.schedule; None for drivers without one
    schedule: tuple[float, ...] | None = None

    @property
    def dts(self) -> list[float]:
        return [row.dt for row in self.rows]

    @classmethod
    @stage("plan")
    def build(cls, config: ExperimentConfig) -> Plan:
        """Plan `config`, a config from `config_from_dict`; raises ConfigError
        for a key the driver does not read or output times it cannot run, and
        StencilError for a ray march that stores fewer nodes than its
        residual's time stencil spans, each of stage "plan".  A caustic
        before that many nodes is left to the run, which alone traces the
        rays."""
        driver = config.driver
        spec = DRIVERS[driver]
        # a key that only some drivers read must keep its default when this
        # driver does not, so that setting it cannot look like it changed
        # the run; every key not listed here is read by every driver
        reads = {**{key: key in spec.keys for other in DRIVERS.values()
                    for key in other.keys},
                 "kappa": spec.kappas is not None,
                 **{key: spec.kind == kind for kind, key in SELECTORS.items()},
                 "time.final": spec.times == "final"}
        for path, read in reads.items():
            value, default = (reduce(getattr, path.split("."), c)
                              for c in (config, DEFAULTS))
            if not read and value != default:
                raise ConfigError(f"{path} is not read by the {driver} driver; "
                                  "leave it out")
        rows = []
        for eps in config.eps:
            scales = {}
            if spec.times == "instability":
                delta = eps ** config.instability.alpha
                t_eps = INSTABILITY_TIME_FACTOR * eps / delta
                times = tuple(t_eps * (j + 1) / 8 for j in range(8))
                ladder = tuple(config.grid.size << k
                               for k in range(INSTABILITY_DOUBLINGS + 1))
                scales = {"delta": delta, "t_eps": t_eps, "grid_ladder": ladder}
            elif spec.times == "eps_powers":
                times = tuple(eps**p for p in spec.schedule)
            elif spec.times == "schedule":
                times = spec.schedule
            else:
                times = (config.time.final,)
            if any(b <= a for a, b in zip(times, times[1:])):
                raise ConfigError(f"output times at eps={eps} must be strictly "
                                  f"increasing, got {list(times)}")
            dt = spec.march_dt or eps / nls.STEPS_PER_EPS
            if spec.march_dt is None:
                steps = sum(nls.segment_steps(times, dt))
            else:
                # a march lands on times[-1] in whole equal steps
                march = March(times[-1], dt)
                steps, dt = march.steps, march.h
            ray_dt = {"march": dt, "wkb": times[-1] / 64}.get(spec.rays)
            if spec.rays == "march":
                # the residual of a ray march reads every node it stores
                rays.check_residual_nodes(steps + 1, times[-1])
            rows.append(EpsPlan(eps=eps, dt=dt, grid_size=config.grid.size,
                                times=times, steps=steps, ray_dt=ray_dt,
                                **scales))
        return cls(tuple(rows), spec.schedule)


def plan_json(config: ExperimentConfig, plan: Plan) -> dict:
    """`plan`, the plan of `config`, as --dry-run prints it."""
    # output times are printed where they are powers of eps
    show_times = DRIVERS[config.driver].times == "eps_powers"
    entries = [{k: v for k, v in asdict(row).items()
                if v is not None and (show_times or k != "times")}
               for row in plan.rows]
    return {"kind": config.kind, "target": config.target,
            "solver": config.solver, "config": asdict(config), "plan": entries}

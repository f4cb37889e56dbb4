"""Command-line entry point.

Eight subcommands share one workflow: load a JSON config, apply --set
overrides, validate and plan it, then print the plan (--dry-run) or hand
that plan to `run_experiment`, the runner of the matching driver's stages,
write artifacts, and exit 0 when every verdict passes, 1 on a verdict
failure, 2 on configuration or runtime errors.  The error line of a failed
plan or run ends with the stage it failed in, ` (stage plan)` for a check
of `Plan.build` and the driver's stage (`rays`, `solve`, `measure`) for a
run.

A config names its driver, a key of `experiments.DRIVERS`, and
`SUBCOMMAND` maps each driver to the subcommand that runs it: a single
run's driver has a subcommand of its own name, and every other driver
runs under its kind (`converge`, `instability`, ...).  A subcommand of
one driver fills in the config's driver when it names none.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, NlswkbError
from .config import ExperimentConfig, apply_overrides, config_from_dict
from .experiments import DRIVERS, run_experiment
from .plan import Plan, plan_json
from .reporting import check_output_dir, load_config_file, write_artifacts

# driver -> the subcommand that runs it
SUBCOMMAND = {name: name if d.kind == "single" else d.kind for name, d in DRIVERS.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlswkb",
        description="Semiclassical NLS: geometric-optics approximations "
                    "validated against a split-step spectral solver.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in dict.fromkeys(SUBCOMMAND.values()):
        drivers = [name for name, c in SUBCOMMAND.items() if c == command]
        p = sub.add_parser(command, help=f"run the driver {' | '.join(drivers)}")
        p.set_defaults(drivers=drivers)
        p.add_argument("--config", required=True,
                       help="path to the JSON experiment config")
        p.add_argument("--output", default=None,
                       help="artifact directory (defaults to runs/<command>)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                       dest="overrides",
                       help="override a config field, e.g. time.final=0.3")
        p.add_argument("--dry-run", action="store_true",
                       help="print the resolved plan without solving")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    """The config file of `args` with its --set overrides, and the driver of
    the subcommand if it runs one alone and the config names none; a driver
    that runs under another subcommand is refused."""
    raw = apply_overrides(load_config_file(args.config), args.overrides)
    if len(args.drivers) == 1:
        raw.setdefault("driver", *args.drivers)
    config = config_from_dict(raw)
    if config.driver not in args.drivers:
        raise ConfigError(f"driver {config.driver!r} runs under subcommand "
                          f"{SUBCOMMAND[config.driver]!r}, not {args.command!r}")
    return config


def _failure(exc: NlswkbError, named: bool = True) -> str:
    """The error line of a failed plan or run: the error's type (unless not
    `named`) and message, and the stage it left.  Solver and ray failures
    carry the simulation time they stopped at, solver failures also the eps
    of the solve (one ray profile serves every eps)."""
    when = getattr(exc, "time", None)
    eps = getattr(exc, "eps", None)
    at = f" at t={when:g}" if when is not None else ""
    which = f" eps={eps:g}:" if eps is not None else ""
    line = f"error: {type(exc).__name__}{at}:{which} {exc}" if named else f"error: {exc}"
    return line + (f" (stage {exc.stage})" if exc.stage else "")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        # the one plan of the run: building it makes every check the run
        # makes before its first solve, and --dry-run prints what would run
        plan = Plan.build(config)
        out_dir = args.output or f"runs/{args.command}"
        check_output_dir(out_dir)
    except NlswkbError as exc:
        # a failure of the run that the plan foresees reads as the run's
        print(_failure(exc, named=hasattr(exc, "time")), file=sys.stderr)
        print(f"usage: see `nlswkb {args.command} --help` and the config "
              "schema in README.md", file=sys.stderr)
        return 2

    if args.dry_run:
        print(json.dumps(plan_json(config, plan), indent=2, sort_keys=True))
        return 0

    try:
        result = run_experiment(config, plan)
    except NlswkbError as exc:
        print(_failure(exc), file=sys.stderr)
        return 2

    paths = write_artifacts(result, out_dir)
    for verdict in result.report["verdicts"]:
        status = "PASS" if verdict["passed"] else "FAIL"
        print(f"[{status}] {verdict['name']}: {verdict['detail']}")
    print(f"report: {paths['report.json']}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())

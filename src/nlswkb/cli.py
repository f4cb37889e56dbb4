"""Command-line entry point.

Eight subcommands share one workflow: load a JSON config, apply --set
overrides, validate, optionally print the resolved plan (--dry-run), run
the matching driver, write artifacts, and exit 0 on all-verdicts-pass,
1 on a verdict failure, 2 on configuration or runtime errors.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import NlswkbError
from .experiments import (apply_overrides, config_from_dict, dry_run_plan,
                          run_experiment)
from .reporting import load_config_file, write_artifacts

# subcommand -> (required config kind, forced solver for single runs)
_SUBCOMMANDS = {
    "rays": ("single", "rays"),
    "wkb": ("single", "wkb"),
    "grenier": ("single", "grenier"),
    "nls": ("single", "nls"),
    "converge": ("converge", None),
    "instability": ("instability", None),
    "normgrowth": ("normgrowth", None),
    "odewindow": ("odewindow", None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlswkb",
        description="Semiclassical NLS: geometric-optics approximations "
                    "validated against a split-step spectral solver.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (kind, solver) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run a {kind} experiment"
                           + (f" with the {solver} solver" if solver else ""))
        p.add_argument("--config", required=True,
                       help="path to the JSON experiment config")
        p.add_argument("--output", default=None,
                       help="artifact directory (defaults to config output.dir "
                            "or runs/<command>)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VAL",
                       dest="overrides",
                       help="override a config field, e.g. time.final=0.3")
        p.add_argument("--dry-run", action="store_true",
                       help="print the resolved plan without solving")
    return parser


def _resolve_config(args) -> "ExperimentConfig":
    raw = load_config_file(args.config)
    raw = apply_overrides(raw, args.overrides)
    kind, solver = _SUBCOMMANDS[args.command]
    raw.setdefault("kind", kind)
    if raw["kind"] != kind:
        raise NlswkbError(
            f"config kind {raw['kind']!r} does not match subcommand "
            f"{args.command!r} (expects {kind!r})")
    if solver is not None:
        raw.setdefault("solver", solver)
        if raw["solver"] != solver:
            raise NlswkbError(
                f"config solver {raw['solver']!r} does not match subcommand "
                f"{args.command!r}")
    return config_from_dict(raw)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
    except NlswkbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"usage: see `nlswkb {args.command} --help` and the config "
              "schema in README.md", file=sys.stderr)
        return 2

    if args.dry_run:
        print(json.dumps(dry_run_plan(config), indent=2, sort_keys=True))
        return 0

    try:
        result = run_experiment(config)
    except NlswkbError as exc:
        # solver failures carry the simulation time they stopped at
        when = getattr(exc, "time", None)
        at = f" at t={when:g}" if when is not None else ""
        print(f"error: {type(exc).__name__}{at}: {exc}", file=sys.stderr)
        return 2

    out_dir = args.output or config.output_dir or f"runs/{args.command}"
    paths = write_artifacts(result, out_dir)
    for verdict in result.report["verdicts"]:
        status = "PASS" if verdict["passed"] else "FAIL"
        print(f"[{status}] {verdict['name']}: {verdict['detail']}")
    print(f"report: {paths['report.json']}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())

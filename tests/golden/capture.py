"""Capture the golden record of every shipped config, or compare a run
with it.

    PYTHONPATH=src python3 tests/golden/capture.py [NAME.json ...]
    PYTHONPATH=src python3 tests/golden/capture.py --compare [NAME.json ...]

For each config under configs/ (or only the ones named) this writes
tests/golden/<stem>.json with three parts:

- `dry_run`: the JSON that `nlswkb <subcommand> --config ... --dry-run`
  prints, parsed;
- `config`: the config echo of report.json;
- `summary`: `perfbench/refcheck.summarize` of the run's report.json and
  errors.csv (verdicts, numeric report leaves, errors.csv rows).

`compare_record` compares a run with its record: `dry_run` and `config`
exactly, `summary` by `refcheck.compare`.  tests/test_golden.py and
--compare both call it.  A change that moves a report number past the
tolerance of `refcheck.compare` re-captures the file and names each moved
number and its cause in CHANGES.md; verdicts never change.

A capture rewrites only the parts of a record that differ: it keeps the
stored `summary` when `refcheck.compare` finds the fresh one within its
tolerance, so the floating-point noise of another host never enters the
record, and it leaves a file whose text would not change untouched.

With --compare nothing is written: for each config (all, or the ones
named) it runs the config, prints the largest relative change of any
report leaf or errors.csv value against the stored summary (the `*drift`
values and exact zeros left out) and the mismatches of `compare_record`,
and exits 1 when any config mismatches.

Every name is checked against configs/*.json before anything runs or is
written: one that names no shipped config (an option such as --help
included) exits 2 with the valid names listed.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import sys
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CONFIG_DIR = ROOT / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent


def _load_refcheck():
    # perfbench/ is not a package; load its reference check by path
    spec = importlib.util.spec_from_file_location(
        "_golden_refcheck", ROOT / "perfbench" / "refcheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


refcheck = _load_refcheck()


def load_raw(name: str) -> dict:
    with open(CONFIG_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def canonical(obj) -> str:
    """`obj` in the CLI's own JSON layout; it tells 1 from 1.0."""
    return json.dumps(obj, indent=2, sort_keys=True)


def dry_run_text(name: str) -> str:
    """Standard output of the CLI's --dry-run for configs/<name>."""
    from nlswkb.cli import SUBCOMMAND, main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([SUBCOMMAND[load_raw(name)["driver"]], "--config",
                     str(CONFIG_DIR / name), "--dry-run"])
    if code != 0:
        raise RuntimeError(f"--dry-run of {name} exited {code}")
    return out.getvalue()


def report_and_csv(result) -> tuple[dict, str]:
    """report.json (less meta) as parsed JSON, and errors.csv as text, of
    one experiment result, rendered as the CLI writes them."""
    from nlswkb.reporting import errors_csv_bytes, report_json_bytes

    report = json.loads(report_json_bytes(result.report))
    return report, errors_csv_bytes(result.csv_rows).decode("utf-8")


def run_config(name: str):
    from nlswkb.config import config_from_dict
    from nlswkb.experiments import run_experiment
    from nlswkb.plan import Plan

    config = config_from_dict(load_raw(name))
    return run_experiment(config, Plan.build(config))


def record(name: str) -> dict:
    report, csv_text = report_and_csv(run_config(name))
    return {"dry_run": json.loads(dry_run_text(name)),
            "config": report["config"],
            "summary": refcheck.summarize(report, csv_text)}


def captured(name: str, fresh: dict) -> dict:
    """`fresh`, a new record of configs/<name>, with the stored summary in
    place of its own when `refcheck.compare` finds no mismatch between
    them."""
    path = GOLDEN_DIR / f"{Path(name).stem}.json"
    if path.exists():
        stored = json.loads(path.read_text(encoding="utf-8"))["summary"]
        if not refcheck.compare(fresh["summary"], stored):
            fresh["summary"] = stored
    return fresh


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def largest_change(run: dict, ref: dict) -> float:
    """Largest relative change of a report leaf or errors.csv value of the
    summary `run` against `ref`, leaving out the `*drift` values, the
    non-numbers and the values that are exactly zero in both."""
    pairs = [(run["leaves"][k], ref["leaves"][k], k)
             for k in run["leaves"].keys() & ref["leaves"].keys()]
    pairs += [(r[3], q[3], q[2]) for r, q in zip(run["csv"], ref["csv"])]
    changes = [abs(a - b) / max(abs(a), abs(b)) for a, b, name in pairs
               if not name.endswith("drift") and _is_number(a) and _is_number(b)
               and (a or b)]
    return max(changes, default=0.0)


def _first_difference(part: str, run: str, ref: str) -> list[str]:
    """One line naming the first line where the texts differ; none if equal."""
    if run == ref:
        return []
    for i, (a, b) in enumerate(zip_longest(run.splitlines(), ref.splitlines())):
        if a != b:
            return [f"{part} line {i + 1}: run {a!r}, record {b!r}"]
    return [f"{part}: texts differ only in line endings"]


def compare_record(name: str, result) -> tuple[list[str], float]:
    """The mismatches of `result`, a run of configs/<name>, against the
    golden record of <name>, and the largest change of its summary.  The
    --dry-run output and the config echo must match exactly, the summary
    by `refcheck.compare` (verdicts exactly, numbers to its tolerance)."""
    with open(GOLDEN_DIR / f"{Path(name).stem}.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    report, csv_text = report_and_csv(result)
    run = refcheck.summarize(report, csv_text)
    mismatches = [
        *_first_difference("dry_run", dry_run_text(name),
                           canonical(golden["dry_run"]) + "\n"),
        *_first_difference("config", canonical(report["config"]),
                           canonical(golden["config"])),
        *refcheck.compare(run, golden["summary"])]
    return mismatches, largest_change(run, golden["summary"])


def compare(names: list[str]) -> int:
    """Print each config's largest change and mismatches; 1 when any
    config mismatches, else 0."""
    mismatched = False
    for name in names:
        mismatches, change = compare_record(name, run_config(name))
        print(f"{name}: largest relative change {change:.3g}, "
              f"{len(mismatches)} mismatches")
        for line in mismatches:
            print(f"  {line}")
        mismatched = mismatched or bool(mismatches)
    return int(mismatched)


def main(args: list[str]) -> int:
    comparing = args[:1] == ["--compare"]
    shipped = sorted(p.name for p in CONFIG_DIR.glob("*.json"))
    names = (args[1:] if comparing else args) or shipped
    unknown = [name for name in names if name not in shipped]
    if unknown:
        print(f"error: no shipped config {', '.join(unknown)}; the configs "
              f"are {', '.join(shipped)}", file=sys.stderr)
        return 2
    if comparing:
        return compare(names)
    for name in names:
        path = GOLDEN_DIR / f"{Path(name).stem}.json"
        text = json.dumps(captured(name, record(name)), indent=1, sort_keys=True) + "\n"
        if path.exists() and path.read_text(encoding="utf-8") == text:
            print(f"kept {path}")
            continue
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

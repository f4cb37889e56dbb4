"""Capture perfbench/reference/<workload>.json from the current sources.

    python3 perfbench/capture_reference.py [WORKLOAD ...]

Runs each workload once with unshifted data and stores what
refcheck.summarize pins: verdicts, report leaves and errors.csv rows.
Re-capture only when a change is meant to alter report numbers, and say so.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

from refcheck import load_run
from run import REFERENCE_DIR, RUNS_DIR, WORKLOADS, cli_args, run_child


def capture(name: str) -> dict:
    out = os.path.join(RUNS_DIR, f"reference-{name}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    args = cli_args(name, None)
    res, err = run_child(out + ".json", args + ["--output", out])
    if res is None:
        raise SystemExit(f"{name}: {err}")
    ref = {"workload": name, "cli_args": args, **load_run(out)}
    if res["rc"] != (0 if ref["passed"] else 1):
        raise SystemExit(f"{name}: exit code {res['rc']} disagrees with the report")
    shutil.rmtree(out)
    os.remove(out + ".json")
    return ref


def main(names: list[str]) -> int:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        ref = capture(name)
        path = os.path.join(REFERENCE_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{path}: {len(ref['leaves'])} leaves, {len(ref['csv'])} csv rows, "
              f"passed={ref['passed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

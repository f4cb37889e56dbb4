"""Reference check of one run's artifacts against a stored reference.

The reference holds, for one workload: the verdict names with their pass
flags, the numeric, boolean and null leaves of report.json (the `meta`
stamp and the `config` echo left out, strings too since they only format
the numbers), and the rows of errors.csv.  Numbers match when

    |run - ref| <= max(RTOL * max(|run|, |ref|), atol)

RTOL leaves a hundredfold margin over the 1e-8 relative agreement a
rewrite of the solvers has to keep.  atol is DRIFT_ATOL for the invariant
drifts (names ending in "drift"): mass_drift and, at small eps,
energy_drift sit at 1e-14..2e-11, at roundoff level, where a reordering
of floating-point operations changes them by any relative amount.  The
smallest other quantity in the references is about 6e-8, so every other
number gets the relative test alone, with ATOL only absorbing roundoff
around an exact zero.
"""
from __future__ import annotations

import csv
import io
import json
import math

RTOL = 1e-6
ATOL = 1e-14
DRIFT_ATOL = 1e-9
MAX_SHOWN = 5        # mismatches listed per kind


def flatten(node, prefix: str = "") -> dict:
    """path -> leaf for every number, bool and null below `node`."""
    out = {}
    if isinstance(node, dict):
        for key in sorted(node):
            out.update(flatten(node[key], f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            out.update(flatten(item, f"{prefix}[{i}]"))
    elif node is None or isinstance(node, (bool, int, float)):
        out[prefix] = node
    return out


def summarize(report: dict, csv_text: str) -> dict:
    """The parts of one run's artifacts that the reference pins."""
    body = {k: v for k, v in report.items() if k not in ("meta", "config")}
    rows = list(csv.reader(io.StringIO(csv_text)))
    return {"verdicts": [[v["name"], v["passed"]] for v in report["verdicts"]],
            "passed": report["passed"],
            "leaves": flatten(body),
            "csv_header": rows[0] if rows else [],
            "csv": [[r[0], r[1], r[2], float(r[3])] for r in rows[1:]]}


def load_run(out_dir: str) -> dict:
    with open(f"{out_dir}/report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    with open(f"{out_dir}/errors.csv", encoding="utf-8") as fh:
        csv_text = fh.read()
    return summarize(report, csv_text)


def close(a, b, name: str = "") -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return a is b
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    atol = DRIFT_ATOL if name.endswith("drift") else ATOL
    return abs(a - b) <= max(RTOL * max(abs(a), abs(b)), atol)


def compare(run: dict, ref: dict) -> list[str]:
    """Mismatches of `run` against `ref`, at most MAX_SHOWN of each kind;
    an empty list means the run matches."""
    problems = []
    if run["verdicts"] != ref["verdicts"]:
        problems.append(f"verdicts {run['verdicts']} != reference {ref['verdicts']}")
    if run["passed"] is not ref["passed"]:
        problems.append(f"passed {run['passed']} != reference {ref['passed']}")
    missing = sorted(set(ref["leaves"]) ^ set(run["leaves"]))
    if missing:
        problems.append(f"report leaves differ: {missing[:MAX_SHOWN]}")
    bad = [k for k in sorted(set(ref["leaves"]) & set(run["leaves"]))
           if not close(run["leaves"][k], ref["leaves"][k], k)]
    problems += [f"{k}: {run['leaves'][k]!r} vs reference {ref['leaves'][k]!r}"
                 for k in bad[:MAX_SHOWN]]
    if run["csv_header"] != ref["csv_header"] or len(run["csv"]) != len(ref["csv"]):
        problems.append("errors.csv header or row count differs")
    else:
        rows = [(r, q) for r, q in zip(run["csv"], ref["csv"])
                if r[:3] != q[:3] or not close(r[3], q[3], q[2])]
        problems += [f"errors.csv row {r} vs reference {q}" for r, q in rows[:MAX_SHOWN]]
    return problems

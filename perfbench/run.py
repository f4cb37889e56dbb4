"""End-to-end and per-layer benchmark of the nlswkb experiment drivers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run is one fresh process
(perfbench/child.py) that imports nlswkb.cli from ./src and calls
`nlswkb.cli.main` on a shipped config, the way a user runs it.  Runs are
made one at a time, in a closed loop, until --seconds have passed (at least
MIN_RUNS of them).  Every run's report.json and errors.csv are checked
against perfbench/reference/<workload>.json; a run that exits nonzero,
changes a verdict or moves a number out of tolerance counts as failed.

--trace 0 prints the end-to-end metrics: medians of wall_s, cpu_s and
peak_rss_mb over the runs, and setup_s, the median fresh-process
`import nlswkb.cli` time over SETUP_PROBES import-only processes plus the
import of every run.  --trace 1 alternates untraced and traced runs and
prints the per-layer metrics of the traced ones (medians), with the
tracing overhead.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it give
the same numbers by name, fail_ratio, and the machine facts.  The full
record, samples included, goes to .perfbench_runs/.

The seed shifts every data centre (a0, a1, b0) by the same whole number of
grid cells.  All workloads have V = 0 and phi0 = 0, so the discrete run is
shift-equivariant: the work is the same and the reference still holds.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

from refcheck import compare, load_run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
REFERENCE_DIR = os.path.join(HERE, "reference")

MIN_RUNS = 3
SETUP_PROBES = 5
MAX_SHIFT_CELLS = 8
GRID_LENGTH = 32.0
# a run that hangs is killed so the whole invocation ends within 180 s
INVOCATION_LIMIT_S = 170


class Workload(NamedTuple):
    args: list[str]             # nlswkb CLI arguments
    grid_size: int              # base grid, for the seed's shift
    profiles: tuple[str, ...]   # data profiles the shift moves


# Why each workload is here, and why only critical_sweep and strong_corrector
# are listed in BENCHMARK.json, is recorded in NOTES.md.
WORKLOADS = {
    "critical_sweep": Workload(
        ["converge", "--config", "configs/critical.json"], 1024, ("a0",)),
    "strong_corrector": Workload(
        ["converge", "--config", "configs/corrector.json"], 1024, ("a0", "a1")),
    "instability_pairs": Workload(
        ["instability", "--config", "configs/instability.json"], 2048, ("a0", "b0")),
    # N=8192 is left out: the dense interpolation matrix alone is ~1 GiB there
    "wkb_n4096": Workload(
        ["wkb", "--config", "configs/wkb.json", "--set", "grid.size=4096"],
        4096, ("a0",)),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {"calls": "count", "steps": "count", "fft_calls": "count",
                   "busy_s": "s", "self_s": "s", "wall_s": "s", "overhead_s": "s",
                   "us_per_step": "us", "fft_calls_per_step": "count/step",
                   "concurrency": "ratio", "child_coverage": "ratio",
                   "interp_matrix_mb": "MiB", "computed_gflop": "GFLOP"}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rpartition(".")[2]]


def shift_cells(seed: int) -> int:
    return random.Random(seed).randint(-MAX_SHIFT_CELLS, MAX_SHIFT_CELLS)


def cli_args(name: str, seed: int | None) -> list[str]:
    """CLI arguments of one run; seed None leaves the data unshifted."""
    wl = WORKLOADS[name]
    args = list(wl.args)
    if seed is not None:
        center = shift_cells(seed) * GRID_LENGTH / wl.grid_size
        for prof in wl.profiles:
            args += ["--set", f"data.{prof}.center={center!r}"]
    return args


# ---------------------------------------------------------------------------
# child processes


def run_child(result_path: str, args: list[str], trace: bool = False,
              import_only: bool = False,
              timeout: float = INVOCATION_LIMIT_S) -> tuple[dict | None, str]:
    """Run perfbench/child.py once; returns (result, error text)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--result", result_path]
    cmd += (["--trace"] if trace else []) + (["--import-only"] if import_only else [])
    cmd += ["--"] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not os.path.isfile(result_path):
        return None, f"child exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh), ""


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Session:
    """The runs of one invocation: scratch directories, samples, failures."""

    def __init__(self, workload: str, seed: int, reference: dict):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.args = cli_args(workload, seed)
        self.dir = os.path.join(RUNS_DIR, f"{workload}-seed{seed}-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.start = time.perf_counter()
        self.count = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.import_s: list[float] = []

    def _path(self, stem: str) -> str:
        self.count += 1
        return os.path.join(self.dir, f"{self.count:03d}-{stem}")

    def _time_left(self) -> float:
        return max(1.0, INVOCATION_LIMIT_S - (time.perf_counter() - self.start))

    def probe_import(self) -> float:
        res, err = run_child(self._path("import.json"), [], import_only=True,
                             timeout=self._time_left())
        if res is None:
            raise SystemExit(f"error: import probe failed: {err}")
        return res["import_s"]

    def run(self, trace: bool) -> dict | None:
        """One checked run; returns its result, or None when it failed."""
        self.attempted += 1
        out = self._path("traced" if trace else "run")
        os.makedirs(out)
        res, err = run_child(out + ".json", self.args + ["--output", out], trace,
                             timeout=self._time_left())
        problems = [err] if res is None else []
        if res is not None:
            expected_rc = 0 if self.reference["passed"] else 1
            if res["rc"] != expected_rc:
                problems.append(f"exit code {res['rc']}, expected {expected_rc}")
            else:
                problems += compare(load_run(out), self.reference)
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failures.append(f"run {self.attempted}: " + "; ".join(problems))
            return None
        if not trace:
            self.import_s.append(res["import_s"])
        return res


def measure(session: Session, seconds: float, trace: bool) -> dict:
    session.probe_import()       # warm-up: byte-compiles a fresh checkout
    samples = {"untraced": [], "traced": []}
    if not trace:
        session.import_s += [session.probe_import() for _ in range(SETUP_PROBES)]
    kinds = ["untraced", "traced"] if trace else ["untraced"]
    min_rounds = 1 if trace else MIN_RUNS
    durations = []
    rounds = 0
    while True:
        elapsed = time.perf_counter() - session.start
        typical = statistics.median(durations) if durations else 0.0
        limit = seconds if rounds >= min_rounds else INVOCATION_LIMIT_S
        if rounds and elapsed + typical > limit:
            break
        if rounds and not any(samples.values()):
            break                # every run fails: stop, report the failures
        t0 = time.perf_counter()
        for kind in kinds:
            res = session.run(trace=(kind == "traced"))
            if res is not None:
                samples[kind].append(res)
        durations.append(time.perf_counter() - t0)
        rounds += 1
    return samples


def median_of(results: list[dict], key: str) -> float | None:
    vals = [r[key] for r in results]
    return statistics.median(vals) if vals else None


def end_to_end_metrics(session: Session, samples: dict) -> dict:
    runs = samples["untraced"]
    if not runs:
        return {}
    out = {k: median_of(runs, k) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    out["setup_s"] = statistics.median(session.import_s)
    return out


def per_layer_metrics(samples: dict) -> dict:
    traced = samples["traced"]
    if not traced:
        return {}
    layers = [r["layers"] for r in traced]
    out = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
    out["trace.wall_s"] = median_of(traced, "wall_s")
    untraced = median_of(samples["untraced"], "wall_s")
    if untraced is not None:
        out["trace.overhead_s"] = out["trace.wall_s"] - untraced
    return out


# ---------------------------------------------------------------------------
# machine facts


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _cache_size(level: int) -> str:
    name = f"SC_LEVEL{level}_CACHE_SIZE"
    if name in os.sysconf_names:
        size = os.sysconf(name)
        if size > 0:
            return f"{size // 1024}K"
    for i in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{i}"
        if _read(base + "/level").strip() == str(level):
            return _read(base + "/size").strip()
    return "unknown"


def _version(dist: str) -> str:
    from importlib import metadata
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def _git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if head.startswith("ref: "):
        return _read(os.path.join(ROOT, ".git", head[5:])).strip() or "unknown"
    return head or "unknown (not a git checkout)"


def machine_facts() -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "l2": _cache_size(2), "l3": _cache_size(3),
            "ram_gib": round(ram / 2**30, 2), "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "thread_env": {k: os.environ.get(k) for k in threads},
            "git_commit": _git_commit()}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nlswkb", "cli.py")):
        print(f"error: no nlswkb sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    reference = load_reference(opts.workload)
    session = Session(opts.workload, opts.seed, reference)
    samples = measure(session, opts.seconds, bool(opts.trace))
    shutil.rmtree(session.dir, ignore_errors=True)

    if opts.trace:
        metrics, unit = per_layer_metrics(samples), per_layer_unit
    else:
        metrics, unit = end_to_end_metrics(session, samples), END_TO_END.get
    failed = len(session.failures)
    facts = machine_facts()
    record = {"workload": opts.workload, "seed": opts.seed,
              "shift_cells": shift_cells(opts.seed), "cli_args": session.args,
              "seconds": opts.seconds, "trace": opts.trace,
              "attempted": session.attempted, "failed": failed,
              "failures": session.failures, "metrics": metrics,
              "samples": samples, "setup_samples": session.import_s,
              "machine": facts}
    with open(os.path.join(RUNS_DIR, f"{opts.workload}-trace{opts.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {opts.workload} seed {opts.seed} "
          f"shift {record['shift_cells']} cells: {' '.join(session.args)}")
    for text in session.failures:
        print(f"FAILED {text}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit(name)}")
    print(f"fail_ratio = {failed / max(session.attempted, 1):.6g} "
          f"({failed} of {session.attempted} runs)")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": session.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

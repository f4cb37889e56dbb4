"""The per-layer metrics of BENCHMARK.json name real library functions.

The benchmark tracer records spans under `<module>.<function>`; a metric
whose function no longer exists reads 0 instead of failing, so a deletion
or rename in the library must show up here first.  Its return hooks read
attributes of the values the library returns, so each runs here on a real
return value too.
"""
import importlib
import importlib.util
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from nlswkb import nls, phase_amplitude
from nlswkb.fields import band_limited_interpolate
from nlswkb.grids import PeriodicGrid
from nlswkb.problem import SemiclassicalProblem, gaussian_field

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
SPAN_METRIC = re.compile(r"^(\w+)\.(\w+)\.(calls|busy_s|self_s)$")


def span_metrics():
    with open(BENCHMARK, encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    return [match.groups()[:2] for match in map(SPAN_METRIC.match, names) if match]


def test_benchmark_lists_span_metrics():
    assert len(span_metrics()) >= 10


@pytest.mark.parametrize("module, function",
                         sorted(set(span_metrics())),
                         ids=lambda part: part)
def test_span_metric_names_a_public_function(module, function):
    mod = importlib.import_module(f"nlswkb.{module}")
    obj = getattr(mod, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(obj), f"nlswkb.{module}.{function} is not a function"
    assert obj.__module__ == mod.__name__


def _load_spans():
    # perfbench/ is not a package; load the tracer's module by path
    spec = importlib.util.spec_from_file_location(
        "_bench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ON_RETURN = _load_spans().ON_RETURN


@pytest.fixture(scope="module")
def hooked_calls():
    """Arguments and return value of one real call of each hooked function."""
    problem = SemiclassicalProblem(
        eps=0.1, kappa=0.0, a0=gaussian_field(PeriodicGrid(32.0, 64), width=3.0))
    limit = phase_amplitude.solve_phase_amplitude(problem, 0.05, 0.01,
                                                  variant="limit")
    points = np.linspace(-8.0, 8.0, 5)
    return {
        "nls.solve_nls": ((problem, 0.05, 0.01),
                          nls.solve_nls(problem, 0.05, 0.01)),
        "phase_amplitude.solve_phase_amplitude": ((problem, 0.05, 0.01), limit),
        "phase_amplitude.solve_corrector": (
            (problem, 0.05, 0.01),
            phase_amplitude.solve_corrector(problem, 0.05, 0.01)),
        "fields.band_limited_interpolate": (
            (problem.a0, points), band_limited_interpolate(problem.a0, points)),
    }


def test_every_return_hook_has_a_call(hooked_calls):
    assert set(ON_RETURN) == set(hooked_calls)


@pytest.mark.parametrize("name", sorted(ON_RETURN))
def test_return_hook_reads_the_library(name, hooked_calls):
    args, result = hooked_calls[name]
    out = ON_RETURN[name](args, {}, result)
    assert isinstance(out, dict) and out
    for key, value in out.items():
        assert isinstance(value, (int, float)) and math.isfinite(value), (key, value)

"""The per-layer metrics of BENCHMARK.json name real library functions.

The benchmark tracer records spans under `<module>.<function>`; a metric
whose function no longer exists reads 0 instead of failing, so a deletion
or rename in the library must show up here first.
"""
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
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

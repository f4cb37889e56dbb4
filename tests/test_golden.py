"""Golden gate: every shipped config against its record in tests/golden/.

`capture.compare_record` checks all three parts of a record: the --dry-run
output and the config echo must match exactly; verdicts must match exactly
and numbers to `perfbench/refcheck.compare` (relative 1e-6, absolute 1e-9
for the invariant drifts).  The records are written by
tests/golden/capture.py; its docstring says when to re-capture.
"""
import importlib.util
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("_golden_capture",
                                               GOLDEN_DIR / "capture.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

NAMES = sorted(p.name for p in capture.CONFIG_DIR.glob("*.json"))


@pytest.mark.parametrize("name", NAMES)
def test_shipped_config_matches_its_golden_record(name, shipped_result):
    mismatches, _ = capture.compare_record(name, shipped_result(name))
    assert mismatches == []


@pytest.mark.parametrize("run, ref, expected", [
    ("a\nb\n", "a\nb\n", []),
    ("a\nc\n", "a\nb\n", ["part line 2: run 'c', record 'b'"]),
    ("a\nb", "a\nb\n", ["part: texts differ only in line endings"]),
])
def test_first_difference_reports_every_unequal_text(run, ref, expected):
    assert capture._first_difference("part", run, ref) == expected


@pytest.mark.parametrize("args", [
    ["--help"],
    ["--compare", "critical"],
    # a bad later name: the earlier record is not rewritten
    ["wkb.json", "critical"],
])
def test_a_name_of_no_shipped_config_exits_2_before_any_run(args, monkeypatch,
                                                             capsys):
    def no_run(name):
        pytest.fail(f"ran {name}")

    monkeypatch.setattr(capture, "run_config", no_run)
    monkeypatch.setattr(capture, "record", no_run)
    assert capture.main(args) == 2
    err = capsys.readouterr().err
    assert f"no shipped config {args[-1]};" in err
    assert ", ".join(NAMES) in err

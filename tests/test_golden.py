"""Golden gate: every shipped config against its record in tests/golden/.

`capture.compare_record` checks all three parts of a record: the --dry-run
output and the config echo must match exactly; verdicts must match exactly
and numbers to `perfbench/refcheck.compare` (relative 1e-6, absolute 1e-9
for the invariant drifts).  The records are written by
tests/golden/capture.py; its docstring says when to re-capture.
"""
import importlib.util
import json
from pathlib import Path

import pytest

from nlswkb.cli import main
from nlswkb.config import GRID_LENGTH

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
PERFBENCH_DIR = GOLDEN_DIR.parents[1] / "perfbench"

_spec = importlib.util.spec_from_file_location("_golden_capture",
                                               GOLDEN_DIR / "capture.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

NAMES = sorted(p.name for p in capture.CONFIG_DIR.glob("*.json"))


@pytest.mark.parametrize("name", NAMES)
def test_shipped_config_matches_its_golden_record(name, shipped_result):
    mismatches, _ = capture.compare_record(name, shipped_result(name))
    assert mismatches == []


def test_a_shifted_benchmark_run_matches_the_golden_record(tmp_path, monkeypatch):
    # perfbench shifts the data of each run by a seed's whole number of
    # cells; with V = 0 and zero initial phase the run is shift-equivariant,
    # so a shifted run must still match the record of the unshifted one
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))    # run.py imports refcheck
    spec = importlib.util.spec_from_file_location("_perfbench_run",
                                                  PERFBENCH_DIR / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.GRID_LENGTH == GRID_LENGTH
    seed = 2
    assert bench.shift_cells(seed) == -7
    monkeypatch.chdir(capture.ROOT)    # the workload names its config by a relative path
    out = tmp_path / "out"
    assert main(bench.cli_args("strong_corrector", seed) + ["--output", str(out)]) == 0
    golden = json.loads((GOLDEN_DIR / "corrector.json").read_text(encoding="utf-8"))
    assert capture.refcheck.compare(capture.refcheck.load_run(str(out)),
                                    golden["summary"]) == []


@pytest.mark.parametrize("shift, rewritten", [(1e-12, False), (1e-3, True)])
def test_a_capture_keeps_a_summary_within_tolerance(shift, rewritten, tmp_path,
                                                    monkeypatch, shipped_result):
    # a stored summary that the fresh run matches to refcheck's tolerance
    # stays byte for byte; one that it does not is rewritten
    golden = json.loads((GOLDEN_DIR / "grenier.json").read_text(encoding="utf-8"))
    stored = json.loads(json.dumps(golden))
    stored["summary"]["leaves"]["euler_residual.max"] *= 1 + shift
    path = tmp_path / "grenier.json"
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    before = path.read_bytes()
    monkeypatch.setattr(capture, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(capture, "run_config", shipped_result)
    fresh = capture.record("grenier.json")["summary"]
    assert capture.main(["grenier.json"]) == 0
    after = json.loads(path.read_text(encoding="utf-8"))
    assert (path.read_bytes() != before) == rewritten
    assert after["summary"] == (fresh if rewritten else stored["summary"])
    assert {k: after[k] for k in ("dry_run", "config")} == {
        k: golden[k] for k in ("dry_run", "config")}


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

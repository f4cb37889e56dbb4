"""Golden gate: every shipped config against its record in tests/golden/.

The --dry-run output and the config echo must match exactly; verdicts
must match exactly and numbers to `perfbench/refcheck.compare` (relative
1e-6, absolute 1e-9 for the invariant drifts).  The records are written
by tests/golden/capture.py; its docstring says when to re-capture.
"""
import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("_golden_capture",
                                               GOLDEN_DIR / "capture.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

NAMES = sorted(p.name for p in capture.CONFIG_DIR.glob("*.json"))


def canonical(obj) -> str:
    # the CLI's own JSON layout; it tells 1 from 1.0
    return json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("name", NAMES)
def test_shipped_config_matches_its_golden_record(name, shipped_result):
    with open(GOLDEN_DIR / f"{Path(name).stem}.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert capture.dry_run_text(name) == canonical(golden["dry_run"]) + "\n"
    report, csv_text = capture.report_and_csv(shipped_result(name))
    assert canonical(report["config"]) == canonical(golden["config"])
    run = capture.refcheck.summarize(report, csv_text)
    assert capture.refcheck.compare(run, golden["summary"]) == []

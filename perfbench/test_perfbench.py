"""Self-tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench

They need numpy and scipy but not the nlswkb sources.
"""
from __future__ import annotations

import copy
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.fft

import refcheck
from run import WORKLOADS, cli_args, load_reference, shift_cells
from spans import Span, Tracer, fft_flop, layer_metrics, self_times, union_length


# -- reference check -------------------------------------------------------


@pytest.fixture(params=sorted(WORKLOADS))
def reference(request):
    return load_reference(request.param)


def test_reference_matches_itself(reference):
    assert refcheck.compare(copy.deepcopy(reference), reference) == []


def _first_key(ref, pred):
    return next(k for k, v in ref["leaves"].items()
                if isinstance(v, float) and not isinstance(v, bool) and pred(k, v))


def test_reference_rejects_perturbed_number(reference):
    key = _first_key(reference, lambda k, v: not k.endswith("drift") and v != 0)
    run = copy.deepcopy(reference)
    run["leaves"][key] *= 1 + 1e-5
    assert any(key in p for p in refcheck.compare(run, reference))


def test_reference_accepts_rewrite_level_change(reference):
    run = copy.deepcopy(reference)
    for key, val in run["leaves"].items():
        if isinstance(val, float):
            run["leaves"][key] = val * (1 + 1e-8)
    for row in run["csv"]:
        row[3] *= 1 - 1e-8
    assert refcheck.compare(run, reference) == []


def test_reference_drift_floor():
    ref = load_reference("critical_sweep")
    key = _first_key(ref, lambda k, v: k.endswith("mass_drift"))
    run = copy.deepcopy(ref)
    run["leaves"][key] = 5 * ref["leaves"][key]      # roundoff-level change
    assert refcheck.compare(run, ref) == []
    run["leaves"][key] = 1e-6                        # a real loss of mass
    assert any(key in p for p in refcheck.compare(run, ref))


def test_reference_rejects_flipped_verdict(reference):
    run = copy.deepcopy(reference)
    if run["verdicts"]:
        run["verdicts"][0][1] = not run["verdicts"][0][1]
    run["passed"] = not run["passed"]
    problems = refcheck.compare(run, reference)
    assert any("passed" in p for p in problems)
    if reference["verdicts"]:
        assert any(p.startswith("verdicts") for p in problems)


def test_reference_rejects_perturbed_csv_row(reference):
    run = copy.deepcopy(reference)
    run["csv"][0][3] *= 1 + 1e-4
    assert any("errors.csv row" in p for p in refcheck.compare(run, reference))


def test_summarize_drops_meta_config_and_strings():
    report = {"kind": "converge", "config": {"eps": [0.1]},
              "meta": {"generated_at": "now"}, "passed": True,
              "verdicts": [{"name": "v", "passed": True, "detail": "x 1.0"}],
              "per_eps": [{"eps": 0.1, "error": 0.5, "resolved": True}]}
    csv_text = "epsilon,s,metric,value\n0.1,,profile_L2Linf,0.5\n"
    got = refcheck.summarize(report, csv_text)
    assert got["leaves"] == {"passed": True, "per_eps[0].eps": 0.1,
                             "per_eps[0].error": 0.5,
                             "per_eps[0].resolved": True,
                             "verdicts[0].passed": True}
    assert got["verdicts"] == [["v", True]]
    assert got["csv"] == [["0.1", "", "profile_L2Linf", 0.5]]


# -- seed ------------------------------------------------------------------


def test_seed_shifts_every_profile_by_whole_cells():
    for name, wl in WORKLOADS.items():
        args = cli_args(name, 11)
        centers = [a.split("=", 1)[1] for a in args if ".center=" in a]
        assert len(centers) == len(wl.profiles)
        cells = float(centers[0]) * wl.grid_size / 32.0
        assert cells == shift_cells(11) and len(set(centers)) == 1
        assert cli_args(name, 11) == args
    assert cli_args("critical_sweep", None) == WORKLOADS["critical_sweep"].args


# -- self time -------------------------------------------------------------


def _span(name, start, end, parent=None, thread=0):
    s = Span(name, start, parent, thread, "t")
    s.end = end
    return s


def test_union_length_overlaps_and_clipping():
    assert union_length([(1, 5), (3, 8), (9, 9.5)], 0, 10) == pytest.approx(7.5)
    assert union_length([(-2, 1), (9, 12)], 0, 10) == pytest.approx(2.0)
    assert union_length([], 0, 10) == 0.0


def test_self_time_with_overlapping_thread_spans():
    root = _span("experiments.run_experiment", 0.0, 10.0)
    a = _span("nls.solve_nls", 1.0, 5.0, root, thread=1)
    b = _span("nls.solve_nls", 3.0, 8.0, root, thread=2)     # overlaps a
    c = _span("fields.l2_linf_norm", 9.0, 9.5, root)
    a_child = _span("fields.gradient_values", 2.0, 3.0, a, thread=1)
    spans = [root, a, b, c, a_child]
    selfs = self_times(spans)
    assert selfs[id(root)] == pytest.approx(10.0 - 7.5)
    assert selfs[id(a)] == pytest.approx(3.0)
    assert selfs[id(b)] == pytest.approx(5.0)
    assert selfs[id(a_child)] == pytest.approx(1.0)

    m = layer_metrics(spans, {"calls": 0, "busy_s": 0.0, "flop": 0.0})
    assert m["experiments.run_experiment.busy_s"] == pytest.approx(10.0)
    assert m["experiments.self_s"] == pytest.approx(2.5)
    assert m["experiments.concurrency"] == pytest.approx((4 + 5 + 0.5) / 10)
    assert m["experiments.child_coverage"] == pytest.approx(0.75)
    assert m["nls.solve_nls.calls"] == 2
    assert m["nls.solve_nls.busy_s"] == pytest.approx(9.0)


def test_pool_spans_take_the_waiting_driver_as_parent():
    tracer = Tracer()

    def leaf(x):
        return x

    def driver(xs):
        with ThreadPoolExecutor(max_workers=3) as pool:
            return list(pool.map(traced_leaf, xs))

    traced_leaf = tracer.wrap(leaf, "nls.solve_nls")
    assert tracer.wrap(driver, "experiments.run_experiment")([1, 2, 3, 4]) == [1, 2, 3, 4]
    root = tracer.spans[0]
    leaves = tracer.spans[1:]
    assert len(leaves) == 4
    assert all(s.parent is root for s in leaves)
    assert {s.thread for s in leaves} != {threading.get_ident()}


def test_wrap_package_rebinds_names_imported_by_value(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "low.py").write_text("def leaf():\n    return 1\n\ndef _private():\n    return 2\n")
    (pkg / "high.py").write_text(textwrap.dedent("""
        from .low import leaf, _private
        TABLE = {"k": leaf}

        def driver():
            return leaf() + TABLE["k"]() + _private()
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.high
    tracer = Tracer()
    tracer.wrap_package("fakepkg")
    try:
        assert fakepkg.high.driver() == 4
    finally:
        tracer.uninstall()
        for name in ("fakepkg", "fakepkg.low", "fakepkg.high"):
            sys.modules.pop(name, None)
    names = [s.name for s in tracer.spans]
    assert names == ["high.driver", "low.leaf", "low.leaf"]
    assert all(s.parent is tracer.spans[0] for s in tracer.spans[1:])
    assert fakepkg.high.TABLE["k"] is fakepkg.low.leaf       # restored


# -- FFT counter -----------------------------------------------------------


def test_fft_counter_counts_numpy_and_scipy_calls():
    originals = (np.fft.fft, np.fft.ifftn, scipy.fft.fft, scipy.fft.rfft)
    tracer = Tracer()
    tracer.install_fft_counter()
    try:
        x = np.ones(8)

        def work():
            for _ in range(3):
                np.fft.fft(x)
            np.fft.ifftn(np.ones((2, 4)))
            np.fft.ifftn(x)
            for _ in range(4):
                scipy.fft.fft(x)
            scipy.fft.rfft(x)

        tracer.wrap(work, "nls.work")()
        np.fft.fft(x)                       # outside any span
    finally:
        tracer.uninstall()
    assert (np.fft.fft, np.fft.ifftn, scipy.fft.fft, scipy.fft.rfft) == originals
    totals = tracer.fft_totals()
    assert totals["calls"] == 11
    span = tracer.spans[0]
    assert span.fft_self == 10 and span.fft_in == 10
    m = layer_metrics(tracer.spans, totals)
    assert m["nls.fft_calls"] == 10 and m["fft.calls"] == 11
    # every call transforms 8 points in all: 5 * 8 * log2(8) = 120 flops
    assert totals["flop"] == pytest.approx(11 * 120)


def test_fft_flop_batches_and_axes():
    assert fft_flop("fft", np.ones((3, 16)), (), {}) == 3 * 5 * 16 * 4
    assert fft_flop("fft", np.ones((16, 3)), (), {"axis": 0}) == 3 * 5 * 16 * 4
    assert fft_flop("fftn", np.ones((4, 4)), (), {}) == 5 * 16 * 4
    assert fft_flop("fftn", np.ones((2, 8)), (None, (1,)), {}) == 2 * 5 * 8 * 3
    assert fft_flop("fft2", np.ones((5, 4, 2)), (), {}) == 5 * 5 * 8 * 3

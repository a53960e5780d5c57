"""Self-tests for the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate as g  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as w  # noqa: E402
from prevthresh import analyze_counts, dataio  # noqa: E402
from prevthresh.metrics import ConfusionCounts, DiagnosticProfile  # noqa: E402


def _corrupt_digit(data: bytes, start: int) -> bytes:
    """Change the first digit at or after ``start`` (one byte)."""
    i = next(k for k in range(start, len(data)) if data[k : k + 1].isdigit() and data[k - 1 : k].isdigit())
    return data[:i] + (b"1" if data[i : i + 1] != b"1" else b"2") + data[i + 1 :]


def _emit(emitter, *args) -> bytes:
    sink = io.StringIO(newline="")
    emitter(*args, sink)
    return sink.getvalue().encode()


@pytest.mark.parametrize("a, b", [(0.8, 0.9), (0.9, 1.0), (1.0, 0.9)])
def test_gate_flags_one_byte_csv_corruption(a, b):
    profile = DiagnosticProfile(a, b)
    curves = _emit(dataio.emit_curves, profile, 0.05)
    ratios = _emit(dataio.emit_ratio_curves, profile, (0.5, 2.0), 0.05)
    rows = range(21)
    assert g.check_curves_csv(curves, a, b, 20, rows) == []
    assert g.check_ratio_csv(ratios, a, b, (0.5, 2.0), 20, rows) == []
    middle = len(curves) // 2
    assert g.check_curves_csv(_corrupt_digit(curves, middle), a, b, 20, rows)
    if a != 0.9:  # the specificity-1 ratio columns are all exactly 1.0
        assert g.check_ratio_csv(_corrupt_digit(ratios, len(ratios) // 2), a, b, (0.5, 2.0), 20, rows)

    gate = g.Gate({"key": g.sha256(curves)})
    assert gate.digest("key", curves) == []
    assert gate.digest("key", _corrupt_digit(curves, middle))


def test_gate_flags_one_byte_json_corruption():
    payload = json.dumps(dataio.threshold_summary(DiagnosticProfile(0.9, 0.95)), indent=2).encode()
    want = g.threshold_summary(0.9, 0.95)
    assert g.compare_dict(json.loads(payload), want, g.BAYES_TOL) == []
    corrupted = _corrupt_digit(payload, payload.index(b'"phi_e"') + 12)
    assert g.compare_dict(json.loads(corrupted), want, g.BAYES_TOL)


def test_gate_flags_wrong_confusion_count(tmp_path):
    workload = w.CurvesIO(tmp_path, tmp_path, {})
    inp = workload.inputs(0, 0)
    counts, curve_rows, ratio_rows, written, ingested = workload.run(inp, w.Clock())

    gate = g.Gate({})
    workload.check(0, 0, inp, (counts, curve_rows, ratio_rows, written, ingested), gate, w.Tally())
    assert (gate.attempted, gate.failed) == (4, 0)

    wrong = ConfusionCounts(ingested.tp + 1, ingested.fp, ingested.fn, ingested.tn)
    workload.check(0, 0, inp, (counts, curve_rows, ratio_rows, written, wrong), gate, w.Tally())
    assert gate.failed == 1 and "ingest_predictions" in gate.failures[0]

    tp, fp, fn, tn = 9, 1, 1, 9
    report = json.loads(json.dumps(analyze_counts(ConfusionCounts(tp, fp, fn, tn)).to_dict()))
    assert w.check_analysis(report, tp, fp, fn, tn) == []
    assert w.check_analysis(report, tp, fp, fn + 1, tn)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(range(99), 0.9) is None
    assert run.tail_percentile(range(100), 0.9) == 89
    assert run.tail_percentile(range(1, 201), 0.9) == 180
    assert run.tail_percentile([], 0.5) is None
    assert run.tail_percentile(range(21), 0.5) == 10


@pytest.mark.parametrize("cls", list(w.WORKLOADS.values()))
def test_same_seed_same_inputs(cls, tmp_path):
    first, second = cls(tmp_path, tmp_path, {}), cls(tmp_path, tmp_path, {})
    for i in range(12):
        assert first.inputs(7, i) == second.inputs(7, i)
    assert [first.inputs(7, i) for i in range(12)] != [first.inputs(8, i) for i in range(12)]


def test_cli_mix_is_fixed_per_block():
    workload = w.CliBurst(Path("."), Path("."), {})
    for seed in (0, 1, 2):
        kinds = sorted(workload.inputs(seed, i)["kind"] for i in range(10, 20))
        assert kinds == sorted(w.CLI_MIX)


def test_tracer_self_time_and_restore():
    import prevthresh.bounds as bounds
    import prevthresh.metrics as metrics

    original = bounds.mcc_ratio
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert bounds.mcc_ratio is not original
        with tracer.operation("op.test"):
            bounds.mcc_ratio(DiagnosticProfile(0.8, 0.9))
    assert bounds.mcc_ratio is original
    assert tracer.rate_calls > 0
    before = tracer.rate_calls
    metrics.Rate(0.5)
    assert tracer.rate_calls == before

    totals = tracer.totals()
    assert totals["bounds.mcc_ratio"][0] == 1
    assert totals["bounds.mcc_at_threshold"][0] == 2
    root = totals["op.test"]
    total = tracer.end[0] - tracer.start[0]
    assert sum(s for _, s in totals.values()) == pytest.approx(total, rel=1e-9)
    assert 0.0 <= root[1] <= total


def test_predictions_cover_every_per_layer_metric_once():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "predictions.json").read_text())
    listed = [m for layer in predictions["layers"] for m in layer["metrics"]]
    assert sorted(listed) == sorted(m["name"] for m in bench["per_layer"])
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    workloads = {wl["name"] for wl in bench["workloads"]}
    for layer in predictions["layers"]:
        assert {m["metric"] for m in layer["moves"]} <= end_to_end
        assert {m["workload"] for m in layer["moves"]} | set(layer["not_on"]) <= workloads
        assert set(layer["why"]) == workloads

"""CSV ingestion/emission round trips and the fixed output dialect."""

import io
import json

import pytest

from prevthresh import (
    ConfusionCounts,
    DiagnosticProfile,
    EmptyInput,
    ParseError,
    emit_curves,
    emit_ratio_curves,
    ingest_predictions,
    threshold_summary,
    write_predictions,
)

PHI_E = 0.1907435698305462
RHO_E = 0.8092564301694538
PHI_N = 0.7550344704135896

P_9095 = DiagnosticProfile(0.9, 0.95)


class TestIngest:
    def test_one_of_each(self):
        text = "label,prediction\n1,1\n0,1\n1,0\n0,0\n"
        assert ingest_predictions(io.StringIO(text)) == ConfusionCounts(1, 1, 1, 1)

    def test_all_true_positives(self):
        text = "label,prediction\n" + "1,1\n" * 10
        assert ingest_predictions(io.StringIO(text)) == ConfusionCounts(10, 0, 0, 0)

    def test_header_casing_and_padding(self):
        text = " Label , PREDICTION \n1,1\n"
        assert ingest_predictions(io.StringIO(text)) == ConfusionCounts(1, 0, 0, 0)

    def test_extra_and_reordered_columns(self):
        text = "id,prediction,score,label\nx,1,0.93,1\ny,0,0.12,0\n"
        assert ingest_predictions(io.StringIO(text)) == ConfusionCounts(1, 0, 0, 1)

    def test_blank_lines_are_skipped(self):
        text = "label,prediction\n1,1\n\n0,0\n"
        assert ingest_predictions(io.StringIO(text)) == ConfusionCounts(1, 0, 0, 1)

    def test_bad_value_names_row(self):
        text = "label,prediction\n1,1\n2,0\n"
        with pytest.raises(ParseError) as exc:
            ingest_predictions(io.StringIO(text))
        assert exc.value.row == 3
        assert "label" in str(exc.value)

    def test_bad_prediction_value(self):
        text = "label,prediction\n1,yes\n"
        with pytest.raises(ParseError) as exc:
            ingest_predictions(io.StringIO(text))
        assert "prediction" in str(exc.value)

    def test_short_row(self):
        text = "label,prediction\n1\n"
        with pytest.raises(ParseError) as exc:
            ingest_predictions(io.StringIO(text))
        assert exc.value.row == 2

    def test_missing_column(self):
        with pytest.raises(ParseError) as exc:
            ingest_predictions(io.StringIO("label,output\n1,1\n"))
        assert exc.value.row == 1

    def test_empty_file(self):
        with pytest.raises(EmptyInput):
            ingest_predictions(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(EmptyInput):
            ingest_predictions(io.StringIO("label,prediction\n"))

    def test_reads_byte_streams(self):
        counts = ingest_predictions(io.BytesIO(b"label,prediction\n1,1\n0,0\n"))
        assert counts == ConfusionCounts(1, 0, 0, 1)

    def test_reads_paths(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("label,prediction\n1,1\n1,0\n", encoding="utf-8")
        assert ingest_predictions(path) == ConfusionCounts(1, 0, 1, 0)
        assert ingest_predictions(str(path)) == ConfusionCounts(1, 0, 1, 0)

    def test_rejects_unreadable_source(self):
        with pytest.raises(TypeError):
            ingest_predictions(42)


class TestWritePredictions:
    def test_round_trip(self):
        counts = ConfusionCounts(tp=3, fp=2, fn=1, tn=4)
        sink = io.StringIO()
        assert write_predictions(counts, sink) == 10
        assert ingest_predictions(io.StringIO(sink.getvalue())) == counts

    def test_layout(self):
        sink = io.StringIO()
        write_predictions(ConfusionCounts(1, 1, 0, 1), sink)
        assert sink.getvalue() == "label,prediction\n1,1\n0,1\n0,0\n"


class TestEmitCurves:
    def test_header_and_row_count(self):
        sink = io.StringIO()
        rows = emit_curves(P_9095, 0.5, sink)
        lines = sink.getvalue().splitlines()
        assert rows == 3
        assert lines[0] == "phi,ppv,npv,kappa_ppv,kappa_npv"
        assert len(lines) == 4

    def test_lf_only(self):
        sink = io.StringIO()
        emit_curves(P_9095, 0.5, sink)
        assert "\r" not in sink.getvalue()

    def test_cells_round_trip_through_repr(self):
        sink = io.StringIO()
        emit_curves(P_9095, 0.25, sink)
        rows = [line.split(",") for line in sink.getvalue().splitlines()[1:]]
        from prevthresh import ppv_at

        for cells in rows:
            phi = float(cells[0])
            if cells[1]:
                assert float(cells[1]) == float(ppv_at(P_9095, phi))

    def test_monotone_columns_for_informative_profile(self):
        sink = io.StringIO()
        emit_curves(P_9095, 0.01, sink)
        rows = [line.split(",") for line in sink.getvalue().splitlines()[1:]]
        ppv = [float(c[1]) for c in rows]
        npv = [float(c[2]) for c in rows]
        assert ppv == sorted(ppv)
        assert npv == sorted(npv, reverse=True)

    def test_undefined_cells_are_empty(self):
        # Perfect specificity leaves ppv undefined at phi = 0; the row stays.
        sink = io.StringIO()
        emit_curves(DiagnosticProfile(0.9, 1.0), 0.5, sink)
        first = sink.getvalue().splitlines()[1].split(",")
        assert first[0] == "0.0"
        assert first[1] == ""
        assert first[2] != ""

    def test_sidecar_contents(self):
        sink, sidecar = io.StringIO(), io.StringIO()
        emit_curves(P_9095, 0.5, sink, sidecar=sidecar)
        payload = json.loads(sidecar.getvalue())
        assert payload["phi_e"] == pytest.approx(PHI_E, abs=1e-15)
        assert payload["ppv_at_phi_e"] == pytest.approx(RHO_E, abs=1e-15)
        assert payload["phi_n"] == pytest.approx(PHI_N, abs=1e-15)
        assert payload["npv_at_phi_n"] == pytest.approx(PHI_N, abs=1e-15)
        assert payload["informative"] is True
        assert payload["degenerate"] is False

    def test_irregular_step_appends_endpoint(self):
        sink = io.StringIO()
        rows = emit_curves(P_9095, 0.3, sink)
        grid = [float(line.split(",")[0]) for line in sink.getvalue().splitlines()[1:]]
        assert rows == 5
        assert grid[0] == 0.0
        assert grid[-1] == 1.0

    @pytest.mark.parametrize("step", [0.0, -0.1, 0.6, 9e-7, 1e-9])
    def test_rejects_bad_step(self, step):
        with pytest.raises(ValueError):
            emit_curves(P_9095, step, io.StringIO())


class TestThresholdSummary:
    def test_degenerate_profile_keeps_all_keys(self):
        payload = threshold_summary(DiagnosticProfile(0.0, 1.0))
        assert payload["phi_e"] is None
        assert payload["ppv_at_phi_e"] is None
        assert payload["phi_n"] == 0.5
        assert payload["npv_at_phi_n"] == 0.5
        assert payload["informative"] is False

    def test_chance_profile_flagged_degenerate(self):
        payload = threshold_summary(DiagnosticProfile(0.3, 0.7))
        assert payload["degenerate"] is True
        # Thresholds still exist; the curves are straight lines through them.
        assert payload["phi_e"] is not None

    def test_json_serializable(self):
        json.dumps(threshold_summary(P_9095))


class TestEmitRatioCurves:
    def test_header(self):
        sink = io.StringIO()
        emit_ratio_curves(P_9095, [0.5, 2.0], 0.5, sink)
        assert (
            sink.getvalue().splitlines()[0]
            == "phi,f1_chi,fbeta_0.5_chi,fbeta_2_chi,fm_chi"
        )

    def test_full_prevalence_row_is_unity(self):
        sink = io.StringIO()
        emit_ratio_curves(P_9095, [0.5], 0.5, sink)
        last = sink.getvalue().splitlines()[-1].split(",")
        assert last[0] == "1.0"
        assert all(cell == "1.0" for cell in last[1:])

    def test_zero_prevalence_row_is_empty(self):
        sink = io.StringIO()
        emit_ratio_curves(P_9095, [0.5], 0.5, sink)
        first = sink.getvalue().splitlines()[1].split(",")
        assert first[0] == "0.0"
        assert all(cell == "" for cell in first[1:])

    def test_columns_non_increasing(self):
        sink = io.StringIO()
        rows = emit_ratio_curves(P_9095, [0.5, 2.0], 0.05, sink)
        assert rows == 21
        parsed = [line.split(",") for line in sink.getvalue().splitlines()[1:]]
        for col in range(1, 5):
            values = [float(r[col]) for r in parsed if r[col]]
            assert values == sorted(values, reverse=True)

    def test_irregular_step(self):
        sink = io.StringIO()
        assert emit_ratio_curves(P_9095, [], 0.3, sink) == 5
        assert sink.getvalue().splitlines()[0] == "phi,f1_chi,fm_chi"

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            emit_ratio_curves(P_9095, [0.5], 0.6, io.StringIO())

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            emit_ratio_curves(P_9095, [0.0], 0.5, io.StringIO())

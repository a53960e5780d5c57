"""End-to-end CLI behavior: output shapes, exit codes, error grammar."""

import io
import json
import os
import re
import stat
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prevthresh
import prevthresh.cli as cli
import prevthresh.dataio as dataio
from prevthresh import BoundRecord, BoundsReport, BoundViolation
from prevthresh.cli import run_cli

PHI_E = 0.1907435698305462
PHI_N = 0.7550344704135896


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def source_env() -> dict:
    """The environment for a child interpreter that imports prevthresh from this source tree."""
    src = str(Path(prevthresh.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestThresholds:
    def test_text(self, capsys):
        code, out, err = run(
            capsys, "thresholds", "--sensitivity", "0.9", "--specificity", "0.95"
        )
        assert code == 0
        assert err == ""
        values = dict(line.split(" = ") for line in out.splitlines())
        assert float(values["phi_e"]) == pytest.approx(PHI_E, abs=1e-15)
        assert float(values["phi_n"]) == pytest.approx(PHI_N, abs=1e-15)
        assert values["informative"] == "yes"
        assert values["degenerate"] == "no"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "thresholds", "--sensitivity", "0.9", "--specificity", "0.95", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["phi_e"] == pytest.approx(PHI_E, abs=1e-15)
        assert payload["npv_at_phi_n"] == pytest.approx(PHI_N, abs=1e-15)

    def test_edge_profile_uses_nulls(self, capsys):
        code, out, _ = run(
            capsys, "thresholds", "--sensitivity", "0", "--specificity", "1", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["phi_e"] is None
        assert payload["phi_n"] == 0.5

    def test_invalid_rate(self, capsys):
        code, out, err = run(
            capsys, "thresholds", "--sensitivity", "1.5", "--specificity", "0.9"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:validation:")

    def test_missing_argument(self, capsys):
        code, _, err = run(capsys, "thresholds", "--sensitivity", "0.9")
        assert code == 1
        assert err.startswith("error:usage:")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "t.json"
        code, out, _ = run(
            capsys,
            "thresholds", "--sensitivity", "0.9", "--specificity", "0.95",
            "--json", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["phi_e"] == pytest.approx(PHI_E)


class TestCurves:
    def test_stdout_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "curves", "--sensitivity", "0.9", "--specificity", "0.95", "--step", "0.5",
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "phi,ppv,npv,kappa_ppv,kappa_npv"
        assert len(lines) == 4

    def test_output_writes_sidecar(self, capsys, tmp_path):
        target = tmp_path / "curves.csv"
        code, out, _ = run(
            capsys,
            "curves", "--sensitivity", "0.9", "--specificity", "0.95",
            "--step", "0.25", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert len(target.read_text().splitlines()) == 6
        sidecar = json.loads((tmp_path / "curves.csv.json").read_text())
        assert sidecar["phi_e"] == pytest.approx(PHI_E, abs=1e-15)

    def test_bad_step(self, capsys):
        code, _, err = run(
            capsys,
            "curves", "--sensitivity", "0.9", "--specificity", "0.95", "--step", "0.7",
        )
        assert code == 1
        assert err.startswith("error:validation:")

    def test_step_below_minimum(self, capsys):
        code, out, err = run(
            capsys,
            "curves", "--sensitivity", "0.9", "--specificity", "0.95", "--step", "1e-9",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:validation:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("specificity", ["1", "0"])
    def test_underflowing_curvature_leaves_cells_empty(self, capsys, specificity):
        code, out, err = run(
            capsys,
            "curves", "--sensitivity", "1e-300", "--specificity", specificity, "--step", "0.05",
        )
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert len(rows) == 22
        assert all(len(row.split(",")) == 5 for row in rows)


class TestRatios:
    def test_csv_curves(self, capsys):
        code, out, _ = run(
            capsys,
            "ratios", "--sensitivity", "0.9", "--specificity", "0.95", "--step", "0.5",
        )
        assert code == 0
        assert out.splitlines()[0] == "phi,f1_chi,fbeta_0.5_chi,fbeta_2_chi,fm_chi"

    def test_json_summary(self, capsys):
        code, out, _ = run(
            capsys,
            "ratios", "--sensitivity", "0.9", "--specificity", "0.95",
            "--betas", "0.5,2", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["f1_ratio"] == pytest.approx(1.1116484391347181, abs=1e-15)
        assert payload["f_beta_0.5_ratio"] == pytest.approx(1.1844626385704038, abs=1e-15)
        assert payload["mcc_ratio"] == pytest.approx(0.9691321758103707, abs=1e-14)

    def test_json_uses_null_when_undefined(self, capsys):
        code, out, _ = run(
            capsys,
            "ratios", "--sensitivity", "0.5", "--specificity", "0.5", "--json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["mcc_ratio"] is None
        assert payload["f1_ratio"] is not None

    def test_malformed_betas(self, capsys):
        code, _, err = run(
            capsys,
            "ratios", "--sensitivity", "0.9", "--specificity", "0.95", "--betas", "a,b",
        )
        assert code == 1
        assert err.startswith("error:usage:")

    def test_empty_betas(self, capsys):
        code, out, err = run(capsys, "ratios", "--sensitivity", "0.9", "--specificity", "0.95", "--betas", ",")
        assert (code, out, err) == (1, "", "error:usage: argument --betas: at least one beta is required\n")

    def test_large_beta_column_keeps_its_limit(self, capsys):
        # beta**2 is finite, beta**2 / sensitivity overflows: F-beta tends to the recall, each ratio to 1.
        code, out, err = run(capsys, *RATIOS_ARGV, "--betas", "1.3e154")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()]
        assert rows[0] == ["phi", "f1_chi", "fbeta_1.3e+154_chi", "fm_chi"]
        assert [row[2] for row in rows[1:]] == ["", "1.0", "1.0", "1.0", "1.0"]

    def test_overflowing_beta_square_column_is_empty(self, capsys):
        # beta**2 overflows: the score is inf/inf, as analyze's n/a, so every cell of its column is empty.
        code, out, err = run(capsys, *RATIOS_ARGV, "--betas", "2,1e200")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()]
        assert rows[0] == ["phi", "f1_chi", "fbeta_2_chi", "fbeta_1e+200_chi", "fm_chi"]
        assert [row[3] for row in rows[1:]] == [""] * 5
        assert all(row[2] for row in rows[2:])

    @pytest.mark.parametrize("to_file", [False, True])
    def test_overflowing_ratio_is_a_validation_error(self, capsys, tmp_path, to_file):
        # fm_ratio overflows to inf at sensitivity 5e-324, specificity 0.
        argv = ["ratios", "--json", "--sensitivity", "5e-324", "--specificity", "0"]
        if to_file:
            argv += ["--output", str(tmp_path / "ratios.json")]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error:validation: ratio value must be finite, got inf\n")
        assert list(tmp_path.iterdir()) == []


class TestAnalyze:
    def test_counts_text(self, capsys):
        code, out, _ = run(capsys, "analyze", "--counts", "9,1,1,9")
        assert code == 0
        assert "counts: tp=9 fp=1 fn=1 tn=9 n=20" in out
        assert "accuracy = 0.9" in out
        assert "mcc = 0.8" in out
        assert "chi_square = 12.8" in out

    def test_counts_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "--counts", "9,1,1,9", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["metrics"]["mcc"] == pytest.approx(0.8, abs=1e-12)
        assert payload["flags"]["informative"] is True

    def test_malformed_counts(self, capsys):
        code, _, err = run(capsys, "analyze", "--counts", "9,1,1")
        assert code == 1
        assert err.startswith("error:usage:")

    def test_negative_counts(self, capsys):
        code, _, err = run(capsys, "analyze", "--counts=-1,1,1,1")
        assert code == 1
        assert err.startswith("error:validation:")

    def test_predictions_file(self, capsys, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text(
            "label,prediction\n" + "1,1\n" * 9 + "0,1\n" + "1,0\n" + "0,0\n" * 9,
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "analyze", "--predictions", str(path))
        assert code == 0
        assert "mcc = 0.8" in out

    def test_predictions_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", "--predictions", str(tmp_path / "nope.csv"))
        assert code == 1
        assert err.startswith("error:io:")

    def test_predictions_bad_row(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,prediction\n1,1\n7,0\n", encoding="utf-8")
        code, _, err = run(capsys, "analyze", "--predictions", str(path))
        assert code == 1
        assert err.startswith("error:parse: row 3:")

    def test_overflowing_fm_ratio_is_undefined(self, capsys):
        # Sensitivity 5e-324 with specificity 0 overflows fm_ratio; ratios --json calls that an
        # error (test_overflowing_ratio_is_a_validation_error), while the report shows it undefined.
        counts = f"1,5,{2**1074 - 1},0"
        code, out, err = run(capsys, "analyze", "--counts", counts, "--json")
        assert (code, err) == (0, "")
        ratios = json.loads(out)["ratios"]
        assert ratios["fm_ratio"] is None and ratios["f1_ratio"] == 1.0
        code, out, err = run(capsys, "analyze", "--counts", counts)
        assert (code, err) == (0, "")
        assert "  fm_ratio = n/a\n" in out

    def test_perfect_table_keeps_its_chi_square(self, capsys):
        # The unclamped MCC of this table rounds to 1.0000000000000002, which left chi_square n/a.
        code, out, err = run(capsys, "analyze", "--counts", "679773874,0,0,93")
        assert (code, err) == (0, "")
        assert "  mcc = 1.0\n  chi_square = 679773967.0\n" in out

    def test_single_class_input(self, capsys):
        code, _, err = run(capsys, "analyze", "--counts", "5,0,5,0")
        assert code == 1
        assert err.startswith("error:undefined-metric:")

    def test_counts_and_predictions_conflict(self, capsys, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("label,prediction\n1,1\n", encoding="utf-8")
        code, _, err = run(
            capsys, "analyze", "--counts", "1,1,1,1", "--predictions", str(path)
        )
        assert code == 1
        assert err.startswith("error:usage:")

    def test_overflowing_beta_square_text(self, capsys):
        # 1e200**2 overflows, so the F-beta score's harmonic form would be inf/inf.
        code, out, err = run(capsys, "analyze", "--counts", "5,1,1,5", "--betas", "1e200")
        assert (code, err) == (0, "")
        assert "  f_beta_1e+200 = n/a\n" in out
        assert "  f_beta_1e+200_ratio = 1.0\n" in out
        assert "nan" not in out

    def test_overflowing_beta_square_json(self, capsys):
        code, out, err = run(capsys, "analyze", "--counts", "5,1,1,5", "--betas", "1e200", "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["metrics"]["f_beta_1e+200"] is None
        assert payload["ratios"]["f_beta_1e+200_ratio"] == 1.0

    def test_large_beta_tends_to_recall(self, capsys):
        # 1.3e154**2 is finite but its quotient by the recall 5/6 overflows.
        code, out, err = run(capsys, "analyze", "--counts", "5,1,1,5", "--betas", "1.3e154", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["metrics"]["f_beta_1.3e+154"] == pytest.approx(5 / 6, rel=1e-15)

    def test_oversized_field_is_a_parse_error(self, capsys, tmp_path):
        # A field over csv's 131,072-character limit on row 3.
        path = tmp_path / "wide.csv"
        path.write_text("label,prediction\n1,1\n0," + "1" * 140_000 + "\n0,0\n", encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--predictions", str(path))
        assert (code, out) == (1, "")
        assert err == "error:parse: row 3: field larger than field limit (131072)\n"

    def test_non_utf8_file_is_one_parse_error_line(self, capsys, tmp_path):
        # 5,001 data rows, the last holding a byte that is not UTF-8.
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"label,prediction\n" + b"1,1\n0,0\n" * 2500 + b"1,\xff\n")
        code, out, err = run(capsys, "analyze", "--predictions", str(path), "--output", str(tmp_path / "out.txt"))
        assert (code, out) == (1, "")
        assert re.fullmatch(
            r"error:parse: input is not UTF-8 \(invalid start byte\); decoding failed after data row \d+\n", err
        )
        assert "position" not in err and "Traceback" not in err
        assert not (tmp_path / "out.txt").exists()

    def test_counts_beyond_float_range(self, capsys):
        # n has 1,330 bits: the MCC is still computed, the chi-square statistic is not representable.
        big = "1" + "0" * 400
        code, out, err = run(capsys, "analyze", "--counts", f"{big},1,1,{big}")
        assert (code, err) == (0, "")
        assert "  mcc = 1.0\n" in out
        assert "  chi_square = n/a\n" in out

    def test_total_beyond_float_range_text(self, capsys):
        # n = 10**309 + 3: only the chi-square statistic is n/a, the rest of the report stands.
        code, out, err = run(capsys, "analyze", "--counts", f"{10**309},1,1,1")
        assert (code, err) == (0, "")
        assert "  mcc = 0.5\n" in out
        assert "  chi_square = n/a\n" in out
        assert "  f1 = 1.0\n" in out
        assert "  phi_e = 0.4142135623730951\n" in out
        assert out.count("n/a") == 2  # chi_square and npv_at_phi_n, which is undefined at sensitivity 1

    @pytest.mark.parametrize(
        "counts",
        [
            "1" * 5000 + ",1,1,1",
            "1,1,1," + "1" * 5000,
            # Each count fits, their total has one digit too many for any output to print it.
            ",".join(["9" * 4300] * 4),
        ],
        ids=["count-over-limit", "last-count-over-limit", "total-over-limit"],
    )
    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_integers_over_the_digit_limit_are_usage_errors(self, capsys, counts, json_flag):
        code, out, err = run(capsys, "analyze", "--counts", counts, *json_flag)
        assert (code, out) == (1, "")
        assert err.startswith("error:usage: argument --counts: ") and err.count("\n") == 1
        assert f"at most {sys.get_int_max_str_digits()} digits" in err
        assert len(err) < 300

    def test_limit_is_the_interpreters(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert run(capsys, "analyze", "--counts", "1,1,1," + "1" * 641)[2].count("at most 640 digits") == 1
            assert run(capsys, "analyze", "--counts", "1,1,1," + "1" * 640)[0] == 0
        finally:
            sys.set_int_max_str_digits(limit)

    def test_long_malformed_counts_are_echoed_in_part(self, capsys):
        code, out, err = run(capsys, "analyze", "--counts", "1" * 5000 + "x,1,1,1")
        assert (code, out) == (1, "")
        assert err == f"error:usage: argument --counts: counts must be integers, got {'1' * 64!r}... (5007 characters)\n"

    def test_total_beyond_float_range_json(self, capsys):
        code, out, err = run(capsys, "analyze", "--counts", f"{10**309},1,1,1", "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["counts"]["n"] == 10**309 + 3
        assert payload["metrics"]["mcc"] == 0.5
        assert payload["metrics"]["chi_square"] is None
        assert payload["ratios"]["mcc_ratio"] is not None


class TestSimulate:
    ARGS = (
        "simulate", "--prevalence", "0.19", "--sensitivity", "0.9",
        "--specificity", "0.95", "--n", "5000", "--seed", "11",
    )

    def test_deterministic_output(self, capsys):
        first = run(capsys, *self.ARGS, "--json")
        second = run(capsys, *self.ARGS, "--json")
        assert first == second
        assert first[0] == 0

    def test_payload_shape(self, capsys):
        _, out, _ = run(capsys, *self.ARGS, "--json")
        payload = json.loads(out)
        counts = payload["counts"]
        assert counts["n"] == 5000
        assert counts["tp"] + counts["fp"] + counts["fn"] + counts["tn"] == 5000
        assert payload["config"]["seed"] == 11
        assert abs(payload["empirical"]["ppv"] - payload["analytic"]["ppv"]) < 0.1

    def test_round_trip_into_analyze(self, capsys):
        _, out, _ = run(capsys, *self.ARGS, "--json")
        c = json.loads(out)["counts"]
        code, out, _ = run(
            capsys,
            "analyze", "--counts", f"{c['tp']},{c['fp']},{c['fn']},{c['tn']}", "--json",
        )
        assert code == 0
        assert json.loads(out)["counts"]["n"] == 5000

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        assert out.startswith("counts: tp=")
        assert "analytic:" in out

    def test_bad_n(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--prevalence", "0.2", "--sensitivity", "0.9",
            "--specificity", "0.95", "--n", "0",
        )
        assert code == 1
        assert err.startswith("error:validation:")

    def test_bad_prevalence_is_reported_before_a_bad_profile(self, capsys):
        code, out, err = run(
            capsys,
            "simulate", "--prevalence", "3", "--sensitivity", "2", "--specificity", "0.9", "--n", "10",
        )
        assert (code, out) == (1, "")
        assert err == "error:validation: rate must be a finite number in [0, 1], got 3.0\n"

    @pytest.mark.parametrize("flag", ["--n", "--seed"])
    def test_integer_over_the_digit_limit_is_a_usage_error(self, capsys, flag):
        code, out, err = run(capsys, *self.ARGS[:7], "--n", "10", flag, "2" * 5000)
        assert (code, out) == (1, "")
        limit = sys.get_int_max_str_digits()
        assert err == (
            f"error:usage: argument {flag}: integers may have at most {limit} digits"
            f" (sys.get_int_max_str_digits()), got {'2' * 64!r}... (5000 characters)\n"
        )

    def test_n_beyond_int64(self, capsys):
        code, out, err = run(
            capsys,
            "simulate", "--prevalence", "0.3", "--sensitivity", "0.9",
            "--specificity", "0.9", "--n", "100000000000000000000",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error:validation:")
        assert len(err.splitlines()) == 1


class TestVerifyBounds:
    def test_clean_sweep_exits_zero(self, capsys):
        code, out, err = run(capsys, "verify-bounds", "--grid-step", "0.05")
        payload = json.loads(out)
        assert code == 0
        assert err == ""
        assert payload["violation_count"] == 0
        assert set(payload["metrics"]) == {"f1", "f_beta_0.5", "f_beta_1", "f_beta_2", "fm", "mcc"}

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify-bounds", "--grid-step", "0.05", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["grid_step"] == 0.05

    def test_bad_grid_step(self, capsys):
        code, _, err = run(capsys, "verify-bounds", "--grid-step", "0.2")
        assert code == 1
        assert err.startswith("error:validation:")

    def test_grid_step_below_minimum(self, capsys):
        code, out, err = run(capsys, "verify-bounds", "--grid-step", "1e-7")
        assert (code, out) == (1, "")
        assert err.startswith("error:validation:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "flag, value", [("--delta", "nan"), ("--delta", "inf"), ("--tolerance", "nan"), ("--tolerance", "inf")]
    )
    def test_non_finite_margin_is_rejected(self, capsys, tmp_path, flag, value):
        target = tmp_path / "report.json"
        code, out, err = run(capsys, "verify-bounds", "--grid-step", "0.05", flag, value, "--output", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("error:validation:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_violations_exit_two(self, capsys, monkeypatch):
        # The bounds are theorems, so a violating report cannot be produced
        # honestly; fabricate one to exercise the exit-code contract.
        violation = BoundViolation(
            sensitivity=0.5, specificity=0.6, value=9.9, lower=1.0, upper=1.5
        )
        record = BoundRecord(
            metric="f1", lower=1.0, upper=1.5, cells=1,
            observed_min=9.9, observed_max=9.9, argmin=(0.5, 0.6), argmax=(0.5, 0.6),
            violations=(violation,), skipped=(),
        )
        fake = BoundsReport(
            grid_step=0.05, delta=1e-6, tolerance=1e-9,
            constraint="sensitivity + specificity >= 1.000001",
            cells_swept=1, records=(record,),
        )
        monkeypatch.setattr(cli, "verify_bounds", lambda **kwargs: fake)
        code, out, _ = run(capsys, "verify-bounds")
        assert code == 2
        assert json.loads(out)["violation_count"] == 1


class TestNegativeValues:
    """A value that starts with "-" reaches its flag's validation in both argv spellings."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (("verify-bounds",), "--delta", "-inf"),
            (("verify-bounds",), "--delta", "-1e-5"),
            (("verify-bounds",), "--tolerance", "-nan"),
            (("curves", "--sensitivity", "0.9", "--specificity", "0.95"), "--step", "-1e-6"),
            (("thresholds", "--specificity", "0.95"), "--sensitivity", "-1e-3"),
        ],
        ids=["delta-inf", "delta-1e-5", "tolerance-nan", "step-1e-6", "sensitivity-1e-3"],
    )
    def test_separate_value_matches_equals_form(self, capsys, command, flag, value):
        joined = run(capsys, *command, f"{flag}={value}")
        separate = run(capsys, *command, flag, value)
        code, out, err = separate
        assert separate == joined
        assert (code, out) == (1, "")
        assert err.startswith("error:validation:") and err.count("\n") == 1


PROFILE_ARGS = ("--sensitivity", "0.9", "--specificity", "0.95")
SIMULATE_ARGS = ("simulate", "--prevalence", "0.2", *PROFILE_ARGS)
FLOAT_ERROR = "invalid float value: '--'"
INT_ERROR = "invalid int value: '--'"
BETAS_ERROR = "betas must be numbers, got '--'"
DOUBLE_DASH_CASES = [
    (("thresholds", "--specificity", "0.9"), "--sensitivity", FLOAT_ERROR),
    (("thresholds", "--sensitivity", "0.9"), "--specificity", FLOAT_ERROR),
    (("curves", *PROFILE_ARGS), "--step", FLOAT_ERROR),
    (("ratios", *PROFILE_ARGS, "--json"), "--betas", BETAS_ERROR),
    (("ratios", *PROFILE_ARGS), "--step", FLOAT_ERROR),
    (("analyze",), "--counts", "expected tp,fp,fn,tn, got '--'"),
    (("analyze", "--counts", "9,1,1,9"), "--betas", BETAS_ERROR),
    (("simulate", *PROFILE_ARGS, "--n", "10"), "--prevalence", FLOAT_ERROR),
    (SIMULATE_ARGS, "--n", INT_ERROR),
    ((*SIMULATE_ARGS, "--n", "10"), "--seed", INT_ERROR),
    (("verify-bounds",), "--grid-step", FLOAT_ERROR),
    (("verify-bounds",), "--delta", FLOAT_ERROR),
    (("verify-bounds",), "--tolerance", FLOAT_ERROR),
]


class TestDoubleDashValue:
    """"--flag=--" hands "--" to the flag's own type on every supported Python, as 3.13 does.

    3.10 to 3.12 stored [] for the flag without calling its type: a
    traceback, a silently empty --betas or "got []".
    """

    @pytest.mark.parametrize(
        "command, flag, message", DOUBLE_DASH_CASES, ids=[command[0] + flag for command, flag, _ in DOUBLE_DASH_CASES]
    )
    def test_value_reaches_the_flags_type(self, capsys, command, flag, message):
        assert run(capsys, *command, f"{flag}=--") == (1, "", f"error:usage: argument {flag}: {message}\n")

    def test_predictions_names_a_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "analyze", "--predictions=--") == (
            1, "", "error:io: [Errno 2] No such file or directory: '--'\n"
        )

    def test_output_names_a_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _, text, _ = run(capsys, "thresholds", *PROFILE_ARGS)
        assert run(capsys, "thresholds", *PROFILE_ARGS, "--output=--") == (0, "", "")
        assert (tmp_path / "--").read_text(encoding="utf-8") == text


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "verify-bounds" in out

    def test_version(self, capsys):
        code, out, err = run(capsys, "--version")
        assert (code, out, err) == (0, f"prevthresh {prevthresh.__version__}\n", "")

    def test_no_command(self, capsys):
        code, _, err = run(capsys)
        assert code == 1
        assert err.startswith("error:usage:")

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert err.startswith("error:usage:")

    def test_main_raises_system_exit(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.argv",
            ["prevthresh", "thresholds", "--sensitivity", "0.9", "--specificity", "0.95"],
        )
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 0

    @pytest.mark.parametrize("module", ["prevthresh", "prevthresh.cli"])
    def test_python_dash_m(self, capsys, module):
        def python_m(*argv):
            return subprocess.run(
                [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=source_env(), timeout=120
            )

        argv = ["thresholds", "--sensitivity", "0.9", "--specificity", "0.95", "--json"]
        proc = python_m(*argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run(capsys, *argv)[1]
        proc = python_m("thresholds", "--sensitivity", "2", "--specificity", "0.95")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:validation:") and proc.stderr.count("\n") == 1


# Calls that need no array, run in one fresh interpreter; the last one
# builds a grid, so the probe shows that it would see numpy load.
PROFILE_ARGV = ("--sensitivity", "0.9", "--specificity", "0.95")
SIMULATE_ARGV = ("simulate", "--prevalence", "0.1", *PROFILE_ARGV)
# Each case: the argv before the echoed argument, its text at a given length,
# how a whole argument is shown, and the error line with {} where it is shown.
ECHO_CASES = {
    "betas": (
        ("ratios", *PROFILE_ARGV, "--betas"), lambda k: "x" * k, repr,
        "error:usage: argument --betas: betas must be numbers, got {}\n",
    ),
    "float": (
        ("thresholds", "--specificity", "0.95", "--sensitivity"), lambda k: "x" * k, repr,
        "error:usage: argument --sensitivity: invalid float value: {}\n",
    ),
    "command": (
        (), lambda k: "x" * k, repr,
        "error:usage: argument command: invalid choice: {} (choose from 'thresholds', 'curves', 'ratios',"
        " 'analyze', 'simulate', 'verify-bounds')\n",
    ),
    "unrecognized": (
        ("thresholds", *PROFILE_ARGV), lambda k: "x" * k, str,
        "error:usage: unrecognized arguments: {}\n",
    ),
    "n": (
        (*SIMULATE_ARGV, "--n"), lambda k: "9" * k, str,
        "error:validation: n must fit in a signed 64-bit integer, got {}\n",
    ),
    "negative-n": (
        (*SIMULATE_ARGV, "--n"), lambda k: "-" + "9" * (k - 1), str,
        "error:validation: n must be a positive integer, got {}\n",
    ),
    "seed": (
        (*SIMULATE_ARGV, "--n", "10", "--seed"), lambda k: "9" * k, str,
        "error:validation: seed must fit in an unsigned 64-bit integer, got {}\n",
    ),
}


@pytest.mark.parametrize("length", [64, 65, 4000])
@pytest.mark.parametrize("case", list(ECHO_CASES))
def test_error_line_echoes_at_most_64_characters_of_an_argument(capsys, case, length):
    # Up to 64 characters an argument is echoed whole, as before; a longer one by its first 64 and its length.
    argv, make, show, line = ECHO_CASES[case]
    arg = make(length)
    shown = show(arg) if length <= 64 else f"{show(arg[:64])}... ({length} characters)"
    assert run(capsys, *argv, arg) == (1, "", line.format(shown))


@pytest.mark.parametrize("length", [3, 64, 65, 4000])
def test_option_parsing_errors_echo_at_most_64_characters(capsys, length):
    # argparse's own "ignored explicit argument" (of --flag=value and -hvalue)
    # and "ambiguous option" lines, byte for byte as argparse words them up to
    # 64 characters.
    value = "x" * length
    shown = repr(value) if length <= 64 else f"{value[:64]!r}... ({length} characters)"
    line = f"error:usage: argument --json: ignored explicit argument {shown}\n"
    assert run(capsys, "thresholds", *PROFILE_ARGV, f"--json={value}") == (1, "", line)
    option = ("--s=" + value)[:length]
    shown = option if length <= 64 else f"{option[:64]}... ({length} characters)"
    line = f"error:usage: ambiguous option: {shown} could match --sensitivity, --specificity\n"
    assert run(capsys, "thresholds", option) == (1, "", line)
    shown = repr(value) if length <= 64 else f"{value[:64]!r}... ({length} characters)"
    line = f"error:usage: argument -h/--help: ignored explicit argument {shown}\n"
    assert run(capsys, "thresholds", f"-h{value}") == (1, "", line)


def test_an_argument_inside_a_longer_one_is_cut_on_its_own(capsys):
    short, long = "x" * 100, "x" * 200
    line = f"error:usage: unrecognized arguments: {'x' * 64}... (100 characters) {'x' * 64}... (200 characters)\n"
    assert run(capsys, "thresholds", *PROFILE_ARGV, short, long) == (1, "", line)


# Per bad part of a prediction file: the file around it, and the error line's start.
INGEST_ECHO_CASES = {
    "label": (lambda t: f"label,prediction\n1,1\n{t},1\n", "error:parse: row 3: label must be 0 or 1, got "),
    "prediction": (lambda t: f"label,prediction\n0,{t}\n", "error:parse: row 2: prediction must be 0 or 1, got "),
    "header": (
        lambda t: f"{t},prediction\n1,1\n",
        "error:parse: row 1: header must name 'label' and 'prediction' columns, got ",
    ),
}


@pytest.mark.parametrize("length", [3, 64, 65, 100_000])
@pytest.mark.parametrize("case", list(INGEST_ECHO_CASES))
def test_ingest_error_line_echoes_at_most_64_characters(capsys, tmp_path, case, length):
    # A token up to 64 characters is echoed whole, as before; a longer one (or a
    # header whose repr is longer) by its first 64 characters and its length.
    make, start = INGEST_ECHO_CASES[case]
    token = "7" * length
    path = tmp_path / "predictions.csv"
    path.write_text(make(token), encoding="utf-8")
    if case == "header":
        header = repr([token, "prediction"])
        shown = header if len(header) <= 64 else f"{header[:64]}... ({len(header)} characters)"
    else:
        shown = repr(token) if length <= 64 else f"{token[:64]!r}... ({length} characters)"
    assert run(capsys, "analyze", "--predictions", str(path)) == (1, "", start + shown + "\n")


def test_short_ingest_tokens_are_echoed_as_before(capsys, tmp_path):
    path = tmp_path / "predictions.csv"
    path.write_text("label,prediction\n1,1\n0,yes\n", encoding="utf-8")
    assert run(capsys, "analyze", "--predictions", str(path)) == (
        1, "", "error:parse: row 3: prediction must be 0 or 1, got 'yes'\n"
    )
    path.write_text("lbl,pred\n1,1\n", encoding="utf-8")
    assert run(capsys, "analyze", "--predictions", str(path)) == (
        1, "", "error:parse: row 1: header must name 'label' and 'prediction' columns, got ['lbl', 'pred']\n"
    )


NUMPY_FREE_ARGV = [
    ["thresholds", "--sensitivity", "0.9", "--specificity", "0.95"],
    ["ratios", "--sensitivity", "0.9", "--specificity", "0.95", "--json"],
    ["analyze", "--counts", "9,1,1,9"],
    ["simulate", "--prevalence", "0.19", "--sensitivity", "0.9", "--specificity", "0.95", "--n", "1000000", "--json"],
    ["thresholds", "--sensitivity", "1.5", "--specificity", "0.95"],
    ["--help"],
    ["--version"],
]
GRID_ARGV = ["curves", "--sensitivity", "0.9", "--specificity", "0.95", "--step", "0.5"]
IMPORT_PROBE = """
import contextlib, io, json, sys
import prevthresh
[getattr(prevthresh, name) for name in prevthresh.__all__]
report = {"import": "numpy" in sys.modules, "codes": [], "numpy": []}
from prevthresh.cli import run_cli
report["rng"] = "prevthresh._rng" in sys.modules
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        report["codes"].append(run_cli(argv))
    report["numpy"].append("numpy" in sys.modules)
report["metadata"] = "importlib.metadata" in sys.modules
report["ingest"] = "prevthresh._ingest" in sys.modules
report["unused_stdlib"] = [name for name in json.loads(sys.argv[2]) if name in sys.modules]
print(json.dumps(report))
"""
# Standard-library modules that no CLI call needs; each costs milliseconds to import.
UNUSED_STDLIB = ("dataclasses", "inspect", "typing", "pathlib")


class TestColdStart:
    """The scalar subcommands, simulate, --help and --version run without importing numpy or UNUSED_STDLIB."""

    @staticmethod
    def run_probe(*flags, argvs):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", IMPORT_PROBE, json.dumps(argvs), json.dumps(UNUSED_STDLIB)],
            capture_output=True, text=True, env=source_env(), timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        return json.loads(proc.stdout)

    @pytest.fixture(scope="class")
    def probe(self):
        return self.run_probe(argvs=NUMPY_FREE_ARGV + [GRID_ARGV])

    @pytest.fixture(scope="class")
    def bare_probe(self):
        # -S skips site, whose .pth files may preload typing or pathlib and so hide an import of them.
        return self.run_probe("-S", argvs=NUMPY_FREE_ARGV)

    def test_package_namespace_loads_no_numpy(self, probe):
        assert probe["import"] is False

    def test_ingest_block_pass_loads_only_to_read_a_prediction_file(self, probe):
        assert probe["ingest"] is False

    def test_pure_python_generator_loads_only_to_simulate(self, probe):
        assert probe["rng"] is False

    def test_scalar_subcommands_load_no_numpy(self, probe):
        assert probe["codes"] == [0, 0, 0, 0, 1, 0, 0, 0]
        assert probe["numpy"] == [False] * len(NUMPY_FREE_ARGV) + [True]
        assert probe["metadata"] is False

    def test_scalar_subcommands_load_no_unused_stdlib(self, bare_probe):
        assert bare_probe["codes"] == [0, 0, 0, 0, 1, 0, 0]
        assert bare_probe["unused_stdlib"] == []


# Vocabulary of the argv fuzz: each subcommand's flags with a valid value
# (None for switches), every flag again for stray use, and values that are
# out of range, NaN, infinite, negative, huge, subnormal or not numbers, or
# "--" and "-". A flag takes its value as the next argument or as
# "--flag=value", which passes a value such as "--" that the other form
# cannot.
# Every numeric value is either >= 0.01 or below the smallest accepted step,
# so no drawn --step or --grid-step builds a large grid. verify-bounds'
# --delta and --tolerance take a non-finite value in place of their valid
# one a fifth of the time, since a NaN or inf sweep margin is what a JSON
# report could otherwise carry.
OUT = "{dir}/out.csv"
FUZZ_COMMANDS = {
    "thresholds": {"--sensitivity": "0.9", "--specificity": "0.95", "--json": None, "--output": OUT},
    "curves": {"--sensitivity": "0.9", "--specificity": "0.95", "--step": "0.05", "--output": OUT},
    "ratios": {
        "--sensitivity": "0.9", "--specificity": "0.95", "--step": "0.05", "--betas": "0.5,2", "--json": None,
        "--output": OUT,
    },
    "analyze": {
        "--counts": "9,1,1,9", "--predictions": "{dir}/good.csv", "--betas": "1,3", "--json": None, "--output": OUT,
    },
    "simulate": {
        "--prevalence": "0.3", "--sensitivity": "0.9", "--specificity": "0.95", "--n": "1000", "--seed": "7",
        "--json": None, "--output": OUT,
    },
    "verify-bounds": {"--grid-step": "0.05", "--delta": "0.01", "--tolerance": "0", "--output": OUT},
    "frobnicate": {},
    "--help": {},
}
FUZZ_FLAGS = sorted({flag for flags in FUZZ_COMMANDS.values() for flag in flags} | {"--help", "--bogus"})
FUZZ_VALUES = (
    "0", "1", "0.5", "0.05", "0.01", "2", "-1", "-0.5", "1.5", "1e-300", "1e-9", "5e-324", "1e308", "1e200",
    "1.3e154",
    "nan", "-nan", "inf", "-inf", "9" * 30, "1" + "0" * 400, "abc", "", "0x10",
    "0.5,,2", "1,nan", "5,0,5,0", "0,0,0,0", "1,2,3", "-1,1,1,1", "1.5,1,1,1", ",".join(["1" + "0" * 400] * 4),
    "{dir}/bad.csv", "{dir}/crlf.csv", "{dir}/quoted.csv", "{dir}/wide.csv", "{dir}/missing.csv",
    "{dir}/no-such-dir/out.csv", "--", "-",
)
NON_FINITE = ("nan", "inf", "NaN", "Infinity")
NON_FINITE_FLAGS = {"--delta", "--tolerance"}
ERROR_LINE = re.compile(r"error:[a-z-]+: [^\n]*\n")


def reject_constant(name: str):
    raise ValueError(f"output holds {name}, which is not JSON")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv-fuzz")
    (root / "good.csv").write_text("label,prediction\n1,1\n0,1\n1,0\n0,0\n0,0\n", encoding="utf-8")
    (root / "bad.csv").write_text("label,prediction\n1,1\n1,7\n", encoding="utf-8")
    # CRLF line ends, a quoted field across lines (read row by row) and a field over csv's limit (a ParseError).
    (root / "crlf.csv").write_bytes(b"label,prediction\r\n1,1\r\n0,0\r\n\r\n1,0\r\n")
    (root / "quoted.csv").write_text('id,label,prediction\n"a\nb",1,1\n"c",0,"0"\n', encoding="utf-8")
    (root / "wide.csv").write_text("label,prediction\n1,1\n0," + "1" * 140_000 + "\n", encoding="utf-8")
    return root


def fuzz_argv(fuzz_dir, command: str, options: list[list[str]], joins: list[bool]) -> tuple[list[str], str | None]:
    """The argv of command and options, and the last --output path in it.

    Each option is [flag] or [flag, value]; a value goes in its own
    argument, or in the flag's as "--flag=value" where joins says so.
    """
    argv, output = [command], None
    for option, join in zip(options, joins):
        option = [token.format(dir=fuzz_dir) for token in option]
        if option[0] == "--output" and len(option) == 2:
            output = option[1]
        argv += ["=".join(option)] if join and len(option) == 2 else option
    return argv, output


def assert_error_contract(fuzz_dir, argv: list[str], output: str | None) -> None:
    """run_cli(argv) exits 0, 1 or 2 without a traceback, with one error line on exit 1 and strict JSON."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(fuzz_dir)  # a stray "--output VALUE" writes a file named VALUE
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = run_cli(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    if code == 1:
        assert ERROR_LINE.fullmatch(err.getvalue()), argv
        # Input validation names a non-finite value first; the JSON writers' refusal is a last resort.
        assert "not JSON compliant" not in err.getvalue(), argv
    else:
        assert err.getvalue() == "", argv
    if code == 2:
        assert argv[0] == "verify-bounds"
    if code in (0, 2) and ("--json" in argv or argv[0] == "verify-bounds") and "--help" not in argv:
        # The JSON went to the last --output path, or to stdout without one.
        text = out.getvalue() if output is None else Path(fuzz_dir, output).read_text(encoding="utf-8")
        json.loads(text, parse_constant=reject_constant)


@settings(max_examples=300)
@given(data=st.data())
def test_argv_fuzz_keeps_error_contract(fuzz_dir, data):
    """Any argv from the vocabulary exits 0, 1 or 2 without a traceback, with one error line on exit 1 and strict JSON."""
    command = data.draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    options = []
    for flag, valid in FUZZ_COMMANDS[command].items():
        # Mostly the valid value; sometimes a vocabulary value, a missing value or no flag at all.
        how = data.draw(st.integers(0, 4))
        if how == 2 and flag in NON_FINITE_FLAGS:
            options.append([flag, data.draw(st.sampled_from(NON_FINITE))])
        elif how < 3:
            options.append([flag] if valid is None else [flag, valid])
        elif how == 3:
            value = data.draw(st.one_of(st.none(), st.sampled_from(FUZZ_VALUES)))
            options.append([flag] if value is None else [flag, value])
    for flag in data.draw(st.lists(st.sampled_from(FUZZ_FLAGS), max_size=1)):
        options.append([flag, data.draw(st.sampled_from(FUZZ_VALUES))])
    options = data.draw(st.permutations(options))
    joins = [len(option) == 2 and data.draw(st.booleans()) for option in options]
    assert_error_contract(fuzz_dir, *fuzz_argv(fuzz_dir, command, options, joins))


def test_each_vocabulary_value_in_an_otherwise_valid_argv_keeps_error_contract(fuzz_dir):
    """Every value-taking flag, given every vocabulary value as "--flag=value", last in an argv of valid values.

    A bad value reaches its flag's type only when no other argument
    fails first, which a random argv of the vocabulary seldom allows.
    The joined form passes every value, "--" included, to the flag.
    """
    for command, flags in FUZZ_COMMANDS.items():
        for bad in [flag for flag, valid in flags.items() if valid is not None]:
            # --counts and --predictions exclude each other; only one of them is given.
            left_out = {bad, "--counts" if bad == "--predictions" else "--predictions"}
            rest = [[flag] if valid is None else [flag, valid] for flag, valid in flags.items() if flag not in left_out]
            for value in FUZZ_VALUES:
                argv, output = fuzz_argv(fuzz_dir, command, [*rest, [bad, value]], [False] * len(rest) + [True])
                assert_error_contract(fuzz_dir, argv, output)


CURVES_ARGV = ("curves", "--sensitivity", "0.9", "--specificity", "0.95", "--step", "0.25")
RATIOS_ARGV = ("ratios", "--sensitivity", "0.9", "--specificity", "0.95", "--step", "0.25")


class TestNonFiniteJson:
    """A payload holding NaN or an infinity is refused, never written as bare NaN or Infinity."""

    def test_stdout_payload(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "threshold_summary", lambda profile: {"phi_e": float("nan")})
        code, out, err = run(capsys, "thresholds", "--sensitivity", "0.9", "--specificity", "0.95", "--json")
        assert (code, out) == (1, "")
        assert err.startswith("error:validation:") and err.count("\n") == 1

    def test_curves_sidecar(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(dataio, "threshold_summary", lambda profile: {"phi_e": float("inf")})
        code, out, err = run(capsys, *CURVES_ARGV, "--output", str(tmp_path / "c.csv"))
        assert (code, out) == (1, "")
        assert err.startswith("error:validation:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestOutputFile:
    """--output publishes a complete file on success and leaves nothing on failure."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("ratios", "--sensitivity", "0", "--specificity", "0.95"),
            ("curves", "--sensitivity", "0.9", "--specificity", "0.95", "--step", "1e-9"),
        ],
    )
    def test_failure_leaves_no_file(self, capsys, tmp_path, argv):
        target = tmp_path / "out.csv"
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_failure_keeps_previous_contents(self, capsys, tmp_path):
        target = tmp_path / "c.csv"
        target.write_text("old\n")
        (tmp_path / "c.csv.json").write_text("{}\n")
        argv = ("curves", "--sensitivity", "0.9", "--specificity", "0.95", "--step", "1e-9")
        code, _, _ = run(capsys, *argv, "--output", str(target))
        assert code == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "c.csv.json"]
        assert target.read_text() == "old\n"
        assert (tmp_path / "c.csv.json").read_text() == "{}\n"

    @pytest.mark.parametrize("argv", [CURVES_ARGV, RATIOS_ARGV])
    def test_success_writes_stdout_bytes(self, capsys, tmp_path, argv):
        target = tmp_path / "out.csv"
        target.write_text("stale contents that are longer than the new file\n" * 100)
        _, expected, _ = run(capsys, *argv)
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert (code, out, err) == (0, "", "")
        assert target.read_bytes() == expected.encode()
        names = ["out.csv", "out.csv.json"] if argv[0] == "curves" else ["out.csv"]
        assert sorted(p.name for p in tmp_path.iterdir()) == names

    def test_missing_directory_names_given_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        code, _, err = run(capsys, *RATIOS_ARGV, "--output", str(target))
        assert code == 1
        assert err.startswith("error:io:") and str(target) in err and ".tmp" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            RATIOS_ARGV + ("--json", "--betas", "0"),
            ("thresholds", "--sensitivity", "2", "--specificity", "0.95"),
            ("simulate", "--prevalence", "3", "--sensitivity", "0.9", "--specificity", "0.95", "--n", "10"),
        ],
    )
    def test_payload_is_validated_before_the_output_is_opened(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *argv, "--output", str(tmp_path / "missing" / "out"))
        assert (code, out) == (1, "")
        assert err.startswith("error:validation:")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_written_in_place(self, capsys, tmp_path):
        argv = ("thresholds", "--sensitivity", "0.9", "--specificity", "0.95", "--json")
        _, expected, _ = run(capsys, *argv)
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_text()), daemon=True)
        reader.start()
        code, _, _ = run(capsys, *argv, "--output", str(pipe))
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert code == 0
        assert received == [expected]
        assert stat.S_ISFIFO(pipe.stat().st_mode)


# Exact stdout of edge profiles and counts. The payloads mix nulls,
# endpoint values and degenerate flags, which the approximate value
# checks above do not pin byte for byte.
EDGE_CASES = [
    (
        ["thresholds", "--sensitivity", "0", "--specificity", "1", "--json"],
        {
            "sensitivity": 0.0, "specificity": 1.0, "phi_e": None, "ppv_at_phi_e": None,
            "phi_n": 0.5, "npv_at_phi_n": 0.5, "informative": False, "degenerate": True,
        },
    ),
    (
        ["thresholds", "--sensitivity", "1", "--specificity", "0", "--json"],
        {
            "sensitivity": 1.0, "specificity": 0.0, "phi_e": 0.5, "ppv_at_phi_e": 0.5,
            "phi_n": None, "npv_at_phi_n": None, "informative": False, "degenerate": True,
        },
    ),
    (
        ["ratios", "--sensitivity", "0", "--specificity", "1", "--json", "--betas", "0.5,1,2"],
        {
            "sensitivity": 0.0, "specificity": 1.0, "f1_ratio": None, "f_beta_0.5_ratio": None,
            "f_beta_1_ratio": None, "f_beta_2_ratio": None, "fm_ratio": None, "mcc_ratio": None,
        },
    ),
    (
        ["ratios", "--sensitivity", "1", "--specificity", "0.95", "--json", "--betas", "0.5,1,2"],
        {
            "sensitivity": 1.0, "specificity": 0.95, "f1_ratio": 1.1118033988749896,
            "f_beta_0.5_ratio": 1.1788854381999831, "f_beta_1_ratio": 1.1118033988749896,
            "f_beta_2_ratio": 1.0447213595499958, "fm_ratio": 1.1061676173844446,
            "mcc_ratio": 1.1061676173844446,
        },
    ),
    (
        ["ratios", "--sensitivity", "0.9", "--specificity", "1", "--json", "--betas", "0.5,1,2"],
        {
            "sensitivity": 0.9, "specificity": 1.0, "f1_ratio": 1.0, "f_beta_0.5_ratio": 1.0,
            "f_beta_1_ratio": 1.0, "f_beta_2_ratio": 1.0, "fm_ratio": 1.0,
            "mcc_ratio": 0.8716346291009542,
        },
    ),
    (
        ["ratios", "--sensitivity", "0.5", "--specificity", "0.5", "--json", "--betas", "0.5,1,2"],
        {
            "sensitivity": 0.5, "specificity": 0.5, "f1_ratio": 1.3333333333333333,
            "f_beta_0.5_ratio": 1.6666666666666665, "f_beta_1_ratio": 1.3333333333333333,
            "f_beta_2_ratio": 1.1111111111111112, "fm_ratio": 1.4142135623730951,
            "mcc_ratio": None,
        },
    ),
    (
        ["analyze", "--counts", "0,0,5,5", "--json"],
        {
            "counts": {"tp": 0, "fp": 0, "fn": 5, "tn": 5, "n": 10},
            "profile": {"sensitivity": 0.0, "specificity": 1.0, "epsilon": 1.0},
            "prevalence": 0.5,
            "metrics": {
                "accuracy": 0.5, "ppv": None, "npv": 0.5, "f1": None, "f_beta_0.5": None,
                "f_beta_1": None, "f_beta_2": None, "fm": None, "mcc": None, "chi_square": None,
            },
            "thresholds": {"phi_e": None, "ppv_at_phi_e": None, "phi_n": 0.5, "npv_at_phi_n": 0.5},
            "ratios": {
                "f1_ratio": None, "f_beta_0.5_ratio": None, "f_beta_1_ratio": None,
                "f_beta_2_ratio": None, "fm_ratio": None, "mcc_ratio": None,
            },
            "flags": {"informative": False, "degenerate": True, "below_positive_threshold": None},
        },
    ),
    (
        ["analyze", "--counts", "5,5,5,5", "--json"],
        {
            "counts": {"tp": 5, "fp": 5, "fn": 5, "tn": 5, "n": 20},
            "profile": {"sensitivity": 0.5, "specificity": 0.5, "epsilon": 1.0},
            "prevalence": 0.5,
            "metrics": {
                "accuracy": 0.5, "ppv": 0.5, "npv": 0.5, "f1": 0.5, "f_beta_0.5": 0.5,
                "f_beta_1": 0.5, "f_beta_2": 0.5, "fm": 0.5, "mcc": 0.0, "chi_square": 0.0,
            },
            "thresholds": {"phi_e": 0.5, "ppv_at_phi_e": 0.5, "phi_n": 0.5, "npv_at_phi_n": 0.5},
            "ratios": {
                "f1_ratio": 1.3333333333333333, "f_beta_0.5_ratio": 1.6666666666666665,
                "f_beta_1_ratio": 1.3333333333333333, "f_beta_2_ratio": 1.1111111111111112,
                "fm_ratio": 1.4142135623730951, "mcc_ratio": None,
            },
            "flags": {"informative": False, "degenerate": True, "below_positive_threshold": False},
        },
    ),
    (
        ["analyze", "--counts", "5,0,0,5", "--json"],
        {
            "counts": {"tp": 5, "fp": 0, "fn": 0, "tn": 5, "n": 10},
            "profile": {"sensitivity": 1.0, "specificity": 1.0, "epsilon": 2.0},
            "prevalence": 0.5,
            "metrics": {
                "accuracy": 1.0, "ppv": 1.0, "npv": 1.0, "f1": 1.0, "f_beta_0.5": 1.0,
                "f_beta_1": 1.0, "f_beta_2": 1.0, "fm": 1.0, "mcc": 1.0, "chi_square": 10.0,
            },
            "thresholds": {"phi_e": 0.0, "ppv_at_phi_e": None, "phi_n": 1.0, "npv_at_phi_n": None},
            "ratios": {
                "f1_ratio": 1.0, "f_beta_0.5_ratio": 1.0, "f_beta_1_ratio": 1.0,
                "f_beta_2_ratio": 1.0, "fm_ratio": 1.0, "mcc_ratio": 1.0,
            },
            "flags": {"informative": True, "degenerate": False, "below_positive_threshold": False},
        },
    ),
]


@pytest.mark.parametrize("argv, payload", EDGE_CASES, ids=[" ".join(argv) for argv, _ in EDGE_CASES])
def test_edge_case_output_bytes(capsys, argv, payload):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert out == json.dumps(payload, indent=2) + "\n"


# Exact stdout of the text form, which is the JSON payload as key = value
# lines: counts and profile on one line, every other section indented
# under its name, simulate's config left out.
TEXT_CASES = [
    (
        ["thresholds", "--sensitivity", "0.9", "--specificity", "0.95"],
        "sensitivity = 0.9\nspecificity = 0.95\nphi_e = 0.19074356983054624\nppv_at_phi_e = 0.8092564301694537\n"
        "phi_n = 0.7550344704135896\nnpv_at_phi_n = 0.7550344704135896\ninformative = yes\ndegenerate = no\n",
    ),
    (
        ["thresholds", "--sensitivity", "0", "--specificity", "1"],
        "sensitivity = 0.0\nspecificity = 1.0\nphi_e = n/a\nppv_at_phi_e = n/a\n"
        "phi_n = 0.5\nnpv_at_phi_n = 0.5\ninformative = no\ndegenerate = yes\n",
    ),
    (
        ["analyze", "--counts", "0,0,5,5"],
        "counts: tp=0 fp=0 fn=5 tn=5 n=10\n"
        "profile: sensitivity=0.0 specificity=1.0 epsilon=1.0\n"
        "prevalence = 0.5\n"
        "metrics:\n"
        "  accuracy = 0.5\n  ppv = n/a\n  npv = 0.5\n  f1 = n/a\n  f_beta_0.5 = n/a\n  f_beta_1 = n/a\n"
        "  f_beta_2 = n/a\n  fm = n/a\n  mcc = n/a\n  chi_square = n/a\n"
        "thresholds:\n"
        "  phi_e = n/a\n  ppv_at_phi_e = n/a\n  phi_n = 0.5\n  npv_at_phi_n = 0.5\n"
        "ratios:\n"
        "  f1_ratio = n/a\n  f_beta_0.5_ratio = n/a\n  f_beta_1_ratio = n/a\n  f_beta_2_ratio = n/a\n"
        "  fm_ratio = n/a\n  mcc_ratio = n/a\n"
        "flags:\n"
        "  informative = no\n  degenerate = yes\n  below_positive_threshold = n/a\n",
    ),
    (
        ["analyze", "--counts", "5,0,0,5"],
        "counts: tp=5 fp=0 fn=0 tn=5 n=10\n"
        "profile: sensitivity=1.0 specificity=1.0 epsilon=2.0\n"
        "prevalence = 0.5\n"
        "metrics:\n"
        "  accuracy = 1.0\n  ppv = 1.0\n  npv = 1.0\n  f1 = 1.0\n  f_beta_0.5 = 1.0\n  f_beta_1 = 1.0\n"
        "  f_beta_2 = 1.0\n  fm = 1.0\n  mcc = 1.0\n  chi_square = 10.0\n"
        "thresholds:\n"
        "  phi_e = 0.0\n  ppv_at_phi_e = n/a\n  phi_n = 1.0\n  npv_at_phi_n = n/a\n"
        "ratios:\n"
        "  f1_ratio = 1.0\n  f_beta_0.5_ratio = 1.0\n  f_beta_1_ratio = 1.0\n  f_beta_2_ratio = 1.0\n"
        "  fm_ratio = 1.0\n  mcc_ratio = 1.0\n"
        "flags:\n"
        "  informative = yes\n  degenerate = no\n  below_positive_threshold = no\n",
    ),
    (
        ["analyze", "--counts", f"{10**309},1,1,1"],
        f"counts: tp={10**309} fp=1 fn=1 tn=1 n={10**309 + 3}\n"
        "profile: sensitivity=1.0 specificity=0.5 epsilon=1.5\n"
        "prevalence = 1.0\n"
        "metrics:\n"
        "  accuracy = 1.0\n  ppv = 1.0\n  npv = 0.5\n  f1 = 1.0\n  f_beta_0.5 = 1.0\n  f_beta_1 = 1.0\n"
        "  f_beta_2 = 1.0\n  fm = 1.0\n  mcc = 0.5\n  chi_square = n/a\n"
        "thresholds:\n"
        "  phi_e = 0.4142135623730951\n  ppv_at_phi_e = 0.585786437626905\n  phi_n = 1.0\n  npv_at_phi_n = n/a\n"
        "ratios:\n"
        "  f1_ratio = 1.3535533905932737\n  f_beta_0.5_ratio = 1.565685424949238\n"
        "  f_beta_1_ratio = 1.3535533905932737\n  f_beta_2_ratio = 1.1414213562373094\n"
        "  fm_ratio = 1.3065629648763766\n  mcc_ratio = 1.3065629648763766\n"
        "flags:\n"
        "  informative = yes\n  degenerate = no\n  below_positive_threshold = no\n",
    ),
    (
        list(TestSimulate.ARGS),
        "counts: tp=848 fp=185 fn=84 tn=3883 n=5000\n"
        "empirical:\n"
        "  prevalence = 0.1864\n  sensitivity = 0.9098712446351931\n  specificity = 0.9545231071779744\n"
        "  ppv = 0.8209099709583737\n  npv = 0.97882530879758\n"
        "analytic:\n"
        "  ppv = 0.8085106382978722\n  npv = 0.9759036144578314\n",
    ),
    (
        ["simulate", "--prevalence", "0", "--sensitivity", "0.9", "--specificity", "0.95", "--n", "10"],
        "counts: tp=0 fp=1 fn=0 tn=9 n=10\n"
        "empirical:\n"
        "  prevalence = 0.0\n  sensitivity = n/a\n  specificity = 0.9\n  ppv = 0.0\n  npv = 1.0\n"
        "analytic:\n"
        "  ppv = 0.0\n  npv = 1.0\n",
    ),
]


@pytest.mark.parametrize("argv, text", TEXT_CASES, ids=[" ".join(argv)[:60] for argv, _ in TEXT_CASES])
def test_text_output_bytes(capsys, argv, text):
    assert run(capsys, *argv) == (0, text, "")

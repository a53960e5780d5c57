"""The aggregate confusion-matrix report."""

import json

import pytest

from prevthresh import ConfusionCounts, UndefinedMetric, analyze_counts


class TestAnalyzeCounts:
    def test_balanced_example(self):
        report = analyze_counts(ConfusionCounts(9, 1, 1, 9))
        assert report.metrics["accuracy"] == 0.9
        assert report.metrics["mcc"] == pytest.approx(0.8, abs=1e-12)
        assert report.metrics["chi_square"] == pytest.approx(12.8, abs=1e-12)
        assert report.metrics["f1"] == pytest.approx(0.9, abs=1e-12)
        assert report.metrics["f_beta_1"] == pytest.approx(report.metrics["f1"], abs=1e-15)
        assert float(report.prevalence) == 0.5
        assert report.flags["informative"] is True
        assert report.flags["degenerate"] is False

    def test_threshold_block_matches_profile(self):
        report = analyze_counts(ConfusionCounts(90, 5, 10, 95))
        # Derived profile is sensitivity 0.9, specificity 0.95.
        assert report.thresholds["phi_e"] == pytest.approx(0.1907435698305462, abs=1e-15)
        assert report.thresholds["npv_at_phi_n"] == pytest.approx(0.7550344704135896, abs=1e-15)
        assert report.ratios["f1_ratio"] == pytest.approx(1.1116484391347181, abs=1e-15)
        assert report.ratios["mcc_ratio"] == pytest.approx(0.9691321758103707, abs=1e-14)

    def test_below_positive_threshold_flag(self):
        # phi_e for this profile is about 0.19; prevalence 0.5 sits above it.
        above = analyze_counts(ConfusionCounts(90, 5, 10, 95))
        assert above.flags["below_positive_threshold"] is False
        low_prev = analyze_counts(ConfusionCounts(9, 50, 1, 950))
        assert float(low_prev.prevalence) < low_prev.thresholds["phi_e"]
        assert low_prev.flags["below_positive_threshold"] is True

    def test_custom_betas(self):
        report = analyze_counts(ConfusionCounts(9, 1, 1, 9), betas=[0.25])
        assert "f_beta_0.25" in report.metrics
        assert "f_beta_0.25_ratio" in report.ratios
        assert "f_beta_1" not in report.metrics

    def test_overflowing_beta_square_is_undefined(self):
        # beta**2 = inf leaves the F-beta score inf/inf; the entry is None, not NaN.
        report = analyze_counts(ConfusionCounts(5, 1, 1, 5), betas=[1e200, 2.0])
        assert report.metrics["f_beta_1e+200"] is None
        assert report.metrics["f_beta_2"] == pytest.approx(5 / 6, abs=1e-15)
        assert report.ratios["f_beta_1e+200_ratio"] == 1.0
        json.dumps(report.to_dict(), allow_nan=False)

    def test_uninformative_profile_has_none_entries(self):
        report = analyze_counts(ConfusionCounts(5, 5, 5, 5))
        assert report.flags["degenerate"] is True
        assert report.ratios["mcc_ratio"] is None
        assert report.ratios["f1_ratio"] is not None

    def test_degenerate_predictions_guarded(self):
        # Everything predicted negative: ppv and downstream metrics are None.
        report = analyze_counts(ConfusionCounts(0, 0, 5, 5))
        assert report.metrics["ppv"] is None
        assert report.metrics["f1"] is None
        assert report.metrics["fm"] is None
        assert report.metrics["mcc"] is None
        assert report.metrics["accuracy"] == 0.5

    def test_total_beyond_float_range_leaves_only_chi_square_undefined(self):
        # n = 10**309 + 3 overflows a float: chi-square = n * mcc**2 is not representable,
        # while the MCC and every other entry are.
        report = analyze_counts(ConfusionCounts(10**309, 1, 1, 1))
        assert report.metrics["chi_square"] is None
        assert report.metrics["mcc"] == pytest.approx(0.5, abs=1e-15)
        assert report.metrics["accuracy"] == 1.0
        assert report.thresholds["phi_e"] == pytest.approx(2**0.5 - 1, abs=1e-15)
        assert all(value is not None for value in report.ratios.values())
        undefined = {key for key, value in {**report.metrics, **report.thresholds}.items() if value is None}
        assert undefined == {"chi_square", "npv_at_phi_n"}
        json.dumps(report.to_dict(), allow_nan=False)

    def test_single_class_raises(self):
        with pytest.raises(UndefinedMetric):
            analyze_counts(ConfusionCounts(5, 0, 5, 0))
        with pytest.raises(UndefinedMetric):
            analyze_counts(ConfusionCounts(0, 0, 0, 0))

    def test_to_dict_is_json_serializable(self):
        report = analyze_counts(ConfusionCounts(9, 1, 1, 9))
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["counts"]["n"] == 20
        assert set(payload) == {
            "counts", "profile", "prevalence", "metrics", "thresholds", "ratios", "flags",
        }

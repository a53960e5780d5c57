"""The aggregate confusion-matrix report."""

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import report_oracle
from prevthresh import (
    ConfusionCounts,
    DiagnosticProfile,
    UndefinedMetric,
    analyze_counts,
    emit_ratio_curves,
    threshold_summary,
)
from prevthresh._closed import _beta_keys, _finite, _ratio_values
from prevthresh.metrics import _labelled_betas


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

    @pytest.mark.parametrize("betas", [[2.0, 2.0000001], [2, 2.0]])
    def test_betas_with_one_label_are_refused(self, betas):
        # Every report keys a beta by f"{beta:g}"; each caller refuses two betas with one key.
        message = r"^betas 2\.0 and 2\.0\d* share the label '2' \(labels keep 6 significant digits\)$"
        with pytest.raises(ValueError, match=message):
            analyze_counts(ConfusionCounts(9, 1, 1, 9), betas=betas)
        with pytest.raises(ValueError, match=message):
            _labelled_betas(betas)
        sink = io.StringIO()
        with pytest.raises(ValueError, match=message):
            emit_ratio_curves(DiagnosticProfile(0.9, 0.95), betas, 0.5, sink)
        assert sink.getvalue() == ""

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

    @pytest.mark.parametrize(
        "counts, informative",
        [
            ((63461567, 63461534, 36538478, 36538459), True),  # tp*tn - fp*fn = 1
            ((63461534, 63461567, 36538459, 36538478), False),  # tp*tn - fp*fn = -1
        ],
    )
    def test_informative_flag_comes_from_the_integers(self, counts, informative):
        # Both tables sit one unit from chance. The first one's rates sum to exactly 1.0 in
        # floats, yet the table is informative; the degenerate flag still reads the float sum.
        tp, fp, fn, tn = counts
        assert (tp * tn > fp * fn) is informative
        report = analyze_counts(ConfusionCounts(*counts))
        assert report.flags["informative"] is informative
        assert report.flags["degenerate"] is True
        if informative:
            assert report.profile.epsilon == 1.0

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

    def test_overflowing_fm_ratio_is_undefined(self):
        # Sensitivity 1 / 2**1074 = 5e-324 with specificity 0: fm_ratio's sqrt((1-b)/a) overflows.
        report = analyze_counts(ConfusionCounts(1, 5, 2**1074 - 1, 0))
        assert float(report.profile.sensitivity) == 5e-324
        assert report.ratios["fm_ratio"] is None
        assert report.ratios["f1_ratio"] == 1.0
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


# Edge values drawn beside random ones: the counts 0, 1 and integers past
# float range, the rates 0, 1, the least subnormal and the float below 1, and
# betas whose square overflows or underflows, or that are invalid. Betas
# near 1 move the F-beta scores and ratios in every digit that their
# 6-digit labels drop.
COUNTS = st.one_of(
    st.sampled_from([0, 1, 2, 10**18, 2**53 + 1, 2**1074 - 1, 2**1100]),
    st.integers(0, 10**6),
    st.integers(0, 2**1200),
)
RATES = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2**-53, 0.5, 1e-300, 2.0**-1022]), st.floats(0.0, 1.0))
BETAS = st.lists(
    st.one_of(
        st.sampled_from([1e200, 1.3e154, 0.5, 1.0, 2.0, 5e-324, 1e-160]),
        st.floats(min_value=5e-324, max_value=1e300),
        st.floats(min_value=0.1, max_value=10.0),
        st.sampled_from([0.0, -1.0, math.inf, math.nan]),
    ),
    max_size=4,
)


def _outcome(fn, *args):
    """repr of fn(*args), or the type and message of its error."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _finite_ratios(values: dict) -> dict:
    """The values, after `ratios --json`'s check that each defined ratio is finite."""
    for value in values.values():
        if value is not None:
            _finite(value)
    return values


def _defined_ratios(values: dict) -> dict:
    """The values with analyze_counts' policy: a ratio that is not finite is None."""
    return {key: None if value is not None and not math.isfinite(value) else value for key, value in values.items()}


class TestOnePassMatchesComposition:
    """threshold_summary, _ratio_values and analyze_counts against tests/report_oracle.py, by repr."""

    @given(RATES, RATES)
    @settings(max_examples=400)
    def test_threshold_summary(self, a, b):
        profile = DiagnosticProfile(a, b)
        assert repr(threshold_summary(profile)) == repr(report_oracle.threshold_summary(profile))

    @given(RATES, RATES, BETAS)
    @settings(max_examples=400)
    def test_ratio_values(self, a, b, betas):
        profile = DiagnosticProfile(a, b)

        def ratio_values():
            # The rates as floats, the betas keyed and the thresholds given, as its callers pass them;
            # the thresholds from the oracle's summary, so the MCC ratio's comparison stays independent.
            summary = report_oracle.threshold_summary(profile)
            beta_keys = _beta_keys(_labelled_betas(betas))
            return _ratio_values(float(a), float(b), beta_keys, summary["phi_e"], summary["phi_n"])

        assert _outcome(lambda: _finite_ratios(ratio_values())) == _outcome(report_oracle.ratio_values, profile, betas)
        assert _outcome(lambda: _defined_ratios(ratio_values())) == _outcome(
            report_oracle.ratio_values, profile, betas, True
        )

    @given(COUNTS, COUNTS, COUNTS, COUNTS, BETAS)
    @settings(max_examples=400)
    def test_analyze_counts(self, tp, fp, fn, tn, betas):
        counts = ConfusionCounts(tp, fp, fn, tn)
        assert _outcome(lambda: analyze_counts(counts, betas).to_dict()) == _outcome(
            lambda: report_oracle.analyze_counts(counts, betas).to_dict()
        )

    @given(COUNTS, COUNTS, COUNTS, COUNTS)
    @settings(max_examples=400)
    def test_analyze_counts_with_the_default_betas(self, tp, fp, fn, tn):
        # The default takes the keys _closed._SWEEP_BETA_KEYS holds, not _labelled_betas'.
        counts = ConfusionCounts(tp, fp, fn, tn)
        assert _outcome(lambda: analyze_counts(counts).to_dict()) == _outcome(
            lambda: report_oracle.analyze_counts(counts).to_dict()
        )

    @pytest.mark.parametrize(
        "counts",
        [
            (1, 5, 2**1074 - 1, 0), (0, 0, 5, 5), (5, 5, 0, 0), (5, 0, 0, 5), (0, 5, 5, 0),
            (10**309, 1, 1, 1), (9, 1, 1, 9),
        ],
    )
    def test_analyze_counts_at_edge_counts(self, counts):
        counts = ConfusionCounts(*counts)
        for betas in ((0.5, 1.0, 2.0), (1e200, 1.3e154), ()):
            assert repr(analyze_counts(counts, betas).to_dict()) == repr(
                report_oracle.analyze_counts(counts, betas).to_dict()
            )

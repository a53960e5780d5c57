"""Accuracy-ratio closed forms, MCC cross-checks, and the bound sweep."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from prevthresh import (
    RATIO_BOUNDS,
    BoundsReport,
    DegenerateDenominator,
    DegenerateProfile,
    DiagnosticProfile,
    PrevthreshError,
    ZeroDenominator,
    accuracy_divergence_curve,
    f1_at,
    f1_ratio,
    f_beta_at,
    f_beta_ratio,
    fm_at,
    fm_ratio,
    mcc_at_threshold,
    mcc_ratio,
    negative_threshold,
    npv_at,
    positive_threshold,
    ppv_at,
    verify_bounds,
)

import prevthresh._arrays as _arrays
import prevthresh.bounds as bounds
import sweep_oracle
from mcc_oracles import (
    MccRatioTerms,
    mcc_at_threshold_composed,
    mcc_ratio_composed,
    mcc_ratio_decomposed,
    mcc_ratio_long_form,
)
from sweep_oracle import verify_bounds_scalar

# Oracle constants for sensitivity 0.9, specificity 0.95 (50-digit arithmetic).
PHI_E = 0.1907435698305462
MCC_E = 0.8168778282645431
MCC_N = 0.791662587077267
MCC_RATIO = 0.9691321758103707
F1_RATIO = 1.1116484391347181
FB05_RATIO = 1.1844626385704038
FB2_RATIO = 1.0432922519093804
FM_RATIO = 1.1116214555303958

P_9095 = DiagnosticProfile(0.9, 0.95)

interior = st.floats(min_value=1e-3, max_value=1.0 - 1e-3, allow_nan=False)


class TestClosedFormRatios:
    def test_f1_oracle(self):
        assert f1_ratio(P_9095) == pytest.approx(F1_RATIO, abs=1e-15)

    def test_f_beta_oracles(self):
        assert f_beta_ratio(P_9095, 0.5) == pytest.approx(FB05_RATIO, abs=1e-15)
        assert f_beta_ratio(P_9095, 2.0) == pytest.approx(FB2_RATIO, abs=1e-15)

    def test_f_beta_at_one_equals_f1(self):
        assert f_beta_ratio(P_9095, 1.0) == f1_ratio(P_9095)

    def test_fm_oracle(self):
        assert fm_ratio(P_9095) == pytest.approx(FM_RATIO, abs=1e-15)

    def test_extremal_spot_values(self):
        extreme = DiagnosticProfile(1.0, 0.0)
        assert f1_ratio(extreme) == 1.5
        assert fm_ratio(extreme) == math.sqrt(2.0)
        assert f_beta_ratio(DiagnosticProfile(0.25, 0.0), 0.5) == pytest.approx(
            2.0, abs=1e-15
        )

    def test_perfect_specificity_collapses_to_one(self):
        # With no false positives both thresholds carry the same F scores,
        # so every ratio is exactly 1.
        p = DiagnosticProfile(0.7, 1.0)
        assert f1_ratio(p) == 1.0
        assert f_beta_ratio(p, 2.0) == 1.0
        assert fm_ratio(p) == 1.0

    def test_zero_sensitivity_rejected(self):
        p = DiagnosticProfile(0.0, 0.8)
        for call in (lambda: f1_ratio(p), lambda: f_beta_ratio(p, 0.5), lambda: fm_ratio(p)):
            with pytest.raises(DegenerateProfile):
                call()

    def test_ratios_are_plain_floats(self):
        for value in (f1_ratio(P_9095), f_beta_ratio(P_9095, 0.5), fm_ratio(P_9095), mcc_ratio(P_9095)):
            assert type(value) is float

    def test_overflowing_ratio_rejected(self):
        # (1 - b) / a overflows to inf at the smallest subnormal sensitivity.
        with pytest.raises(ValueError, match="finite"):
            fm_ratio(DiagnosticProfile(5e-324, 0.0))

    @given(a=interior, b=interior)
    def test_f1_identity_against_direct_evaluation(self, a, b):
        # The closed form must equal f1 at full prevalence over f1 at the
        # positive threshold, evaluated through the curve machinery.
        p = DiagnosticProfile(a, b)
        phi_e = positive_threshold(p).phi
        direct = float(f1_at(p, 1.0)) / float(f1_at(p, phi_e))
        assert f1_ratio(p) == pytest.approx(direct, rel=1e-12)

    @given(a=interior, b=interior, beta=st.sampled_from([0.5, 1.0, 2.0, 3.5]))
    def test_f_beta_identity_against_direct_evaluation(self, a, b, beta):
        p = DiagnosticProfile(a, b)
        phi_e = positive_threshold(p).phi
        direct = float(f_beta_at(p, 1.0, beta)) / float(f_beta_at(p, phi_e, beta))
        assert f_beta_ratio(p, beta) == pytest.approx(direct, rel=1e-12)

    @given(a=interior, b=interior)
    def test_fm_identity_against_direct_evaluation(self, a, b):
        p = DiagnosticProfile(a, b)
        phi_e = positive_threshold(p).phi
        direct = float(fm_at(p, 1.0)) / float(fm_at(p, phi_e))
        assert fm_ratio(p) == pytest.approx(direct, rel=1e-12)


# Rates for the MCC parity grid: both endpoints, values next to them, and interior points.
MCC_GRID_RATES = [
    0.0, 5e-324, 1e-300, 1e-9, 0.05, 0.1, 0.3, 0.5, 0.5 + 1e-12, 0.7, 0.9, 0.95, 1.0 - 1e-9, 1.0 - 2**-53, 1.0,
]


def outcome(function, *args):
    """repr of the result, or the type and message of the error it raises."""
    try:
        return repr(function(*args))
    except (PrevthreshError, ValueError) as exc:
        return type(exc).__name__, str(exc)


class TestMccAtThreshold:
    def test_oracle_values(self):
        assert mcc_at_threshold(P_9095, "positive") == pytest.approx(MCC_E, abs=1e-14)
        assert mcc_at_threshold(P_9095, "negative") == pytest.approx(MCC_N, abs=1e-14)

    def test_perfect_test(self):
        # Both predictive-value curves are constant 1, so the thresholds sit
        # at the corners and the association is still perfect.
        p = DiagnosticProfile(1.0, 1.0)
        assert mcc_at_threshold(p, "positive") == 1.0
        assert mcc_at_threshold(p, "negative") == 1.0

    @pytest.mark.parametrize(
        "a, b, which",
        [(0.0, 0.5, "positive"), (0.5, 0.0, "negative")],
        ids=["ppv-without-hits", "npv-without-hits"],
    )
    def test_vanishing_curve_extends_to_zero(self, a, b, which):
        # The threshold lands on the 0/0 edge of a curve with no hits, whose
        # continuous extension is 0; the other curve is 0 there too.
        assert mcc_at_threshold(DiagnosticProfile(a, b), which) == -math.sqrt(0.5)

    def test_composes_from_curve_values(self):
        from prevthresh import mcc_from_rates

        phi_e = positive_threshold(P_9095).phi
        expected = mcc_from_rates(
            ppv_at(P_9095, phi_e), 0.9, 0.95, npv_at(P_9095, phi_e)
        )
        assert mcc_at_threshold(P_9095, "positive") == pytest.approx(expected, abs=1e-15)

    def test_rejects_unknown_threshold(self):
        with pytest.raises(ValueError, match="sideways"):
            mcc_at_threshold(P_9095, "sideways")

    @pytest.mark.parametrize("a", MCC_GRID_RATES)
    def test_equals_public_composition(self, a):
        # The float path gives the public functions' values bit for bit, and
        # their exception type and message wherever they raise.
        for b in MCC_GRID_RATES:
            profile = DiagnosticProfile(a, b)
            for which in ("positive", "negative"):
                assert outcome(mcc_at_threshold, profile, which) == outcome(
                    mcc_at_threshold_composed, profile, which
                ), (a, b, which)
            assert outcome(mcc_ratio, profile) == outcome(mcc_ratio_composed, profile), (a, b)

    def test_chance_corner_keeps_its_error(self):
        with pytest.raises(DegenerateDenominator) as excinfo:
            mcc_at_threshold(DiagnosticProfile(0.0, 1.0), "negative")
        assert str(excinfo.value) == (
            "no positive predictions at phi=0.5 for "
            "DiagnosticProfile(sensitivity=Rate(0.0), specificity=Rate(1.0))"
        )

    def test_other_chance_corner_names_the_negative_side(self):
        with pytest.raises(DegenerateDenominator) as excinfo:
            mcc_at_threshold(DiagnosticProfile(1.0, 0.0), "positive")
        assert str(excinfo.value) == (
            "no negative predictions at phi=0.5 for "
            "DiagnosticProfile(sensitivity=Rate(1.0), specificity=Rate(0.0))"
        )


class TestMccRatio:
    def test_oracle_value(self):
        assert mcc_ratio(P_9095) == pytest.approx(MCC_RATIO, abs=1e-14)

    def test_zero_denominator_at_chance(self):
        with pytest.raises(ZeroDenominator):
            mcc_ratio(DiagnosticProfile(0.5, 0.5))

    def test_three_paths_agree_on_oracle_profile(self):
        direct = mcc_ratio(P_9095)
        decomposed = mcc_ratio_decomposed(P_9095)
        long_form = mcc_ratio_long_form(P_9095)
        assert abs(direct - decomposed) <= 1e-10
        assert abs(direct - long_form) <= 1e-10
        assert abs(decomposed - long_form) <= 1e-10

    @given(a=interior, b=interior)
    def test_three_paths_agree_generally(self, a, b):
        assume(abs(a + b - 1.0) > 1e-3)
        p = DiagnosticProfile(a, b)
        direct = mcc_ratio(p)
        decomposed = mcc_ratio_decomposed(p)
        long_form = mcc_ratio_long_form(p)
        assert abs(direct - decomposed) <= 1e-10
        assert abs(direct - long_form) <= 1e-10

    @given(a=st.floats(min_value=0.0, max_value=1.0), b=st.floats(min_value=0.0, max_value=1.0))
    def test_swapping_the_rates_inverts_the_ratio(self, a, b):
        # R(a, b) * R(b, a) = 1. Its error grows as 1/J near chance, as
        # mcc_ratio's does. The worst |R(a, b) * R(b, a) - 1| * J measured
        # over about 3 million seeded informative profiles (uniform rates,
        # J from 1e-15 to 0.1, both rates near 1, sensitivity 1, a = b) and
        # 150,000 examples of this strategy was 8.8e-16, at
        # a = b = 0.9954584228726902; the tolerance is 2e-15 / J.
        profile = DiagnosticProfile(a, b)
        assume(profile.is_informative())
        j = math.fsum((a, b, -1.0))
        product = mcc_ratio(profile) * mcc_ratio(DiagnosticProfile(b, a))
        assert abs(product - 1.0) <= 2e-15 / j, (a, b)

    def test_decomposed_requires_interior_profile(self):
        with pytest.raises(DegenerateProfile):
            mcc_ratio_decomposed(DiagnosticProfile(1.0, 0.95))
        with pytest.raises(DegenerateProfile):
            mcc_ratio_long_form(DiagnosticProfile(0.9, 1.0))

    def test_terms_match_curve_evaluations(self):
        terms = MccRatioTerms.from_profile(P_9095)
        assert float(terms.negative_phi) == pytest.approx(
            float(negative_threshold(P_9095).phi), abs=1e-15
        )
        assert float(terms.positive_phi) == pytest.approx(PHI_E, abs=1e-15)
        assert float(terms.ppv_at_negative) == pytest.approx(
            float(ppv_at(P_9095, terms.negative_phi)), rel=1e-12
        )
        assert float(terms.npv_at_negative) == pytest.approx(
            float(npv_at(P_9095, terms.negative_phi)), rel=1e-12
        )
        assert float(terms.npv_at_positive) == pytest.approx(
            float(npv_at(P_9095, terms.positive_phi)), rel=1e-12
        )
        # The shortcut form of the positive-threshold PPV must land on the
        # curve evaluation as well; that identity is exactly what makes the
        # decomposition a meaningful cross-check.
        assert float(terms.ppv_at_positive) == pytest.approx(
            float(ppv_at(P_9095, terms.positive_phi)), rel=1e-12
        )

    def test_terms_products_are_consistent(self):
        t = MccRatioTerms.from_profile(P_9095)
        assert t.concordant_negative == pytest.approx(
            0.9 * 0.95 * float(t.ppv_at_negative) * float(t.npv_at_negative), rel=1e-15
        )
        assert t.discordant_positive == pytest.approx(
            0.1 * 0.05 * (1 - float(t.npv_at_positive)) * (1 - float(t.ppv_at_positive)),
            rel=1e-12,
        )


class TestAccuracyDivergenceCurve:
    def test_unity_at_full_prevalence(self):
        [(phi, value)] = accuracy_divergence_curve(P_9095, "f1", [1.0])
        assert float(phi) == 1.0
        assert value == 1.0

    def test_fm_value_at_positive_threshold(self):
        [(_, value)] = accuracy_divergence_curve(P_9095, "fm", [PHI_E])
        assert value == pytest.approx(FM_RATIO, rel=1e-12)

    def test_diverges_at_vanishing_prevalence(self):
        [(_, value)] = accuracy_divergence_curve(P_9095, "f1", [1e-6])
        assert value > 1e3

    @pytest.mark.parametrize("metric, beta", [("f1", None), ("f_beta", 2.0), ("fm", None)])
    def test_no_divergence_at_specificity_1(self, metric, beta):
        phis = [10.0**-k for k in range(11)]
        rows = accuracy_divergence_curve(DiagnosticProfile(0.9, 1.0), metric, phis, beta=beta)
        assert [value for _, value in rows] == [1.0] * len(phis)

    def test_undefined_cells_become_none(self):
        rows = accuracy_divergence_curve(P_9095, "f1", [0.0, 0.5])
        assert rows[0][1] is None
        assert rows[1][1] is not None

    def test_zero_metric_becomes_none(self):
        rows = accuracy_divergence_curve(P_9095, "fm", [0.0])
        assert rows[0][1] is None

    def test_f_beta_requires_beta(self):
        with pytest.raises(ValueError):
            accuracy_divergence_curve(P_9095, "f_beta", [0.5])

    def test_beta_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            accuracy_divergence_curve(P_9095, "f1", [0.5], beta=0.5)

    @pytest.mark.parametrize("metric", ["mcc", "accuracy"])
    def test_unsupported_metrics(self, metric):
        with pytest.raises(ValueError):
            accuracy_divergence_curve(P_9095, metric, [0.5])

    def test_zero_sensitivity_rejected(self):
        with pytest.raises(DegenerateProfile):
            accuracy_divergence_curve(DiagnosticProfile(0.0, 0.9), "f1", [0.5])

    def test_monotone_decreasing_for_f1(self):
        grid = [i / 100 for i in range(1, 101)]
        values = [v for _, v in accuracy_divergence_curve(P_9095, "f1", grid)]
        assert all(x >= y for x, y in zip(values, values[1:]))


class TestBoundTable:
    def test_intervals(self):
        assert RATIO_BOUNDS["f1"] == (1.0, 1.5)
        assert RATIO_BOUNDS["f_beta_0.5"] == (1.0, 1.8)
        assert RATIO_BOUNDS["f_beta_1"] == (1.0, 1.5)
        assert RATIO_BOUNDS["f_beta_2"] == (1.0, 1.2)
        assert RATIO_BOUNDS["fm"] == (1.0, math.sqrt(2.0))
        assert RATIO_BOUNDS["mcc"] == (math.sqrt(2.0) / 2.0, math.sqrt(2.0))


class TestVerifyBounds:
    def test_sweep_holds_on_coarse_grid(self):
        report = verify_bounds(grid_step=0.05)
        assert isinstance(report, BoundsReport)
        assert not report.has_violations
        assert report.cells_swept > 100
        for record in report.records:
            assert record.observed_min is not None
            assert record.observed_min >= record.lower - report.tolerance
            assert record.observed_max <= record.upper + report.tolerance
            assert not record.violations
            assert record.cells + len(record.skipped) == report.cells_swept

    def test_no_cells_are_skipped(self):
        # Every evaluator is total on the swept region, including the
        # sensitivity-1 rows where the MCC ratio rests on the continuity
        # extension of the predictive-value curves.
        report = verify_bounds(grid_step=0.05)
        for record in report.records:
            assert record.skipped == ()

    def test_deterministic(self):
        first = verify_bounds(grid_step=0.05)
        second = verify_bounds(grid_step=0.05)
        assert first.to_dict() == second.to_dict()

    def test_to_dict_is_json_serializable(self):
        report = verify_bounds(grid_step=0.05)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["violation_count"] == 0
        assert set(payload["metrics"]) == set(RATIO_BOUNDS)

    def test_records_constraint_floor(self):
        report = verify_bounds(grid_step=0.05, delta=1e-6)
        assert "1.000001" in report.constraint

    def test_extrema_locations_are_grid_cells(self):
        report = verify_bounds(grid_step=0.05)
        f1 = report.record("f1")
        a, b = f1.argmax
        assert f1_ratio(DiagnosticProfile(a, b)) == f1.observed_max

    def test_unknown_metric_lookup(self):
        with pytest.raises(KeyError):
            verify_bounds(grid_step=0.05).record("nope")

    @pytest.mark.parametrize("step", [0.0, -0.01, 0.06, 1.0])
    def test_rejects_bad_grid_step(self, step):
        with pytest.raises(ValueError):
            verify_bounds(grid_step=step)

    @pytest.mark.parametrize("step", [0.0009, 1e-7])
    def test_rejects_step_below_minimum_before_building_grid(self, step, monkeypatch):
        def no_grid(step):
            raise AssertionError("grid built for a rejected step")

        monkeypatch.setattr(bounds, "_grid_axis", no_grid)
        with pytest.raises(ValueError, match="grid_step must be in"):
            verify_bounds(grid_step=step)

    def test_rejects_bad_delta_and_tolerance(self):
        with pytest.raises(ValueError):
            verify_bounds(grid_step=0.05, delta=0.0)
        with pytest.raises(ValueError):
            verify_bounds(grid_step=0.05, tolerance=-1e-9)

    @pytest.mark.parametrize(
        "margin",
        [{"delta": math.nan}, {"delta": math.inf}, {"tolerance": math.nan}, {"tolerance": math.inf}],
        ids=["delta-nan", "delta-inf", "tolerance-nan", "tolerance-inf"],
    )
    def test_rejects_non_finite_delta_and_tolerance(self, margin):
        with pytest.raises(ValueError, match="finite"):
            verify_bounds(grid_step=0.05, **margin)

    def test_rejects_delta_that_one_plus_delta_rounds_away(self):
        # 1.0 + 2**-53 rounds to 1.0, which would sweep the chance-level cells a + b == 1.0.
        assert 1.0 + 2.0**-53 == 1.0
        with pytest.raises(ValueError, match="delta must be"):
            verify_bounds(delta=2.0**-53)

    def test_smallest_delta_above_the_limit_sweeps_the_informative_cells(self):
        delta = math.nextafter(2.0**-53, 1.0)
        report = verify_bounds(delta=delta)
        assert report.constraint == f"sensitivity + specificity >= {1.0 + delta!r}"
        assert report.cells_swept == verify_bounds().cells_swept == 4950
        assert report.to_dict()["violation_count"] == 0

    def test_informativeness_constraint_is_necessary(self):
        # Dropping the constraint admits profiles that break the F-beta
        # upper bound, so the sweep region is not a convenience choice.
        assert f_beta_ratio(DiagnosticProfile(0.25, 0.0), 0.5) > 1.8


def _report_json(report: BoundsReport) -> str:
    return json.dumps(report.to_dict(), indent=2)


class TestSweepOracleParity:
    """The vectorized sweep against the per-cell loop over the per-profile functions."""

    @pytest.mark.parametrize(
        "grid_step, delta, tolerance",
        [
            (0.05, 1e-6, 1e-9),
            (0.02, 1e-6, 1e-9),
            (0.01, 1e-6, 1e-9),
            (0.005, 1e-6, 1e-9),
            (0.03, 1e-6, 1e-9),  # no a = 1 row on this grid
            (0.013, 1e-6, 1e-9),  # nor on this one
            (0.02, 0.3, 1e-9),
            (0.02, 1e-6, 0.0),
        ],
    )
    def test_report_bytes_match(self, grid_step, delta, tolerance):
        got = _report_json(verify_bounds(grid_step, delta, tolerance))
        assert got == _report_json(verify_bounds_scalar(grid_step, delta, tolerance))

    def test_violations_match(self, monkeypatch):
        # Tighten two intervals so that both paths report violations,
        # below the lower bound and above the upper one.
        monkeypatch.setitem(bounds.RATIO_BOUNDS, "f1", (1.1, 1.2))
        monkeypatch.setitem(bounds.RATIO_BOUNDS, "mcc", (0.95, 1.1))
        report = verify_bounds(grid_step=0.05)
        for key, (lower, upper) in (("f1", (1.1, 1.2)), ("mcc", (0.95, 1.1))):
            values = [v.value for v in report.record(key).violations]
            assert min(values) < lower and max(values) > upper
        assert _report_json(report) == _report_json(verify_bounds_scalar(grid_step=0.05))

    def test_ties_go_to_the_first_swept_cell(self, monkeypatch):
        # Coarsen every ratio to floor(10 * value), identically on both
        # paths, so that each extremum is shared by many cells.
        arrays = _arrays.ratio_arrays
        monkeypatch.setattr(
            _arrays, "ratio_arrays", lambda a, b: ((k, np.floor(v * 10.0)) for k, v in arrays(a, b))
        )
        table = sweep_oracle.ratio_table
        monkeypatch.setattr(
            sweep_oracle, "ratio_table", lambda: [(k, lambda p, f=f: float(math.floor(f(p) * 10.0))) for k, f in table()]
        )
        assert _report_json(verify_bounds(grid_step=0.05)) == _report_json(verify_bounds_scalar(grid_step=0.05))

    def test_skipped_cells_match(self, monkeypatch):
        # No swept cell is undefined, so mark the a = 1 row as undefined
        # on both paths: NaN in the arrays, a raise in the oracle.
        arrays = _arrays.ratio_arrays
        monkeypatch.setattr(
            _arrays, "ratio_arrays", lambda a, b: ((k, np.where(a == 1.0, np.nan, v)) for k, v in arrays(a, b))
        )

        def undefined_at_full_sensitivity(f):
            def evaluate(p):
                if p.sensitivity == 1.0:
                    raise ZeroDenominator("a = 1")
                return f(p)

            return evaluate

        table = sweep_oracle.ratio_table
        monkeypatch.setattr(sweep_oracle, "ratio_table", lambda: [(k, undefined_at_full_sensitivity(f)) for k, f in table()])
        report = verify_bounds(grid_step=0.05)
        assert all(len(r.skipped) == 19 for r in report.records)
        assert _report_json(report) == _report_json(verify_bounds_scalar(grid_step=0.05))

    def test_finest_grid_holds_every_bound(self):
        report = verify_bounds(grid_step=bounds.MIN_GRID_STEP)
        assert report.cells_swept == 499_500
        assert not report.has_violations
        for record in report.records:
            assert record.cells == 499_500
            assert record.skipped == ()
            assert record.lower - report.tolerance <= record.observed_min
            assert record.observed_max <= record.upper + report.tolerance

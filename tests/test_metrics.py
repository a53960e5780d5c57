"""Pointwise metric formulas, their validation, and cross-consistency.

Reference values marked as oracle constants were computed with 50-digit
arbitrary-precision arithmetic and frozen here; tolerances are looser
than one part in 1e12 only where a formula is compared against an
algebraically different evaluation path.
"""

import math

import mpmath
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from prevthresh import (
    ConfusionCounts,
    DegenerateDenominator,
    DiagnosticProfile,
    Rate,
    UndefinedMetric,
    accuracy_from_counts,
    chi_square_from_mcc,
    f1_at,
    f_beta_at,
    f_beta_ratio,
    fm_at,
    mcc_from_counts,
    mcc_from_rates,
    npv_at,
    ppv_at,
    threshold_summary,
)
from prevthresh._closed import _beta_keys, _ratio_values
from prevthresh.metrics import _labelled_betas, f_beta_score

# Oracle constants for sensitivity 0.9, specificity 0.95 (50-digit arithmetic).
PHI_E = 0.1907435698305462
RHO_E = 0.8092564301694538
SIG_E = 0.9757899066660713
PHI_N = 0.7550344704135896
F1_E = 0.8522194496940433
F1_FULL = 0.9473684210526315
FB05_FULL = 0.9782608695652174
FM_E = 0.8534229825546699
MCC_E = 0.8168778282645431
PPV_AT_0190743 = 0.8092558603376065

P_9095 = DiagnosticProfile(Rate(0.9), Rate(0.95))

rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
open_rates = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)


class TestRate:
    def test_accepts_unit_interval(self):
        assert float(Rate(0.0)) == 0.0
        assert float(Rate(1.0)) == 1.0
        assert float(Rate(0.5)) == 0.5

    def test_is_a_float(self):
        r = Rate(0.25)
        assert isinstance(r, float)
        assert r + 0.25 == 0.5

    @pytest.mark.parametrize("bad", [-0.001, 1.001, float("nan"), float("inf"), -float("inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Rate(bad)

    def test_repr_round_trips(self):
        assert "0.25" in repr(Rate(0.25))


class TestDiagnosticProfile:
    def test_coerces_plain_floats(self):
        p = DiagnosticProfile(0.9, 0.95)
        assert isinstance(p.sensitivity, Rate)
        assert isinstance(p.specificity, Rate)

    def test_epsilon(self):
        assert DiagnosticProfile(0.9, 0.95).epsilon == pytest.approx(1.85, abs=1e-15)

    def test_is_informative(self):
        assert P_9095.is_informative()
        assert not DiagnosticProfile(0.5, 0.5).is_informative()
        assert not DiagnosticProfile(0.2, 0.3).is_informative()

    def test_rejects_invalid_rates(self):
        with pytest.raises(ValueError):
            DiagnosticProfile(1.2, 0.5)


class TestConfusionCounts:
    def test_totals_and_rates(self):
        c = ConfusionCounts(tp=9, fp=1, fn=1, tn=9)
        assert c.n == 20
        assert float(c.sensitivity()) == 0.9
        assert float(c.specificity()) == 0.9
        assert float(c.ppv()) == 0.9
        assert float(c.npv()) == 0.9
        assert float(c.prevalence()) == 0.5

    def test_profile(self):
        p = ConfusionCounts(tp=9, fp=1, fn=1, tn=9).profile()
        assert p == DiagnosticProfile(Rate(0.9), Rate(0.9))

    @pytest.mark.parametrize("cells", [(-1, 0, 0, 1), (0, -2, 0, 1)])
    def test_rejects_negative_cells(self, cells):
        with pytest.raises(ValueError):
            ConfusionCounts(*cells)

    @pytest.mark.parametrize("cells", [(1.5, 0, 0, 1), (True, 0, 0, 1), ("1", 0, 0, 1)])
    def test_rejects_non_integer_cells(self, cells):
        with pytest.raises(ValueError):
            ConfusionCounts(*cells)

    def test_zero_denominators_raise(self):
        no_positives = ConfusionCounts(tp=0, fp=3, fn=0, tn=7)
        with pytest.raises(UndefinedMetric):
            no_positives.sensitivity()
        no_negatives = ConfusionCounts(tp=5, fp=0, fn=5, tn=0)
        with pytest.raises(UndefinedMetric):
            no_negatives.specificity()
        no_positive_predictions = ConfusionCounts(tp=0, fp=0, fn=5, tn=5)
        with pytest.raises(UndefinedMetric):
            no_positive_predictions.ppv()
        no_negative_predictions = ConfusionCounts(tp=5, fp=5, fn=0, tn=0)
        with pytest.raises(UndefinedMetric):
            no_negative_predictions.npv()
        with pytest.raises(UndefinedMetric):
            ConfusionCounts(0, 0, 0, 0).prevalence()


class TestFBetaWeight:
    """The F-beta weight is a plain float, checked by every function that takes one."""

    def test_accepts_positive(self):
        assert 0.0 < f_beta_at(P_9095, 0.5, 0.5) <= 1.0
        assert f_beta_ratio(P_9095, 0.5) > 1.0
        keys = ["f1_ratio", "f_beta_0.5_ratio", "fm_ratio", "mcc_ratio"]
        summary = threshold_summary(P_9095)
        beta_keys = _beta_keys(_labelled_betas([0.5]))
        assert list(_ratio_values(0.9, 0.95, beta_keys, summary["phi_e"], summary["phi_n"])) == keys

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_positive(self, bad):
        message = f"beta must be finite and > 0, got {bad!r}"
        for call in (
            lambda: f_beta_at(P_9095, 0.5, bad),
            lambda: f_beta_ratio(P_9095, bad),
            lambda: _labelled_betas([2.0, bad]),
        ):
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == message


class TestPredictiveValues:
    def test_ppv_endpoints(self):
        assert float(ppv_at(P_9095, 1.0)) == 1.0
        assert float(ppv_at(P_9095, 0.0)) == 0.0

    def test_npv_endpoints(self):
        assert float(npv_at(P_9095, 0.0)) == 1.0
        assert float(npv_at(P_9095, 1.0)) == 0.0

    def test_ppv_oracle_value(self):
        assert float(ppv_at(P_9095, 0.190743)) == pytest.approx(PPV_AT_0190743, abs=1e-14)

    def test_npv_oracle_value(self):
        assert float(npv_at(P_9095, PHI_N)) == pytest.approx(PHI_N, abs=1e-14)

    def test_ppv_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            ppv_at(DiagnosticProfile(0.0, 1.0), 0.5)
        with pytest.raises(DegenerateDenominator):
            ppv_at(DiagnosticProfile(0.9, 1.0), 0.0)

    def test_npv_degenerate_denominator(self):
        with pytest.raises(DegenerateDenominator):
            npv_at(DiagnosticProfile(1.0, 0.95), 1.0)
        with pytest.raises(DegenerateDenominator):
            npv_at(DiagnosticProfile(0.9, 0.0), 0.0)

    @given(phi=rates)
    def test_endpoint_invariance(self, phi):
        # Any profile with positive sensitivity and specificity pins down
        # ppv(1) = 1 and npv(0) = 1.
        p = DiagnosticProfile(0.3, 0.2)
        assert float(ppv_at(p, 1.0)) == 1.0
        assert float(npv_at(p, 0.0)) == 1.0
        assert 0.0 <= float(ppv_at(p, phi)) <= 1.0
        assert 0.0 <= float(npv_at(p, phi)) <= 1.0

    @given(a=open_rates, b=open_rates)
    def test_monotone_in_prevalence_when_informative(self, a, b):
        assume(a + b > 1.0 + 1e-3)
        p = DiagnosticProfile(a, b)
        grid = [i / 1000 for i in range(1001)]
        ppv_values = [float(ppv_at(p, phi)) for phi in grid]
        npv_values = [float(npv_at(p, phi)) for phi in grid]
        assert all(x <= y for x, y in zip(ppv_values, ppv_values[1:]))
        assert all(x >= y for x, y in zip(npv_values, npv_values[1:]))

    @given(a=open_rates, b=open_rates, phi=open_rates)
    def test_bayes_consistency_against_exact_counts(self, a, b, phi):
        # Build an exact rational population, derive its rates, and check the
        # curve formula lands on the directly tallied predictive value.
        n = 10**6
        pos = round(phi * n)
        assume(0 < pos < n)
        tp = round(a * pos)
        tn = round(b * (n - pos))
        assume(0 < tp and 0 < tn)
        counts = ConfusionCounts(tp=tp, fp=n - pos - tn, fn=pos - tp, tn=tn)
        assume(counts.tp + counts.fp > 0 and counts.tn + counts.fn > 0)
        derived = counts.profile()
        direct = float(counts.ppv())
        via_curve = float(ppv_at(derived, counts.prevalence()))
        assert via_curve == pytest.approx(direct, rel=1e-12)
        assert float(npv_at(derived, counts.prevalence())) == pytest.approx(
            float(counts.npv()), rel=1e-12
        )


class TestFScores:
    def test_f1_perfect(self):
        assert float(f1_at(DiagnosticProfile(1.0, 0.4), 1.0)) == 1.0

    def test_f1_at_full_prevalence(self):
        assert float(f1_at(P_9095, 1.0)) == pytest.approx(F1_FULL, abs=1e-15)

    def test_f1_at_threshold_oracle(self):
        assert float(f1_at(P_9095, PHI_E)) == pytest.approx(F1_E, abs=1e-14)

    def test_f1_undefined_cases(self):
        with pytest.raises(UndefinedMetric):
            f1_at(DiagnosticProfile(0.0, 0.5), 0.5)
        with pytest.raises(UndefinedMetric):
            f1_at(P_9095, 0.0)

    def test_f_beta_reduces_to_f1(self):
        for phi in (0.05, 0.190743, 0.5, 0.9, 1.0):
            assert float(f_beta_at(P_9095, phi, 1.0)) == float(f1_at(P_9095, phi))
        # The stated exception: zero precision with positive recall scores 0, where f1_at raises.
        assert f_beta_at(P_9095, 0.0, 1.0) == 0.0
        with pytest.raises(UndefinedMetric):
            f1_at(P_9095, 0.0)

    def test_f_beta_large_beta_tends_to_recall(self):
        value = float(f_beta_at(P_9095, 0.5, 1000.0))
        assert value == pytest.approx(0.9, abs=1e-4)

    def test_f_beta_at_full_prevalence(self):
        assert float(f_beta_at(P_9095, 1.0, 0.5)) == pytest.approx(FB05_FULL, abs=1e-15)

    def test_f_beta_zero_precision(self):
        # Recall positive but precision zero: score is 0, not an error.
        assert float(f_beta_at(P_9095, 0.0, 2.0)) == 0.0

    def test_f_beta_undefined_when_both_zero(self):
        with pytest.raises(UndefinedMetric):
            f_beta_at(DiagnosticProfile(0.0, 0.5), 0.0, 1.0)

    @pytest.mark.parametrize(
        "beta_sq, recall, precision",
        [
            (1.69e308, 5 / 6, 5 / 6),
            (1.69e308, 0.9, 1e-300),
            (1e300, 1e-9, 0.3),
            (1e10, 1e-300, 0.7),
            (1e10, 1e-300, 1e-320),
            (1.7976931348623157e308, 0.999, 1.0),
        ],
    )
    def test_f_beta_score_keeps_large_beta_limit(self, beta_sq, recall, precision):
        # beta_sq / recall overflows; compare with the harmonic form in 50-digit arithmetic.
        assert beta_sq / recall == math.inf
        with mpmath.workdps(50):
            b2, r, p = mpmath.mpf(beta_sq), mpmath.mpf(recall), mpmath.mpf(precision)
            exact = (1 + b2) / (b2 / r + 1 / p)
        assert f_beta_score(beta_sq, recall, precision) == pytest.approx(float(exact), rel=1e-14, abs=0.0)

    @given(
        beta_sq=st.floats(min_value=1e-6, max_value=1e300),
        recall=st.floats(min_value=1e-6, max_value=1.0),
        precision=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_f_beta_score_ordinary_bits(self, beta_sq, recall, precision):
        # Wherever beta_sq / recall is finite the score is the harmonic form's float, bit for bit.
        assume(beta_sq / recall < math.inf)
        expected = (1.0 + beta_sq) / (beta_sq / recall + 1.0 / precision)
        assert f_beta_score(beta_sq, recall, precision) == expected

    def test_f_beta_score_undefined_for_infinite_beta_square(self):
        assert f_beta_score(math.inf, 0.9, 0.8) is None
        assert f_beta_score(math.inf, 0.0, 0.0) is None
        with pytest.raises(UndefinedMetric, match="beta\\*\\*2 overflows"):
            f_beta_at(P_9095, 0.5, 1e200)

    @given(phi=open_rates, beta=st.floats(min_value=0.1, max_value=10.0))
    def test_f_beta_between_zero_and_one(self, phi, beta):
        assert 0.0 <= float(f_beta_at(P_9095, phi, beta)) <= 1.0


class TestFowlkesMallows:
    def test_perfect(self):
        assert float(fm_at(DiagnosticProfile(1.0, 0.7), 1.0)) == 1.0

    def test_zero_sensitivity(self):
        assert float(fm_at(DiagnosticProfile(0.0, 0.5), 0.3)) == 0.0

    def test_threshold_oracle(self):
        assert float(fm_at(P_9095, PHI_E)) == pytest.approx(FM_E, abs=1e-14)

    def test_is_geometric_mean(self):
        phi = 0.37
        rho = float(ppv_at(P_9095, phi))
        assert float(fm_at(P_9095, phi)) == pytest.approx(math.sqrt(0.9 * rho), abs=1e-15)


class TestMcc:
    def test_rates_perfect(self):
        assert mcc_from_rates(1, 1, 1, 1) == 1.0

    def test_rates_chance(self):
        assert mcc_from_rates(0.5, 0.5, 0.5, 0.5) == 0.0

    def test_rates_threshold_oracle(self):
        assert mcc_from_rates(RHO_E, 0.9, 0.95, SIG_E) == pytest.approx(MCC_E, abs=1e-14)

    def test_rates_validates_inputs(self):
        with pytest.raises(ValueError):
            mcc_from_rates(1.5, 0.5, 0.5, 0.5)

    def test_counts_perfect(self):
        assert mcc_from_counts(ConfusionCounts(50, 0, 0, 50)) == 1.0

    def test_counts_chance(self):
        assert mcc_from_counts(ConfusionCounts(25, 25, 25, 25)) == 0.0

    def test_counts_hand_value(self):
        assert mcc_from_counts(ConfusionCounts(9, 1, 1, 9)) == pytest.approx(0.8, abs=1e-15)

    def test_counts_negative_association(self):
        assert mcc_from_counts(ConfusionCounts(1, 9, 9, 1)) == pytest.approx(-0.8, abs=1e-15)

    @pytest.mark.parametrize(
        "cells", [(0, 0, 5, 5), (0, 5, 0, 5), (5, 0, 5, 0), (5, 5, 0, 0)]
    )
    def test_counts_zero_marginal(self, cells):
        with pytest.raises(UndefinedMetric):
            mcc_from_counts(ConfusionCounts(*cells))

    @pytest.mark.parametrize(
        "cells",
        [
            (10**200, 1, 1, 1),
            (10**400, 1, 1, 10**400),
            (1, 10**400, 10**400, 1),
            (10**150, 10**150 - 7, 3, 10**150),
            (10**400, 10**400, 10**400, 10**400),
        ],
        ids=["1e200-tp", "1e400-diagonal", "1e400-off-diagonal", "1e150-mixed", "1e400-all"],
    )
    def test_counts_beyond_float_range(self, cells):
        # The product of the marginals overflows a float; compare with 50-digit arithmetic.
        with mpmath.workdps(50):
            tp, fp, fn, tn = (mpmath.mpf(c) for c in cells)
            exact = (tp * tn - fp * fn) / mpmath.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
        mcc = mcc_from_counts(ConfusionCounts(*cells))
        assert mcc == pytest.approx(float(exact), abs=1e-15)
        # A zero numerator gives +0.0, which analyze --json prints as 0.0, not -0.0.
        assert math.copysign(1.0, mcc) == math.copysign(1.0, float(exact))

    def test_counts_keep_float_bits_where_the_product_is_finite(self):
        tp, fp, fn, tn = 10**75, 3 * 10**74, 7, 10**75 + 11
        direct = (tp * tn - fp * fn) / math.sqrt(float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
        assert mcc_from_counts(ConfusionCounts(tp, fp, fn, tn)) == direct

    def test_counts_perfect_table_rounding_above_one_is_clamped(self):
        # The rounded product of the marginals puts the unclamped quotient at 1.0000000000000002.
        tp, tn = 679773874, 93
        assert tp * tn / math.sqrt(float(tp) * tp * tn * tn) > 1.0
        assert mcc_from_counts(ConfusionCounts(tp, 0, 0, tn)) == 1.0
        assert mcc_from_counts(ConfusionCounts(0, tp, tn, 0)) == -1.0

    @given(tp=st.integers(min_value=1, max_value=2**80), tn=st.integers(min_value=1, max_value=2**80))
    def test_counts_perfect_tables_stay_in_range(self, tp, tn):
        mcc = mcc_from_counts(ConfusionCounts(tp, 0, 0, tn))
        assert 1.0 - 1e-15 <= mcc <= 1.0
        assert -1.0 <= mcc_from_counts(ConfusionCounts(0, tp, tn, 0)) <= -1.0 + 1e-15
        assert chi_square_from_mcc(mcc, tp + tn) == (tp + tn) * mcc * mcc

    @given(
        tp=st.integers(min_value=1, max_value=500),
        fp=st.integers(min_value=1, max_value=500),
        fn=st.integers(min_value=1, max_value=500),
        tn=st.integers(min_value=1, max_value=500),
    )
    def test_counts_and_rates_agree(self, tp, fp, fn, tn):
        counts = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)
        via_rates = mcc_from_rates(
            counts.ppv(), counts.sensitivity(), counts.specificity(), counts.npv()
        )
        assert mcc_from_counts(counts) == pytest.approx(via_rates, abs=1e-10)


class TestChiSquareAndAccuracy:
    def test_chi_square_values(self):
        assert chi_square_from_mcc(0.0, 7) == 0.0
        assert chi_square_from_mcc(1.0, 100) == 100.0
        assert chi_square_from_mcc(0.8, 20) == pytest.approx(12.8, abs=1e-12)
        assert chi_square_from_mcc(0.5, 1) == 0.25  # n = 1 is the smallest table

    def test_chi_square_validation(self):
        with pytest.raises(ValueError):
            chi_square_from_mcc(1.5, 10)
        with pytest.raises(ValueError):
            chi_square_from_mcc(0.5, 0)
        with pytest.raises(ValueError):
            chi_square_from_mcc(float("nan"), 10)
        with pytest.raises(ValueError, match="too large for a float"):
            chi_square_from_mcc(0.5, 10**400)

    def test_accuracy(self):
        assert float(accuracy_from_counts(ConfusionCounts(50, 0, 0, 50))) == 1.0
        assert float(accuracy_from_counts(ConfusionCounts(0, 50, 50, 0))) == 0.0
        assert float(accuracy_from_counts(ConfusionCounts(9, 1, 1, 9))) == pytest.approx(0.9)

    def test_accuracy_empty(self):
        with pytest.raises(UndefinedMetric):
            accuracy_from_counts(ConfusionCounts(0, 0, 0, 0))

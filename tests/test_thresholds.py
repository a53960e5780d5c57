"""Closed-form thresholds, curvature geometry, and the numeric argmax oracle.

The argmax routine is tested as a fully independent check on the closed
forms: it never consults them, only the curvature evaluations.
"""

import math

import mpmath
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from prevthresh import (
    COARSE_STEP,
    REFINE_WIDTH,
    Curve,
    CurvaturePoint,
    DegenerateDenominator,
    DegenerateProfile,
    DiagnosticProfile,
    Rate,
    curvature_argmax,
    curvature_at,
    negative_threshold,
    npv_at,
    positive_threshold,
    ppv_at,
    ppv_at_threshold,
)

# Oracle constants (50-digit arithmetic, correctly rounded).
PHI_E = 0.1907435698305462       # sensitivity 0.9, specificity 0.95
RHO_E = 0.8092564301694538
PHI_N = 0.7550344704135896
FIG2_PHI_E = 0.22400923773979586  # sensitivity 0.6, specificity 0.95
FIG2_RHO_E = 0.7759907622602041
FIG2_PHI_N = 0.6064701812783679

P_9095 = DiagnosticProfile(0.9, 0.95)
P_6095 = DiagnosticProfile(0.6, 0.95)

open_rates = st.floats(min_value=1e-3, max_value=1.0 - 1e-3, allow_nan=False)


def closed_phi_e(a: float, b: float) -> float:
    return math.sqrt(1 - b) / (math.sqrt(a) + math.sqrt(1 - b))


def closed_phi_n(a: float, b: float) -> float:
    return math.sqrt(b) / (math.sqrt(1 - a) + math.sqrt(b))


class TestPositiveThreshold:
    def test_oracle_value(self):
        r = positive_threshold(P_9095)
        assert float(r.phi) == pytest.approx(PHI_E, abs=1e-15)
        assert float(r.metric_value) == pytest.approx(RHO_E, abs=1e-15)

    def test_second_profile(self):
        r = positive_threshold(P_6095)
        assert float(r.phi) == pytest.approx(FIG2_PHI_E, abs=1e-15)
        assert float(r.metric_value) == pytest.approx(FIG2_RHO_E, abs=1e-15)

    def test_complement_identity(self):
        # The positive threshold sits where the curve crosses 1 - phi.
        r = positive_threshold(P_9095)
        assert abs(float(r.metric_value) - (1.0 - float(r.phi))) <= 1e-12
        assert abs(float(ppv_at(P_9095, r.phi)) - float(r.metric_value)) <= 1e-12

    def test_helper_matches_direct_evaluation(self):
        direct = float(ppv_at(P_9095, positive_threshold(P_9095).phi))
        assert abs(float(ppv_at_threshold(P_9095)) - direct) <= 1e-12

    def test_perfect_specificity(self):
        r = positive_threshold(DiagnosticProfile(0.9, 1.0))
        assert float(r.phi) == 0.0
        assert r.metric_value is None

    def test_zero_sensitivity(self):
        r = positive_threshold(DiagnosticProfile(0.0, 0.5))
        assert float(r.phi) == 1.0
        assert float(r.metric_value) == 0.0

    def test_degenerate_pair(self):
        with pytest.raises(DegenerateProfile):
            positive_threshold(DiagnosticProfile(0.0, 1.0))
        with pytest.raises(DegenerateProfile):
            ppv_at_threshold(DiagnosticProfile(0.3, 1.0))


class TestNegativeThreshold:
    def test_oracle_value(self):
        r = negative_threshold(P_9095)
        assert float(r.phi) == pytest.approx(PHI_N, abs=1e-15)
        # At this threshold the curve value equals the threshold itself.
        assert float(r.metric_value) == pytest.approx(PHI_N, abs=1e-15)

    def test_second_profile(self):
        r = negative_threshold(P_6095)
        assert float(r.phi) == pytest.approx(FIG2_PHI_N, abs=1e-15)

    def test_fixed_point_identity(self):
        r = negative_threshold(P_9095)
        assert abs(float(npv_at(P_9095, r.phi)) - float(r.phi)) <= 1e-12

    def test_perfect_sensitivity(self):
        r = negative_threshold(DiagnosticProfile(1.0, 0.95))
        assert float(r.phi) == 1.0
        assert r.metric_value is None

    def test_zero_specificity(self):
        r = negative_threshold(DiagnosticProfile(0.9, 0.0))
        assert float(r.phi) == 0.0
        assert r.metric_value is None

    def test_degenerate_pair(self):
        with pytest.raises(DegenerateProfile):
            negative_threshold(DiagnosticProfile(1.0, 0.0))

    @given(a=open_rates, b=open_rates)
    def test_ordering_for_informative_profiles(self, a, b):
        assume(a + b > 1.0 + 1e-6)
        p = DiagnosticProfile(a, b)
        assert float(negative_threshold(p).phi) > float(positive_threshold(p).phi)

    @given(a=open_rates, b=open_rates)
    def test_ordering_flips_for_misleading_profiles(self, a, b):
        assume(a + b < 1.0 - 1e-6)
        p = DiagnosticProfile(a, b)
        assert float(negative_threshold(p).phi) < float(positive_threshold(p).phi)


class TestHighPrecisionCrossCheck:
    """Re-derive both thresholds at 50 digits and compare the float formulas."""

    @pytest.mark.parametrize(
        "a,b",
        [(0.9, 0.95), (0.6, 0.95), (0.99, 0.01), (0.123, 0.987), (0.75, 0.75)],
    )
    def test_closed_forms(self, a, b):
        with mpmath.workdps(50):
            ma, mb = mpmath.mpf(repr(a)), mpmath.mpf(repr(b))
            exact_e = mpmath.sqrt(1 - mb) / (mpmath.sqrt(ma) + mpmath.sqrt(1 - mb))
            exact_n = mpmath.sqrt(mb) / (mpmath.sqrt(1 - ma) + mpmath.sqrt(mb))
            p = DiagnosticProfile(a, b)
            assert abs(float(positive_threshold(p).phi) - float(exact_e)) <= 5e-16
            assert abs(float(negative_threshold(p).phi) - float(exact_n)) <= 5e-16


class TestCurvatureAt:
    def test_point_fields(self):
        pt = curvature_at(P_9095, 0.3, Curve.PPV)
        assert isinstance(pt, CurvaturePoint)
        assert float(pt.phi) == 0.3
        assert pt.kappa > 0.0

    def test_straight_line_at_chance(self):
        pt = curvature_at(DiagnosticProfile(0.5, 0.5), 0.3, Curve.PPV)
        assert pt.kappa == 0.0
        assert pt.radius is None
        assert pt.slope == pytest.approx(1.0, abs=1e-15)

    def test_unit_slope_at_thresholds(self):
        # The curvature maximum of each curve coincides with slope of unit
        # magnitude, which is what makes the numeric argmax an independent
        # oracle for the closed-form thresholds.
        e = curvature_at(P_9095, positive_threshold(P_9095).phi, Curve.PPV)
        n = curvature_at(P_9095, negative_threshold(P_9095).phi, Curve.NPV)
        assert abs(e.slope - 1.0) <= 1e-9
        assert abs(n.slope - (-1.0)) <= 1e-9

    def test_slope_signs(self):
        assert curvature_at(P_9095, 0.4, Curve.PPV).slope > 0
        assert curvature_at(P_9095, 0.4, Curve.NPV).slope < 0

    def test_radius_is_reciprocal(self):
        pt = curvature_at(P_9095, 0.25, Curve.PPV)
        assert pt.radius == pytest.approx(1.0 / pt.kappa, rel=1e-15)

    def test_kappa_nonnegative_on_grid(self):
        for i in range(101):
            phi = i / 100
            assert curvature_at(P_9095, phi, Curve.PPV).kappa >= 0.0
            assert curvature_at(P_9095, phi, Curve.NPV).kappa >= 0.0

    def test_slope_against_finite_differences(self):
        h = 1e-6
        for phi in (0.1, 0.19, 0.3, 0.5, 0.7, 0.755, 0.9):
            fd_ppv = (float(ppv_at(P_9095, phi + h)) - float(ppv_at(P_9095, phi - h))) / (2 * h)
            fd_npv = (float(npv_at(P_9095, phi + h)) - float(npv_at(P_9095, phi - h))) / (2 * h)
            assert curvature_at(P_9095, phi, Curve.PPV).slope == pytest.approx(fd_ppv, rel=1e-7)
            assert curvature_at(P_9095, phi, Curve.NPV).slope == pytest.approx(fd_npv, rel=1e-7)

    def test_second_derivative_against_finite_differences(self):
        # Central second differences are only trustworthy where the curve
        # bends hard, so sample near each curvature peak of a sharp profile.
        h = 1e-5
        p = DiagnosticProfile(0.95, 0.9)
        phi_e = float(positive_threshold(p).phi)
        phi_n = float(negative_threshold(p).phi)
        for phi, curve, f in (
            (0.9 * phi_e, Curve.PPV, ppv_at),
            (phi_e, Curve.PPV, ppv_at),
            (1.2 * phi_e, Curve.PPV, ppv_at),
            (1 - 1.1 * (1 - phi_n), Curve.NPV, npv_at),
            (phi_n, Curve.NPV, npv_at),
        ):
            fd2 = (float(f(p, phi + h)) - 2 * float(f(p, phi)) + float(f(p, phi - h))) / (h * h)
            pt = curvature_at(p, phi, curve)
            analytic = pt.kappa * (1 + pt.slope**2) ** 1.5
            assert analytic == pytest.approx(abs(fd2), rel=1e-5)

    @given(a=open_rates, b=open_rates, phi=st.floats(min_value=0.0, max_value=1.0))
    def test_kappa_matches_quotient_formula(self, a, b, phi):
        assume(abs(a + b - 1.0) > 1e-6)
        pt = curvature_at(DiagnosticProfile(a, b), phi, Curve.PPV)
        p, q = a, 1 - b
        u = p * phi + q * (1 - phi)
        assume(u > 1e-9)
        expected = (2 * p * q * abs(p - q) / u**3) / (1 + (p * q / u**2) ** 2) ** 1.5
        assert pt.kappa == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "a, b, phi",
        [
            (1e-300, 1.0, 0.05),  # u * u underflows to 0
            (1e-120, 1.0, 0.05),  # u * u is normal, u * u * u underflows
            (1e-104, 0.0, 1.0),  # slope ** 2 ~ 1e208, its 1.5th power overflows
        ],
    )
    def test_unrepresentable_curvature_is_degenerate(self, a, b, phi):
        with pytest.raises(DegenerateDenominator):
            curvature_at(DiagnosticProfile(a, b), phi, Curve.PPV)


class TestCurvatureArgmax:
    def test_protocol_constants(self):
        assert COARSE_STEP == 1e-4
        assert REFINE_WIDTH == 1e-10

    @pytest.mark.parametrize(
        "a,b",
        [(0.9, 0.95), (0.6, 0.95), (0.8, 0.8), (0.99, 0.3), (0.35, 0.9)],
    )
    def test_matches_closed_form_positive(self, a, b):
        p = DiagnosticProfile(a, b)
        r = curvature_argmax(p, Curve.PPV)
        assert abs(float(r.phi) - closed_phi_e(a, b)) <= 1e-6

    @pytest.mark.parametrize(
        "a,b",
        [(0.9, 0.95), (0.6, 0.95), (0.8, 0.8), (0.99, 0.3), (0.35, 0.9)],
    )
    def test_matches_closed_form_negative(self, a, b):
        p = DiagnosticProfile(a, b)
        r = curvature_argmax(p, Curve.NPV)
        assert abs(float(r.phi) - closed_phi_n(a, b)) <= 1e-6

    def test_reports_curve_value(self):
        r = curvature_argmax(P_9095, Curve.PPV)
        assert float(r.metric_value) == pytest.approx(RHO_E, abs=1e-6)

    def test_rejects_chance_profile(self):
        with pytest.raises(DegenerateProfile):
            curvature_argmax(DiagnosticProfile(0.5, 0.5), Curve.PPV)
        with pytest.raises(DegenerateProfile):
            curvature_argmax(DiagnosticProfile(0.3, 0.7), Curve.NPV)

    def test_rejects_constant_curves(self):
        # Specificity 1 makes the positive curve constant, so there is no
        # curvature peak to find.
        with pytest.raises(DegenerateProfile):
            curvature_argmax(DiagnosticProfile(0.9, 1.0), Curve.PPV)
        with pytest.raises(DegenerateProfile):
            curvature_argmax(DiagnosticProfile(1.0, 0.9), Curve.NPV)

    def test_unit_slope_at_numeric_peak(self):
        for curve in (Curve.PPV, Curve.NPV):
            r = curvature_argmax(P_6095, curve)
            assert abs(abs(curvature_at(P_6095, r.phi, curve).slope) - 1.0) <= 1e-5

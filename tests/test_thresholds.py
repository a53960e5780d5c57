"""Closed-form thresholds, curvature geometry, and the numeric argmax oracle.

The argmax routine is tested as a fully independent check on the closed
forms: it never consults them, only the curvature evaluations.
"""

import math
import random
import warnings

import mpmath
import numpy as np
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
from prevthresh import _arrays, thresholds

from test_threshold_bits import PINNED

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

    def test_scan_leaks_no_numpy_warning(self):
        # At sensitivity 1e-200 the scan's last grid value is 0/0. The
        # bracket ends there (numpy's argmax takes the NaN), and the scan
        # must not emit numpy's RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = curvature_argmax(DiagnosticProfile(1e-200, 0.5), Curve.PPV)
        assert (repr(float(r.phi)), repr(float(r.metric_value))) == ("0.9999999999565161", "4.599405238288206e-190")


def full_scan_bracket(p: float, q: float) -> tuple[float, float]:
    """The coarse scan's bracket from every grid point: the reference for the certified window."""
    n = round(1.0 / COARSE_STEP)
    xs = np.linspace(0.0, 1.0, n + 1)
    with np.errstate(all="ignore"):
        i = int(np.argmax(_arrays._kappa_grid(p, q, xs)))
    return float(xs[max(i - 1, 0)]), float(xs[min(i + 1, n)])


def scan_profiles() -> list[tuple[float, float]]:
    """A dense seeded profile set: interior, near-degenerate, tiny-rate and endpoint profiles."""
    rng = random.Random(20211227)
    edges = [0.0, 1.0, 5e-324, 1e-300, 1e-200, 1e-100, 1e-8, 0.5, 1.0 - 1e-8, 1.0 - 2**-53]
    profiles = [(rng.random(), rng.random()) for _ in range(300)]
    for gap in (1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-11, 1e-12, 2e-12):
        for _ in range(15):
            a = rng.uniform(0.01, 0.99)
            profiles.append((a, 1.0 - a + rng.choice((-1.0, 1.0)) * gap))
    for _ in range(150):
        tiny = 10.0 ** rng.uniform(-300, -8)
        other = rng.random()
        profiles += [(tiny, other), (other, tiny), (1.0 - tiny, other), (other, 1.0 - tiny)]
    profiles += [(a, b) for a in edges for b in edges]
    profiles += [(edge, rng.random()) for edge in (0.0, 1.0) for _ in range(20)]
    profiles += [(rng.random(), edge) for edge in (0.0, 1.0) for _ in range(20)]
    return [(a, b) for a, b in profiles if 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0]


def curve_coefficients(a: float, b: float, curve: Curve) -> tuple[float, float]:
    return (a, 1.0 - b) if curve == Curve.PPV else (1.0 - a, b)


class TestCurvatureBracket:
    def test_window_equals_full_scan(self):
        served = {"window": 0, "fallback": 0}
        for a, b in scan_profiles():
            for curve in Curve:
                p, q = curve_coefficients(a, b, curve)
                assert _arrays.curvature_bracket(p, q, COARSE_STEP) == full_scan_bracket(p, q), (a, b, curve)
                with np.errstate(all="ignore"):
                    served["window" if _arrays._window_argmax(p, q, COARSE_STEP) is not None else "fallback"] += 1
        # Both paths are exercised by the profile set.
        assert served["window"] > 1000 and served["fallback"] > 100, served

    def test_window_serves_the_pinned_profiles(self):
        for ((a, b), name), pinned in PINNED.items():
            if not name.startswith("curvature_argmax") or pinned == "DegenerateProfile":
                continue
            p, q = curve_coefficients(a, b, Curve.PPV if name.endswith("ppv") else Curve.NPV)
            assert _arrays._window_argmax(p, q, COARSE_STEP) is not None, (a, b, name)
            assert _arrays.curvature_bracket(p, q, COARSE_STEP) == full_scan_bracket(p, q)

    @pytest.mark.parametrize(
        "a, b",
        [
            (0.5, 0.5 + 2e-12),  # near-degenerate: the curvature is flat to 1e-12
            (0.3, 0.7 - 1e-11),
            (1e-200, 0.5),  # 0/0 at phi = 1
            (1e-90, 0.0),  # finite everywhere, but the numerator underflows at phi = 1
        ],
    )
    def test_fallback_serves_near_degenerate_and_tiny_profiles(self, a, b):
        p, q = curve_coefficients(a, b, Curve.PPV)
        with np.errstate(all="ignore"):
            assert _arrays._window_argmax(p, q, COARSE_STEP) is None
        assert _arrays.curvature_bracket(p, q, COARSE_STEP) == full_scan_bracket(p, q)

    @pytest.mark.parametrize("shift", [-3, 3])
    def test_misplaced_hint_is_rejected(self, monkeypatch, shift):
        # The hint only saves time: a window placed strides away from the
        # peak has its maximum on an inner edge, and the full scan serves.
        p, q = curve_coefficients(0.9, 0.95, Curve.PPV)
        hint_xs = _arrays._coarse_grid(COARSE_STEP)[1]
        kappa_grid = _arrays._kappa_grid

        def misplaced(p, q, xs):
            values = kappa_grid(p, q, xs)
            return np.roll(values, shift) if xs is hint_xs else values

        monkeypatch.setattr(_arrays, "_kappa_grid", misplaced)
        assert _arrays._window_argmax(p, q, COARSE_STEP) is None
        assert _arrays.curvature_bracket(p, q, COARSE_STEP) == full_scan_bracket(p, q)

    def test_grid_is_cached_and_read_only(self):
        xs, hint_xs = _arrays._coarse_grid(COARSE_STEP)
        assert _arrays._coarse_grid(COARSE_STEP)[0] is xs
        assert xs.tolist() == np.linspace(0.0, 1.0, 10001).tolist()
        assert hint_xs.tolist() == xs[:: _arrays._HINT_STRIDE].tolist()
        with pytest.raises(ValueError):
            xs[0] = 1.0


class TestKappaKernel:
    @pytest.mark.parametrize(
        "a, b, curve",
        [
            *((a, b, curve) for a, b in ((0.9, 0.95), (0.6, 0.95), (0.999999, 0.999999), (0.7, 0.31)) for curve in Curve),
            (0.0, 0.5, Curve.NPV),
            (0.9, 0.0, Curve.PPV),
            (1e-200, 0.5, Curve.PPV),
            (0.5, 1e-200, Curve.NPV),
        ],
    )
    def test_every_search_probe_matches_curvature_at(self, monkeypatch, a, b, curve):
        profile = DiagnosticProfile(a, b)
        probes = []
        kernel = thresholds._kappa_kernel

        def recording_kernel(profile, curve):
            kappa = kernel(profile, curve)

            def record(phi):
                probes.append((phi, kappa(phi)))
                return probes[-1][1]

            return record

        monkeypatch.setattr(thresholds, "_kappa_kernel", recording_kernel)
        curvature_argmax(profile, curve)
        assert len(probes) > 30
        for phi, value in probes:
            assert repr(value) == repr(curvature_at(profile, phi, curve).kappa), phi

    @pytest.mark.parametrize(
        "a, b, phi",
        [
            (1e-300, 1.0, 0.05),  # u * u underflows to 0
            (1e-120, 1.0, 0.05),  # u * u is normal, u * u * u underflows
            (1e-104, 0.0, 1.0),  # slope ** 2 ~ 1e208, its 1.5th power overflows
            (0.0, 1.0, 0.5),  # u is 0
        ],
    )
    def test_unrepresentable_curvature_raises_as_curvature_at(self, a, b, phi):
        profile = DiagnosticProfile(a, b)
        with pytest.raises(DegenerateDenominator) as expected:
            curvature_at(profile, phi, Curve.PPV)
        with pytest.raises(DegenerateDenominator) as got:
            thresholds._kappa_kernel(profile, Curve.PPV)(phi)
        assert str(got.value) == str(expected.value)

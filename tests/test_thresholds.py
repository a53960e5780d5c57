"""Closed-form thresholds, curvature geometry, and the numeric argmax oracle.

The argmax routine is tested as a fully independent check on the closed
forms: it never consults them, only the curvature evaluations.
"""

import ast
import io
import json
import math
import pathlib
import random
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    emit_curves,
    negative_threshold,
    npv_at,
    positive_threshold,
    ppv_at,
    ppv_at_threshold,
)
from prevthresh import _closed, dataio, thresholds

from emit_oracle import curvature_scalar
from exact_oracles import curvature_argmax_exact, youden_exact
from test_cli import source_env
from test_threshold_bits import PINNED

# Smallest J, a quarter-decade band edge, above which no measured profile tied phi_n with phi_e.
STRICT_ORDER_CUT = 10.0 ** -15.5

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

    @given(a=st.floats(0.0, 1.0), ulps=st.integers(1, 3))
    @settings(max_examples=1000)
    def test_ordering_holds_down_to_chance(self, a, ulps):
        # The paper's phi_n > phi_e on the informative profiles closest to chance: b is 1-3 ulps
        # above the float nearest 1 - a, so J = a + b - 1 (exact in fsum) is as small as floats
        # allow. There the two thresholds can round to one float, so the order is not strict.
        b = 1.0 - a
        for _ in range(ulps):
            b = math.nextafter(b, 2.0)
        assume(b <= 1.0 and math.fsum((a, b, -1.0)) > 0.0)
        p = DiagnosticProfile(a, b)
        assert float(negative_threshold(p).phi) >= float(positive_threshold(p).phi)

    def test_ordering_is_strict_above_the_measured_tie_cut(self):
        # phi_n > phi_e strictly for J = a + b - 1 (exact in fsum) >= STRICT_ORDER_CUT. Over
        # 5.2 million seeded profiles in quarter-decade J bands from 1e-16 to 1e-6 (a uniform,
        # b = 1 - a + J), the two kernels tied only in the two bands below 10**-15.5, at
        # J <= 2.7755575615628914e-16 (5 * 2**-54), and never gave phi_n < phi_e.
        rng = random.Random(2112)
        checked = 0
        for k in range(38):
            lo = math.log10(STRICT_ORDER_CUT) + k / 4
            for _ in range(500):
                a = rng.random()
                b = 1.0 - a + 10.0 ** rng.uniform(lo, lo + 0.25)
                if b > 1.0 or math.fsum((a, b, -1.0)) < STRICT_ORDER_CUT:
                    continue
                assert _closed._negative_side(a, b)[0] > _closed._positive_side(a, b)[0], (a, b)
                checked += 1
        assert checked > 18_000

    @given(a=open_rates, b=open_rates)
    def test_ordering_flips_for_misleading_profiles(self, a, b):
        assume(a + b < 1.0 - 1e-6)
        p = DiagnosticProfile(a, b)
        assert float(negative_threshold(p).phi) < float(positive_threshold(p).phi)


# The closed forms' kernels, each defined in prevthresh._closed only.
CLOSED_FORMS = (
    "SWEEP_BETAS", "_beta_keys", "_SWEEP_BETA_KEYS", "_radical_split", "_positive_side", "_negative_side", "_side",
    "_summary", "_finite", "_f_beta_form", "_fm_form", "_threshold_mcc", "_ratio_values",
)


def test_each_closed_form_is_one_object_defined_in_closed():
    from prevthresh import _arrays, bounds, cli, report

    kernels = {name: getattr(_closed, name) for name in CLOSED_FORMS}
    for name, kernel in kernels.items():
        if callable(kernel):
            assert kernel.__module__ == "prevthresh._closed", name
    for module in (thresholds, bounds, report, _arrays):
        reached = set(CLOSED_FORMS) & set(vars(module))
        assert reached, module.__name__
        for name in reached:
            assert vars(module)[name] is kernels[name], (module.__name__, name)
    # cli imports its kernels inside the subcommands, each from _closed.
    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    reached = {alias.name for node in imports if (node.level, node.module) == (1, "_closed") for alias in node.names}
    assert {"_summary", "_ratio_values"} <= reached <= set(CLOSED_FORMS)
    assert not any(alias.name in CLOSED_FORMS for node in imports if node.module != "_closed" for alias in node.names)
    # No other module of the package defines one at its top level.
    for path in sorted(pathlib.Path(_closed.__file__).parent.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        defined = {node.name for node in body if isinstance(node, ast.FunctionDef)}
        defined |= {t.id for node in body if isinstance(node, ast.Assign) for t in node.targets if hasattr(t, "id")}
        expected = set(CLOSED_FORMS) if path.name == "_closed.py" else set()
        assert defined & set(CLOSED_FORMS) == expected, path.name


def test_threshold_identities_over_drawn_profiles():
    # PPV(phi_e) = 1 - phi_e and NPV(phi_n) = phi_n, on the kernels' values, for each
    # rate drawn uniform, tiny, near 1 or an edge. Over 3.2 million such profiles (eight
    # seeds) the worst errors were 2**-52 and 2**-51, the bounds asserted here.
    rng = random.Random(2112)
    edges = (0.0, 1.0, 5e-324, 1.0 - 2**-53)
    draws = (
        rng.random,
        lambda: 10.0 ** rng.uniform(-320, -1),
        lambda: 1.0 - 10.0 ** rng.uniform(-16, -1),
        lambda: rng.choice(edges),
    )
    checked = {"positive": 0, "negative": 0}
    for _ in range(30_000):
        a, b = rng.choice(draws)(), rng.choice(draws)()
        phi, ppv = _closed._positive_side(a, b)
        if ppv is not None:
            assert abs(ppv - (1.0 - phi)) <= 2**-52, (a, b)
            checked["positive"] += 1
        phi, npv = _closed._negative_side(a, b)
        if npv is not None:
            assert abs(npv - phi) <= 2**-51, (a, b)
            checked["negative"] += 1
    assert min(checked.values()) > 20_000


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

    def test_closed_forms_are_the_maximum_of_the_exact_curvature(self):
        # The paper's definition checked where curvature_argmax cannot reach (J < 0.02): the float
        # phi_e and phi_n against the golden-section maximum of kappa_exact, which never uses
        # the closed forms. Two profiles per decade of J from 1e-1 to 1e-14, with the edge
        # profiles (1, J) on the PPV curve and (J, 1) on the NPV curve. 80 digits place the
        # flat peak at J = 1e-14 (50 digits suffice only down to J = 1e-10). Over 448 such
        # curves the worst error was 1.05 * 2**-52 of phi.
        rng = random.Random(2021)
        checked = 0
        for k in range(1, 15):
            for _ in range(2):
                j = 10.0 ** -(k - 1 + rng.random())
                a = rng.uniform(j, 1.0)
                for a, b, curve in ((a, 1.0 + j - a, "ppv"), (a, 1.0 + j - a, "npv"), (1.0, j, "ppv"), (j, 1.0, "npv")):
                    assert 10.0 ** -k < youden_exact(a, b) < 10.0 ** (1 - k), (a, b)
                    phi = (_closed._positive_side if curve == "ppv" else _closed._negative_side)(a, b)[0]
                    exact = curvature_argmax_exact(a, b, curve, digits=80)
                    assert abs(phi - exact) <= 2**-51 * phi, (a, b, curve)
                    checked += 1
        assert checked == 112


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


# A fresh interpreter with numpy blocked runs curvature_argmax on each
# (sensitivity, specificity, curve) case of argv[1] and reports the results
# and which of numpy and prevthresh's array module it loaded.
ORACLE_PROBE = """
import json, sys
sys.modules["numpy"] = None  # every import of numpy now raises ModuleNotFoundError
from prevthresh import DegenerateProfile, DiagnosticProfile, curvature_argmax
results = []
for a, b, curve in json.loads(sys.argv[1]):
    try:
        r = curvature_argmax(DiagnosticProfile(a, b), curve)
    except DegenerateProfile:
        results.append("DegenerateProfile")
        continue
    results.append([repr(float(r.phi)), None if r.metric_value is None else repr(float(r.metric_value))])
loaded = sorted(name for name in ("numpy", "prevthresh._arrays") if sys.modules.get(name) is not None)
print(json.dumps({"results": results, "loaded": loaded}))
"""


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

    def test_agrees_with_closed_form_to_1e_6_from_j_of_two_hundredths(self):
        # The range curvature_argmax's docstring states: within 1e-6 of the
        # closed forms where J = a + b - 1 >= 0.02, here just above that cut.
        rng = random.Random(20)
        worst = 0.0
        for _ in range(500):
            j = rng.uniform(0.02, 0.025)
            a = rng.uniform(j, 1.0)
            for a, b in ((a, 1.0 + j - a), (1.0 + j - a, a)):
                assert a + b - 1.0 >= 0.02
                p = DiagnosticProfile(a, b)
                worst = max(
                    worst,
                    abs(float(curvature_argmax(p, Curve.PPV).phi) - closed_phi_e(a, b)),
                    abs(float(curvature_argmax(p, Curve.NPV).phi) - closed_phi_n(a, b)),
                )
        assert 3e-7 < worst < 1e-6, worst
        # Below the cut the peak flattens toward rounding and 1e-6 no longer holds.
        a, b = 0.9495684776740481, 0.060774086932771754  # J = 0.0103
        assert abs(float(curvature_argmax(DiagnosticProfile(a, b), Curve.PPV).phi) - closed_phi_e(a, b)) > 1.5e-6

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

    def test_nan_at_phi_one_is_the_argmax_without_warning(self):
        # At sensitivity 1e-200 the kernel raises at the last grid point,
        # where u**3 underflows, and the CSV column reads NaN there. The full
        # scan takes the first point where it raises as its argmax, so the
        # bracket ends at 1, with no exception or warning.
        args = scan_args(1e-200, 0.5, Curve.PPV)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(dataio._kappa_column(args[0], [1.0])[0])
            assert thresholds._curvature_bracket(*args) == (GRID[-2], 1.0)
            r = curvature_argmax(DiagnosticProfile(1e-200, 0.5), Curve.PPV)
        assert (repr(float(r.phi)), repr(float(r.metric_value))) == ("0.9999999999565161", "4.599405238288206e-190")

    def test_runs_without_numpy_in_a_fresh_process(self):
        # Every pinned curvature_argmax result and the two fallback profiles,
        # from an interpreter that cannot import numpy.
        cases = [
            (a, b, name[-3:]) for (a, b), name in PINNED if name.startswith("curvature_argmax")
        ] + [(0.6, 0.401, "ppv"), (1e-200, 0.5, "ppv")]
        proc = subprocess.run(
            [sys.executable, "-c", ORACLE_PROBE, json.dumps(cases)],
            capture_output=True,
            text=True,
            env=source_env(),
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        expected = []
        for a, b, curve in cases:
            try:
                r = curvature_argmax(DiagnosticProfile(a, b), curve)
            except DegenerateProfile:
                expected.append("DegenerateProfile")
                continue
            expected.append([repr(float(r.phi)), None if r.metric_value is None else repr(float(r.metric_value))])
            pinned = PINNED.get(((a, b), f"curvature_argmax_{curve}"))
            assert pinned is None or tuple(expected[-1]) == pinned, (a, b, curve)
        assert json.loads(proc.stdout) == {"results": expected, "loaded": []}


# The coarse scan's grid, i * COARSE_STEP for i in 0..10000.
GRID = [i * COARSE_STEP for i in range(round(1.0 / COARSE_STEP) + 1)]
GRID_ARRAY = np.array(GRID)


def python_power(values: np.ndarray) -> np.ndarray:
    """Each value to the power 1.5 by Python's float **, as the kernel and curvature_scalar take it; inf where it overflows."""

    def power(x: float) -> float:
        try:
            return x**1.5
        except OverflowError:
            return math.inf

    return np.array([power(x) for x in values.tolist()])


def grid_kappas(a: float, b: float, curve: Curve, power) -> np.ndarray:
    """The curvature at every grid point by the kernel's arithmetic on arrays, in its order; NaN where the kernel raises.

    The kernel raises where u**3 is 0 and where the 1.5th power
    overflows. power(x) takes each x = 1 + slope**2 to the power 1.5:
    python_power rounds as Python's ** does, so every other operation
    being IEEE arithmetic, each value is bit-equal to curvature_scalar's
    (test_full_scan_reference_is_curvature_scalar checks it); np.power
    rounds some values differently.
    """
    p, q = curve_coefficients(a, b, curve)
    pq = p * q
    with np.errstate(all="ignore"):
        u = p * GRID_ARRAY + q * (1.0 - GRID_ARRAY)
        u2 = u * u
        u3 = u2 * u
        slope = pq / u2
        powered = power(1.0 + slope * slope)
        kappa = 2.0 * pq * abs(p - q) / u3 / powered
    kappa[(u3 == 0.0) | np.isinf(powered)] = np.nan
    return kappa


def scalar_kappa(a: float, b: float, curve: Curve, phi: float) -> float:
    """curvature_scalar's kappa at phi, NaN where it raises."""
    try:
        return curvature_scalar(DiagnosticProfile(a, b), phi, curve).kappa
    except DegenerateDenominator:
        return math.nan


def full_scan_argmax(a: float, b: float, curve: Curve) -> int:
    """The argmax of curvature_scalar's values at every grid point, NaN where it raises: the first NaN, else the first largest value.

    The values come from grid_kappas with python_power; the argmax and
    its grid neighbours are checked against curvature_scalar itself.
    """
    values = grid_kappas(a, b, curve, python_power)
    # np.argmax gives the first NaN where there is one, else the first largest value.
    i = int(np.argmax(values))
    for j in range(max(i - 1, 0), min(i + 2, len(GRID))):
        assert repr(float(values[j])) == repr(scalar_kappa(a, b, curve, GRID[j])), (a, b, curve, j)
    return i


def full_scan_bracket(a: float, b: float, curve: Curve) -> tuple[float, float]:
    """The coarse scan's bracket from every grid point."""
    i = full_scan_argmax(a, b, curve)
    return GRID[max(i - 1, 0)], GRID[min(i + 1, len(GRID) - 1)]


def numpy_scan_argmax(a: float, b: float, curve: Curve) -> int:
    """The argmax of the kernel's arithmetic in numpy, np.power included, with NaN where the kernel raises."""
    return int(np.argmax(grid_kappas(a, b, curve, lambda x: x**1.5)))


def numpy_scan_bracket(a: float, b: float, curve: Curve) -> tuple[float, float]:
    """The numpy scan's bracket."""
    i = numpy_scan_argmax(a, b, curve)
    return GRID[max(i - 1, 0)], GRID[min(i + 1, len(GRID) - 1)]


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


def scan_args(a: float, b: float, curve: Curve) -> tuple:
    """The scan's arguments for a curve, as curvature_argmax passes them: the kernel's closure, then (p, q)."""
    p, q = curve_coefficients(a, b, curve)
    return thresholds._kappa_kernel(DiagnosticProfile(a, b), curve, p, q), p, q


def draw_profile(rng: random.Random) -> tuple[float, float]:
    """An interior informative profile drawn as perfbench's validate workload draws its oracle profiles."""
    while True:
        a = round(rng.uniform(0.05, 0.99), 6)
        b = round(rng.uniform(0.05, 0.99), 6)
        if a + b >= 1.05:
            return a, b


class TestCurvatureBracket:
    def test_certified_bracket_equals_full_scan(self):
        served = {"python": 0, "fallback": 0}
        for a, b in scan_profiles():
            for curve in Curve:
                args = scan_args(a, b, curve)
                bracket = thresholds._curvature_bracket(*args)
                assert bracket == full_scan_bracket(a, b, curve), (a, b, curve)
                # Away from chance the bracket is also the one a numpy scan of
                # the same arithmetic gives; nearer chance np.power's few-ulp
                # difference from Python's ** can move a flat peak.
                if abs(a + b - 1.0) >= 1e-3:
                    assert bracket == numpy_scan_bracket(a, b, curve), (a, b, curve)
                served["python" if thresholds._certified_argmax(*args) is not None else "fallback"] += 1
        # Both paths are exercised by the profile set.
        assert served["python"] > 1000 and served["fallback"] > 100, served

    def test_grid_values_stay_within_a_hundredth_of_the_margin_of_exact_values(self):
        # The certificate needs the kernel's float values to stay far inside
        # _TIE_MARGIN of the exact curvature where it compares them.
        with mpmath.workdps(50):
            n = len(GRID) - 1
            curves, worst = 0, mpmath.mpf(0)
            for a, b in scan_profiles():
                for curve in Curve:
                    args = kappa, p, q = scan_args(a, b, curve)
                    if not thresholds._scan_is_normal(*args):
                        continue
                    mp, mq = mpmath.mpf(p), mpmath.mpf(q)
                    k = mp * mq
                    # 22 spread grid points, and the three whose values the
                    # certificate compares.
                    j = thresholds._certified_argmax(*args)
                    if j is None:
                        j = numpy_scan_argmax(a, b, curve)
                    for i in [*range(0, n + 1, 476), max(j - 1, 0), j, min(j + 1, n)]:
                        x = GRID[i]
                        u = mp * x + mq * (1 - mpmath.mpf(x))
                        exact = 2 * k * abs(mp - mq) * u**3 / (u**4 + k**2) ** 1.5
                        worst = max(worst, abs(kappa(x) - exact) / exact)
                    curves += 1
        assert curves > 1000
        assert worst < thresholds._TIE_MARGIN / 100, worst

    def test_python_path_serves_the_pinned_profiles(self):
        for ((a, b), name), pinned in PINNED.items():
            if not name.startswith("curvature_argmax") or pinned == "DegenerateProfile":
                continue
            curve = Curve.PPV if name.endswith("ppv") else Curve.NPV
            args = scan_args(a, b, curve)
            assert thresholds._certified_argmax(*args) == full_scan_argmax(a, b, curve), (a, b, name)
            assert thresholds._curvature_bracket(*args) == full_scan_bracket(a, b, curve)

    def test_python_path_serves_almost_every_drawn_curve(self):
        rng = random.Random(19)
        served = curves = 0
        for _ in range(2000):
            a, b = draw_profile(rng)
            for curve in Curve:
                served += thresholds._certified_argmax(*scan_args(a, b, curve)) is not None
                curves += 1
        assert served >= 0.999 * curves, (served, curves)

    def test_closed_form_start_is_the_full_scan_argmax_or_a_neighbour(self):
        # The closed-form grid point is the argmax or, where the peak lies near
        # a grid midpoint, a neighbour of it, which the certificate declines.
        rng = random.Random(25)
        n = len(GRID) - 1
        worst = 0
        for _ in range(1000):
            a, b = draw_profile(rng)
            for curve in Curve:
                p, q = curve_coefficients(a, b, curve)
                # Drawn curves have J >= 0.05, where the numpy scan gives the
                # Python scan's bracket (checked on the dense profile set above).
                worst = max(worst, abs(round(thresholds._radical_split(p, q) * n) - numpy_scan_argmax(a, b, curve)))
        assert worst <= 1, worst

    @pytest.mark.parametrize(
        "a, b",
        [
            (0.5, 0.5 + 2e-12),  # near-degenerate: the curvature is flat to 1e-12
            (0.3, 0.7 - 1e-11),
            (0.6, 0.401),  # a broad peak: neighbours within 1e-13 of the maximum
            (1e-200, 0.5),  # u**3 underflows to 0 at phi = 1, where the kernel raises
            (2e-104, 0.999),  # finite everywhere, but u**3 is subnormal at phi = 1
            (1e-90, 0.0),  # the peak lies within a grid step of phi = 1: the argmax is 9999, not 10000
        ],
    )
    def test_fallback_serves_near_degenerate_and_tiny_profiles(self, a, b):
        args = scan_args(a, b, Curve.PPV)
        assert thresholds._certified_argmax(*args) is None
        assert thresholds._curvature_bracket(*args) == full_scan_bracket(a, b, Curve.PPV)

    def test_python_path_serves_a_tiny_rate_whose_intermediates_are_normal(self):
        # Sensitivity 1e-8 and specificity one ulp below 1 give the PPV curve p = 1e-8 and
        # q = 2**-53, so u**3 falls to 1.4e-48 at phi = 0 and the slope reaches 9e7 there.
        # Every intermediate is a normal float, and the peak lies at the closed-form grid
        # point 1, so the certificate holds.
        a, b = 1e-8, 1.0 - 2**-53
        args = scan_args(a, b, Curve.PPV)
        assert thresholds._certified_argmax(*args) == full_scan_argmax(a, b, Curve.PPV) == 1

    def test_python_path_declines_a_near_tie(self):
        # An interior profile whose peak lies almost halfway between two
        # grid points: the two largest values differ, but by less than the
        # margin, so the full scan decides between them.
        a, b, curve = 0.16319, 0.941647, Curve.NPV
        args = kappa, _, _ = scan_args(a, b, curve)
        i = full_scan_argmax(a, b, curve)
        top, runner_up = kappa(GRID[i]), kappa(GRID[i + 1])
        assert 0.0 < top - runner_up < thresholds._TIE_MARGIN * top
        assert thresholds._certified_argmax(*args) is None
        assert thresholds._curvature_bracket(*args) == full_scan_bracket(a, b, curve)

    @pytest.mark.parametrize("start", ["-300", "-3", "+3", "+300", "zero", "n", "swapped"])
    @pytest.mark.parametrize("a, b, curve", [(0.9, 0.95, Curve.PPV), (0.9, 0.95, Curve.NPV), (0.31, 0.88, Curve.PPV)])
    def test_misplaced_start_still_gives_the_full_scan(self, monkeypatch, start, a, b, curve):
        # The closed form only names the grid point checked first: a point away
        # from the peak is not certified and the full scan decides, so the
        # oracle's answer does not depend on the formula it checks.
        profile = DiagnosticProfile(a, b)
        args = _, p, q = scan_args(a, b, curve)
        n = len(GRID) - 1
        radical = thresholds._radical_split
        starts = {"zero": 0, "n": n, "swapped": round(radical(q, p) * n)}
        j = starts[start] if start in starts else round(radical(p, q) * n) + int(start)
        expected = thresholds.curvature_argmax(profile, curve)
        monkeypatch.setattr(thresholds, "_radical_split", lambda p, q: j / n)
        assert thresholds._certified_argmax(*args) is None
        assert thresholds._curvature_bracket(*args) == full_scan_bracket(a, b, curve)
        assert repr(thresholds.curvature_argmax(profile, curve)) == repr(expected)

    def test_grid_is_linspace_bit_for_bit(self):
        assert [i * COARSE_STEP for i in range(10001)] == np.linspace(0.0, 1.0, 10001).tolist()

    @pytest.mark.parametrize(
        "a, b, curve",
        [
            (0.9, 0.95, Curve.PPV),
            (0.16319, 0.941647, Curve.NPV),  # the near tie
            (0.5, 0.5 + 2e-12, Curve.PPV),  # near chance
            (1e-200, 0.5, Curve.PPV),  # u**3 underflows at phi = 1
            (1e-104, 0.0, Curve.PPV),  # the 1.5th power overflows near phi = 1
            (0.0, 0.5, Curve.PPV),  # u is 0 at phi = 1, kappa is 0 elsewhere
        ],
    )
    def test_full_scan_reference_is_curvature_scalar(self, a, b, curve):
        # The full scan's values are curvature_scalar's at every grid point,
        # bit for bit, and NaN exactly where it raises.
        values = grid_kappas(a, b, curve, python_power).tolist()
        assert list(map(repr, values)) == [repr(scalar_kappa(a, b, curve, phi)) for phi in GRID]

    def test_kernel_errors_read_as_nan_by_the_scan_and_the_csv(self):
        # At (1e-200, 0.5) the PPV kernel raises only at phi = 1. The kappa_ppv
        # column leaves that cell empty, and the scan takes it as its argmax.
        sink = io.StringIO()
        emit_curves(DiagnosticProfile(1e-200, 0.5), COARSE_STEP, sink)
        rows = [line.split(",") for line in sink.getvalue().splitlines()]
        column = rows[0].index("kappa_ppv")
        assert [row[0] for row in rows[1:] if row[column] == ""] == ["1.0"]
        assert thresholds._curvature_bracket(*scan_args(1e-200, 0.5, Curve.PPV)) == (0.9999, 1.0)


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

        def recording_kernel(profile, curve, p, q):
            kappa = kernel(profile, curve, p, q)

            def record(phi):
                probes.append((phi, kappa(phi)))
                return probes[-1][1]

            return record

        # Record only while the search runs: curvature_at evaluates the same
        # kernel, so each check below would record another probe.
        with monkeypatch.context() as patch:
            patch.setattr(thresholds, "_kappa_kernel", recording_kernel)
            curvature_argmax(profile, curve)
        assert len(probes) > 30
        for phi, value in probes:
            assert repr(value) == repr(curvature_scalar(profile, phi, curve).kappa), phi
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
            curvature_scalar(profile, phi, Curve.PPV)
        for call in (
            lambda: curvature_at(profile, phi, Curve.PPV),
            lambda: thresholds._kappa_kernel(profile, Curve.PPV, *curve_coefficients(a, b, Curve.PPV))(phi),
        ):
            with pytest.raises(DegenerateDenominator) as got:
                call()
            assert str(got.value) == str(expected.value)

    def test_curvature_at_matches_independent_arithmetic(self):
        # curvature_at's kappa, slope and errors against the tests-side copy
        # of its arithmetic, over the scan's profile set and edge prevalences.
        rng = random.Random(2112)
        edge_phis = [0.0, 5e-324, 1e-300, 1e-120, 1e-8, 0.5, 1.0 - 1e-8, 1.0 - 2**-53, 1.0]
        outcomes = {"value": 0, "error": 0}
        for a, b in scan_profiles():
            profile = DiagnosticProfile(a, b)
            for phi in edge_phis + [rng.random() for _ in range(3)]:
                for curve in Curve:
                    try:
                        expected = curvature_scalar(profile, phi, curve)
                    except DegenerateDenominator as exc:
                        with pytest.raises(DegenerateDenominator) as got:
                            curvature_at(profile, phi, curve)
                        assert str(got.value) == str(exc), (a, b, phi, curve)
                        outcomes["error"] += 1
                        continue
                    point = curvature_at(profile, phi, curve)
                    assert repr(point.phi) == repr(expected.phi), (a, b, phi, curve)
                    assert repr(point.kappa) == repr(expected.kappa), (a, b, phi, curve)
                    assert repr(point.slope) == repr(expected.slope), (a, b, phi, curve)
                    outcomes["value"] += 1
        # Both the defined and the unrepresentable cases are exercised.
        assert outcomes["value"] > 20000 and outcomes["error"] > 100, outcomes

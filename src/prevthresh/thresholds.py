"""Prevalence thresholds of the predictive-value curves.

Both predictive-value curves are Mobius functions of prevalence, so
their geometry is fully analytic: first and second derivatives come
from the quotient form, curvature follows, and the point of maximum
curvature has a radical closed form. This module exposes the closed
forms as the primary outputs and an independent numeric maximizer of
the curvature as a cross-check oracle. For this curve family the
maximum-curvature point is exactly the point where the curve's slope
has magnitude 1, which is what the tests assert.

The curves' Bayes' rule and quotient-form coefficients live in metrics
(_bayes, _curve_coefficients). The closed forms are the float kernels
of _closed (_positive_side, _summary, and _side, which raises where a
threshold is undefined), which the functions here and the reports both
read. The one curvature arithmetic, _kappa_kernel, serves curvature_at,
the CSV kappa columns (dataio._kappa_column) and the oracle's scan
(_curvature_bracket) and refinement; each of them hands it the curve's
(p, q). The scan runs on Python floats, and nothing in this module
loads numpy. Neither bounds nor _arrays imports this module.
"""

from __future__ import annotations

import math
from enum import Enum

from ._closed import _positive_side, _radical_split, _side, _summary
from .errors import DegenerateDenominator, DegenerateProfile
from .metrics import DiagnosticProfile, Rate, _bayes, _curve_coefficients, _predictive_value, _Record

__all__ = [
    "Curve",
    "ThresholdResult",
    "CurvaturePoint",
    "positive_threshold",
    "ppv_at_threshold",
    "negative_threshold",
    "curvature_at",
    "curvature_argmax",
    "threshold_summary",
    "COARSE_STEP",
    "REFINE_WIDTH",
]

# Numeric search protocol, fixed so repeated runs agree bit for bit:
# coarse scan step, then golden-section refinement to this bracket width.
COARSE_STEP = 1e-4
REFINE_WIDTH = 1e-10
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# The scan grid's last index: the grid is i * COARSE_STEP for i in 0.._N, and _N * COARSE_STEP is 1.0.
_N = round(1.0 / COARSE_STEP)
# The certificate accepts a grid index only where its value exceeds both grid
# neighbours' by this relative margin, far above the values' few-ulp error.
_TIE_MARGIN = 1e-12
# Floor on u**3 and on the curvature over [0, 1], some 1e8 above the
# smallest normal float: above it every intermediate of the kernel is a
# normal float, except that slope**2 may underflow where it is
# negligible beside 1.
_NORMAL_FLOOR = 1e-300


class Curve(str, Enum):
    """Which predictive-value curve over prevalence is meant."""

    PPV = "ppv"
    NPV = "npv"


class ThresholdResult(_Record):
    """A prevalence threshold and the predictive value there.

    metric_value is the predictive value of the relevant curve at phi,
    or None when that value is undefined there (edge profiles such as
    specificity 1 for the positive threshold, or sensitivity 1 for the
    negative one).
    """

    __slots__ = _fields = ("phi", "metric_value")


class CurvaturePoint(_Record):
    """Curvature and slope of a predictive-value curve at one prevalence."""

    __slots__ = _fields = ("phi", "kappa", "slope")

    @property
    def radius(self) -> float | None:
        """Radius of curvature 1/kappa, or None on a flat stretch (kappa = 0)."""
        if self.kappa == 0.0:
            return None
        return 1.0 / self.kappa


def positive_threshold(profile: DiagnosticProfile) -> ThresholdResult:
    """Prevalence below which positive predictions become unreliable.

    phi_e = sqrt(1-b) / (sqrt(a) + sqrt(1-b)), the maximum-curvature
    point of the PPV curve. metric_value is the PPV there (None when
    specificity is 1, where the curve is constant and the value at
    phi_e = 0 is undefined).
    """
    phi, ppv = _side("positive", float(profile.sensitivity), float(profile.specificity))
    return ThresholdResult(Rate(phi), None if ppv is None else Rate(ppv))


def ppv_at_threshold(profile: DiagnosticProfile) -> Rate:
    """Positive predictive value at the positive threshold.

    Equals sqrt(a/(1-b)) * phi_e, computed in the algebraically equal
    but better-conditioned form sqrt(a) / (sqrt(a) + sqrt(1-b)), which
    is phi_e's radical with the coefficients swapped; evaluating the
    PPV curve directly at phi_e gives the same number to 1e-12.
    """
    _, ppv = _positive_side(float(profile.sensitivity), float(profile.specificity))
    if ppv is None:
        raise DegenerateProfile("PPV at threshold undefined when specificity is 1")
    return Rate(ppv)


def negative_threshold(profile: DiagnosticProfile) -> ThresholdResult:
    """Prevalence above which negative predictions become unreliable.

    phi_n = sqrt(b) / (sqrt(1-a) + sqrt(b)), the maximum-curvature
    point of the NPV curve; for informative profiles it always exceeds
    the positive threshold. metric_value is the NPV evaluated at phi_n
    (None at edge profiles where that evaluation is undefined:
    sensitivity 1 puts phi_n at 1, specificity 0 puts it at 0).
    """
    phi, npv = _side("negative", float(profile.sensitivity), float(profile.specificity))
    return ThresholdResult(Rate(phi), None if npv is None else Rate(npv))


def threshold_summary(profile: DiagnosticProfile) -> dict:
    """Both thresholds and their predictive values as one JSON-ready mapping.

    Entries that are undefined for the given profile are None, so edge
    profiles still produce a complete object: _closed._summary's, the
    pairs of _positive_side and _negative_side, which positive_threshold
    and negative_threshold return as Rates, and metrics._chance_flags.
    analyze_counts calls these kernels itself.
    """
    return _summary(float(profile.sensitivity), float(profile.specificity))


def curvature_at(profile: DiagnosticProfile, phi: float, curve: Curve | str = Curve.PPV) -> CurvaturePoint:
    """Slope and curvature of a predictive-value curve at one prevalence.

    kappa is _kappa_kernel's value at phi; where kappa is not
    representable, the kernel's DegenerateDenominator propagates. The
    slope is the signed first derivative of the quotient form,
    sign * p*q / u**2 with Bayes' denominator u (metrics._bayes,
    metrics._curve_coefficients).
    """
    if type(curve) is not Curve:
        curve = Curve(curve)
    phi = Rate(phi)
    x = float(phi)
    a, b = float(profile.sensitivity), float(profile.specificity)
    p, q, sign = _curve_coefficients(a, b, curve)
    kappa = _kappa_kernel(profile, curve, p, q)(x)
    _, u = _bayes(a, b, curve, x)
    return CurvaturePoint(phi, kappa, sign * (p * q) / (u * u))


def _kappa_kernel(profile: DiagnosticProfile, curve: Curve, p: float, q: float):
    """The curve's curvature as a function of a float phi in [0, 1]: the package's one curvature arithmetic.

    p and q are the curve's quotient-form coefficients
    (metrics._curve_coefficients of the profile's rates), which every
    caller has already; profile and curve only name the curve in an
    error. Derivatives are analytic from the quotient form (with
    denominator u = p*phi + q*(1-phi): |f'| = p*q/u^2,
    |f''| = 2*p*q*|p-q|/u^3), then kappa = |f''| / (1 + f'^2)^(3/2).
    Analytic rather than finite-difference because curvature amplifies
    rounding noise through the second derivative. The phi-free factors
    are computed once per curve, and no Rate or CurvaturePoint is built, so
    curvature_at, curvature_argmax's scan and refinement and
    emit_curves' kappa columns all evaluate this closure. Raises
    DegenerateDenominator where u is 0, and where u is so small that
    u**3 underflows or the slope term overflows, since kappa is not
    representable there.
    """
    pq = p * q
    gap = 2.0 * pq * abs(p - q)

    def kappa(phi: float) -> float:
        u = p * phi + q * (1.0 - phi)
        u2 = u * u
        u3 = u2 * u
        if u3 == 0.0:
            if u == 0.0:
                raise DegenerateDenominator(f"{curve.value} curve undefined at phi={phi!r} for {profile}")
            raise DegenerateDenominator(
                f"{curve.value} curvature not representable at phi={phi!r} for {profile}: u**3 underflows"
            )
        slope = pq / u2  # the slope up to its sign, which slope * slope drops
        try:
            return gap / u3 / (1.0 + slope * slope) ** 1.5
        except OverflowError:
            raise DegenerateDenominator(
                f"{curve.value} curvature not representable at phi={phi!r} for {profile}: slope**3 overflows"
            ) from None

    return kappa


def _golden_section(kappa, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section search for the maximum of kappa: [lo, hi] shrunk until it is at most REFINE_WIDTH wide.

    A tie between the two probes keeps the lower part. curvature_argmax
    runs it on the coarse scan's bracket.
    """
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    k1 = kappa(x1)
    k2 = kappa(x2)
    while hi - lo > REFINE_WIDTH:
        if k1 < k2:
            lo, x1, k1 = x1, x2, k2
            x2 = lo + _INV_PHI * (hi - lo)
            k2 = kappa(x2)
        else:
            hi, x2, k2 = x2, x1, k1
            x1 = hi - _INV_PHI * (hi - lo)
            k1 = kappa(x1)
    return lo, hi


def curvature_argmax(profile: DiagnosticProfile, curve: Curve | str = Curve.PPV) -> ThresholdResult:
    """Numerically locate the maximum-curvature prevalence of a curve.

    Independent cross-check of the closed-form thresholds: a coarse
    scan over [0, 1] at step 1e-4 brackets the maximizer (ties broken
    toward smaller prevalence), then golden-section search shrinks the
    bracket below 1e-10. The protocol is fixed so repeated runs agree
    bit for bit. Agrees with the closed form to within 1e-6 for
    informative profiles with J = a + b - 1 >= 0.02 (the worst of
    240,000 seeded curves there was 6.9e-7). Below that the curvature's
    peak flattens toward rounding and the error grows as J falls: 1.6e-6
    near J = 0.01, about 1e-5 near 1e-3, and up to 0.5 below J = 1e-7,
    where (4.87e-12, 1.0) gives 0.00073 on the NPV curve against
    phi_n = 0.5.

    The scan and the refinement rank the values of one _kappa_kernel
    closure, curvature_at's kappa, on Python floats. The scan first
    evaluates the closed-form threshold's grid point and its two grid
    neighbours, and takes that point where every intermediate of the
    kernel is a normal float and its value exceeds both neighbours' by
    a relative 1e-12 (the curvature is unimodal, so it is then the
    whole grid's argmax). Otherwise, as for near-degenerate profiles,
    broad peaks, near-ties, tiny rates and a grid point off the peak,
    the scan evaluates every grid point and takes the first where the
    kernel raises, else the first largest value. The closed form only
    names the point checked first, so the result does not depend on it.
    """
    if type(curve) is not Curve:
        curve = Curve(curve)
    if profile.is_degenerate():
        raise DegenerateProfile(
            "curvature is zero everywhere when sensitivity + specificity = 1"
        )
    a = float(profile.sensitivity)
    b = float(profile.specificity)
    p, q, _ = _curve_coefficients(a, b, curve)
    if p * q == 0.0:
        raise DegenerateProfile(
            f"{curve.value} curve is constant for {profile}; no curvature maximum"
        )
    # One closure serves the scan and the refinement. Every refinement
    # probe lies in the scan's bracket, inside [0, 1], the kernel's domain.
    kappa = _kappa_kernel(profile, curve, p, q)
    lo, hi = _golden_section(kappa, *_curvature_bracket(kappa, p, q))
    phi = 0.5 * (lo + hi)
    value = _predictive_value(a, b, curve, phi)
    return ThresholdResult(Rate(phi), None if value is None else Rate(value))


def _scan_is_normal(kappa, p: float, q: float) -> bool:
    """Whether every intermediate of kappa, the kernel of the curve (p, q), is a normal float at every prevalence in [0, 1].

    With u = p*phi + q*(1-phi), which runs between p and q, and k = p*q,
    the kernel computes u**3, the slope k/u**2, (1 + slope**2)**1.5 and
    the quotient gap/u**3/(1 + slope**2)**1.5. u**3 grows with u, so it
    is checked at u's smallest value, min(p, q). Where it clears
    _NORMAL_FLOOR, min(p, q) >= 1e-100, and since k <= min(p, q) the
    slope is at most 1/min(p, q) <= 1e100: the 1.5th power stays below
    1e300 and gap/u**3 below 1e300, and the kernel raises nowhere. The
    quotient is unimodal in u, so its smallest values are at the
    curve's ends, kappa(0.0) (u = q) and kappa(1.0) (u = p), which are
    checked last.
    """
    u = min(p, q)
    return u * u * u >= _NORMAL_FLOOR and min(kappa(0.0), kappa(1.0)) >= _NORMAL_FLOOR


def _certified_argmax(kappa, p: float, q: float) -> int | None:
    """The full scan's argmax from three grid points; None where it is not certified.

    The candidate is the closed-form threshold's grid point,
    j = round(_radical_split(p, q) * _N), accepted only where kappa's
    value there exceeds both grid neighbours' (the one neighbour at an
    end of the grid) by the relative _TIE_MARGIN. kappa is unimodal in
    phi: with u = p*phi + q*(1-phi) and k = p*q, dkappa/du is
    proportional to u**2 * (k**2 - u**4), and u is monotone in phi. The
    kernel computes gap = 2*k*|p - q| and k once per curve, so their
    rounding is shared by every value, and the values lie within a few
    ulps of gap * u**3 / (u**4 + k**2)**1.5 for those computed
    constants. Those exact grid values rise to one peak and then fall,
    so they peak at an accepted j too, and every other grid value lies
    at or below the neighbour on its side, so below j's by the margin
    less a few ulps: j is the full scan's argmax, with no tie. The ulp
    bound holds only when every intermediate is a normal float, which
    _scan_is_normal checks first; then no value is NaN or infinite
    either. The argument never uses where j came from: a certified j is
    the full scan's argmax whatever the closed form gives, and a j off
    the peak is not certified.
    """
    if not _scan_is_normal(kappa, p, q):
        return None
    j = round(_radical_split(p, q) * _N)
    bar = kappa(j * COARSE_STEP) * (1.0 - _TIE_MARGIN)
    left = kappa((j - 1) * COARSE_STEP) if j > 0 else -math.inf
    right = kappa((j + 1) * COARSE_STEP) if j < _N else -math.inf
    return j if left < bar and right < bar else None


def _full_scan_argmax(kappa) -> int:
    """The argmax of kappa's values over the whole grid: the first index where it raises, else the first largest value."""
    best, top = 0, -math.inf
    for i in range(_N + 1):
        try:
            value = kappa(i * COARSE_STEP)
        except DegenerateDenominator:
            return i
        if value > top:
            best, top = i, value
    return best


def _curvature_bracket(kappa, p: float, q: float) -> tuple[float, float]:
    """The coarse scan of curvature_argmax: the grid neighbours of the largest curvature.

    kappa is _kappa_kernel's closure for the curve with coefficients
    (p, q). Scans the 10,001 prevalences i * COARSE_STEP, i = 0, ...,
    10000 (np.linspace(0, 1, 10001)'s values, bit for bit) with it.
    Ties go to the smaller prevalence, a point where the kernel raises
    (u**3 underflows or the slope term overflows; the CSV kappa columns
    leave that cell empty) counts as largest, and the bracket is
    clipped to [0, 1].

    The argmax is the closed-form threshold's grid point where
    _certified_argmax certifies it from that point and its two
    neighbours, and otherwise comes from every grid point
    (_full_scan_argmax); either way the bracket is the full scan's. The
    certificate reads only the kernel's values, so the closed form
    names the point checked first and nothing else. The test suite
    checks the bracket against a full scan of an independent copy of
    the arithmetic on a dense profile set, the closed-form point's
    distance from the full scan's argmax, the result where that point
    is moved off the peak, and the values' error against 50-digit
    arithmetic.
    """
    i = _certified_argmax(kappa, p, q)
    if i is None:
        i = _full_scan_argmax(kappa)
    return max(i - 1, 0) * COARSE_STEP, min(i + 1, _N) * COARSE_STEP

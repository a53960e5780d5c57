"""Prevalence thresholds of the predictive-value curves.

Both predictive-value curves are Mobius functions of prevalence, so
their geometry is fully analytic: first and second derivatives come
from the quotient form, curvature follows, and the point of maximum
curvature has a radical closed form. This module exposes the closed
forms as the primary outputs and an independent numeric maximizer of
the curvature as a cross-check oracle. For this curve family the
maximum-curvature point is exactly the point where the curve's slope
has magnitude 1, which is what the tests assert.

The closed forms run on Python floats. The oracle's coarse curvature
scan and the array forms of these curves, which the bulk paths use,
live in _arrays; curvature_argmax imports it on first call, so the
closed forms load no numpy.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import DegenerateDenominator, DegenerateProfile
from .metrics import DEGENERATE_EPS  # noqa: F401  re-exported; DiagnosticProfile.is_degenerate applies it
from .metrics import DiagnosticProfile, Rate, _Record, _set, npv_at, ppv_at

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
]

# Numeric search protocol, fixed so repeated runs agree bit for bit:
# coarse scan step, then golden-section refinement to this bracket width.
COARSE_STEP = 1e-4
REFINE_WIDTH = 1e-10
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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

    def __init__(self, phi: Rate, metric_value: Rate | None):
        _set(self, "phi", phi)
        _set(self, "metric_value", metric_value)


class CurvaturePoint(_Record):
    """Curvature and slope of a predictive-value curve at one prevalence."""

    __slots__ = _fields = ("phi", "kappa", "slope")

    def __init__(self, phi: Rate, kappa: float, slope: float):
        _set(self, "phi", phi)
        _set(self, "kappa", kappa)
        _set(self, "slope", slope)

    @property
    def radius(self) -> float | None:
        """Radius of curvature 1/kappa, or None on a flat stretch (kappa = 0)."""
        if self.kappa == 0.0:
            return None
        return 1.0 / self.kappa


def _curve_coefficients(a, b, curve: Curve):
    """Quotient-form coefficients (p, q, sign) of the chosen curve, for floats or arrays.

    Both curves are Bayes' rule over the denominator
    u = p*phi + q*(1-phi): PPV = p*phi / u with (p, q) = (a, 1-b), and
    NPV = q*(1-phi) / u with (p, q) = (1-a, b). sign is the sign of the
    slope (+1 for PPV, -1 for NPV); the derivative magnitudes depend
    only on the product p*q and on u.
    """
    if curve == Curve.PPV:
        return a, 1.0 - b, 1.0
    return 1.0 - a, b, -1.0


def _radical_split(p, q, sqrt=math.sqrt):
    """sqrt(q) / (sqrt(p) + sqrt(q)); arrays take sqrt=np.sqrt and give NaN where p = q = 0.

    With a curve's coefficients this is its maximum-curvature
    prevalence: phi_e from (a, 1-b), phi_n from (1-a, b). With p and q
    swapped it is the PPV at phi_e.
    """
    sq = sqrt(q)
    return sq / (sqrt(p) + sq)


def _threshold_phi(profile: DiagnosticProfile, curve: Curve) -> float:
    """The curve's maximum-curvature prevalence, from its radical closed form, as a float in [0, 1].

    _radical_split of the curve's coefficients; raises DegenerateProfile
    where p = q = 0, since the curve is then 0/0 at every prevalence.
    """
    a = float(profile.sensitivity)
    b = float(profile.specificity)
    p, q, sign = _curve_coefficients(a, b, curve)
    if p == 0.0 and q == 0.0:
        side = "positive" if sign > 0.0 else "negative"
        raise DegenerateProfile(f"{side} threshold undefined: sensitivity {a:g} with specificity {b:g}")
    return _radical_split(p, q)


def _closed_form_threshold(profile: DiagnosticProfile, curve: Curve) -> ThresholdResult:
    """positive_threshold for the PPV curve, negative_threshold for the NPV curve."""
    phi = Rate(_threshold_phi(profile, curve))
    try:
        value: Rate | None = ppv_at_threshold(profile) if curve == Curve.PPV else npv_at(profile, phi)
    except (DegenerateProfile, DegenerateDenominator):
        value = None
    return ThresholdResult(phi=phi, metric_value=value)


def positive_threshold(profile: DiagnosticProfile) -> ThresholdResult:
    """Prevalence below which positive predictions become unreliable.

    phi_e = sqrt(1-b) / (sqrt(a) + sqrt(1-b)), the maximum-curvature
    point of the PPV curve. metric_value is the PPV there (None when
    specificity is 1, where the curve is constant and the value at
    phi_e = 0 is undefined).
    """
    return _closed_form_threshold(profile, Curve.PPV)


def ppv_at_threshold(profile: DiagnosticProfile) -> Rate:
    """Positive predictive value at the positive threshold.

    Equals sqrt(a/(1-b)) * phi_e, computed in the algebraically equal
    but better-conditioned form sqrt(a) / (sqrt(a) + sqrt(1-b)), which
    is phi_e's radical with the coefficients swapped; evaluating the
    PPV curve directly at phi_e gives the same number to 1e-12.
    """
    b = float(profile.specificity)
    if b == 1.0:
        raise DegenerateProfile("PPV at threshold undefined when specificity is 1")
    return Rate(_radical_split(1.0 - b, float(profile.sensitivity)))


def negative_threshold(profile: DiagnosticProfile) -> ThresholdResult:
    """Prevalence above which negative predictions become unreliable.

    phi_n = sqrt(b) / (sqrt(1-a) + sqrt(b)), the maximum-curvature
    point of the NPV curve; for informative profiles it always exceeds
    the positive threshold. metric_value is the NPV evaluated at phi_n
    (None at edge profiles where that evaluation is undefined:
    sensitivity 1 puts phi_n at 1, specificity 0 puts it at 0).
    """
    return _closed_form_threshold(profile, Curve.NPV)


def threshold_summary(profile: DiagnosticProfile) -> dict:
    """Both thresholds and their predictive values as one JSON-ready mapping.

    Entries that are undefined for the given profile are None, so edge
    profiles still produce a complete object.
    """
    payload: dict = {
        "sensitivity": float(profile.sensitivity),
        "specificity": float(profile.specificity),
        "phi_e": None,
        "ppv_at_phi_e": None,
        "phi_n": None,
        "npv_at_phi_n": None,
        "informative": profile.is_informative(),
        "degenerate": profile.is_degenerate(),
    }
    for threshold, phi_key, value_key in (
        (positive_threshold, "phi_e", "ppv_at_phi_e"),
        (negative_threshold, "phi_n", "npv_at_phi_n"),
    ):
        try:
            result = threshold(profile)
        except DegenerateProfile:
            continue
        payload[phi_key] = float(result.phi)
        if result.metric_value is not None:
            payload[value_key] = float(result.metric_value)
    return payload


def curvature_at(profile: DiagnosticProfile, phi: float, curve: Curve | str = Curve.PPV) -> CurvaturePoint:
    """Slope and curvature of a predictive-value curve at one prevalence.

    kappa is _kappa_kernel's value at phi; where kappa is not
    representable, the kernel's DegenerateDenominator propagates. The
    slope is the signed first derivative of the quotient form,
    sign * p*q / u**2 with u = p*phi + q*(1-phi) (see
    _curve_coefficients).
    """
    curve = Curve(curve)
    phi = Rate(phi)
    x = float(phi)
    kappa = _kappa_kernel(profile, curve)(x)
    p, q, sign = _curve_coefficients(float(profile.sensitivity), float(profile.specificity), curve)
    u = p * x + q * (1.0 - x)
    return CurvaturePoint(phi=phi, kappa=kappa, slope=sign * (p * q) / (u * u))


def _kappa_kernel(profile: DiagnosticProfile, curve: Curve):
    """The curve's curvature as a function of a float phi in [0, 1]: the package's one scalar curvature.

    Derivatives are analytic from the quotient form (with denominator
    u = p*phi + q*(1-phi): |f'| = p*q/u^2, |f''| = 2*p*q*|p-q|/u^3),
    then kappa = |f''| / (1 + f'^2)^(3/2). Analytic rather than
    finite-difference because curvature amplifies rounding noise
    through the second derivative. The phi-free factors are computed
    once per curve, and no Rate or CurvaturePoint is built, so
    curvature_at, curvature_argmax's search and emit_curves' kappa
    columns all evaluate this closure. Raises DegenerateDenominator
    where u is 0, and where u is so small that u**3 underflows or the
    slope term overflows, since kappa is not representable there.
    """
    p, q, _ = _curve_coefficients(float(profile.sensitivity), float(profile.specificity), curve)
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


def curvature_argmax(profile: DiagnosticProfile, curve: Curve | str = Curve.PPV) -> ThresholdResult:
    """Numerically locate the maximum-curvature prevalence of a curve.

    Independent cross-check of the closed-form thresholds: a coarse
    scan over [0, 1] at step 1e-4 brackets the maximizer (ties broken
    toward smaller prevalence), then golden-section search shrinks the
    bracket below 1e-10. The protocol is fixed so repeated runs agree
    bit for bit. Agrees with the closed form to well under 1e-6 for
    every informative profile.

    The scan evaluates the curvature only on a window of the grid
    around the largest value of a strided subsample of it, and accepts
    the window's argmax only when it is certified to be the whole
    grid's: every intermediate is a normal float and each inner window
    edge lies clearly below the window's maximum (the curvature is
    unimodal in prevalence). Otherwise it scans the whole grid, as for
    near-degenerate profiles. Neither path consults the closed forms.
    The search evaluates _kappa_kernel, the arithmetic of curvature_at,
    so each probe's value is curvature_at's kappa there.
    """
    curve = Curve(curve)
    if profile.is_degenerate():
        raise DegenerateProfile(
            "curvature is zero everywhere when sensitivity + specificity = 1"
        )
    p, q, _ = _curve_coefficients(float(profile.sensitivity), float(profile.specificity), curve)
    if p * q == 0.0:
        raise DegenerateProfile(
            f"{curve.value} curve is constant for {profile}; no curvature maximum"
        )

    from . import _arrays

    lo, hi = _arrays.curvature_bracket(p, q, COARSE_STEP)
    # Every probe lies in [lo, hi], inside [0, 1], the kernel's domain.
    kappa = _kappa_kernel(profile, curve)

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
    phi = Rate(0.5 * (lo + hi))

    try:
        value: Rate | None = (ppv_at if curve == Curve.PPV else npv_at)(profile, phi)
    except DegenerateDenominator:
        value = None
    return ThresholdResult(phi=phi, metric_value=value)

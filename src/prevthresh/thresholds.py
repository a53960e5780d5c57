"""Prevalence thresholds of the predictive-value curves.

Both predictive-value curves are Mobius functions of prevalence, so
their geometry is fully analytic: first and second derivatives come
from the quotient form, curvature follows, and the point of maximum
curvature has a radical closed form. This module exposes the closed
forms as the primary outputs and an independent numeric maximizer of
the curvature as a cross-check oracle. For this curve family the
maximum-curvature point is exactly the point where the curve's slope
has magnitude 1, which is what the tests assert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateDenominator, DegenerateProfile
from .metrics import DEGENERATE_EPS  # noqa: F401  re-exported; DiagnosticProfile.is_degenerate applies it
from .metrics import DiagnosticProfile, Rate, npv_at, ppv_at

__all__ = [
    "Curve",
    "ThresholdKind",
    "ThresholdMethod",
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


class ThresholdKind(str, Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


class ThresholdMethod(str, Enum):
    """How a threshold was obtained: radical closed form, or numeric curvature maximization."""

    CLOSED_FORM = "closed_form"
    CURVATURE_ORACLE = "curvature_oracle"


@dataclass(frozen=True)
class ThresholdResult:
    """A prevalence threshold, its predictive value, and how it was derived.

    metric_value is the predictive value of the relevant curve at phi,
    or None when that value is undefined there (edge profiles such as
    specificity 1 for the positive threshold, or sensitivity 1 for the
    negative one). degenerate marks profiles whose curves are straight
    lines (sensitivity + specificity = 1), where the formula still
    evaluates but the threshold carries no geometric meaning.
    """

    phi: Rate
    metric_value: Rate | None
    kind: ThresholdKind
    method: ThresholdMethod
    degenerate: bool


@dataclass(frozen=True)
class CurvaturePoint:
    """Curvature and slope of a predictive-value curve at one prevalence."""

    phi: Rate
    kappa: float
    slope: float

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
    a = float(profile.sensitivity)
    b = float(profile.specificity)
    if a == 0.0 and b == 1.0:
        raise DegenerateProfile("positive threshold undefined: sensitivity 0 with specificity 1")
    sa = math.sqrt(a)
    sc = math.sqrt(1.0 - b)
    phi = Rate(sc / (sa + sc))
    try:
        value: Rate | None = ppv_at_threshold(profile)
    except DegenerateProfile:
        value = None
    return ThresholdResult(
        phi=phi,
        metric_value=value,
        kind=ThresholdKind.POSITIVE,
        method=ThresholdMethod.CLOSED_FORM,
        degenerate=profile.is_degenerate(),
    )


def ppv_at_threshold(profile: DiagnosticProfile) -> Rate:
    """Positive predictive value at the positive threshold.

    Equals sqrt(a/(1-b)) * phi_e, computed in the algebraically equal
    but better-conditioned form sqrt(a) / (sqrt(a) + sqrt(1-b));
    evaluating the PPV curve directly at phi_e gives the same number to
    1e-12.
    """
    a = float(profile.sensitivity)
    b = float(profile.specificity)
    if b == 1.0:
        raise DegenerateProfile("PPV at threshold undefined when specificity is 1")
    sa = math.sqrt(a)
    sc = math.sqrt(1.0 - b)
    return Rate(sa / (sa + sc))


def negative_threshold(profile: DiagnosticProfile) -> ThresholdResult:
    """Prevalence above which negative predictions become unreliable.

    phi_n = sqrt(b) / (sqrt(1-a) + sqrt(b)), the maximum-curvature
    point of the NPV curve; for informative profiles it always exceeds
    the positive threshold. metric_value is the NPV evaluated at phi_n
    (None at edge profiles where that evaluation is undefined:
    sensitivity 1 puts phi_n at 1, specificity 0 puts it at 0).
    """
    a = float(profile.sensitivity)
    b = float(profile.specificity)
    if a == 1.0 and b == 0.0:
        raise DegenerateProfile("negative threshold undefined: sensitivity 1 with specificity 0")
    sd = math.sqrt(1.0 - a)
    sb = math.sqrt(b)
    phi = Rate(sb / (sd + sb))
    try:
        value: Rate | None = npv_at(profile, phi)
    except DegenerateDenominator:
        value = None
    return ThresholdResult(
        phi=phi,
        metric_value=value,
        kind=ThresholdKind.NEGATIVE,
        method=ThresholdMethod.CLOSED_FORM,
        degenerate=profile.is_degenerate(),
    )


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
    try:
        positive = positive_threshold(profile)
    except DegenerateProfile:
        pass
    else:
        payload["phi_e"] = float(positive.phi)
        if positive.metric_value is not None:
            payload["ppv_at_phi_e"] = float(positive.metric_value)
    try:
        negative = negative_threshold(profile)
    except DegenerateProfile:
        pass
    else:
        payload["phi_n"] = float(negative.phi)
        if negative.metric_value is not None:
            payload["npv_at_phi_n"] = float(negative.metric_value)
    return payload


def _curve_coefficients(profile: DiagnosticProfile, curve: Curve) -> tuple[float, float, float]:
    """Quotient-form coefficients of the chosen curve.

    Both curves can be written f(phi) = (num at phi) / (p*phi + q*(1-phi));
    returns (p, q, sign) where p, q are the denominator weights and sign
    is the sign of the slope (+1 for PPV, -1 for NPV). The derivative
    magnitudes depend only on the product p*q and the denominator.
    """
    a = float(profile.sensitivity)
    b = float(profile.specificity)
    if curve == Curve.PPV:
        return a, 1.0 - b, 1.0
    return 1.0 - a, b, -1.0


def curvature_at(profile: DiagnosticProfile, phi: float, curve: Curve | str = Curve.PPV) -> CurvaturePoint:
    """Slope and curvature of a predictive-value curve at one prevalence.

    Derivatives are analytic from the quotient form (with denominator
    u = p*phi + q*(1-phi): |f'| = p*q/u^2, |f''| = 2*p*q*|p-q|/u^3),
    then kappa = |f''| / (1 + f'^2)^(3/2). Analytic rather than
    finite-difference because curvature amplifies rounding noise
    through the second derivative. Raises DegenerateDenominator where
    u is 0, and where u is so small that u**3 underflows or the slope
    term overflows, since kappa is not representable there.
    """
    curve = Curve(curve)
    phi = Rate(phi)
    p, q, sign = _curve_coefficients(profile, curve)
    u = p * float(phi) + q * (1.0 - float(phi))
    if u == 0.0:
        raise DegenerateDenominator(
            f"{curve.value} curve undefined at phi={float(phi)!r} for {profile}"
        )
    u2 = u * u
    u3 = u2 * u
    if u3 == 0.0:
        raise DegenerateDenominator(
            f"{curve.value} curvature not representable at phi={float(phi)!r} for {profile}: u**3 underflows"
        )
    pq = p * q
    slope = sign * pq / u2
    second = 2.0 * pq * abs(p - q) / u3
    try:
        kappa = second / (1.0 + slope * slope) ** 1.5
    except OverflowError:
        raise DegenerateDenominator(
            f"{curve.value} curvature not representable at phi={float(phi)!r} for {profile}: slope**3 overflows"
        ) from None
    return CurvaturePoint(phi=phi, kappa=kappa, slope=slope)


def _pow_1_5(x: float) -> float:
    try:
        return x**1.5
    except OverflowError:
        return math.nan


def _curvature_arrays(profile: DiagnosticProfile, curve: Curve, phi: np.ndarray) -> np.ndarray:
    """curvature_at(profile, phi[i], curve).kappa at every i; NaN where it raises.

    Repeats curvature_at's operations in its order, so every defined
    value is bit-equal to the scalar one. The power (1 + slope**2)**1.5
    is taken with Python floats, because numpy's vectorized power is
    not the platform pow and differs from it in the last digit.
    """
    p, q, sign = _curve_coefficients(profile, curve)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = p * phi + q * (1.0 - phi)
        u2 = u * u
        u3 = u2 * u
        pq = p * q
        slope = sign * pq / u2
        second = 2.0 * pq * abs(p - q) / u3
        scale = np.array([_pow_1_5(x) for x in (1.0 + slope * slope).tolist()])
        return np.where((u3 != 0.0) & ~np.isnan(scale), second / scale, np.nan)


def _kappa_grid(profile: DiagnosticProfile, curve: Curve, xs: np.ndarray) -> np.ndarray:
    """Vectorized curvature over a prevalence grid (same algebra as curvature_at)."""
    p, q, _ = _curve_coefficients(profile, curve)
    u = p * xs + q * (1.0 - xs)
    pq = p * q
    # kappa = 2*pq*|p-q|/u^3 / (1 + (pq)^2/u^4)^(3/2), cleared of negative powers.
    return 2.0 * pq * abs(p - q) * u**3 / (u**4 + pq * pq) ** 1.5


def curvature_argmax(profile: DiagnosticProfile, curve: Curve | str = Curve.PPV) -> ThresholdResult:
    """Numerically locate the maximum-curvature prevalence of a curve.

    Independent cross-check of the closed-form thresholds: a coarse
    scan over [0, 1] at step 1e-4 brackets the maximizer (ties broken
    toward smaller prevalence), then golden-section search shrinks the
    bracket below 1e-10. The protocol is fixed so repeated runs agree
    bit for bit. Agrees with the closed form to well under 1e-6 for
    every informative profile.
    """
    curve = Curve(curve)
    if profile.is_degenerate():
        raise DegenerateProfile(
            "curvature is zero everywhere when sensitivity + specificity = 1"
        )
    p, q, _ = _curve_coefficients(profile, curve)
    if p * q == 0.0:
        raise DegenerateProfile(
            f"{curve.value} curve is constant for {profile}; no curvature maximum"
        )

    n = round(1.0 / COARSE_STEP)
    xs = np.linspace(0.0, 1.0, n + 1)
    i = int(np.argmax(_kappa_grid(profile, curve, xs)))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, n)]

    def kappa(phi: float) -> float:
        return curvature_at(profile, phi, curve).kappa

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

    if curve == Curve.PPV:
        kind = ThresholdKind.POSITIVE
        value_fn = ppv_at
    else:
        kind = ThresholdKind.NEGATIVE
        value_fn = npv_at
    try:
        value: Rate | None = value_fn(profile, phi)
    except DegenerateDenominator:
        value = None
    return ThresholdResult(
        phi=phi,
        metric_value=value,
        kind=kind,
        method=ThresholdMethod.CURVATURE_ORACLE,
        degenerate=False,
    )

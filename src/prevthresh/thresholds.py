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
(_bayes, _curve_coefficients). The closed forms are float kernels, None
where undefined, that the raising functions and the reports both read.
The one curvature arithmetic, _kappa_kernel, serves curvature_at, the
CSV kappa columns and the oracle's scan (in _scan, on Python floats,
imported by curvature_argmax's first call through _curvature_bracket)
and refinement; nothing in this module loads numpy.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import DegenerateDenominator, DegenerateProfile
from .metrics import DiagnosticProfile, Rate, _bayes, _chance_flags, _curve_coefficients, _predictive_value, _Record

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


def _radical_split(p, q, sqrt=math.sqrt):
    """sqrt(q) / (sqrt(p) + sqrt(q)); arrays take sqrt=np.sqrt and give NaN where p = q = 0.

    With a curve's coefficients this is its maximum-curvature
    prevalence: phi_e from (a, 1-b), phi_n from (1-a, b). With p and q
    swapped it is the PPV at phi_e.
    """
    sq = sqrt(q)
    return sq / (sqrt(p) + sq)


def _positive_side(a: float, b: float) -> tuple[float | None, float | None]:
    """phi_e and the PPV there, for plain-float rates; each None where undefined.

    phi_e is _radical_split of the PPV curve's (p, q) = (a, 1-b), None where
    p = q = 0; the PPV there is the swapped radical, None where q = 0.
    """
    q = 1.0 - b
    if a == 0.0 and q == 0.0:
        return None, None
    return _radical_split(a, q), _radical_split(q, a) if q != 0.0 else None


def _negative_side(a: float, b: float) -> tuple[float | None, float | None]:
    """phi_n and the NPV there, for plain-float rates; each None where undefined.

    phi_n is _radical_split of the NPV curve's (p, q) = (1-a, b), None where
    p = q = 0; the NPV there is _predictive_value's, None where its u is 0.
    """
    p = 1.0 - a
    if p == 0.0 and b == 0.0:
        return None, None
    phi = _radical_split(p, b)
    return phi, _predictive_value(a, b, "npv", phi)


def _side(which: str, a: float, b: float) -> tuple[float, float | None]:
    """The "positive" or "negative" kernel's pair; DegenerateProfile where its phi is None."""
    phi, value = (_positive_side if which == "positive" else _negative_side)(a, b)
    if phi is None:
        raise DegenerateProfile(f"{which} threshold undefined: sensitivity {a:g} with specificity {b:g}")
    return phi, value


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
    profiles still produce a complete object: the pairs of _positive_side
    and _negative_side, which positive_threshold and negative_threshold
    return as Rates, and metrics._chance_flags. analyze_counts calls
    these kernels itself.
    """
    a = float(profile.sensitivity)
    b = float(profile.specificity)
    phi_e, ppv_at_phi_e = _positive_side(a, b)
    phi_n, npv_at_phi_n = _negative_side(a, b)
    informative, degenerate = _chance_flags(a + b)
    return {
        "sensitivity": a,
        "specificity": b,
        "phi_e": phi_e,
        "ppv_at_phi_e": ppv_at_phi_e,
        "phi_n": phi_n,
        "npv_at_phi_n": npv_at_phi_n,
        "informative": informative,
        "degenerate": degenerate,
    }


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
    kappa = _kappa_kernel(profile, curve)(x)
    a, b = float(profile.sensitivity), float(profile.specificity)
    p, q, sign = _curve_coefficients(a, b, curve)
    _, u = _bayes(a, b, curve, x)
    return CurvaturePoint(phi, kappa, sign * (p * q) / (u * u))


def _kappa_kernel(profile: DiagnosticProfile, curve: Curve):
    """The curve's curvature as a function of a float phi in [0, 1]: the package's one curvature arithmetic.

    Derivatives are analytic from the quotient form (with denominator
    u = p*phi + q*(1-phi): |f'| = p*q/u^2, |f''| = 2*p*q*|p-q|/u^3),
    then kappa = |f''| / (1 + f'^2)^(3/2). Analytic rather than
    finite-difference because curvature amplifies rounding noise
    through the second derivative. The phi-free factors are computed
    once per curve, and no Rate or CurvaturePoint is built, so
    curvature_at, curvature_argmax's scan and refinement and
    emit_curves' kappa columns all evaluate this closure. Raises
    DegenerateDenominator where u is 0, and where u is so small that
    u**3 underflows or the slope term overflows, since kappa is not
    representable there.
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


def _kappa_column(kappa, grid: list[float]) -> list[float]:
    """The kernel closure kappa at every point of grid, NaN where it raises: the CSV columns' and the scan's one reading."""
    values = []
    for phi in grid:
        try:
            values.append(kappa(phi))
        except DegenerateDenominator:
            values.append(math.nan)
    return values


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
    closure, curvature_at's kappa; the scan reads NaN where it raises,
    as the CSV kappa columns do. The scan runs on Python floats. A
    climb over the grid's values from the closed-form threshold's grid
    point reaches a local maximum, accepted only when every
    intermediate of the kernel is a normal float and it exceeds both
    grid neighbours by a relative 1e-12 (the curvature is unimodal, so
    it is then the whole grid's argmax). Otherwise, as for
    near-degenerate profiles, broad peaks, near-ties and tiny rates,
    the scan evaluates every grid point and takes the first NaN, else
    the first largest value. The closed form only sets where the climb
    starts, so any start gives the same result.
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
    kappa = _kappa_kernel(profile, curve)
    lo, hi = _golden_section(kappa, *_curvature_bracket(kappa, p, q))
    phi = 0.5 * (lo + hi)
    value = _predictive_value(a, b, curve, phi)
    return ThresholdResult(Rate(phi), None if value is None else Rate(value))


def _curvature_bracket(kappa, p: float, q: float) -> tuple[float, float]:
    """_scan.curvature_bracket, which this function rebinds its own module-level name to on its first call.

    So _scan loads only when curvature_argmax first runs, which no CLI
    path does, and later calls find it without an import statement.
    """
    global _curvature_bracket
    from ._scan import curvature_bracket as _curvature_bracket

    return _curvature_bracket(kappa, p, q)

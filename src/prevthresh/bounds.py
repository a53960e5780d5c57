"""Accuracy-ratio identities, their bounds, and a grid sweep verifier.

For an informative classifier, each accuracy metric evaluated at its
reference prevalence divided by its value at the relevant prevalence
threshold collapses to a radical closed form in sensitivity and
specificity alone, and that closed form is bounded. The F-family and
Fowlkes-Mallows ratios use full prevalence as the reference; the MCC
ratio instead compares the negative threshold against the positive one,
because NPV vanishes at full prevalence and no reference exists there.

The test suite checks every closed form here against the direct
composition of the pointwise metrics (and the MCC ratio also against a
decomposed square-root form and a fully inlined long form).
Each ratio is a plain float, and each closed form is written once,
over floats or arrays with sqrt as a parameter: _f_beta_form,
_fm_form, and metrics._mcc_form for the MCC rate form, whose PPV and
NPV come from metrics._bayes and metrics._flat_value. The
per-profile functions (f1_ratio, f_beta_ratio, fm_ratio, mcc_ratio)
call them with math.sqrt and raise ValueError on a non-finite result.
_ratio_values, which analyze_counts and `ratios --json` report, calls
the same kernels on plain floats in one pass, with None for an
undefined ratio and a non-finite one left to its caller.
verify_bounds sweeps them all over a sensitivity/specificity grid
against their bounding intervals; its array path (cell builder, ratio
arrays, per-metric records) lives in _arrays, which calls the same
kernels with np.sqrt over every grid cell at once and which
verify_bounds imports on first call. The per-profile functions are
the oracle the suite checks those arrays against, byte for byte on
the report. The finest grid step it accepts is MIN_GRID_STEP = 0.001
(499,500 cells).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .errors import (
    DegenerateDenominator,
    DegenerateProfile,
    PrevthreshError,
    UndefinedMetric,
    ZeroDenominator,
)
from .metrics import (
    DiagnosticProfile,
    Rate,
    _bayes,
    _beta,
    _flat_value,
    _mcc_form,
    _Record,
    f1_at,
    f_beta_at,
    fm_at,
)
from .thresholds import Curve, _threshold_phi, _threshold_phis

__all__ = [
    "f1_ratio",
    "f_beta_ratio",
    "fm_ratio",
    "mcc_at_threshold",
    "mcc_ratio",
    "accuracy_divergence_curve",
    "BoundViolation",
    "BoundRecord",
    "BoundsReport",
    "verify_bounds",
    "RATIO_BOUNDS",
]

SQRT2 = math.sqrt(2.0)

# Finest verify_bounds grid step. The sweep holds a few float64 arrays
# per swept cell, and this step already sweeps 499,500 cells.
MIN_GRID_STEP = 0.001

# F-beta weights swept by verify_bounds and reported by analyze_counts
# by default.
SWEEP_BETAS = (0.5, 1.0, 2.0)

# Bounding interval of each ratio for informative profiles, keyed the
# way verify_bounds reports them. The F-beta upper bound is
# 1 + 1/(beta^2 + 1); F1 is the beta = 1 case.
RATIO_BOUNDS: dict[str, tuple[float, float]] = {
    "f1": (1.0, 1.5),
    **{f"f_beta_{b:g}": (1.0, 1.0 + 1.0 / (b * b + 1.0)) for b in SWEEP_BETAS},
    "fm": (1.0, SQRT2),
    "mcc": (SQRT2 / 2.0, SQRT2),
}


def _require_positive_recall(profile: DiagnosticProfile) -> tuple[float, float]:
    a = float(profile.sensitivity)
    b = float(profile.specificity)
    if a == 0.0:
        raise DegenerateProfile("ratio undefined when sensitivity is 0")
    return a, b


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"ratio value must be finite, got {value!r}")
    return value


def _f_beta_form(a, b, beta_sq, sqrt=math.sqrt):
    """1 + sqrt(a*(1-b)) / (beta_sq + a), for floats or arrays (sqrt=np.sqrt)."""
    return 1.0 + sqrt(a * (1.0 - b)) / (beta_sq + a)


def _fm_form(a, b, sqrt=math.sqrt):
    """sqrt(1 + sqrt((1-b)/a)), for floats or arrays (sqrt=np.sqrt)."""
    return sqrt(1.0 + sqrt((1.0 - b) / a))


def f1_ratio(profile: DiagnosticProfile) -> float:
    """F1 at full prevalence over F1 at the positive threshold.

    Closed form 1 + sqrt(a*(1-b)) / (1 + a), _f_beta_form at beta = 1;
    equals the direct ratio f1_at(profile, 1) / f1_at(profile, phi_e)
    wherever the latter is defined, and extends it continuously to
    specificity 1 (value 1). Lies in [1, 1.5] for informative profiles.
    """
    a, b = _require_positive_recall(profile)
    return _finite(_f_beta_form(a, b, 1.0))


def f_beta_ratio(profile: DiagnosticProfile, beta: float) -> float:
    """F-beta at full prevalence over F-beta at the positive threshold.

    Closed form 1 + sqrt(a*(1-b)) / (beta^2 + a) (_f_beta_form),
    reducing bit for bit to f1_ratio at beta = 1. For informative
    profiles it lies in [1, 1 + 1/(beta^2 + 1)]; without that
    restriction the upper bound fails (see the constraint-necessity
    test in the suite).
    """
    beta = _beta(beta)
    a, b = _require_positive_recall(profile)
    return _finite(_f_beta_form(a, b, beta * beta))


def fm_ratio(profile: DiagnosticProfile) -> float:
    """Fowlkes-Mallows at full prevalence over its value at the positive threshold.

    Closed form sqrt(1 + sqrt((1-b)/a)) (_fm_form), in [1, sqrt(2)] for
    informative profiles. Raises ValueError where it overflows, as at
    sensitivity 5e-324 with specificity 0.
    """
    a, b = _require_positive_recall(profile)
    return _finite(_fm_form(a, b))


def _threshold_mcc(a: float, b: float, phi: float) -> float:
    """The MCC of the population at prevalence phi: mcc_at_threshold's and _ratio_values' one kernel.

    _mcc_form over the PPV and NPV of _bayes at phi, each its curve's
    _flat_value where u is 0. That flat value is 0/0, raising
    ZeroDivisionError, only at the chance corners (0, 1) and (1, 0).
    """
    num, u = _bayes(a, b, "ppv", phi)
    rho = num / u if u != 0.0 else _flat_value(a, b, "ppv")
    num, u = _bayes(a, b, "npv", phi)
    sigma = num / u if u != 0.0 else _flat_value(a, b, "npv")
    return _mcc_form(rho, a, b, sigma)


def mcc_at_threshold(profile: DiagnosticProfile, which: str) -> float:
    """MCC of the population at one of the two prevalence thresholds.

    which is "positive" (phi_e, on the PPV curve) or "negative" (phi_n,
    on the NPV curve); anything else raises ValueError. Composes the
    rate form of the MCC (mcc_from_rates' kernel _mcc_form) with the
    PPV and NPV of ppv_at's and npv_at's kernel, metrics._bayes, at the
    chosen threshold prevalence, all on plain floats: the profile's
    rates are valid already and every derived one lies in [0, 1]. When a
    predictive-value curve is constant (sensitivity or specificity at
    an endpoint) and the threshold lands on its undefined edge, its
    continuous extension metrics._flat_value is used, so a perfect test
    scores 1.0 at either threshold; where that is 0/0 too, at the
    chance corners, DegenerateDenominator is raised naming that side.
    """
    if which == "positive":
        curve = Curve.PPV
    elif which == "negative":
        curve = Curve.NPV
    else:
        raise ValueError(f"which must be 'positive' or 'negative', got {which!r}")
    phi = _threshold_phi(profile, curve)
    a = profile.sensitivity
    b = profile.specificity
    try:
        return _threshold_mcc(a, b, phi)
    except ZeroDivisionError:
        # A flat value is 0/0 only at the chance corners: the PPV's at (0, 1), the NPV's at (1, 0).
        side = "positive" if a == 0.0 else "negative"
        raise DegenerateDenominator(f"no {side} predictions at phi={phi!r} for {profile}") from None


def mcc_ratio(profile: DiagnosticProfile) -> float:
    """MCC at the negative threshold over MCC at the positive threshold.

    The direct composition; the test suite checks it to 1e-10 against
    a decomposed square-root form and a fully inlined long form. Lies
    in [sqrt(2)/2, sqrt(2)] for informative profiles; uniquely among
    the ratios here its lower bound sits below 1, since NPV falls while
    PPV rises with prevalence.
    """
    numerator = mcc_at_threshold(profile, "negative")
    denominator = mcc_at_threshold(profile, "positive")
    if denominator == 0.0:
        raise ZeroDenominator("MCC at the positive threshold is zero")
    return _finite(numerator / denominator)


def accuracy_divergence_curve(
    profile: DiagnosticProfile,
    metric: str,
    phis: Iterable[float],
    beta: float | None = None,
) -> list[tuple[Rate, float | None]]:
    """Reference-over-current ratio of a metric along a prevalence grid.

    metric is "f1", "f_beta" or "fm"; the reference is the metric at
    full prevalence, so each entry is metric(1) / metric(phi). Below
    specificity 1 the ratio grows without bound as phi falls toward 0,
    as 1/phi for F1 and F-beta and as 1/sqrt(phi) for FM. At
    specificity 1 the PPV is 1 at every phi > 0, so every ratio is
    exactly 1.0 however small phi is. Grid points where
    the metric is zero or undefined are recorded with a None ratio
    rather than dropped, so emitted curves keep one row per grid point;
    every point is, where the reference itself is undefined (an F-beta
    whose beta**2 overflows).
    "mcc" is rejected because its NPV factor vanishes at full
    prevalence and no reference value exists there; so is any other
    name. Raises ValueError for those, for a missing,
    invalid or misplaced beta, and DegenerateProfile at sensitivity 0,
    where the reference is undefined.
    """
    if metric not in ("f1", "f_beta", "fm"):
        raise ValueError(f"no full-prevalence reference for metric {metric!r}")
    if metric == "f_beta":
        if beta is None:
            raise ValueError("beta is required for the f_beta divergence curve")
        beta = _beta(beta)
    elif beta is not None:
        raise ValueError(f"beta is only meaningful for f_beta, not {metric!r}")
    if float(profile.sensitivity) == 0.0:
        raise DegenerateProfile("reference value at full prevalence is undefined when sensitivity is 0")

    def at(phi: float) -> float:
        if metric == "f1":
            return float(f1_at(profile, phi))
        if metric == "f_beta":
            return float(f_beta_at(profile, phi, beta))
        return float(fm_at(profile, phi))

    try:
        reference = at(1.0)
    except UndefinedMetric:
        # Only an F-beta whose beta**2 overflows has no reference: no ratio is defined.
        return [(Rate(phi), None) for phi in phis]

    out: list[tuple[Rate, float | None]] = []
    for phi in phis:
        phi = Rate(phi)
        try:
            value = at(phi)
        except PrevthreshError:
            out.append((phi, None))
            continue
        out.append((phi, reference / value if value > 0.0 else None))
    return out


class BoundViolation(_Record):
    """A swept grid cell whose ratio landed outside its bounding interval."""

    __slots__ = _fields = ("sensitivity", "specificity", "value", "lower", "upper")

    def to_dict(self) -> dict:
        return {
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
            "value": self.value,
            "lower": self.lower,
            "upper": self.upper,
        }


class BoundRecord(_Record):
    """Sweep outcome for one ratio metric: extrema, violations, skipped cells."""

    __slots__ = _fields = (
        "metric", "lower", "upper", "cells", "observed_min", "observed_max", "argmin", "argmax", "violations", "skipped"
    )

    def to_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "cells": self.cells,
            "observed_min": self.observed_min,
            "observed_max": self.observed_max,
            "argmin": list(self.argmin) if self.argmin is not None else None,
            "argmax": list(self.argmax) if self.argmax is not None else None,
            "violations": [v.to_dict() for v in self.violations],
            "skipped": [list(cell) for cell in self.skipped],
        }


class BoundsReport(_Record):
    """Result of sweeping every ratio bound over a sensitivity/specificity grid."""

    __slots__ = _fields = ("grid_step", "delta", "tolerance", "constraint", "cells_swept", "records")

    @property
    def has_violations(self) -> bool:
        return any(r.violations for r in self.records)

    def record(self, metric: str) -> BoundRecord:
        for r in self.records:
            if r.metric == metric:
                return r
        raise KeyError(metric)

    def to_dict(self) -> dict:
        return {
            "grid_step": self.grid_step,
            "delta": self.delta,
            "tolerance": self.tolerance,
            "constraint": self.constraint,
            "cells_swept": self.cells_swept,
            "violation_count": sum(len(r.violations) for r in self.records),
            "metrics": {r.metric: r.to_dict() for r in self.records},
        }


def _grid_axis(step: float) -> list[float]:
    values = []
    i = 1
    while True:
        v = i * step
        if v > 1.0 + 1e-12:
            break
        values.append(min(v, 1.0))
        i += 1
    return values


def _ratio_values(profile: DiagnosticProfile, betas: Iterable[float]) -> dict[str, float | None]:
    """Every bounded ratio at one profile, keyed <key>_ratio; None where undefined.

    Keys are f1, f_beta_<beta:g> for each beta, fm and mcc, in that
    order. Invalid betas raise ValueError before any ratio is evaluated.
    One pass over plain floats with the kernels of f1_ratio,
    f_beta_ratio, fm_ratio and mcc_ratio, giving their values. An entry
    is None where its function raises a PrevthreshError, decided by
    comparison: the F-family and FM ratios at sensitivity 0 (no
    recall); the MCC ratio at the chance corners (0, 1) and (1, 0),
    where a threshold has p = q = 0 or a flat curve's value is 0/0, and
    where the MCC at phi_e is 0. A ratio that overflows (fm_ratio's inf
    at sensitivity 5e-324 with specificity 0) is returned as it is, not
    raised: each caller applies its own policy to it.
    """
    betas = [_beta(beta) for beta in betas]
    a = float(profile.sensitivity)
    b = float(profile.specificity)
    recall = a != 0.0
    values = {"f1_ratio": _f_beta_form(a, b, 1.0) if recall else None}
    for beta in betas:
        values[f"f_beta_{beta:g}_ratio"] = _f_beta_form(a, b, beta * beta) if recall else None
    values["fm_ratio"] = _fm_form(a, b) if recall else None
    mcc = None
    phi_e, phi_n = _threshold_phis(a, b)
    if phi_e is not None and phi_n is not None:
        denominator = _threshold_mcc(a, b, phi_e)
        if denominator != 0.0:
            mcc = _threshold_mcc(a, b, phi_n) / denominator
    values["mcc_ratio"] = mcc
    return values


def verify_bounds(grid_step: float = 0.01, delta: float = 1e-6, tolerance: float = 1e-9) -> BoundsReport:
    """Sweep every ratio identity over an (a, b) grid and check its bounds.

    Evaluates f1_ratio, f_beta_ratio for beta in {0.5, 1, 2}, fm_ratio
    and mcc_ratio at every grid cell with sensitivity + specificity >=
    1 + delta, sensitivity > 0 and specificity < 1, and records
    per-metric extrema (ties broken toward the lexicographically
    smaller cell) plus any value outside [lower - tolerance,
    upper + tolerance]. Cells where a ratio is undefined are recorded
    as skipped, never as violations; in the swept region none is. At
    sensitivity 1 the negative threshold sits at full prevalence, where
    mcc_at_threshold takes the flat NPV curve's continuous extension 1,
    so those cells count toward the MCC extrema. The informativeness
    restriction is load-bearing: below it the F-beta upper bounds are
    provably exceeded.

    The closed forms are evaluated as numpy arrays over all swept cells
    at once, with the per-profile functions' operations in their order,
    so the report is identical to calling those functions cell by cell
    (the test suite checks this against them). grid_step must lie in
    [MIN_GRID_STEP, 0.05]; the finest grid, 0.001, sweeps 499,500 cells.
    delta must be positive and tolerance non-negative, both finite:
    ValueError otherwise, before any grid is built.
    """
    if not (MIN_GRID_STEP <= grid_step <= 0.05):
        raise ValueError(f"grid_step must be in [{MIN_GRID_STEP!r}, 0.05], got {grid_step!r}")
    if not (0.0 < delta < math.inf):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    if not (0.0 <= tolerance < math.inf):
        raise ValueError(f"tolerance must be non-negative and finite, got {tolerance!r}")

    from . import _arrays

    floor = 1.0 + delta
    a, b = _arrays.sweep_cells(_grid_axis(grid_step), floor)
    records = []
    for key, values in _arrays.ratio_arrays(a, b):
        records.append(_arrays.bound_record(key, values, a, b, tolerance))
        del values
    return BoundsReport(
        grid_step=grid_step,
        delta=delta,
        tolerance=tolerance,
        constraint=f"sensitivity + specificity >= {floor!r}",
        cells_swept=int(a.size),
        records=tuple(records),
    )

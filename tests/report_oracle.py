"""The confusion-matrix report composed from the public functions: the oracle of its one-pass forms.

thresholds.threshold_summary computes its entries in one pass over
plain floats (_closed._summary), and so does _closed._ratio_values, the
ratios section of report.analyze_counts and `ratios --json`.
analyze_counts composes the rest of its report from the same float
kernels (_closed._positive_side and _negative_side,
metrics._chance_flags), not from threshold_summary, and its informative
flag from the integers, tp*tn > fp*fn. This module composes the same
entries from the public per-profile and per-count functions instead
(positive_threshold, negative_threshold, f1_ratio, f_beta_ratio,
fm_ratio, mcc_ratio, the ConfusionCounts rates, accuracy_from_counts
and mcc_from_counts; the informative flag from the counts' exact
rates, as fractions), with
an entry None where its function raises a PrevthreshError
(errors.value_or_none). A ratio that overflows a float raises the
ratio functions' ValueError: ratio_values lets it propagate, as
`ratios --json` reports it, and analyze_counts takes it as None. Both
refuse two betas whose f"{beta:g}" keys are equal (checked_betas), as
metrics._labelled_betas does before _closed._beta_keys keys the betas
for _closed._ratio_values.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction

from prevthresh._closed import SWEEP_BETAS
from prevthresh.bounds import f1_ratio, f_beta_ratio, fm_ratio, mcc_ratio
from prevthresh.errors import DegenerateProfile, UndefinedMetric, value_or_none
from prevthresh.metrics import (
    ConfusionCounts,
    DiagnosticProfile,
    _beta,
    accuracy_from_counts,
    chi_square_from_mcc,
    f_beta_score,
    mcc_from_counts,
)
from prevthresh.report import AnalysisReport
from prevthresh.thresholds import negative_threshold, positive_threshold


def threshold_summary(profile: DiagnosticProfile) -> dict:
    """thresholds.threshold_summary from positive_threshold's and negative_threshold's records."""
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


def checked_betas(betas: Iterable[float]) -> list[float]:
    """Each beta as metrics._beta checks it; ValueError for the first beta whose key an earlier one has, naming both."""
    checked: list[float] = []
    for beta in betas:
        beta = _beta(beta)
        for earlier in checked:
            if f"{earlier:g}" == f"{beta:g}":
                raise ValueError(
                    f"betas {earlier!r} and {beta!r} share the label '{beta:g}' (labels keep 6 significant digits)"
                )
        checked.append(beta)
    return checked


def ratio_values(profile: DiagnosticProfile, betas: Iterable[float], overflow_as_none: bool = False) -> dict:
    """_closed._ratio_values over metrics._labelled_betas(betas), from the per-profile ratio functions.

    A ratio that overflows raises their ValueError, or is None with
    overflow_as_none.
    """
    betas = checked_betas(betas)

    def ratio(fn, *args) -> float | None:
        try:
            return value_or_none(fn, *args)
        except ValueError:  # the ratio is not finite
            if overflow_as_none:
                return None
            raise

    values = {"f1_ratio": ratio(f1_ratio, profile)}
    for beta in betas:
        values[f"f_beta_{beta:g}_ratio"] = ratio(f_beta_ratio, profile, beta)
    values["fm_ratio"] = ratio(fm_ratio, profile)
    values["mcc_ratio"] = ratio(mcc_ratio, profile)
    return values


def analyze_counts(counts: ConfusionCounts, betas: Sequence[float] = SWEEP_BETAS) -> AnalysisReport:
    """report.analyze_counts from the ConfusionCounts methods and the functions above."""
    if counts.n == 0:
        raise UndefinedMetric("cannot analyze empty counts")
    betas = checked_betas(betas)
    profile = counts.profile()
    prevalence = counts.prevalence()
    a = float(profile.sensitivity)

    precision = value_or_none(counts.ppv)

    def f_score(beta_sq: float) -> float | None:
        return None if precision is None else f_beta_score(beta_sq, a, precision)

    metrics: dict[str, float | None] = {
        "accuracy": value_or_none(accuracy_from_counts, counts),
        "ppv": precision,
        "npv": value_or_none(counts.npv),
        "f1": f_score(1.0),
    }
    for beta in betas:
        metrics[f"f_beta_{beta:g}"] = f_score(beta * beta)
    metrics["fm"] = None if precision is None else math.sqrt(a * precision)
    mcc = value_or_none(mcc_from_counts, counts)
    metrics["mcc"] = mcc
    try:
        metrics["chi_square"] = None if mcc is None else chi_square_from_mcc(mcc, counts.n)
    except ValueError:  # n is too large for a float
        metrics["chi_square"] = None

    summary = threshold_summary(profile)
    thresholds = {key: summary[key] for key in ("phi_e", "ppv_at_phi_e", "phi_n", "npv_at_phi_n")}
    phi_e = thresholds["phi_e"]
    # Informative is a + b > 1 on the exact rates of the counts, which the float rates' sum may round away.
    exact_sum = Fraction(counts.tp, counts.tp + counts.fn) + Fraction(counts.tn, counts.tn + counts.fp)
    flags = {
        "informative": exact_sum > 1,
        "degenerate": summary["degenerate"],
        "below_positive_threshold": None if phi_e is None else float(prevalence) < phi_e,
    }
    return AnalysisReport(
        counts=counts,
        profile=profile,
        prevalence=prevalence,
        metrics=metrics,
        thresholds=thresholds,
        ratios=ratio_values(profile, betas, overflow_as_none=True),
        flags=flags,
    )

"""One-stop analysis of a confusion matrix.

Bundles everything the library can say about a single set of counts:
the observed rates and accuracy metrics, the two prevalence thresholds
of the derived profile, the closed-form accuracy ratios, and the
qualitative flags (informative? degenerate? sitting below the positive
threshold?). Entries that are undefined for the given counts are
reported as None rather than raising, so one bad cell does not hide the
rest of the report.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .bounds import SWEEP_BETAS, _ratio_values
from .errors import UndefinedMetric, value_or_none
from .metrics import (
    ConfusionCounts,
    DiagnosticProfile,
    Rate,
    _beta,
    _Record,
    _set,
    accuracy_from_counts,
    chi_square_from_mcc,
    f_beta_score,
    mcc_from_counts,
)
from .thresholds import threshold_summary

__all__ = ["AnalysisReport", "analyze_counts"]


class AnalysisReport(_Record):
    """Metrics, thresholds, ratios and flags derived from one confusion matrix.

    Every number is re-derivable from counts alone. Map values are None
    where the corresponding quantity is undefined for these counts.
    """

    __slots__ = _fields = ("counts", "profile", "prevalence", "metrics", "thresholds", "ratios", "flags")

    def __init__(
        self,
        counts: ConfusionCounts,
        profile: DiagnosticProfile,
        prevalence: Rate,
        metrics: dict[str, float | None],
        thresholds: dict[str, float | None],
        ratios: dict[str, float | None],
        flags: dict[str, bool | None],
    ):
        _set(self, "counts", counts)
        _set(self, "profile", profile)
        _set(self, "prevalence", prevalence)
        _set(self, "metrics", metrics)
        _set(self, "thresholds", thresholds)
        _set(self, "ratios", ratios)
        _set(self, "flags", flags)

    def to_dict(self) -> dict:
        return {
            "counts": {
                "tp": self.counts.tp,
                "fp": self.counts.fp,
                "fn": self.counts.fn,
                "tn": self.counts.tn,
                "n": self.counts.n,
            },
            "profile": {
                "sensitivity": float(self.profile.sensitivity),
                "specificity": float(self.profile.specificity),
                "epsilon": self.profile.epsilon,
            },
            "prevalence": float(self.prevalence),
            "metrics": dict(self.metrics),
            "thresholds": dict(self.thresholds),
            "ratios": dict(self.ratios),
            "flags": dict(self.flags),
        }


def analyze_counts(
    counts: ConfusionCounts,
    betas: Sequence[float] = SWEEP_BETAS,
) -> AnalysisReport:
    """Derive the full report for one confusion matrix.

    Needs both classes present in the data (otherwise sensitivity or
    specificity has a zero denominator and UndefinedMetric propagates);
    everything further down is per-entry guarded instead.
    """
    if counts.n == 0:
        raise UndefinedMetric("cannot analyze empty counts")
    betas = [_beta(b) for b in betas]
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
    metrics["chi_square"] = None if mcc is None else chi_square_from_mcc(mcc, counts.n)

    summary = threshold_summary(profile)
    thresholds: dict[str, float | None] = {
        key: summary[key] for key in ("phi_e", "ppv_at_phi_e", "phi_n", "npv_at_phi_n")
    }
    ratios = _ratio_values(profile, betas)

    phi_e = thresholds["phi_e"]
    flags: dict[str, bool | None] = {
        "informative": summary["informative"],
        "degenerate": summary["degenerate"],
        "below_positive_threshold": None if phi_e is None else float(prevalence) < phi_e,
    }
    return AnalysisReport(
        counts=counts,
        profile=profile,
        prevalence=prevalence,
        metrics=metrics,
        thresholds=thresholds,
        ratios=ratios,
        flags=flags,
    )

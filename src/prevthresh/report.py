"""One-stop analysis of a confusion matrix.

Bundles everything the library can say about a single set of counts:
the observed rates and accuracy metrics, the two prevalence thresholds
of the derived profile, the closed-form accuracy ratios, and the
qualitative flags (informative? degenerate? sitting below the positive
threshold?). Entries that are undefined for the given counts are
reported as None rather than raising, so one bad cell does not hide the
rest of the report. Whether an entry is defined is decided by comparing
the counts or rates (a zero denominator, a zero recall), not by
catching an error; a ratio that overflows a float is None too.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ._closed import _SWEEP_BETA_KEYS, SWEEP_BETAS, _beta_keys, _negative_side, _positive_side, _ratio_values
from .errors import UndefinedMetric
from .metrics import (
    ConfusionCounts,
    Rate,
    _chance_flags,
    _labelled_betas,
    _Record,
    chi_square_from_mcc,
    f_beta_score,
    mcc_from_counts,
)

__all__ = ["AnalysisReport", "analyze_counts"]


class AnalysisReport(_Record):
    """Metrics, thresholds, ratios and flags derived from one confusion matrix.

    Every number is re-derivable from counts alone. Map values are None
    where the corresponding quantity is undefined for these counts.
    """

    __slots__ = _fields = ("counts", "profile", "prevalence", "metrics", "thresholds", "ratios", "flags")

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
    specificity has a zero denominator and UndefinedMetric propagates),
    and raises ValueError for an invalid beta and for betas with one
    label (metrics._labelled_betas). The default, SWEEP_BETAS itself,
    is keyed once, at import, as _closed._SWEEP_BETA_KEYS; other betas
    are keyed here (_closed._beta_keys). One pass over plain floats
    composes the report from the kernels of _closed (_positive_side,
    _negative_side, _ratio_values) and metrics._chance_flags, so the
    report compiles neither thresholds nor bounds. The informative flag
    is tp*tn > fp*fn, the exact integer form of sensitivity +
    specificity > 1, which the rates' float sum can round away; the
    degenerate flag is metrics._chance_flags' of that sum. Every other
    entry is None where it is undefined, decided by comparison:

    - ppv and npv, where no element is predicted positive or negative;
      with the ppv go f1, each f_beta and fm, and with either goes mcc,
      whose determinant form has that marginal as a factor;
    - an f_beta score where beta**2 overflows or recall and precision
      are both 0 (f_beta_score);
    - chi_square where the MCC is undefined and where n is too large
      for a float (chi_square_from_mcc's ValueError);
    - thresholds where their kernel gives None, and
      below_positive_threshold with phi_e;
    - ratios as _ratio_values gives them from those thresholds, and a
      ratio that overflows a float, as fm_ratio does at sensitivity
      5e-324 with specificity 0.
    """
    tp, fp, fn, tn = counts.tp, counts.fp, counts.fn, counts.tn
    n = tp + fp + fn + tn
    if n == 0:
        raise UndefinedMetric("cannot analyze empty counts")
    beta_keys = _SWEEP_BETA_KEYS if betas is SWEEP_BETAS else _beta_keys(_labelled_betas(betas))
    profile = counts.profile()
    a = float(profile.sensitivity)
    b = float(profile.specificity)

    # ConfusionCounts' rates, by its formulas, where their denominators are positive.
    prevalence = (tp + fn) / n
    precision = tp / (tp + fp) if tp + fp else None
    npv = tn / (tn + fn) if tn + fn else None
    metrics: dict[str, float | None] = {"accuracy": (tp + tn) / n, "ppv": precision, "npv": npv}
    metrics["f1"] = None if precision is None else f_beta_score(1.0, a, precision)
    for key, _, beta_sq in beta_keys:
        metrics[key] = None if precision is None else f_beta_score(beta_sq, a, precision)
    metrics["fm"] = None if precision is None else math.sqrt(a * precision)
    mcc = None if precision is None or npv is None else mcc_from_counts(counts)
    metrics["mcc"] = mcc
    try:
        metrics["chi_square"] = None if mcc is None else chi_square_from_mcc(mcc, n)
    except ValueError:  # n is too large for a float
        metrics["chi_square"] = None

    phi_e, ppv_at_phi_e = _positive_side(a, b)
    phi_n, npv_at_phi_n = _negative_side(a, b)
    ratios = _ratio_values(a, b, beta_keys, phi_e, phi_n)
    for key, value in ratios.items():
        if value is not None and not math.isfinite(value):
            ratios[key] = None
    thresholds = {"phi_e": phi_e, "ppv_at_phi_e": ppv_at_phi_e, "phi_n": phi_n, "npv_at_phi_n": npv_at_phi_n}
    _, degenerate = _chance_flags(a + b)
    below = None if phi_e is None else prevalence < phi_e
    flags = {"informative": tp * tn > fp * fn, "degenerate": degenerate, "below_positive_threshold": below}
    return AnalysisReport(counts, profile, Rate(prevalence), metrics, thresholds, ratios, flags)

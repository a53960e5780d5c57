"""Cross-check evaluation paths of the MCC ratio, used only by the tests.

bounds.mcc_ratio composes the MCC at each threshold from the pointwise
predictive values. The two forms here reach the same ratio by other
routes: a difference-of-square-roots decomposition and one fully
inlined expression. Agreement of all three to 1e-10 guards against a
transcription error in any single one.
"""

import math
from dataclasses import dataclass

from prevthresh import DegenerateProfile, DiagnosticProfile, Rate, ZeroDenominator


def _require_interior(profile: DiagnosticProfile) -> tuple[float, float]:
    a = float(profile.sensitivity)
    b = float(profile.specificity)
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise DegenerateProfile(
            "MCC ratio cross-check forms need sensitivity and specificity strictly inside (0, 1)"
        )
    return a, b


@dataclass(frozen=True)
class MccRatioTerms:
    """Intermediate quantities of the decomposed MCC ratio.

    Both threshold MCCs are differences of square roots, so the ratio
    is (sqrt(concordant_negative) - sqrt(discordant_negative)) /
    (sqrt(concordant_positive) - sqrt(discordant_positive)), where each
    product multiplies the four rates (or their complements) that enter
    the MCC at that threshold. The predictive value at the positive
    threshold is computed through the likelihood-ratio shortcut
    sqrt(a/(1-b)) * phi_e rather than by evaluating the PPV curve, so
    this path is algebraically distinct from mcc_at_threshold.
    """

    negative_phi: Rate
    positive_phi: Rate
    ppv_at_negative: Rate
    npv_at_negative: Rate
    npv_at_positive: Rate
    ppv_at_positive: Rate
    concordant_negative: float
    discordant_negative: float
    concordant_positive: float
    discordant_positive: float

    @classmethod
    def from_profile(cls, profile: DiagnosticProfile) -> "MccRatioTerms":
        a, b = _require_interior(profile)
        u = math.sqrt(b) / (math.sqrt(1.0 - a) + math.sqrt(b))
        v = math.sqrt(1.0 - b) / (math.sqrt(a) + math.sqrt(1.0 - b))
        ppv_neg = a * u / (a * u + (1.0 - b) * (1.0 - u))
        npv_neg = b * (1.0 - u) / (b * (1.0 - u) + (1.0 - a) * u)
        npv_pos = b * (1.0 - v) / (b * (1.0 - v) + (1.0 - a) * v)
        ppv_pos = math.sqrt(a / (1.0 - b)) * v
        return cls(
            negative_phi=Rate(u),
            positive_phi=Rate(v),
            ppv_at_negative=Rate(ppv_neg),
            npv_at_negative=Rate(npv_neg),
            npv_at_positive=Rate(npv_pos),
            ppv_at_positive=Rate(ppv_pos),
            concordant_negative=a * b * ppv_neg * npv_neg,
            discordant_negative=(1.0 - a) * (1.0 - b) * (1.0 - ppv_neg) * (1.0 - npv_neg),
            concordant_positive=a * b * npv_pos * ppv_pos,
            discordant_positive=(1.0 - a) * (1.0 - b) * (1.0 - npv_pos) * (1.0 - ppv_pos),
        )

    @property
    def ratio(self) -> float:
        denominator = math.sqrt(self.concordant_positive) - math.sqrt(self.discordant_positive)
        if denominator == 0.0:
            raise ZeroDenominator("MCC at the positive threshold is zero")
        return (
            math.sqrt(self.concordant_negative) - math.sqrt(self.discordant_negative)
        ) / denominator


def mcc_ratio_decomposed(profile: DiagnosticProfile) -> float:
    """MCC ratio via the difference-of-square-roots decomposition."""
    return MccRatioTerms.from_profile(profile).ratio


def mcc_ratio_long_form(profile: DiagnosticProfile) -> float:
    """MCC ratio as one fully inlined expression, the third evaluation path.

    Nothing is shared with the other two paths except the two threshold
    radicals; every predictive value is spelled out inline and the
    positive-threshold PPV again uses the sqrt(a/(1-b)) shortcut.
    Deliberately kept in this shape as a transcription-independent
    cross-check.
    """
    a, b = _require_interior(profile)
    pn = math.sqrt(b) / (math.sqrt(1.0 - a) + math.sqrt(b))
    pe = math.sqrt(1.0 - b) / (math.sqrt(a) + math.sqrt(1.0 - b))
    numerator = math.sqrt(
        a * pn / (a * pn + (1.0 - b) * (1.0 - pn))
        * a * b
        * b * (1.0 - pn) / (b * (1.0 - pn) + (1.0 - a) * pn)
    ) - math.sqrt(
        (1.0 - a * pn / (a * pn + (1.0 - b) * (1.0 - pn)))
        * (1.0 - a) * (1.0 - b)
        * (1.0 - b * (1.0 - pn) / (b * (1.0 - pn) + (1.0 - a) * pn))
    )
    denominator = math.sqrt(
        math.sqrt(a / (1.0 - b)) * pe
        * a * b
        * b * (1.0 - pe) / (b * (1.0 - pe) + (1.0 - a) * pe)
    ) - math.sqrt(
        (1.0 - math.sqrt(a / (1.0 - b)) * pe)
        * (1.0 - a) * (1.0 - b)
        * (1.0 - b * (1.0 - pe) / (b * (1.0 - pe) + (1.0 - a) * pe))
    )
    if denominator == 0.0:
        raise ZeroDenominator("MCC at the positive threshold is zero")
    return numerator / denominator

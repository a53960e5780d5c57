"""Validated rate/count types and pointwise accuracy metrics.

Predictive values are prevalence-dependent through Bayes' rule, while
sensitivity and specificity are prevalence-free, so every metric here is
computable either from a (sensitivity, specificity) profile plus a
prevalence, or directly from confusion-matrix counts. Undefined values
raise typed errors instead of returning NaN, so sweep code can tell
degeneracy apart from a genuine bound violation.
"""

from __future__ import annotations

import math

from .errors import DegenerateDenominator, UndefinedMetric

__all__ = [
    "Rate",
    "DiagnosticProfile",
    "ConfusionCounts",
    "ppv_at",
    "npv_at",
    "f1_at",
    "f_beta_at",
    "fm_at",
    "mcc_from_rates",
    "mcc_from_counts",
    "chi_square_from_mcc",
    "accuracy_from_counts",
]

# Tolerance inside which sensitivity + specificity counts as exactly 1,
# i.e. the predictive-value curves are straight lines.
DEGENERATE_EPS = 1e-12


class Rate(float):
    """A proportion in the closed unit interval.

    Construction rejects non-finite values and anything outside [0, 1];
    instances otherwise behave as plain floats, so they can be used
    directly in arithmetic.
    """

    __slots__ = ()

    def __new__(cls, value: float) -> "Rate":
        v = float(value)
        if not math.isfinite(v) or v < 0.0 or v > 1.0:
            raise ValueError(f"rate must be a finite number in [0, 1], got {value!r}")
        return super().__new__(cls, v)

    def __repr__(self) -> str:
        return f"Rate({float(self)!r})"


# Sets a field of a record in its __init__, past _Record.__setattr__.
_set = object.__setattr__


class _Record:
    """Base of the package's immutable value types; each lists its fields, in order, as __slots__ and _fields.

    A subclass's __init__ validates its arguments and stores each field
    with _set. Instances compare equal when they are of the same class
    with equal field tuples, hash as that tuple, show as
    Name(field=value!r, ...), and copy or pickle by calling the class
    on their fields. Assigning or deleting any attribute raises
    AttributeError.
    """

    __slots__ = _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class DiagnosticProfile(_Record):
    """The prevalence-free characteristics of a binary classifier.

    sensitivity
        Probability that a positive element is predicted positive (recall).
    specificity
        Probability that a negative element is predicted negative.
    """

    __slots__ = _fields = ("sensitivity", "specificity")

    def __init__(self, sensitivity: float, specificity: float):
        _set(self, "sensitivity", Rate(sensitivity))
        _set(self, "specificity", Rate(specificity))

    @property
    def epsilon(self) -> float:
        """Informedness sum sensitivity + specificity, in [0, 2]."""
        return float(self.sensitivity) + float(self.specificity)

    def is_informative(self) -> bool:
        """True when the classifier beats chance: sensitivity + specificity > 1."""
        return self.epsilon > 1.0

    def is_degenerate(self) -> bool:
        """True when sensitivity + specificity is 1 within DEGENERATE_EPS (straight-line curves)."""
        return abs(self.epsilon - 1.0) <= DEGENERATE_EPS


class ConfusionCounts(_Record):
    """Non-negative cell counts of a 2x2 confusion matrix.

    tp / fp / fn / tn follow the usual convention: the first letter says
    whether the prediction was correct, the second which class was
    predicted. Derived rates use the standard epidemiological
    definitions and are only available when their denominator is
    positive.
    """

    __slots__ = _fields = ("tp", "fp", "fn", "tn")

    def __init__(self, tp: int, fp: int, fn: int, tn: int):
        for name, v in (("tp", tp), ("fp", fp), ("fn", fn), ("tn", tn)):
            if isinstance(v, bool) or not isinstance(v, int):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            if v < 0:
                raise ValueError(f"{name} must be non-negative, got {v}")
            _set(self, name, v)

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    def _rate(self, num: int, den: int, what: str) -> Rate:
        if den == 0:
            raise UndefinedMetric(f"{what} undefined: denominator is zero")
        return Rate(num / den)

    def sensitivity(self) -> Rate:
        return self._rate(self.tp, self.tp + self.fn, "sensitivity")

    def specificity(self) -> Rate:
        return self._rate(self.tn, self.tn + self.fp, "specificity")

    def ppv(self) -> Rate:
        return self._rate(self.tp, self.tp + self.fp, "ppv")

    def npv(self) -> Rate:
        return self._rate(self.tn, self.tn + self.fn, "npv")

    def prevalence(self) -> Rate:
        return self._rate(self.tp + self.fn, self.n, "prevalence")

    def profile(self) -> DiagnosticProfile:
        """Sensitivity/specificity profile derived from the counts."""
        return DiagnosticProfile(self.sensitivity(), self.specificity())


def _beta(beta: float) -> float:
    """The F-beta weight as a float: beta < 1 favours precision, beta > 1 recall.

    Raises ValueError unless beta is finite and strictly positive.
    """
    v = float(beta)
    if not math.isfinite(v) or v <= 0.0:
        raise ValueError(f"beta must be finite and > 0, got {beta!r}")
    return v


def ppv_at(profile: DiagnosticProfile, phi: float) -> Rate:
    """Positive predictive value at prevalence ``phi`` via Bayes' rule.

    ppv = a*phi / (a*phi + (1-b)*(1-phi)) with a = sensitivity and
    b = specificity. Monotone non-decreasing in phi for informative
    profiles, with the invariant endpoint ppv(1) = 1.
    """
    phi = Rate(phi)
    true_pos = float(profile.sensitivity) * float(phi)
    false_pos = (1.0 - float(profile.specificity)) * (1.0 - float(phi))
    den = true_pos + false_pos
    if den == 0.0:
        raise DegenerateDenominator(
            f"no positive predictions at phi={float(phi)!r} for {profile}"
        )
    return Rate(true_pos / den)


def npv_at(profile: DiagnosticProfile, phi: float) -> Rate:
    """Negative predictive value at prevalence ``phi`` via Bayes' rule.

    npv = b*(1-phi) / (b*(1-phi) + (1-a)*phi). Monotone non-increasing
    in phi for informative profiles, with npv(0) = 1.
    """
    phi = Rate(phi)
    true_neg = float(profile.specificity) * (1.0 - float(phi))
    false_neg = (1.0 - float(profile.sensitivity)) * float(phi)
    den = true_neg + false_neg
    if den == 0.0:
        raise DegenerateDenominator(
            f"no negative predictions at phi={float(phi)!r} for {profile}"
        )
    return Rate(true_neg / den)


def f_beta_score(beta_sq: float, recall: float, precision: float) -> float | None:
    """F-beta score from recall and precision, with beta_sq = beta**2.

    None when recall and precision are both zero (the score is 0/0) or
    beta_sq is infinite (inf/inf); 0.0 when exactly one of them is zero.
    """
    if beta_sq == math.inf or beta_sq * precision + recall == 0.0:
        return None
    if recall == 0.0 or precision == 0.0:
        return 0.0
    # Harmonic form rather than (1+b2)*p*r/(b2*p + r): keeps the result
    # inside [0, 1] under rounding and makes the beta = 1 case identical to F1.
    scaled = beta_sq / recall
    if scaled == math.inf:
        # The form multiplied through by recall keeps the large-beta limit, the recall.
        return recall * (1.0 + beta_sq) / (beta_sq + recall / precision)
    return (1.0 + beta_sq) / (scaled + 1.0 / precision)


def f1_at(profile: DiagnosticProfile, phi: float) -> Rate:
    """F1 score at prevalence ``phi``: harmonic mean of precision and recall."""
    a = float(profile.sensitivity)
    rho = float(ppv_at(profile, phi))
    if a == 0.0 or rho == 0.0:
        raise UndefinedMetric("F1 needs positive recall and precision")
    return Rate(f_beta_score(1.0, a, rho))


def f_beta_at(profile: DiagnosticProfile, phi: float, beta: float) -> Rate:
    """F-beta score at prevalence ``phi``: weighted harmonic mean of precision and recall.

    Reduces exactly (bit for bit) to :func:`f1_at` when beta = 1.
    """
    beta = _beta(beta)
    value = f_beta_score(beta * beta, float(profile.sensitivity), float(ppv_at(profile, phi)))
    if value is None:
        if beta * beta == math.inf:
            raise UndefinedMetric(f"F-beta undefined: beta**2 overflows at beta={beta!r}")
        raise UndefinedMetric("F-beta undefined: recall and precision both zero")
    return Rate(value)


def fm_at(profile: DiagnosticProfile, phi: float) -> Rate:
    """Fowlkes-Mallows index at prevalence ``phi``: geometric mean of precision and recall."""
    rho = float(ppv_at(profile, phi))
    return Rate(math.sqrt(float(profile.sensitivity) * rho))


def _mcc_form(rho, a, b, sigma, sqrt=math.sqrt):
    """sqrt(rho*a*b*sigma) - sqrt((1-rho)*(1-a)*(1-b)*(1-sigma)), for floats or arrays (sqrt=np.sqrt)."""
    return sqrt(rho * a * b * sigma) - sqrt((1.0 - rho) * (1.0 - a) * (1.0 - b) * (1.0 - sigma))


def mcc_from_rates(ppv: float, sensitivity: float, specificity: float, npv: float) -> float:
    """Matthews correlation coefficient from the four characteristic rates.

    mcc = sqrt(ppv*a*b*npv) - sqrt((1-ppv)*(1-a)*(1-b)*(1-npv)), in [-1, 1]
    (_mcc_form, after each rate is validated as a Rate).
    """
    return _mcc_form(float(Rate(ppv)), float(Rate(sensitivity)), float(Rate(specificity)), float(Rate(npv)))


def mcc_from_counts(counts: ConfusionCounts) -> float:
    """Matthews correlation coefficient in determinant form.

    (tp*tn - fp*fn) / sqrt of the product of the four marginals. Serves
    as the independent cross-check of :func:`mcc_from_rates`; the two
    agree to floating-point tolerance whenever all marginals are
    positive. Where that product overflows a float, the MCC is the
    signed square root of the exact integer ratio (tp*tn - fp*fn)**2 /
    product instead.
    """
    tp, fp, fn, tn = counts.tp, counts.fp, counts.fn, counts.tn
    pred_pos = tp + fp
    obs_pos = tp + fn
    obs_neg = tn + fp
    pred_neg = tn + fn
    if min(pred_pos, obs_pos, obs_neg, pred_neg) == 0:
        raise UndefinedMetric("MCC undefined: a confusion-matrix marginal is zero")
    numerator = tp * tn - fp * fn
    try:
        product = float(pred_pos) * obs_pos * obs_neg * pred_neg
    except OverflowError:  # a marginal itself is beyond float range
        product = math.inf
    if math.isfinite(product):
        return numerator / math.sqrt(product)
    magnitude = math.sqrt(numerator * numerator / (pred_pos * obs_pos * obs_neg * pred_neg))
    return -magnitude if numerator < 0 else magnitude


def chi_square_from_mcc(mcc: float, n: int) -> float:
    """Chi-square statistic of the 2x2 table implied by an MCC on n elements.

    Inverts |phi_coefficient| = sqrt(chi2 / n) to chi2 = n * mcc**2.
    Raises ValueError where n is too large for a float.
    """
    m = float(mcc)
    if not math.isfinite(m) or abs(m) > 1.0:
        raise ValueError(f"mcc must lie in [-1, 1], got {mcc!r}")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    try:
        return n * m * m
    except OverflowError:
        raise ValueError(f"n is too large for a float ({n.bit_length()} bits)") from None


def accuracy_from_counts(counts: ConfusionCounts) -> Rate:
    """Proportion of correct predictions (tp + tn) / n."""
    if counts.n == 0:
        raise UndefinedMetric("accuracy undefined for empty counts")
    return Rate((counts.tp + counts.tn) / counts.n)

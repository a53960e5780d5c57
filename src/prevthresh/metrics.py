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
    "DEGENERATE_EPS",
]

# Tolerance inside which sensitivity + specificity counts as exactly 1,
# i.e. the predictive-value curves are straight lines.
DEGENERATE_EPS = 1e-12

# float.__new__, looked up once rather than on every Rate built.
_new_float = float.__new__


class Rate(float):
    """A proportion in the closed unit interval.

    Construction rejects non-finite values and anything outside [0, 1];
    instances otherwise behave as plain floats, so they can be used
    directly in arithmetic. Rate(r) of an exact Rate returns r itself,
    checked when it was built; any other value is converted and checked.
    """

    __slots__ = ()

    def __new__(cls, value: float) -> "Rate":
        if type(value) is cls:
            return value
        v = float(value)
        if not 0.0 <= v <= 1.0:  # also false for NaN
            raise ValueError(f"rate must be a finite number in [0, 1], got {value!r}")
        return _new_float(cls, v)

    def __repr__(self) -> str:
        return f"Rate({float(self)!r})"


def _field_setters(cls) -> list:
    """The bound __set__ of cls's fields' slot descriptors, in _fields order: each stores past _Record.__setattr__."""
    return [getattr(cls, name).__set__ for name in cls._fields]


class _Record:
    """Base of the package's immutable value types; each lists its fields, in order, as __slots__ and _fields.

    A subclass that validates its arguments writes its own __init__ and
    stores each field through its slot's bound __set__ (_field_setters).
    For one that declares _fields but no __init__, __init_subclass__
    compiles the __init__(self, <fields>) that one written by hand would
    be, one setter call per field. Instances compare equal when they are
    of the same class with equal field tuples, hash as that tuple, show
    as Name(field=value!r, ...), and copy or pickle by calling the class
    on their fields. Assigning or deleting any attribute raises
    AttributeError.
    """

    __slots__ = _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__ and "__init__" not in cls.__dict__:
            # Compiled inside a `class <Name>:` body, so its TypeErrors read <Name>.__init__().
            stores = "".join([f"\n        _set_{name}(self, {name})" for name in cls._fields])
            source = f"class {cls.__name__}:\n    def __init__(self, {', '.join(cls._fields)}):{stores}\n"
            setters = {f"_set_{name}": setter for name, setter in zip(cls._fields, _field_setters(cls))}
            namespace = {}
            exec(source, {"__name__": cls.__module__, **setters}, namespace)
            cls.__init__ = namespace[cls.__name__].__init__

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
        _set_sensitivity(self, Rate(sensitivity))
        _set_specificity(self, Rate(specificity))

    @property
    def epsilon(self) -> float:
        """Informedness sum sensitivity + specificity, in [0, 2]."""
        return self.sensitivity + self.specificity  # float.__add__: a plain float

    def is_informative(self) -> bool:
        """True when the classifier beats chance: sensitivity + specificity > 1."""
        return _chance_flags(self.epsilon)[0]

    def is_degenerate(self) -> bool:
        """True when sensitivity + specificity is 1 within DEGENERATE_EPS (straight-line curves)."""
        return _chance_flags(self.epsilon)[1]


_set_sensitivity, _set_specificity = _field_setters(DiagnosticProfile)


def _chance_flags(epsilon: float) -> tuple[bool, bool]:
    """(is_informative(), is_degenerate()) of a profile whose epsilon this is."""
    return epsilon > 1.0, abs(epsilon - 1.0) <= DEGENERATE_EPS


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
        _set_tp(self, tp)
        _set_fp(self, fp)
        _set_fn(self, fn)
        _set_tn(self, tn)

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


_set_tp, _set_fp, _set_fn, _set_tn = _field_setters(ConfusionCounts)


def _beta(beta: float) -> float:
    """The F-beta weight as a float: beta < 1 favours precision, beta > 1 recall.

    Raises ValueError unless beta is finite and strictly positive.
    """
    v = float(beta)
    if not math.isfinite(v) or v <= 0.0:
        raise ValueError(f"beta must be finite and > 0, got {beta!r}")
    return v


def _labelled_betas(betas) -> dict[str, float]:
    """Each beta's _beta weight by its label f"{beta:g}", which keys its report entries and CSV columns.

    Raises ValueError for an invalid beta, and for two betas with one
    label, naming both, since their entries would overwrite each other.
    """
    labelled: dict[str, float] = {}
    for beta in betas:
        value = _beta(beta)
        label = f"{value:g}"
        if label in labelled:
            first = labelled[label]
            raise ValueError(f"betas {first!r} and {value!r} share the label {label!r} (labels keep 6 significant digits)")
        labelled[label] = value
    return labelled


def _curve_coefficients(a, b, curve):
    """Quotient-form coefficients (p, q, sign) of the "ppv" or "npv" curve (or Curve member), for floats or arrays.

    Both curves are Bayes' rule over the denominator
    u = p*phi + q*(1-phi): PPV = p*phi / u with (p, q) = (a, 1-b), and
    NPV = q*(1-phi) / u with (p, q) = (1-a, b). sign is the sign of the
    slope (+1 for PPV, -1 for NPV); the derivative magnitudes depend
    only on the product p*q and on u.
    """
    if curve == "ppv":
        return a, 1.0 - b, 1.0
    return 1.0 - a, b, -1.0


def _bayes(a, b, curve, phi):
    """Bayes' rule for the "ppv" or "npv" curve at phi as (numerator, u), for floats or arrays.

    PPV = a*phi / (a*phi + (1-b)*(1-phi)) and NPV = b*(1-phi) / (b*(1-phi) + (1-a)*phi);
    u is p*phi + q*(1-phi) of _curve_coefficients. Each caller decides what u = 0 gives.
    """
    if curve == "ppv":
        true_pos = a * phi
        return true_pos, true_pos + (1.0 - b) * (1.0 - phi)
    true_neg = b * (1.0 - phi)
    return true_neg, true_neg + (1.0 - a) * phi


def _predictive_value(a: float, b: float, curve, phi: float) -> float | None:
    """The "ppv" or "npv" curve at phi by Bayes' rule (_bayes); None where its u is 0, where ppv_at and npv_at raise."""
    num, u = _bayes(a, b, curve, phi)
    return num / u if u != 0.0 else None


def _flat_value(a, b, curve):
    """The curve's value by continuity where _bayes' u is 0, which only a flat curve has, for floats or arrays.

    That is hits / (hits + misses) of the rates: 1 with no misses (PPV
    at specificity 1, NPV at sensitivity 1), 0 with no hits (PPV at
    sensitivity 0, NPV at specificity 0). With neither it is 0/0:
    ZeroDivisionError for floats, NaN for arrays.
    """
    if curve == "ppv":
        return a / (a + (1.0 - b))
    return b / (b + (1.0 - a))


def ppv_at(profile: DiagnosticProfile, phi: float) -> Rate:
    """Positive predictive value at prevalence ``phi`` via Bayes' rule.

    ppv = a*phi / (a*phi + (1-b)*(1-phi)) with a = sensitivity and
    b = specificity (_bayes). Monotone non-decreasing in phi for
    informative profiles, with the invariant endpoint ppv(1) = 1.
    """
    phi = Rate(phi)
    value = _predictive_value(profile.sensitivity, profile.specificity, "ppv", phi)
    if value is None:
        raise DegenerateDenominator(f"no positive predictions at phi={float(phi)!r} for {profile}")
    return Rate(value)


def npv_at(profile: DiagnosticProfile, phi: float) -> Rate:
    """Negative predictive value at prevalence ``phi`` via Bayes' rule.

    npv = b*(1-phi) / (b*(1-phi) + (1-a)*phi) (_bayes). Monotone
    non-increasing in phi for informative profiles, with npv(0) = 1.
    """
    phi = Rate(phi)
    value = _predictive_value(profile.sensitivity, profile.specificity, "npv", phi)
    if value is None:
        raise DegenerateDenominator(f"no negative predictions at phi={float(phi)!r} for {profile}")
    return Rate(value)


def _f_beta_harmonic(beta_sq: float, recall: float, precision: float) -> float:
    """(1 + beta_sq) / (beta_sq/recall + 1/precision); precision must not be 0.

    The harmonic form rather than (1+b2)*p*r/(b2*p + r): it keeps the
    result inside [0, 1] under rounding and makes the beta = 1 case
    identical to F1. Where beta_sq/recall overflows for a finite beta_sq,
    the form multiplied through by the recall keeps the large-beta
    limit, the recall. An infinite beta_sq gives inf/inf, NaN.
    """
    scaled = beta_sq / recall
    if scaled == math.inf and beta_sq != math.inf:
        return recall * (1.0 + beta_sq) / (beta_sq + recall / precision)
    return (1.0 + beta_sq) / (scaled + 1.0 / precision)


def f_beta_score(beta_sq: float, recall: float, precision: float) -> float | None:
    """F-beta score from recall and precision, with beta_sq = beta**2 (_f_beta_harmonic).

    None when recall and precision are both zero (the score is 0/0) or
    beta_sq is infinite (inf/inf); 0.0 when exactly one of them is zero.
    """
    if beta_sq == math.inf or beta_sq * precision + recall == 0.0:
        return None
    if recall == 0.0 or precision == 0.0:
        return 0.0
    return _f_beta_harmonic(beta_sq, recall, precision)


def f1_at(profile: DiagnosticProfile, phi: float) -> Rate:
    """F1 score at prevalence ``phi``: harmonic mean of precision and recall."""
    a = float(profile.sensitivity)
    rho = float(ppv_at(profile, phi))
    if a == 0.0 or rho == 0.0:
        raise UndefinedMetric("F1 needs positive recall and precision")
    return Rate(f_beta_score(1.0, a, rho))


def f_beta_at(profile: DiagnosticProfile, phi: float, beta: float) -> Rate:
    """F-beta score at prevalence ``phi``: weighted harmonic mean of precision and recall.

    At beta = 1 it equals :func:`f1_at` bit for bit wherever f1_at returns
    a value. Where precision is zero and recall positive (phi = 0), f1_at
    raises UndefinedMetric and this returns 0.
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
    positive. The product is rounded to a float before its square
    root, so a perfect table such as (679773874, 0, 0, 93) can come out
    a rounding outside [-1, 1]; the result is clamped to [-1, 1]. Where
    that product overflows a float, the MCC is the signed square root of
    the exact integer ratio (tp*tn - fp*fn)**2 / product instead, which
    lies in [-1, 1] as it is.
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
        mcc = numerator / math.sqrt(product)
        return mcc if -1.0 <= mcc <= 1.0 else math.copysign(1.0, mcc)
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

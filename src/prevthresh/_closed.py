"""The paper's closed forms as float kernels: the thresholds, the predictive values there, and the bounded ratios.

phi_e and phi_n are one radical, _radical_split, of each curve's
quotient-form coefficients; PPV(phi_e) is the same radical swapped and
NPV(phi_n) is Bayes' rule there. The F-beta, Fowlkes-Mallows and MCC
ratios are _f_beta_form, _fm_form and _threshold_mcc's quotient. Each
is written once, here, over floats or (where it takes sqrt as a
parameter) numpy arrays. The raising per-profile functions of
thresholds and bounds, the reports (threshold_summary, analyze_counts,
`ratios --json`), the bound sweep's arrays (_arrays) and the curvature
oracle's scan (thresholds._curvature_bracket) all call them.

This module imports only math and metrics' kernels, so a CLI call that
reports closed forms (thresholds, ratios --json, analyze --counts)
compiles neither thresholds, with its curvature oracle, nor bounds,
with its sweep.
"""

from __future__ import annotations

import math

from .metrics import _bayes, _chance_flags, _flat_value, _labelled_betas, _mcc_form, _predictive_value

# F-beta weights swept by verify_bounds and reported by analyze_counts
# by default.
SWEEP_BETAS = (0.5, 1.0, 2.0)


def _beta_keys(betas: dict[str, float]) -> tuple[tuple[str, str, float], ...]:
    """Each labelled beta (metrics._labelled_betas) as its metric key, its ratio key and beta**2."""
    return tuple([(f"f_beta_{label}", f"f_beta_{label}_ratio", beta * beta) for label, beta in betas.items()])


# SWEEP_BETAS keyed once, for analyze_counts' default and the sweep.
_SWEEP_BETA_KEYS = _beta_keys(_labelled_betas(SWEEP_BETAS))


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


def _summary(a: float, b: float) -> dict:
    """threshold_summary's mapping of the plain-float rates a, b: both sides' pairs and metrics._chance_flags."""
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


def _ratio_values(
    a: float, b: float, beta_keys: tuple[tuple[str, str, float], ...], phi_e: float | None, phi_n: float | None
) -> dict[str, float | None]:
    """Every bounded ratio at the rates a, b, keyed <key>_ratio; None where undefined.

    The ratios of analyze_counts and `ratios --json`, composed here
    only, from beta_keys (_beta_keys) and the thresholds of
    _positive_side and _negative_side, which the caller has.
    Keys are f1, f_beta_<label> for each beta, fm and mcc, in order;
    each value is its ratio function's in bounds, by the same kernels.
    An entry is None where that function raises a PrevthreshError,
    decided by comparison: the F-family and FM ratios at sensitivity 0
    (no recall); the MCC ratio at the chance corners (0, 1) and (1, 0),
    where a threshold has p = q = 0 or a flat curve's value is 0/0, and
    where the MCC at phi_e is 0. A ratio that overflows (fm_ratio's inf
    at sensitivity 5e-324 with specificity 0) is returned as it is, not
    raised: each caller applies its own policy to it.
    """
    recall = a != 0.0
    values = {"f1_ratio": _f_beta_form(a, b, 1.0) if recall else None}
    for _, key, beta_sq in beta_keys:
        values[key] = _f_beta_form(a, b, beta_sq) if recall else None
    values["fm_ratio"] = _fm_form(a, b) if recall else None
    mcc = None
    if phi_e is not None and phi_n is not None:
        denominator = _threshold_mcc(a, b, phi_e)
        if denominator != 0.0:
            mcc = _threshold_mcc(a, b, phi_n) / denominator
    values["mcc_ratio"] = mcc
    return values

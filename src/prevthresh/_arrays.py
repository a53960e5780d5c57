"""Array kernels of the bound sweep.

Every numpy expression of the package lives here. No module imports
this one at load time: verify_bounds imports it when it is first
called, so every other path (the thresholds, the curvature oracle and
its scan, the ratio summary, analyze_counts, the curve emitters,
ingest and the CLI subcommands built on them) runs without loading
numpy.
simulate_population does not import it at all: it takes numpy from
sys.modules where numpy is loaded already. It imports only numpy,
_closed, bounds and metrics, and names the curves "ppv" and "npv" as
metrics' kernels take them, so verify-bounds compiles neither
thresholds nor dataio.

The predictive-value, ratio and MCC formulas are not repeated here:
predictive_arrays calls Bayes' rule and its flat-curve extension as
ppv_at, npv_at and mcc_at_threshold do (metrics._bayes,
metrics._flat_value), and the sweep calls the float-or-array kernels
the scalar functions use (_closed._f_beta_form, _closed._fm_form,
metrics._mcc_form, and _closed._radical_split for the thresholds)
with np.sqrt. So every value is bit-equal to the scalar one; the
scalar functions are the oracle the test suite checks these arrays
against.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ._closed import _SWEEP_BETA_KEYS, _f_beta_form, _fm_form, _radical_split
from .bounds import RATIO_BOUNDS, BoundRecord, BoundViolation
from .metrics import _bayes, _curve_coefficients, _flat_value, _mcc_form


def sweep_cells(axis: list[float], floor: float) -> tuple[np.ndarray, np.ndarray]:
    """The swept (a, b) cells of axis x axis, in sweep order (a outer, b inner).

    A cell is swept where b < 1 and a + b >= floor.
    """
    values = np.array(axis)
    # Row-major order of the kept (a, b) pairs is the sweep order.
    rows, cols = np.nonzero((values[None, :] < 1.0) & (values[:, None] + values[None, :] >= floor))
    return values[rows], values[cols]


def predictive_arrays(a: np.ndarray, b: np.ndarray, curve: str, phi: np.ndarray) -> np.ndarray:
    """The "ppv" or "npv" curve's predictive value at every cell by Bayes' rule (metrics._bayes), extended where its u is 0.

    ppv_at's and npv_at's kernel, so every value where u is not 0 is
    bit-equal to theirs. A zero-u cell is a flat curve and takes its
    constant value, metrics._flat_value: 1 where the curve has no
    misses, 0 where it has no hits, NaN where it has neither; this is
    mcc_at_threshold's continuity extension.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        num, den = _bayes(a, b, curve, phi)
        values = num / den
        del num
        gap = np.flatnonzero(den == 0.0)
        values[gap] = _flat_value(a[gap], b[gap], curve)
    return values


def _mcc_ratio_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """mcc_ratio at every cell (a[i], b[i]); NaN where the scalar path raises.

    At each threshold (the radical of _closed._positive_side, then
    _negative_side; NaN where their phi is None) the MCC is
    mcc_from_rates' kernel _mcc_form over the PPV and NPV with
    mcc_at_threshold's continuity extension. At a = 1, phi_n is 1, the
    NPV denominator is 0 and sigma takes the flat curve's value 1.
    """
    mcc = []
    with np.errstate(divide="ignore", invalid="ignore"):
        # Each temporary is dropped as soon as it is used, to bound peak memory.
        for curve in ("ppv", "npv"):
            p, q, _ = _curve_coefficients(a, b, curve)
            phi = _radical_split(p, q, np.sqrt)
            del p, q
            rho = predictive_arrays(a, b, "ppv", phi)
            sigma = predictive_arrays(a, b, "npv", phi)
            del phi
            mcc.append(_mcc_form(rho, a, b, sigma, np.sqrt))
            del rho, sigma
        denominator, numerator = mcc
        return np.where(denominator != 0.0, numerator / denominator, np.nan)


def ratio_arrays(a: np.ndarray, b: np.ndarray) -> Iterator[tuple[str, np.ndarray]]:
    """Every swept ratio as (key, values at every cell), keyed and ordered as RATIO_BOUNDS.

    f1_ratio's, f_beta_ratio's and fm_ratio's kernels (_f_beta_form,
    _fm_form) with np.sqrt, then _mcc_ratio_arrays, so each value is
    bit-equal to the per-profile function's. Needs a > 0,
    which the swept region guarantees. Yields one array at a time so a
    consumer that drops each before asking for the next holds at most
    one ratio array at once.
    """
    yield "f1", _f_beta_form(a, b, 1.0, np.sqrt)
    for key, _, beta_sq in _SWEEP_BETA_KEYS:
        yield key, _f_beta_form(a, b, beta_sq, np.sqrt)
    yield "fm", _fm_form(a, b, np.sqrt)
    yield "mcc", _mcc_ratio_arrays(a, b)


def bound_record(key: str, values: np.ndarray, a: np.ndarray, b: np.ndarray, tolerance: float) -> BoundRecord:
    """Extrema, violations and skipped (NaN) cells of one ratio over the swept cells, in sweep order."""
    lower, upper = RATIO_BOUNDS[key]
    ok = ~np.isnan(values)
    v, va, vb = values[ok], a[ok], b[ok]
    observed_min = observed_max = argmin = argmax = None
    if v.size:
        # argmin/argmax return the first occurrence: the earliest cell in sweep order.
        i, j = int(np.argmin(v)), int(np.argmax(v))
        observed_min, argmin = float(v[i]), (float(va[i]), float(vb[i]))
        observed_max, argmax = float(v[j]), (float(va[j]), float(vb[j]))
    bad = (v < lower - tolerance) | (v > upper + tolerance)
    violations = tuple(
        BoundViolation(sensitivity=sa, specificity=sb, value=value, lower=lower, upper=upper)
        for sa, sb, value in zip(va[bad].tolist(), vb[bad].tolist(), v[bad].tolist())
    )
    return BoundRecord(
        metric=key,
        lower=lower,
        upper=upper,
        cells=int(v.size),
        observed_min=observed_min,
        observed_max=observed_max,
        argmin=argmin,
        argmax=argmax,
        violations=violations,
        skipped=tuple(zip(a[~ok].tolist(), b[~ok].tolist())),
    )

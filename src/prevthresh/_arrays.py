"""Array kernels of the bulk paths: the bound sweep and the curvature scan.

Every numpy expression of the package lives here. No module imports
this one at load time: verify_bounds and curvature_argmax import it
when they are first called, so the scalar paths (the thresholds, the
ratio summary, analyze_counts, the curve emitters and the CLI
subcommands built on them) start without loading numpy.
simulate_population does not import it at all: it takes numpy from
sys.modules where numpy is loaded already.

The predictive-value, ratio and MCC formulas are not repeated here:
predictive_arrays calls Bayes' rule and its flat-curve extension as
ppv_at, npv_at and mcc_at_threshold do (metrics._bayes,
metrics._flat_value), and the sweep calls the float-or-array kernels
the scalar functions use (bounds._f_beta_form, bounds._fm_form,
metrics._mcc_form, and thresholds._radical_split for the thresholds)
with np.sqrt. So every value is bit-equal to the scalar one; the
scalar functions are the oracle the test suite checks these arrays
against.

The curvature scan is the exception: _kappa_grid, the package's only
array form of the curvature, is a cleared form of its own, and
curvature_bracket's contract is the argmax of _kappa_grid over the
whole cached grid, so its values define the oracle's bracket. The same
_kappa_grid function also takes a Python float: curvature_bracket
finds the argmax on floats at a few grid points (a climb from the
closed-form threshold's grid point, then _certified_argmax's check
that the point exceeds both grid neighbours by a margin far above the
few-ulp gap between the two evaluations) and evaluates the whole
10,001-point grid with numpy only where that check fails. The climb
and the check read only _kappa_grid's values, so the closed form sets
where the climb starts and nothing else: from any start the result is
the full scan's. The test suite checks the bracket against a full scan
on a dense profile set, the closed-form start's distance from the full
scan's argmax, the result from starts far from the peak, and the gap
between the float and the array values.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator

import numpy as np

from .bounds import _SWEEP_BETA_KEYS, RATIO_BOUNDS, BoundRecord, BoundViolation, _f_beta_form, _fm_form
from .metrics import _bayes, _curve_coefficients, _flat_value, _mcc_form
from .thresholds import COARSE_STEP, Curve, _radical_split


# --- the curvature scan (thresholds) ----------------------------------------------


def _kappa_grid(p: float, q: float) -> Callable:
    """Curvature of the curve with coefficients (p, q) as a function of prevalence, for the coarse scan.

    The function takes a float or an array of prevalences and applies the
    same floating-point operations in the same order to either, with
    the prevalence-free factors computed once per curve. It is
    _kappa_kernel's formula cleared of negative powers of u, so its
    values round differently from the kernel's; the scan's bracket, and
    so curvature_argmax's result, is defined by its values on the grid
    array.
    """
    pq = p * q
    gap = 2.0 * pq * abs(p - q)
    pq2 = pq * pq

    def kappa(xs):
        u = p * xs + q * (1.0 - xs)
        # kappa = 2*pq*|p-q|/u^3 / (1 + (pq)^2/u^4)^(3/2), cleared of negative powers.
        return gap * u**3 / (u**4 + pq2) ** 1.5

    return kappa


# The Python path of curvature_bracket accepts a grid index only where its
# value exceeds both grid neighbours' by the relative _TIE_MARGIN, far above
# the few-ulp gap between numpy's and Python's _kappa_grid values at a point.
_TIE_MARGIN = 1e-12
# Grid points the full scan evaluates at once: its temporaries stay a few
# kilobytes, so a scan does not grow the heap as 10,001-point ones would
# (whole-grid scans raised perfbench validate's peak_rss_mb by ~0.2 MB, in
# ten paired 30-second runs on a 2-core machine).
_SCAN_BLOCK = 1024
# Floor on the smallest numerator and denominator of _kappa_grid over
# [0, 1], some 1e8 above the smallest normal float: above it every value
# and intermediate is a normal float, except that one of u**4 and pq**2
# may underflow where it is negligible beside the other.
_NORMAL_FLOOR = 1e-300


@functools.cache
def _coarse_grid() -> np.ndarray:
    """The scan grid {0, COARSE_STEP, ..., 1}, read-only."""
    xs = np.linspace(0.0, 1.0, round(1.0 / COARSE_STEP) + 1)
    xs.flags.writeable = False
    return xs


def _scan_is_normal(p: float, q: float) -> bool:
    """Whether _kappa_grid's numerator and denominator clear _NORMAL_FLOOR at every prevalence in [0, 1].

    Both grow with u = p*phi + q*(1-phi), so they are checked at u's
    smallest value, min(p, q) (p and q are a curve's coefficients, in
    [0, 1]).
    """
    k = p * q
    u_min = min(p, q)
    return 2.0 * k * abs(p - q) * u_min**3 >= _NORMAL_FLOOR and (u_min**4 + k * k) ** 1.5 >= _NORMAL_FLOOR


def _certified_argmax(p: float, q: float) -> int | None:
    """The full scan's argmax, from _kappa_grid on Python floats; None where it is not certified.

    The search starts at the closed-form threshold's grid point,
    round(_radical_split(p, q) * n), climbs the grid to a local maximum
    of kappa's Python values (_kappa_grid's), then accepts it only where
    it exceeds both grid neighbours by the relative _TIE_MARGIN. kappa
    is unimodal in phi: with u = p*phi + q*(1-phi) and k = p*q, dkappa/du is
    proportional to u**2 * (k**2 - u**4), and u is monotone in phi. The
    Python values are within a few ulps of the exact ones, so the exact
    grid values, which rise to one peak and then fall, peak at that
    index too, and every other grid value lies at or below the
    neighbour on its side, so below the peak by the margin less a few
    ulps. numpy's values on the grid array differ from the exact ones by
    a few ulps as well (u is bit-equal, and only the powers and the
    quotient round apart), so the index is numpy's argmax, with no tie.
    The ulp bound holds only when every intermediate is a normal float,
    which _scan_is_normal checks first; then no value is NaN or
    infinite either. The argument never uses the start: it only saves
    climbing steps, and a certified index is the full scan's argmax
    whatever the closed form gives.
    """
    if not _scan_is_normal(p, q):
        return None
    kappa = _kappa_grid(p, q)
    xs = _coarse_grid()
    n = xs.size - 1

    def at(i: int) -> float:
        return kappa(xs.item(i)) if 0 <= i <= n else -math.inf

    j = round(_radical_split(p, q) * n)
    left, top, right = at(j - 1), at(j), at(j + 1)
    while left > top:
        j -= 1
        left, top, right = at(j - 1), left, top
    while right > top:
        j += 1
        left, top, right = top, right, at(j + 1)
    bar = top * (1.0 - _TIE_MARGIN)
    if not (math.isfinite(top) and left < bar and right < bar):
        return None
    return j


def _full_scan_argmax(p: float, q: float) -> int:
    """np.argmax of _kappa_grid over the whole grid: the first NaN, else the first largest value.

    Evaluated with numpy a block of _SCAN_BLOCK grid points at a time;
    _kappa_grid acts elementwise, so a block's values are the whole
    grid's at the same indices, bit for bit. numpy's floating-point
    warnings are silenced: a NaN or underflow here is part of the scan's
    result, not an error.
    """
    kappa = _kappa_grid(p, q)
    xs = _coarse_grid()
    best, top = 0, -math.inf
    with np.errstate(all="ignore"):
        for start in range(0, xs.size, _SCAN_BLOCK):
            values = kappa(xs[start : start + _SCAN_BLOCK])
            i = int(values.argmax())
            value = values.item(i)
            if value != value:
                return start + i
            if value > top:
                best, top = start + i, value
    return best


def curvature_bracket(p: float, q: float) -> tuple[float, float]:
    """The coarse scan of curvature_argmax: the grid neighbours of the largest curvature.

    Scans {0, COARSE_STEP, ..., 1} with _kappa_grid; ties go to the smaller
    prevalence, a NaN value counts as largest (numpy's argmax), and the
    bracket is clipped to [0, 1]. The argmax comes from Python floats at
    a few grid points where _certified_argmax certifies it, and
    otherwise from evaluating every grid point with numpy
    (_full_scan_argmax); either way the bracket is the full scan's.
    """
    xs = _coarse_grid()
    i = _certified_argmax(p, q)
    if i is None:
        i = _full_scan_argmax(p, q)
    return xs.item(max(i - 1, 0)), xs.item(min(i + 1, xs.size - 1))


# --- the bound sweep (bounds) ----------------------------------------------------


def sweep_cells(axis: list[float], floor: float) -> tuple[np.ndarray, np.ndarray]:
    """The swept (a, b) cells of axis x axis, in sweep order (a outer, b inner).

    A cell is swept where b < 1 and a + b >= floor.
    """
    values = np.array(axis)
    # Row-major order of the kept (a, b) pairs is the sweep order.
    rows, cols = np.nonzero((values[None, :] < 1.0) & (values[:, None] + values[None, :] >= floor))
    return values[rows], values[cols]


def predictive_arrays(a: np.ndarray, b: np.ndarray, curve: Curve, phi: np.ndarray) -> np.ndarray:
    """The curve's predictive value at every cell by Bayes' rule (metrics._bayes), extended where its u is 0.

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

    At each threshold (the radical of thresholds._positive_side, then
    _negative_side; NaN where their phi is None) the MCC is
    mcc_from_rates' kernel _mcc_form over the PPV and NPV with
    mcc_at_threshold's continuity extension. At a = 1, phi_n is 1, the
    NPV denominator is 0 and sigma takes the flat curve's value 1.
    """
    mcc = []
    with np.errstate(divide="ignore", invalid="ignore"):
        # Each temporary is dropped as soon as it is used, to bound peak memory.
        for curve in (Curve.PPV, Curve.NPV):
            p, q, _ = _curve_coefficients(a, b, curve)
            phi = _radical_split(p, q, np.sqrt)
            del p, q
            rho = predictive_arrays(a, b, Curve.PPV, phi)
            sigma = predictive_arrays(a, b, Curve.NPV, phi)
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

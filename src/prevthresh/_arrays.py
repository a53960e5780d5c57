"""Array kernels of the bulk paths: the bound sweep, the curve emitters, the curvature scan.

Every numpy expression of the package lives here. No module imports
this one at load time: verify_bounds, emit_curves, emit_ratio_curves,
curvature_argmax and simulate_population import it when they are
first called, so the scalar paths (the thresholds, the ratio summary,
analyze_counts and the CLI subcommands built on them) start without
loading numpy.

The ratio and MCC closed forms are not repeated here: the sweep calls
the float-or-array kernels the scalar functions use (bounds._f_beta_form,
bounds._fm_form, metrics._mcc_form) with np.sqrt. Every other kernel
repeats the floating-point operations of the scalar function it stands
for, in that function's order. Either way every value is bit-equal to
the scalar one; the scalar functions are the oracle the test suite
checks these arrays and the bytes written from them against.

The curvature scan is the exception: _kappa_grid is its own cleared
form of the curvature, and curvature_bracket's contract is the argmax
of _kappa_grid over the whole cached grid. It evaluates _kappa_grid on
a strided subsample for a hint and then on a window of ~330 grid points
around it, and accepts the window's argmax only when it is certified
to be the whole grid's (_window_argmax: normal intermediates, inner
window edges clearly below the maximum of a unimodal curvature);
otherwise it falls back to the full 10,001-point scan. The test suite
checks the bracket against a full scan on a dense profile set.
"""

from __future__ import annotations

import functools
import math
from typing import IO, Iterator

import numpy as np

from .bounds import RATIO_BOUNDS, SWEEP_BETAS, BoundRecord, BoundViolation, _f_beta_form, _fm_form
from .dataio import _BLOCK_ROWS
from .metrics import Rate, _mcc_form
from .thresholds import Curve, _curve_coefficients, _radical_split


# --- predictive values and curvature (thresholds) -------------------------------


def predictive_arrays(a, b, curve: Curve, phi: np.ndarray, extend: bool = False) -> np.ndarray:
    """The curve's predictive value at every phi by Bayes' rule; NaN where its denominator is 0.

    PPV is p*phi / u and NPV is q*(1-phi) / u (see _curve_coefficients),
    ppv_at's and npv_at's operations, so every defined value is
    bit-equal to theirs (IEEE addition commutes). With extend (a and b
    arrays), a zero-denominator cell is a flat curve and takes its
    constant value, hits / (hits + misses) of the rates: 1 where the
    curve has no misses, 0 where it has no hits, NaN where it has
    neither; this is mcc_at_threshold's continuity extension.
    """
    p, q, _ = _curve_coefficients(a, b, curve)
    hit = 0 if curve == Curve.PPV else 1
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (p * phi, q * (1.0 - phi))
        den = terms[0] + terms[1]
        values = terms[hit] / den
        del terms
        if extend:
            gap = np.flatnonzero(den == 0.0)
            rates = (p[gap], q[gap])
            values[gap] = rates[hit] / (rates[0] + rates[1])
    return values


def _pow_1_5(x: float) -> float:
    try:
        return x**1.5
    except OverflowError:
        return math.nan


def curvature_arrays(a: float, b: float, curve: Curve, phi: np.ndarray) -> np.ndarray:
    """curvature_at(DiagnosticProfile(a, b), phi[i], curve).kappa at every i; NaN where it raises.

    Repeats curvature_at's operations in its order, so every defined
    value is bit-equal to the scalar one. The power (1 + slope**2)**1.5
    is taken with Python floats, because numpy's vectorized power is
    not the platform pow and differs from it in the last digit.
    """
    p, q, sign = _curve_coefficients(a, b, curve)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = p * phi + q * (1.0 - phi)
        u2 = u * u
        u3 = u2 * u
        pq = p * q
        slope = sign * pq / u2
        second = 2.0 * pq * abs(p - q) / u3
        scale = np.array([_pow_1_5(x) for x in (1.0 + slope * slope).tolist()])
        return np.where((u3 != 0.0) & ~np.isnan(scale), second / scale, np.nan)


def _kappa_grid(p: float, q: float, xs: np.ndarray) -> np.ndarray:
    """Vectorized curvature of the curve with coefficients (p, q) over a prevalence grid (same algebra as curvature_at)."""
    u = p * xs + q * (1.0 - xs)
    pq = p * q
    # kappa = 2*pq*|p-q|/u^3 / (1 + (pq)^2/u^4)^(3/2), cleared of negative powers.
    return 2.0 * pq * abs(p - q) * u**3 / (u**4 + pq * pq) ** 1.5


# The certified window of curvature_bracket: the hint comes from every
# _HINT_STRIDE-th grid point, the window reaches _WINDOW_SLACK points past
# a stride on each side of it, and a window edge must lie below the
# window's maximum by the relative _EDGE_MARGIN, far above the few-ulp
# error of a _kappa_grid value.
_HINT_STRIDE = 100
_WINDOW_SLACK = 64
_EDGE_MARGIN = 1e-9
# Floor on the smallest numerator and denominator of _kappa_grid over
# [0, 1], some 1e8 above the smallest normal float: above it every value
# and intermediate is a normal float, except that one of u**4 and pq**2
# may underflow where it is negligible beside the other.
_NORMAL_FLOOR = 1e-300


@functools.cache
def _coarse_grid(step: float) -> tuple[np.ndarray, np.ndarray]:
    """The scan grid {0, step, ..., 1} and its every _HINT_STRIDE-th point, both read-only."""
    xs = np.linspace(0.0, 1.0, round(1.0 / step) + 1)
    hint_xs = xs[::_HINT_STRIDE].copy()
    xs.flags.writeable = hint_xs.flags.writeable = False
    return xs, hint_xs


def _window_argmax(p: float, q: float, step: float) -> int | None:
    """The full scan's argmax, read off a window of the grid; None where the window is not certified.

    kappa is unimodal in phi: with u = p*phi + q*(1-phi) and k = p*q,
    dkappa/du is proportional to u**2 * (k**2 - u**4), and u is monotone
    in phi. So once the window's edges (other than the grid's ends) lie
    below its maximum by _EDGE_MARGIN, every value outside it is below
    that maximum too, and the window's first argmax is the full scan's.
    The window's values are the full grid's at the same indices, bit for
    bit, because _kappa_grid acts elementwise on a contiguous slice. The
    margin bounds rounding error only when every intermediate is a
    normal float, which _NORMAL_FLOOR checks at u's smallest value,
    min(p, q), where both the numerator and the denominator are smallest
    (p and q are a curve's coefficients, in [0, 1]).
    """
    k = p * q
    u_min = min(p, q)
    if not (2.0 * k * abs(p - q) * u_min**3 >= _NORMAL_FLOOR and (u_min**4 + k * k) ** 1.5 >= _NORMAL_FLOOR):
        return None
    xs, hint_xs = _coarse_grid(step)
    hint = int(_kappa_grid(p, q, hint_xs).argmax()) * _HINT_STRIDE
    start = max(hint - _HINT_STRIDE - _WINDOW_SLACK, 0)
    stop = min(hint + _HINT_STRIDE + _WINDOW_SLACK + 1, xs.size)
    window = _kappa_grid(p, q, xs[start:stop])
    i = int(window.argmax())
    top = float(window[i])
    # argmax picks a NaN or an infinity if there is one (no value is negative),
    # so a finite maximum means every window value is finite.
    if not math.isfinite(top):
        return None
    floor = top * (1.0 - _EDGE_MARGIN)
    if (start > 0 and float(window[0]) >= floor) or (stop < xs.size and float(window[-1]) >= floor):
        return None
    return start + i


def curvature_bracket(p: float, q: float, step: float) -> tuple[float, float]:
    """The coarse scan of curvature_argmax: the grid neighbours of the largest curvature.

    Scans {0, step, ..., 1} with _kappa_grid; ties go to the smaller
    prevalence, a NaN value counts as largest (numpy's argmax), and the
    bracket is clipped to [0, 1]. The scan reads the argmax off a
    certified window around a strided hint (_window_argmax) and falls
    back to evaluating every grid point where the window is not
    certified; either way the bracket is the full scan's. numpy's
    floating-point warnings are silenced: a NaN or underflow here is
    part of the scan's result, not an error.
    """
    xs, _ = _coarse_grid(step)
    with np.errstate(all="ignore"):
        i = _window_argmax(p, q, step)
        if i is None:
            i = int(np.argmax(_kappa_grid(p, q, xs)))
    return float(xs[max(i - 1, 0)]), float(xs[min(i + 1, xs.size - 1)])


# --- the bound sweep (bounds) ----------------------------------------------------


def sweep_cells(axis: list[float], floor: float) -> tuple[np.ndarray, np.ndarray]:
    """The swept (a, b) cells of axis x axis, in sweep order (a outer, b inner).

    A cell is swept where b < 1 and a + b >= floor.
    """
    values = np.array(axis)
    # Row-major order of the kept (a, b) pairs is the sweep order.
    rows, cols = np.nonzero((values[None, :] < 1.0) & (values[:, None] + values[None, :] >= floor))
    return values[rows], values[cols]


def _mcc_ratio_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """mcc_ratio at every cell (a[i], b[i]); NaN where the scalar path raises.

    At each threshold (the radical of _threshold_phi for the PPV curve,
    then the NPV curve; NaN at the profiles it rejects) the MCC is
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
            rho = predictive_arrays(a, b, Curve.PPV, phi, extend=True)
            sigma = predictive_arrays(a, b, Curve.NPV, phi, extend=True)
            del phi
            mcc.append(_mcc_form(rho, a, b, sigma, np.sqrt))
            del rho, sigma
        denominator, numerator = mcc
        return np.where(denominator != 0.0, numerator / denominator, np.nan)


def ratio_arrays(a: np.ndarray, b: np.ndarray) -> Iterator[tuple[str, np.ndarray]]:
    """Every ratio of ratio_table() as (key, values at every cell), keyed alike and in its order.

    f1_ratio's, f_beta_ratio's and fm_ratio's kernels (_f_beta_form,
    _fm_form) with np.sqrt, then _mcc_ratio_arrays, so each value is
    bit-equal to the per-profile function's. Needs a > 0,
    which the swept region guarantees. Yields one array at a time so a
    consumer that drops each before asking for the next holds at most
    one ratio array at once.
    """
    yield "f1", _f_beta_form(a, b, 1.0, np.sqrt)
    for beta in SWEEP_BETAS:
        yield f"f_beta_{beta:g}", _f_beta_form(a, b, beta * beta, np.sqrt)
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


# --- the curve emitters (dataio) ---------------------------------------------------


def curve_columns(a: float, b: float, grid: list[float]) -> list[np.ndarray]:
    """emit_curves' ppv, npv, kappa_ppv and kappa_npv columns over the prevalence grid."""
    phi = np.array(grid)
    columns = [predictive_arrays(a, b, curve, phi) for curve in Curve]
    columns += [curvature_arrays(a, b, curve, phi) for curve in Curve]
    return columns


def ratio_curve_columns(a: float, b: float, beta_squares: list[float], grid: list[float]) -> list[np.ndarray]:
    """emit_ratio_curves' columns: an F-score for each beta**2 in beta_squares, then FM.

    A cell is reference / score over the PPV array rho, NaN where the
    score is not positive; emit_ratio_curves gives the formulas. Needs
    a > 0.
    """

    def f_score(beta_sq: float):
        return lambda rho: (1.0 + beta_sq) / (beta_sq / a + 1.0 / rho)

    scores = [f_score(beta_sq) for beta_sq in beta_squares]
    scores.append(lambda rho: np.sqrt(a * rho))
    # A reference is a rate, like the scalar metric's; an overflowing beta**2 makes it NaN.
    references = [Rate(score(1.0)) for score in scores]

    rho = predictive_arrays(a, b, Curve.PPV, np.array(grid))
    columns = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for score, reference in zip(scores, references):
            values = score(rho)
            columns.append(np.where(values > 0.0, reference / values, np.nan))
    return columns


def _cells(values: np.ndarray) -> list[str]:
    """repr of each value; NaN, the mark of an undefined cell, becomes an empty field."""
    return ["" if v != v else repr(v) for v in values.tolist()]


def write_grid(sink: IO, header: list[str], grid: list[float], columns: list[np.ndarray]) -> None:
    """Write the header, then one row per grid point: phi and each column's cell there.

    Rows are formatted and written _BLOCK_ROWS at a time. No field
    needs csv quoting: the header names are plain words and every cell
    is a float repr or empty.
    """
    sink.write(",".join(header) + "\n")
    for start in range(0, len(grid), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        fields = [list(map(repr, grid[start:stop]))] + [_cells(col[start:stop]) for col in columns]
        sink.write("\n".join(map(",".join, zip(*fields))) + "\n")

"""The curvature oracle's coarse scan, on Python floats.

curvature_argmax brackets the curvature's maximizer between the grid
neighbours of the largest curvature value over the 10,001 prevalences
i * COARSE_STEP, i = 0, ..., 10000 (np.linspace(0, 1, 10001)'s values,
bit for bit). The values are those of the closure of
thresholds._kappa_kernel, the package's one curvature arithmetic, which
curvature_argmax builds once for this scan and its golden-section
refinement. Where the kernel raises DegenerateDenominator (u**3
underflows or the slope term overflows) the scan reads NaN, as the CSV
kappa columns do: both go through thresholds._kappa_column.
curvature_argmax imports this module on its first call, so no other
path compiles it, and nothing here loads numpy.

curvature_bracket finds the argmax at a few grid points where it can (a
climb from the closed-form threshold's grid point, then
_certified_argmax's check that the point exceeds both grid neighbours
by a margin far above the values' few-ulp error) and evaluates the
whole grid only where that check fails. The climb and the check read
only the kernel's values, so the closed form sets where the climb
starts and nothing else: from any start the result is the full scan's.
The test suite checks the bracket against a full scan of an independent
copy of the arithmetic on a dense profile set, the closed-form start's
distance from the full scan's argmax, the result from starts far from
the peak, and the values' error against 50-digit arithmetic.
"""

from __future__ import annotations

import math

from ._closed import _radical_split
from .thresholds import COARSE_STEP, _kappa_column

# The grid's last index: the grid is i * COARSE_STEP for i in 0.._N, and _N * COARSE_STEP is 1.0.
_N = round(1.0 / COARSE_STEP)
# The climb accepts a grid index only where its value exceeds both grid
# neighbours' by this relative margin, far above the values' few-ulp error.
_TIE_MARGIN = 1e-12
# Floor on u**3 and on the curvature over [0, 1], some 1e8 above the
# smallest normal float: above it every intermediate of the kernel is a
# normal float, except that slope**2 may underflow where it is
# negligible beside 1.
_NORMAL_FLOOR = 1e-300
# Grid points the full scan evaluates at once.
_SCAN_BLOCK = 1024


def _scan_is_normal(kappa, p: float, q: float) -> bool:
    """Whether every intermediate of kappa, the kernel of the curve (p, q), is a normal float at every prevalence in [0, 1].

    With u = p*phi + q*(1-phi), which runs between p and q, and k = p*q,
    the kernel computes u**3, the slope k/u**2, (1 + slope**2)**1.5 and
    the quotient gap/u**3/(1 + slope**2)**1.5. u**3 grows with u, so it
    is checked at u's smallest value, min(p, q). Where it clears
    _NORMAL_FLOOR, min(p, q) >= 1e-100, and since k <= min(p, q) the
    slope is at most 1/min(p, q) <= 1e100: the 1.5th power stays below
    1e300 and gap/u**3 below 1e300, and the kernel raises nowhere. The
    quotient is unimodal in u, so its smallest values are at the
    curve's ends, kappa(0.0) (u = q) and kappa(1.0) (u = p), which are
    checked last.
    """
    u = min(p, q)
    return u * u * u >= _NORMAL_FLOOR and min(kappa(0.0), kappa(1.0)) >= _NORMAL_FLOOR


def _certified_argmax(kappa, p: float, q: float) -> int | None:
    """The full scan's argmax from a few grid points; None where it is not certified.

    The search starts at the closed-form threshold's grid point,
    round(_radical_split(p, q) * _N), climbs the grid to a local maximum
    of kappa's values, then accepts it only where it exceeds both grid
    neighbours by the relative _TIE_MARGIN. kappa is unimodal in phi:
    with u = p*phi + q*(1-phi) and k = p*q, dkappa/du is proportional
    to u**2 * (k**2 - u**4), and u is monotone in phi. The kernel
    computes gap = 2*k*|p - q| and k once per curve, so their rounding
    is shared by every value, and the values lie within a few ulps of
    gap * u**3 / (u**4 + k**2)**1.5 for those computed constants. Those
    exact grid values rise to one peak and then fall, so they peak at
    the accepted index too, and every other grid value lies at or below
    the neighbour on its side, so below the peak by the margin less a
    few ulps: the index is the full scan's argmax, with no tie. The ulp
    bound holds only when every intermediate is a normal float, which
    _scan_is_normal checks first; then no value is NaN or infinite
    either. The argument never uses the start: it only saves climbing
    steps, and a certified index is the full scan's argmax whatever the
    closed form gives.
    """
    if not _scan_is_normal(kappa, p, q):
        return None

    def at(i: int) -> float:
        return kappa(i * COARSE_STEP) if 0 <= i <= _N else -math.inf

    j = round(_radical_split(p, q) * _N)
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


def _full_scan_argmax(kappa) -> int:
    """The argmax of kappa's values over the whole grid, NaN where it raises: the first NaN, else the first largest value.

    The grid is evaluated _SCAN_BLOCK points at a time, so the scan
    holds no list of all its values.
    """
    best, top = 0, -math.inf
    for start in range(0, _N + 1, _SCAN_BLOCK):
        block = range(start, min(start + _SCAN_BLOCK, _N + 1))
        for i, value in zip(block, _kappa_column(kappa, [i * COARSE_STEP for i in block])):
            if value != value:
                return i
            if value > top:
                best, top = i, value
    return best


def curvature_bracket(kappa, p: float, q: float) -> tuple[float, float]:
    """The coarse scan of curvature_argmax: the grid neighbours of the largest curvature.

    kappa is thresholds._kappa_kernel's closure for the curve with
    coefficients (p, q). Scans {0, COARSE_STEP, ..., 1} with it, reading
    NaN where it raises; ties go to the smaller prevalence, a NaN value
    counts as largest, and the bracket is clipped to [0, 1]. The argmax
    comes from a few grid points where _certified_argmax certifies it,
    and otherwise from every grid point (_full_scan_argmax); either way
    the bracket is the full scan's.
    """
    i = _certified_argmax(kappa, p, q)
    if i is None:
        i = _full_scan_argmax(kappa)
    return max(i - 1, 0) * COARSE_STEP, min(i + 1, _N) * COARSE_STEP

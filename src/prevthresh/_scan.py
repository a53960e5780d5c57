"""The curvature oracle's coarse scan, on Python floats.

curvature_argmax brackets the curvature's maximizer between the grid
neighbours of the largest _kappa_grid value over the 10,001 prevalences
i * COARSE_STEP, i = 0, ..., 10000 (np.linspace(0, 1, 10001)'s values,
bit for bit). It imports this module on its first call, so no other
path compiles it, and nothing here loads numpy.

_kappa_grid is _kappa_kernel's formula cleared of negative powers of u,
so its values round differently from the kernel's; its values on the
grid define the oracle's bracket. curvature_bracket finds their argmax
at a few grid points where it can (a climb from the closed-form
threshold's grid point, then _certified_argmax's check that the point
exceeds both grid neighbours by a margin far above the values' few-ulp
error) and evaluates the whole grid only where that check fails. The
climb and the check read only _kappa_grid's values, so the closed form
sets where the climb starts and nothing else: from any start the result
is the full scan's. The test suite checks the bracket against a full
scan on a dense profile set, the closed-form start's distance from the
full scan's argmax, the result from starts far from the peak, and the
values' error against 50-digit arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .thresholds import COARSE_STEP, _radical_split

# The grid's last index: the grid is i * COARSE_STEP for i in 0.._N, and _N * COARSE_STEP is 1.0.
_N = round(1.0 / COARSE_STEP)
# The climb accepts a grid index only where its value exceeds both grid
# neighbours' by this relative margin, far above the values' few-ulp error.
_TIE_MARGIN = 1e-12
# Floor on the smallest numerator and denominator of _kappa_grid over
# [0, 1], some 1e8 above the smallest normal float: above it every value
# and intermediate is a normal float, except that one of u**4 and pq**2
# may underflow where it is negligible beside the other.
_NORMAL_FLOOR = 1e-300


def _kappa_grid(p: float, q: float) -> Callable[[float], float]:
    """Curvature of the curve with coefficients (p, q) as a function of a float prevalence, for the coarse scan.

    _kappa_kernel's formula cleared of negative powers of u, with the
    prevalence-free factors computed once per curve. Where the
    denominator is 0 the value is NaN over a zero numerator (0/0) and
    inf otherwise (x/0): the full scan takes the first NaN as its
    argmax, and an inf exceeds every finite value.
    """
    pq = p * q
    gap = 2.0 * pq * abs(p - q)
    pq2 = pq * pq

    def kappa(x: float) -> float:
        u = p * x + q * (1.0 - x)
        # kappa = 2*pq*|p-q|/u^3 / (1 + (pq)^2/u^4)^(3/2), cleared of negative powers.
        numerator = gap * u**3
        denominator = (u**4 + pq2) ** 1.5
        if denominator == 0.0:
            return math.nan if numerator == 0.0 else math.inf
        return numerator / denominator

    return kappa


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
    """The full scan's argmax from a few grid points; None where it is not certified.

    The search starts at the closed-form threshold's grid point,
    round(_radical_split(p, q) * _N), climbs the grid to a local maximum
    of _kappa_grid's values, then accepts it only where it exceeds both
    grid neighbours by the relative _TIE_MARGIN. kappa is unimodal in
    phi: with u = p*phi + q*(1-phi) and k = p*q, dkappa/du is
    proportional to u**2 * (k**2 - u**4), and u is monotone in phi. The
    values are within a few ulps of the exact ones, so the exact grid
    values, which rise to one peak and then fall, peak at that index
    too, and every other grid value lies at or below the neighbour on
    its side, so below the peak by the margin less a few ulps: the
    index is the full scan's argmax, with no tie. The ulp bound holds
    only when every intermediate is a normal float, which
    _scan_is_normal checks first; then no value is NaN or infinite
    either. The argument never uses the start: it only saves climbing
    steps, and a certified index is the full scan's argmax whatever the
    closed form gives.
    """
    if not _scan_is_normal(p, q):
        return None
    kappa = _kappa_grid(p, q)

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


def _full_scan_argmax(p: float, q: float) -> int:
    """The argmax of _kappa_grid over the whole grid: the first NaN, else the first largest value."""
    kappa = _kappa_grid(p, q)
    best, top = 0, -math.inf
    for i in range(_N + 1):
        value = kappa(i * COARSE_STEP)
        if value != value:
            return i
        if value > top:
            best, top = i, value
    return best


def curvature_bracket(p: float, q: float) -> tuple[float, float]:
    """The coarse scan of curvature_argmax: the grid neighbours of the largest curvature.

    Scans {0, COARSE_STEP, ..., 1} with _kappa_grid; ties go to the
    smaller prevalence, a NaN value counts as largest, and the bracket
    is clipped to [0, 1]. The argmax comes from a few grid points where
    _certified_argmax certifies it, and otherwise from every grid point
    (_full_scan_argmax); either way the bracket is the full scan's.
    """
    i = _certified_argmax(p, q)
    if i is None:
        i = _full_scan_argmax(p, q)
    return max(i - 1, 0) * COARSE_STEP, min(i + 1, _N) * COARSE_STEP

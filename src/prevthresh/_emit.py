"""The CSV curve emitters' grid, columns and block writer, behind dataio.emit_curves and emit_ratio_curves.

dataio's emitters import this module on their first call, so importing
the package, and every CLI call that writes no curve CSV, compiles none
of it. write_grid describes the block pass, and the one block of phi
text it keeps for the next call with the same step.
"""

from __future__ import annotations

import io
import math
from collections.abc import Callable

from .metrics import DiagnosticProfile, _curve_coefficients, _f_beta_harmonic
from .thresholds import Curve, _kappa_column, _kappa_kernel

# Finest prevalence grid step of the curve emitters: a million rows.
MIN_PHI_STEP = 1e-6

# Most cells, the phi column's included, that write_grid evaluates and
# formats at once: some 160 bytes of memory each at the peak, 10 MB in all.
_BLOCK_CELLS = 65_536

# The phi column of the last block written, as ((step, start, stop), its
# cells), or None; write_grid says what it costs.
_last_phi = None


def _phi_grid(step: float) -> tuple[float, int, Callable[[int, int], list[float]]]:
    """Prevalence grid {0, step, ..., 1}, 1 appended when step does not divide it, as (step, rows, points).

    step comes back as a Python float, so no other number type reaches a
    grid point or a cell. rows is the grid's size and points(start, stop)
    its points start to stop - 1, each built from its index i: i / n
    where step is 1/n, and i * step otherwise. So a block of the grid
    costs no memory for the rest. step must lie in [MIN_PHI_STEP, 0.5],
    so a grid has at most about a million points.
    """
    if not (MIN_PHI_STEP <= step <= 0.5):
        raise ValueError(f"step must be in [{MIN_PHI_STEP!r}, 0.5], got {step!r}")
    step = float(step)
    n = round(1.0 / step)
    if n >= 1 and abs(n * step - 1.0) <= 1e-9:
        return step, n + 1, lambda start, stop: [i / n for i in range(start, stop)]
    last = int(math.floor(1.0 / step))
    rows = last + 2 if last * step < 1.0 else last + 1
    return step, rows, lambda start, stop: [i * step if i <= last else 1.0 for i in range(start, stop)]


def _ppv_column(a: float, nb: float, grid: list[float]) -> list[float]:
    """ppv_at's Bayes' rule (metrics._bayes) at every grid point, with nb = 1 - b; NaN where its u is 0."""
    return [t / u if (u := (t := a * x) + nb * (1.0 - x)) else math.nan for x in grid]


def _curve_columns(profile: DiagnosticProfile) -> Callable:
    """emit_curves' ppv, npv, kappa_ppv and kappa_npv columns, as a function of a block of the grid."""
    a, b = float(profile.sensitivity), float(profile.specificity)
    na, nb = 1.0 - a, 1.0 - b
    kappas = []
    for curve in Curve:
        p, q, _ = _curve_coefficients(a, b, curve)
        kappas.append(_kappa_kernel(profile, curve, p, q))

    def columns_at(grid: list[float]) -> list[list[float]]:
        # npv_at's Bayes' rule: b*(1-phi) / (b*(1-phi) + (1-a)*phi).
        npv = [t / u if (u := (t := b * (1.0 - x)) + na * x) else math.nan for x in grid]
        return [_ppv_column(a, nb, grid), npv] + [_kappa_column(k, grid) for k in kappas]

    return columns_at


def _ratio_columns(a: float, b: float, beta_squares: list[float]) -> Callable:
    """emit_ratio_curves' columns, as a function of a block of the grid: an F-score for each beta**2, then FM.

    A cell is reference / score at the PPV rho, NaN where the score is
    not positive or undefined. Each F-score is f_beta_score's kernel
    metrics._f_beta_harmonic(beta_sq, a, rho), its operations repeated
    in their order with 1/rho computed once per row; only a column whose
    beta_sq/a overflows calls it per cell. The FM score is fm_at's
    sqrt(a * rho). Needs a > 0.
    """
    nb = 1.0 - b

    def columns_at(grid: list[float]) -> list[list[float]]:
        rho = _ppv_column(a, nb, grid)
        # Where rho is 0 or NaN every score is 0 or NaN, so every cell of the row is NaN.
        inv = [1.0 / r if r > 0.0 else math.nan for r in rho]
        columns = []
        for beta_sq in beta_squares:
            # An infinite beta**2 makes the reference inf/inf, and so its whole column, NaN.
            reference = _f_beta_harmonic(beta_sq, a, 1.0)
            scaled = beta_sq / a
            if scaled == math.inf and beta_sq != math.inf:
                columns.append(
                    [reference / s if r > 0.0 and (s := _f_beta_harmonic(beta_sq, a, r)) > 0.0 else math.nan for r in rho]
                )
            else:
                top = 1.0 + beta_sq
                columns.append([reference / s if (s := top / (scaled + v)) > 0.0 else math.nan for v in inv])
        reference = math.sqrt(a)  # fm_at's sqrt(a * rho) at rho = 1
        columns.append([reference / s if (s := math.sqrt(a * r)) > 0.0 else math.nan for r in rho])
        return columns

    return columns_at


def _cells(values: list[float]) -> list[str]:
    """repr of each value; NaN, the mark of an undefined cell, becomes an empty field."""
    return ["" if v != v else repr(v) for v in values]


def _phi_cells(key: tuple[float, int, int], block: list[float]) -> tuple[str, ...]:
    """repr of each point of the grid block that key, (step, start, stop), names: _last_phi's if it names the same."""
    global _last_phi
    # One read of the slot gives the key and the cells together, so threads need no lock: a race costs a miss.
    last = _last_phi
    if last is not None and last[0] == key:
        return last[1]
    # The kept block is dropped before the next is formatted, so at most one is in memory.
    last = _last_phi = None
    cells = tuple(map(repr, block))
    _last_phi = key, cells
    return cells


def write_grid(sink: io.TextIOBase, header: list[str], grid: tuple, columns_at: Callable) -> int:
    """Write the header, then one row per grid point: phi and each column's cell there; return the rows.

    grid is _phi_grid's (step, rows, points): the grid has rows points,
    and points(start, stop) builds those from start to stop - 1.
    columns_at(block) gives every column's values at a block of them, as
    lists of floats. The grid is built, evaluated, formatted and written
    a block of rows at a time, _BLOCK_CELLS // len(header) rows but at
    least one, and each block is dropped before the next is built, so
    memory does not grow with the number of rows; every cell is computed
    on its own, so a block's values are the whole grid's.

    The phi column depends on nothing but the step, so the text of the
    last block written is kept, keyed by (step, start, stop), and a
    later call's block with that key reuses it. So the curves and ratios
    of one step, whose grid is one block up to 32 columns at step 5e-4,
    format it once per process; a grid of several blocks finds none of
    them kept, since the one kept is its last. The floats the columns
    need are still built from their indices. The kept block costs 64 to
    75 bytes a row: 0.13 MB at step 5e-4, and at most 1.7 MB, the 21,845
    rows of a three-column block.

    Nothing after the header may raise but the sink: every argument is
    checked before, and the columns mark an undefined cell NaN. No field
    needs csv quoting: the header names are plain words and every cell
    is a float repr or empty.
    """
    step, rows, points = grid
    sink.write(",".join(header) + "\n")
    size = max(1, _BLOCK_CELLS // len(header))
    for start in range(0, rows, size):
        stop = min(start + size, rows)
        block = points(start, stop)
        fields = [_phi_cells((step, start, stop), block)] + [_cells(col) for col in columns_at(block)]
        sink.write("\n".join(map(",".join, zip(*fields))) + "\n")
        del block, fields
    return rows

"""CSV ingestion and emission of prediction files and curve datasets.

Dialect is fixed for bit-exact fixtures: comma separators, a required
header row, "." decimals, LF line endings, no locale handling. Floats
are written with repr, the shortest digit string that round-trips.
Undefined cells are written as empty fields so every grid point keeps
its row.

Every stage is a bulk operation. The curve emitters evaluate their
prevalence grid a column at a time, as lists of Python floats, with
the operations of ppv_at's and npv_at's Bayes' rule (metrics._bayes),
of f_beta_score's harmonic form (metrics._f_beta_harmonic) and of fm_at
in their order, and the curvature through curvature_at's own kernel,
thresholds._kappa_kernel. So every cell is bit-equal to the scalar
functions' value there; they stay public and are the oracle the test
suite checks the emitted bytes against. These divergence curves share
no code with the closed-form ratios of bounds (_f_beta_form, _fm_form),
which serve only those ratios and the bound sweep. write_grid builds
and writes the grid a block of rows at a time, so an emitter's memory
does not grow with the number of rows; no emitter loads numpy. The
prediction writer writes identical rows in blocks. Ingest's block pass
lives in _ingest, which ingest_predictions imports on its first call,
so the CLI compiles it only when it reads a prediction file. The pass
counts a block made only of the data lines the header implies, and
parses every other block with csv.
"""

from __future__ import annotations

import io
import json
import math
import os
from collections.abc import Callable, Iterable

from .errors import DegenerateDenominator, DegenerateProfile, EmptyInput, ParseError, _echo
from .metrics import ConfusionCounts, DiagnosticProfile, _f_beta_harmonic, _labelled_betas
from .thresholds import Curve, _kappa_kernel, threshold_summary

__all__ = [
    "ingest_predictions",
    "write_predictions",
    "emit_curves",
    "emit_ratio_curves",
]

# What ingest reads: a path (str or os.PathLike), a text stream or a byte
# stream. A string, so annotations name it without importing typing.
Source = "str | os.PathLike | io.IOBase"

# Finest prevalence grid step of the curve emitters: a million rows.
MIN_PHI_STEP = 1e-6

# Most rows write_predictions formats into one string before writing it.
_BLOCK_ROWS = 65_536

# Most cells, the phi column's included, that write_grid evaluates and
# formats at once: some 160 bytes of memory each at the peak, 10 MB in all.
_BLOCK_CELLS = 65_536

# Most cells (rows times columns) emit_ratio_curves writes, some 190 MB of
# CSV: about twice the 5,000,005 of the default betas at MIN_PHI_STEP.
_MAX_CELLS = 10_000_000


def _as_text_stream(source: Source):
    """Normalize a path (str or os.PathLike) / text stream / byte stream into (text stream, needs_close)."""
    if isinstance(source, (str, os.PathLike)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if isinstance(source, io.TextIOBase):
        return source, False
    if hasattr(source, "read"):
        probe = source.read(0)
        if isinstance(probe, bytes):
            return io.TextIOWrapper(source, encoding="utf-8", newline=""), False
        return source, False
    raise TypeError(f"cannot read predictions from {type(source).__name__}")


def _parse_binary(token: str, column: str, row: int) -> int:
    value = token.strip()
    if value == "1":
        return 1
    if value == "0":
        return 0
    raise ParseError(f"row {row}: {column} must be 0 or 1, got {_echo(token)}", row=row)


def ingest_predictions(source: Source) -> ConfusionCounts:
    """Tally a labelled-prediction CSV into confusion counts.

    The file needs a header naming (at least) the columns "label" and
    "prediction", both holding 0/1 values; 1 means the positive class.
    One leading UTF-8 byte-order mark on the header is ignored. Rows are
    tallied as tp for (label 1, prediction 1), fp for (0, 1), fn for
    (1, 0) and tn for (0, 0). Malformed rows, and rows csv cannot read
    (a field over csv's field size limit, say), raise ParseError
    carrying the 1-based physical row number (the header is row 1,
    blank lines count); a file with no data rows raises EmptyInput.
    Their messages show a bad token, or the repr of a header's columns,
    of more than 64 characters by its first 64 and its length
    (errors._echo).
    Paths and byte streams are decoded as UTF-8; bytes that are not
    UTF-8 raise ParseError, with the count of data rows tallied before
    the read that failed, and no row number.

    The source is read once, and never rewound, in blocks of 16,384
    characters cut after their last line feed, so memory is bounded by
    a block plus the longest line. A block made only of the four data
    lines the header implies is tallied with str.count; csv parses
    every other block, and from a block with a quote or a lone carriage
    return on, the rest of the source (_ingest.tally_blocks). The row an
    error reports is the one a row-by-row parse would.
    """
    from . import _ingest

    stream, owns = _as_text_stream(source)
    try:
        tally = [0, 0, 0, 0]
        try:
            _ingest.tally_blocks(stream, tally)
        except UnicodeDecodeError as exc:
            # exc.start counts from the decoder's chunk, not the file, so it is left out.
            tallied = sum(tally)
            where = f"after data row {tallied}" if tallied else "before any data row was tallied"
            raise ParseError(f"input is not UTF-8 ({exc.reason}); decoding failed {where}") from None
        if sum(tally) == 0:
            raise EmptyInput("prediction file has a header but no data rows")
        tp, fp, fn, tn = tally
        return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)
    finally:
        if owns:
            stream.close()
        elif stream is not source:
            # Unhook our text wrapper, which would close the caller's byte stream when collected.
            stream.detach()


def write_predictions(counts: ConfusionCounts, sink: io.TextIOBase) -> int:
    """Write one prediction row per confusion-matrix element; inverse of ingest.

    Rows are grouped tp, fp, fn, tn so output is deterministic; returns
    the number of data rows (counts.n). Identical rows are written in
    blocks of at most _BLOCK_ROWS, which bounds memory for any count.
    """
    sink.write("label,prediction\n")
    for line, count in (("1,1\n", counts.tp), ("0,1\n", counts.fp), ("1,0\n", counts.fn), ("0,0\n", counts.tn)):
        full, rest = divmod(count, _BLOCK_ROWS)
        if full:
            block = line * _BLOCK_ROWS
            for _ in range(full):
                sink.write(block)
        sink.write(line * rest)
    return counts.n


def _phi_grid(step: float) -> tuple[int, Callable[[int, int], list[float]]]:
    """Prevalence grid {0, step, ..., 1}, 1 appended when step does not divide it, as (rows, points).

    rows is the grid's size and points(start, stop) its points start to
    stop - 1, each built from its index i: i / n where step is 1/n, and
    i * step otherwise. So a block of the grid costs no memory for the
    rest. step must lie in [MIN_PHI_STEP, 0.5], so a grid has at most
    about a million points.
    """
    if not (MIN_PHI_STEP <= step <= 0.5):
        raise ValueError(f"step must be in [{MIN_PHI_STEP!r}, 0.5], got {step!r}")
    n = round(1.0 / step)
    if n >= 1 and abs(n * step - 1.0) <= 1e-9:
        return n + 1, lambda start, stop: [i / n for i in range(start, stop)]
    last = int(math.floor(1.0 / step))
    rows = last + 2 if last * step < 1.0 else last + 1
    return rows, lambda start, stop: [i * step if i <= last else 1.0 for i in range(start, stop)]


def _ppv_column(a: float, nb: float, grid: list[float]) -> list[float]:
    """ppv_at's Bayes' rule (metrics._bayes) at every grid point, with nb = 1 - b; NaN where its u is 0."""
    return [t / u if (u := (t := a * x) + nb * (1.0 - x)) else math.nan for x in grid]


def _kappa_column(kappa, grid: list[float]) -> list[float]:
    """The curvature closure kappa (thresholds._kappa_kernel) at every grid point; NaN where it raises."""
    values = []
    for phi in grid:
        try:
            values.append(kappa(phi))
        except DegenerateDenominator:
            values.append(math.nan)
    return values


def _curve_columns(profile: DiagnosticProfile) -> Callable:
    """emit_curves' ppv, npv, kappa_ppv and kappa_npv columns, as a function of a block of the grid."""
    a, b = float(profile.sensitivity), float(profile.specificity)
    na, nb = 1.0 - a, 1.0 - b
    kappas = [_kappa_kernel(profile, curve) for curve in Curve]

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


def write_grid(sink: io.TextIOBase, header: list[str], rows: int, points: Callable, columns_at: Callable) -> None:
    """Write the header, then one row per grid point: phi and each column's cell there.

    The grid has rows points and points(start, stop) builds those from
    start to stop - 1 (_phi_grid); columns_at(block) gives every
    column's values at a block of them, as lists of floats. The grid is
    built, evaluated, formatted and written a block of rows at a time,
    _BLOCK_CELLS // len(header) rows but at least one, and each block
    is dropped before the next is built, so memory does not grow with
    the number of rows; every cell is computed on its own, so a block's
    values are the whole grid's. Nothing after the header may raise but
    the sink: every argument is checked before, and the columns mark an
    undefined cell NaN. No field needs csv quoting: the header names are
    plain words and every cell is a float repr or empty.
    """
    sink.write(",".join(header) + "\n")
    size = max(1, _BLOCK_CELLS // len(header))
    for start in range(0, rows, size):
        block = points(start, min(start + size, rows))
        fields = [list(map(repr, block))] + [_cells(col) for col in columns_at(block)]
        sink.write("\n".join(map(",".join, zip(*fields))) + "\n")
        del block, fields


def emit_curves(
    profile: DiagnosticProfile,
    step: float,
    sink: io.TextIOBase,
    sidecar: io.TextIOBase | None = None,
) -> int:
    """Write the predictive-value and curvature curves as CSV.

    Columns are phi, ppv, npv, kappa_ppv, kappa_npv over the grid
    {0, step, ..., 1}; cells where a curve is undefined are left empty.
    When a sidecar stream is given, a JSON object with the two
    thresholds (and the predictive values there) is written to it, so
    curve datasets stay paired with the analytic landmarks they should
    exhibit. Returns the number of data rows.

    The ppv and npv columns repeat the operations of ppv_at and npv_at
    in their order; the kappa columns are thresholds._kappa_kernel,
    which curvature_at also evaluates, at each grid point. So each cell
    holds the repr of what ppv_at, npv_at or curvature_at(...).kappa
    returns there, and is empty exactly where it raises. The test suite
    checks the bytes against per-cell scalar calls, with its own copy of
    the curvature arithmetic.
    """
    rows, points = _phi_grid(step)
    write_grid(sink, ["phi", "ppv", "npv", "kappa_ppv", "kappa_npv"], rows, points, _curve_columns(profile))

    if sidecar is not None:
        sidecar.write(json.dumps(threshold_summary(profile), indent=2, allow_nan=False) + "\n")
    return rows


def emit_ratio_curves(
    profile: DiagnosticProfile,
    betas: Iterable[float],
    step: float,
    sink: io.TextIOBase,
) -> int:
    """Write reference-over-current accuracy ratios along prevalence as CSV.

    One column per ratio (f1, each requested f_beta, fm), evaluated on
    the grid {0, step, ..., 1} against the metric's value at full
    prevalence. Cells are empty where the underlying metric is zero or
    undefined (always the case at phi = 0, and in every row of an
    F-beta column whose beta**2 overflows). Returns the number of data
    rows. Raises before writing anything: ValueError for an invalid beta
    or step and for two betas with one label (metrics._labelled_betas),
    DegenerateProfile at sensitivity 0, and ValueError when the CSV
    would hold more than _MAX_CELLS cells, rows times (len(betas) + 3)
    columns: up to 6 betas at MIN_PHI_STEP, or 9,987 at step 0.001.

    Each column's score is a formula in the PPV rho: f_beta_score's
    harmonic form (1 + beta^2) / (beta^2/a + 1/rho), the operations of
    metrics._f_beta_harmonic, which f_beta_score itself calls (f1 is
    beta = 1; where beta^2/a overflows, that form multiplied through by
    a), and fm_at's sqrt(a * rho). Its reference is that formula at rho = 1,
    since ppv_at(profile, 1) is a/a = 1.0 exactly, and rho is ppv_at's
    Bayes' rule, so every cell is bit-equal to the float that
    accuracy_divergence_curve with metric "f1", "f_beta" or "fm", the
    oracle the test suite checks the bytes against, gives there.
    """
    betas = _labelled_betas(betas)
    rows, points = _phi_grid(step)
    a = float(profile.sensitivity)
    if a == 0.0:
        raise DegenerateProfile("reference value at full prevalence is undefined when sensitivity is 0")
    width = len(betas) + 3  # phi, f1, each f_beta and fm
    if rows * width > _MAX_CELLS:
        raise ValueError(f"a ratio CSV may have at most {_MAX_CELLS} cells, got {rows} rows of {width} columns")

    beta_squares = [1.0] + [beta * beta for beta in betas.values()]
    columns = _ratio_columns(a, float(profile.specificity), beta_squares)
    header = ["phi", "f1_chi"] + [f"fbeta_{label}_chi" for label in betas] + ["fm_chi"]
    write_grid(sink, header, rows, points, columns)
    return rows

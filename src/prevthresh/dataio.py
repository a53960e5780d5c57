"""CSV ingestion and emission of prediction files and curve datasets.

Dialect is fixed for bit-exact fixtures: comma separators, a required
header row, "." decimals, LF line endings, no locale handling. Floats
are written with repr, the shortest digit string that round-trips.
Undefined cells are written as empty fields so every grid point keeps
its row.

Every stage is a bulk operation. The curve emitters evaluate their
prevalence grid through _arrays: the predictive values and ratios as
numpy arrays that repeat the scalar per-point functions' floating-point
operations in order (ppv_at, npv_at, and f1_at, f_beta_at and fm_at as
accuracy_divergence_curve composes them; these stay public and are the
oracle the test suite checks the emitted bytes against), and the
curvature through curvature_at's own kernel, thresholds._kappa_kernel,
mapped over the grid.
A ratio cell is the repr of a plain float. These divergence curves
share no code with the closed-form ratios of bounds, whose kernels
(_f_beta_form, _fm_form) serve only those ratios and the bound sweep.
_arrays also formats the grid rows; the emitters import it on first
call, so ingest and the prediction writer load no numpy. The prediction
writer writes identical rows in blocks. Ingest's block pass lives in
_ingest, which ingest_predictions imports on its first call, so the
CLI compiles it only when it reads a prediction file.
"""

from __future__ import annotations

import io
import json
import math
import os
from collections.abc import Iterable

from .errors import DegenerateProfile, EmptyInput, ParseError
from .metrics import ConfusionCounts, DiagnosticProfile, _beta
from .thresholds import threshold_summary

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

# Most rows the writers format into one string before writing it.
_BLOCK_ROWS = 65_536


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
    raise ParseError(f"row {row}: {column} must be 0 or 1, got {token!r}", row=row)


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
    Paths and byte streams are decoded as UTF-8; bytes that are not
    UTF-8 raise ParseError, with the count of data rows tallied before
    the read that failed, and no row number.

    The source is read once, in blocks of 16,384 characters cut after
    their last line feed (_ingest.tally_blocks), so memory is bounded by
    a block plus the longest line. A block with no quote and no carriage
    return outside a CRLF pair is split at its line feeds and its lines
    are counted; csv parses each distinct line once, and its count goes
    to its cell. The first other block, or the first whose lines are
    mostly distinct, and everything after it, is read row by row by
    csv.reader, which parses each distinct raw (label, prediction)
    token pair once; the stream is never rewound. Either way the first
    invalid row is the first sighting of an invalid line or token pair,
    so the reported row is that of a row-by-row parse.
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


def _phi_grid(step: float) -> list[float]:
    """Prevalence grid {0, step, ..., 1}; 1 is appended when step does not divide it.

    step must lie in [MIN_PHI_STEP, 0.5], so a grid has at most about
    a million points.
    """
    if not (MIN_PHI_STEP <= step <= 0.5):
        raise ValueError(f"step must be in [{MIN_PHI_STEP!r}, 0.5], got {step!r}")
    n = round(1.0 / step)
    if n >= 1 and abs(n * step - 1.0) <= 1e-9:
        return [i / n for i in range(n + 1)]
    values = [i * step for i in range(int(math.floor(1.0 / step)) + 1)]
    if values[-1] < 1.0:
        values.append(1.0)
    return values


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

    The ppv and npv columns are numpy arrays with the operations of
    ppv_at and npv_at in their order; the kappa columns are
    thresholds._kappa_kernel, which curvature_at also evaluates, at
    each grid point. So each cell holds the repr of what ppv_at, npv_at
    or curvature_at(...).kappa returns there, and is empty exactly where
    it raises. The test suite checks the bytes against per-cell scalar
    calls, with its own copy of the curvature arithmetic.
    """
    grid = _phi_grid(step)

    from . import _arrays

    columns = _arrays.curve_columns(profile, grid)
    _arrays.write_grid(sink, ["phi", "ppv", "npv", "kappa_ppv", "kappa_npv"], grid, columns)

    if sidecar is not None:
        sidecar.write(json.dumps(threshold_summary(profile), indent=2, allow_nan=False) + "\n")
    return len(grid)


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
    rows. Raises before writing anything for an invalid beta or step,
    and DegenerateProfile at sensitivity 0.

    Each column's score is a formula in the PPV rho: f_beta_score's
    harmonic form (1 + beta^2) / (beta^2/a + 1/rho) (f1 is beta = 1;
    where beta^2/a overflows, that form multiplied through by a) and
    fm_at's sqrt(a * rho). Its reference is that formula at rho = 1,
    since ppv_at(profile, 1) is a/a = 1.0 exactly, and the grid is one
    PPV array, so every cell is bit-equal to the float that
    accuracy_divergence_curve with metric "f1", "f_beta" or "fm", the
    oracle the test suite checks the bytes against, gives there.
    """
    betas = [_beta(b) for b in betas]
    grid = _phi_grid(step)
    a = float(profile.sensitivity)
    if a == 0.0:
        raise DegenerateProfile("reference value at full prevalence is undefined when sensitivity is 0")

    from . import _arrays

    beta_squares = [1.0] + [beta * beta for beta in betas]
    columns = _arrays.ratio_curve_columns(a, float(profile.specificity), beta_squares, grid)
    header = ["phi", "f1_chi"] + [f"fbeta_{beta:g}_chi" for beta in betas] + ["fm_chi"]
    _arrays.write_grid(sink, header, grid, columns)
    return len(grid)

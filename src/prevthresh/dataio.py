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
thresholds._kappa_kernel, read as NaN (an empty cell) where it raises
by thresholds._kappa_column, the helper curvature_argmax's scan reads
it through too. So every cell is bit-equal to the scalar functions'
value there; they stay public and are the oracle the test suite checks
the emitted bytes against. These divergence curves share
no code with the closed-form ratios (_closed._f_beta_form and
_fm_form), which serve only those ratios and the bound sweep. The grid, the
columns and the block writer live in _emit, which emit_curves and
emit_ratio_curves import on their first call, so the CLI compiles them
only when it writes a curve CSV. _emit.write_grid builds and writes the
grid a block of rows at a time, so an emitter's memory does not grow
with the number of rows; no emitter loads numpy. It keeps the phi text
of the last block it wrote, which the next call with the same step
reuses, so one block's phi column stays in memory between calls: 0.13
MB at step 5e-4, at most 1.7 MB. The prediction writer writes identical
rows in blocks. Ingest's block pass lives in _ingest, which
ingest_predictions imports on its first call, so the CLI compiles it
only when it reads a prediction file. The pass counts a block made only
of the data lines the header implies, and parses every other block with
csv.
"""

from __future__ import annotations

import io
import json
import os
from collections.abc import Iterable

from .errors import DegenerateProfile, EmptyInput, ParseError, _echo
from .metrics import ConfusionCounts, DiagnosticProfile, _labelled_betas
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

# Most rows write_predictions formats into one string before writing it.
_BLOCK_ROWS = 65_536

# Most cells (rows times columns) emit_ratio_curves writes, some 190 MB of
# CSV: about twice the 5,000,005 of the default betas at _emit.MIN_PHI_STEP.
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
    from . import _emit

    grid = _emit._phi_grid(step)
    rows = _emit.write_grid(sink, ["phi", "ppv", "npv", "kappa_ppv", "kappa_npv"], grid, _emit._curve_columns(profile))

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
    columns: up to 6 betas at _emit.MIN_PHI_STEP, or 9,987 at step 0.001.

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
    from . import _emit

    betas = _labelled_betas(betas)
    grid = _emit._phi_grid(step)
    _, rows, _ = grid
    a = float(profile.sensitivity)
    if a == 0.0:
        raise DegenerateProfile("reference value at full prevalence is undefined when sensitivity is 0")
    width = len(betas) + 3  # phi, f1, each f_beta and fm
    if rows * width > _MAX_CELLS:
        raise ValueError(f"a ratio CSV may have at most {_MAX_CELLS} cells, got {rows} rows of {width} columns")

    beta_squares = [1.0] + [beta * beta for beta in betas.values()]
    columns = _emit._ratio_columns(a, float(profile.specificity), beta_squares)
    header = ["phi", "f1_chi"] + [f"fbeta_{label}_chi" for label in betas] + ["fm_chi"]
    return _emit.write_grid(sink, header, grid, columns)

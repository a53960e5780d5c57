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
the emitted bytes against. These divergence curves share no code with
the closed-form ratios (_closed._f_beta_form and _fm_form), which
serve only those ratios and the bound sweep.
_write_grid builds and writes the grid a block of rows at a time, so
an emitter's memory does not grow with the number of rows; no emitter
loads numpy. It keeps the phi text of the last block it wrote, which
the next call with the same step reuses, so one block's phi column
stays in memory between calls: 0.13 MB at step 5e-4, at most 1.7 MB.
The prediction writer writes identical rows in blocks. Ingest reads
the source a block of lines at a time (_tally_blocks): it counts a
block made only of the data lines the header implies, and parses every
other block with csv.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import re
from collections.abc import Callable, Iterable

from .errors import DegenerateProfile, EmptyInput, ParseError, _echo
from .metrics import ConfusionCounts, DiagnosticProfile, _curve_coefficients, _f_beta_harmonic, _labelled_betas
from .thresholds import Curve, _kappa_column, _kappa_kernel, threshold_summary

__all__ = [
    "ingest_predictions",
    "write_predictions",
    "emit_curves",
    "emit_ratio_curves",
]

# What ingest reads: a path (str or os.PathLike), a text stream or a byte
# stream. A string, so annotations name it without importing typing.
Source = "str | os.PathLike | io.IOBase"

# Stripped (label, prediction) tokens -> index of their cell in a tally (tp, fp, fn, tn).
_TALLY_INDEX = {("1", "1"): 0, ("0", "1"): 1, ("1", "0"): 2, ("0", "0"): 3}

# Characters ingest reads per block; a block is then cut at its last newline.
_READ_CHARS = 16_384

# Most rows write_predictions formats into one string before writing it.
_BLOCK_ROWS = 65_536

# Finest prevalence grid step of the curve emitters: a million rows.
_MIN_PHI_STEP = 1e-6

# Most cells (rows times columns) emit_ratio_curves writes, some 190 MB of
# CSV: about twice the 5,000,005 of the default betas at _MIN_PHI_STEP.
_MAX_CELLS = 10_000_000

# Most cells, the phi column's included, that _write_grid evaluates and
# formats at once: some 160 bytes of memory each at the peak, 10 MB in all.
_BLOCK_CELLS = 65_536

# The phi column of the last block written, as ((step, start, stop), its
# cells), or None; _write_grid says what it costs.
_last_phi = None


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


def _header_columns(header: list[str]) -> tuple[int, int]:
    """Indices of the label and prediction columns in the header row (line 1)."""
    if header and header[0].startswith("\ufeff"):
        header[0] = header[0][1:]
    columns = [name.strip().lower() for name in header]
    try:
        return columns.index("label"), columns.index("prediction")
    except ValueError:
        raise ParseError(
            f"row 1: header must name 'label' and 'prediction' columns, got {_echo(repr(header), str)}",
            row=1,
        ) from None


def _csv_error(exc: csv.Error, row: int) -> ParseError:
    return ParseError(f"row {row}: {exc}", row=row)


def _tally_index(row: list[str], columns: tuple[int, int], at: int) -> int:
    """Index in a tally (tp, fp, fn, tn) of a parsed data row, which is physical row at."""
    label_idx, pred_idx = columns
    if len(row) <= max(columns):
        raise ParseError(f"row {at}: expected at least {max(columns) + 1} fields, got {len(row)}", row=at)
    index = _TALLY_INDEX.get((row[label_idx].strip(), row[pred_idx].strip()))
    if index is None:
        _parse_binary(row[label_idx], "label", at)
        _parse_binary(row[pred_idx], "prediction", at)
    return index


def _tally_csv(reader, offset: int, columns: tuple[int, int] | None, tally: list[int]) -> None:
    """Add the rows of reader to tally, parsing each distinct raw token pair once.

    offset is the number of physical lines before the reader's first
    one; columns is None when the reader starts at the header.
    """
    try:
        if columns is None:
            header = next(reader, None)
            if header is None:
                raise EmptyInput("prediction file is empty")
            columns = _header_columns(header)
        label_idx, pred_idx = columns
        width = max(columns) + 1
        # Raw token pair -> index of its confusion cell in tally; a short row has no pair.
        indices: dict[tuple[str, str] | None, int] = {}
        for row in reader:
            if not row:
                continue
            tokens = (row[label_idx], row[pred_idx]) if len(row) >= width else None
            index = indices.get(tokens)
            if index is None:
                index = indices[tokens] = _tally_index(row, columns, offset + reader.line_num)
            tally[index] += 1
    except csv.Error as exc:
        raise _csv_error(exc, offset + reader.line_num) from None


# A line with its end, or a last line without one: where a stream with
# universal newlines ends its lines, and where any stream ends the lines
# of text without a carriage return.
_UNIVERSAL_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")
_LF_LINE = re.compile(r"[^\n]*\n|[^\n]+")


def _replay(stream, text: str):
    """The lines of text, read from stream but not yet tallied, then the stream's own lines.

    text is completed to a whole line first and split where the stream
    would have split it: a lone carriage return ends a line only where
    the stream reads universal newlines, and the stream has then
    recorded it in its newlines attribute. The stream is never rewound.
    """
    text += next(stream, "")
    line = _UNIVERSAL_LINE if "\r" in text and getattr(stream, "newlines", None) else _LF_LINE
    return itertools.chain((match.group() for match in line.finditer(text)), stream)


def _irregular(block: str) -> bool:
    """Whether block holds a quote or a carriage return outside a CRLF pair, which only csv reads.

    Only the stream's last block may end with a carriage return, which csv reads as that line's end.
    """
    if '"' in block or "\r" not in block:
        return '"' in block
    return block.count("\r") != block.count("\r\n") + block.endswith("\r")


def _implied_lines(columns: tuple[int, int], end: str) -> dict[str, int]:
    """Each line of two bare 0/1 tokens, with end, to its tally index; none unless label and prediction are columns 0 and 1."""
    if sorted(columns) != [0, 1]:
        return {}
    return {",".join(pair if columns == (0, 1) else reversed(pair)) + end: index for pair, index in _TALLY_INDEX.items()}


def _tally_blocks(stream, tally: list[int]) -> None:
    """Add every data row of stream to tally, one block of whole lines at a time.

    Each read of _READ_CHARS characters is cut after its last line feed,
    so a block holds whole lines and memory is bounded by a read plus
    the longest line. Unless the first block goes to csv (below), its
    first line, the header, is parsed and implies the four lines of
    _implied_lines, each ending like the header (LF or CRLF). Each block,
    the first one's rest included, is first tallied with one str.count
    per implied line. These lines have one width and no line feed but
    their last, so no two occurrences overlap and the counts cover the
    block's length exactly when every line of the block, the last one
    included, is an implied line; only then are they taken. Any other
    block is split at line feeds only, as streams and csv split lines
    (str.splitlines would also split at form feeds, U+2028 and more;
    csv reads a carriage return left at a line's end as part of its
    end), and _tally_csv parses the lines. A quote or a carriage return
    outside a CRLF pair may join lines into one row, so from the first
    block that holds one on, _tally_csv reads the rest of the stream,
    which is never rewound. csv parses every row not counted, in order:
    an error's type, row and message are those of a row-by-row parse.
    """
    columns = None
    offset = 0  # physical lines before the current block
    rest = ""  # a line begun by the last read
    implied: dict[str, int] = {}  # the header's implied lines, with their ends, to their tally indices
    width = 0  # the length of each implied line
    while True:
        chunk = stream.read(_READ_CHARS)
        cut = chunk.rfind("\n") + 1
        if chunk and not cut:
            rest += chunk
            continue
        block, rest = rest + chunk[:cut], chunk[cut:]
        if not block:
            break
        if columns is None and not _irregular(block):
            head, _, block = block.partition("\n")
            try:
                header = next(csv.reader([head]))
            except csv.Error as exc:
                raise _csv_error(exc, 1) from None
            columns = _header_columns(header)
            offset = 1
            implied = _implied_lines(columns, "\r\n" if head.endswith("\r") else "\n")
            width = len(next(iter(implied), ""))
        # Checking the first line first spares the counts on blocks of other lines.
        if block[:width] in implied and len(block) % width == 0:
            found = [(block.count(line), index) for line, index in implied.items()]
            if sum(n for n, _ in found) * width == len(block):
                for n, index in found:
                    tally[index] += n
                offset += len(block) // width
                continue
        if columns is None or _irregular(block):
            _tally_csv(csv.reader(_replay(stream, block + rest)), offset, columns, tally)
            return
        lines = block.split("\n")
        if not lines[-1]:
            lines.pop()  # the empty piece after the block's final newline
        _tally_csv(csv.reader(lines), offset, columns, tally)
        offset += len(lines)
    if columns is None:
        raise EmptyInput("prediction file is empty")


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
    return on, the rest of the source (_tally_blocks). The row an
    error reports is the one a row-by-row parse would.
    """
    stream, owns = _as_text_stream(source)
    try:
        tally = [0, 0, 0, 0]
        try:
            _tally_blocks(stream, tally)
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


def _phi_grid(step: float) -> tuple[float, int, Callable[[int, int], list[float]]]:
    """Prevalence grid {0, step, ..., 1}, 1 appended when step does not divide it, as (step, rows, points).

    step comes back as a Python float, so no other number type reaches a
    grid point or a cell. rows is the grid's size and points(start, stop)
    its points start to stop - 1, each built from its index i: i / n
    where step is 1/n, and i * step otherwise. So a block of the grid
    costs no memory for the rest. step must lie in [_MIN_PHI_STEP, 0.5],
    so a grid has at most about a million points.
    """
    if not (_MIN_PHI_STEP <= step <= 0.5):
        raise ValueError(f"step must be in [{_MIN_PHI_STEP!r}, 0.5], got {step!r}")
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


def _float_fields(values: list[float]) -> list[str]:
    """repr of each value; NaN, the mark of an undefined cell, becomes an empty field."""
    return ["" if v != v else repr(v) for v in values]


def _phi_fields(key: tuple[float, int, int], block: list[float]) -> tuple[str, ...]:
    """repr of each point of the grid block that key, (step, start, stop), names: _last_phi's if it names the same."""
    global _last_phi
    # One read of the slot gives the key and the fields together, so threads need no lock: a race costs a miss.
    last = _last_phi
    if last is not None and last[0] == key:
        return last[1]
    # The kept block is dropped before the next is formatted, so at most one is in memory.
    last = _last_phi = None
    fields = tuple(map(repr, block))
    _last_phi = key, fields
    return fields


def _write_grid(sink: io.TextIOBase, header: list[str], grid: tuple, columns_at: Callable) -> int:
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
        fields = [_phi_fields((step, start, stop), block)] + [_float_fields(col) for col in columns_at(block)]
        sink.write("\n".join(map(",".join, zip(*fields))) + "\n")
        del block, fields
    return rows


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
    grid = _phi_grid(step)
    rows = _write_grid(sink, ["phi", "ppv", "npv", "kappa_ppv", "kappa_npv"], grid, _curve_columns(profile))

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
    columns: up to 6 betas at _MIN_PHI_STEP, or 9,987 at step 0.001.

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
    grid = _phi_grid(step)
    _, rows, _ = grid
    a = float(profile.sensitivity)
    if a == 0.0:
        raise DegenerateProfile("reference value at full prevalence is undefined when sensitivity is 0")
    width = len(betas) + 3  # phi, f1, each f_beta and fm
    if rows * width > _MAX_CELLS:
        raise ValueError(f"a ratio CSV may have at most {_MAX_CELLS} cells, got {rows} rows of {width} columns")

    beta_squares = [1.0] + [beta * beta for beta in betas.values()]
    columns = _ratio_columns(a, float(profile.specificity), beta_squares)
    header = ["phi", "f1_chi"] + [f"fbeta_{label}_chi" for label in betas] + ["fm_chi"]
    return _write_grid(sink, header, grid, columns)

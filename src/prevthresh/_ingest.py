"""Ingest's block pass over a labelled-prediction CSV, behind dataio.ingest_predictions.

dataio.ingest_predictions imports this module on its first call, so
importing the package, and every CLI call that reads no prediction
file, compiles none of it. tally_blocks describes the pass: it counts
the data lines the header implies, then splits blocks, then parses rows.
"""

from __future__ import annotations

import csv
import itertools
import re
from collections import Counter

from .dataio import _parse_binary
from .errors import EmptyInput, ParseError, _echo

# Stripped (label, prediction) tokens -> index of their cell in a tally (tp, fp, fn, tn).
_CELLS = {("1", "1"): 0, ("0", "1"): 1, ("1", "0"): 2, ("0", "0"): 3}

# Characters ingest reads per block; a block is then cut at its last newline.
_READ_CHARS = 16_384

# Fewest lines a block needs before its share of distinct lines is judged:
# the lines read before a line longer than a block, or that line alone,
# say nothing about the rest of the file.
_JUDGED_LINES = 64


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


def _cell(row: list[str], columns: tuple[int, int], row_of) -> int:
    """Index in a tally (tp, fp, fn, tn) of a parsed data row; row_of() numbers it for an error."""
    label_idx, pred_idx = columns
    if len(row) <= max(columns):
        at = row_of()
        raise ParseError(f"row {at}: expected at least {max(columns) + 1} fields, got {len(row)}", row=at)
    cell = _CELLS.get((row[label_idx].strip(), row[pred_idx].strip()))
    if cell is None:
        at = row_of()
        _parse_binary(row[label_idx], "label", at)
        _parse_binary(row[pred_idx], "prediction", at)
    return cell


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
        cells: dict[tuple[str, str] | None, int] = {}
        for row in reader:
            if not row:
                continue
            tokens = (row[label_idx], row[pred_idx]) if len(row) >= width else None
            cell = cells.get(tokens)
            if cell is None:
                cell = cells[tokens] = _cell(row, columns, lambda: offset + reader.line_num)
            tally[cell] += 1
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


def _irregular(block: str, lines=None) -> bool:
    """Whether block holds a quote or a carriage return outside a CRLF pair, which only csv reads.

    lines, where given, are the block's distinct lines, split at line
    feeds: a carriage return is then outside a pair where it is not the
    last character of its line, and only those lines are searched. The
    last line of a stream may end with one and no line feed; csv reads
    it as that line's end all the same. Otherwise the block is scanned
    twice, for carriage returns and for CRLF pairs.
    """
    if '"' in block or "\r" not in block:
        return '"' in block
    if lines is not None:
        return any("\r" in line[:-1] for line in lines)
    return block.count("\r") != block.count("\r\n")


def _implied_lines(columns: tuple[int, int], end: str) -> dict[str, int]:
    """Each line of two bare 0/1 tokens, with end, to its cell; none unless label and prediction are columns 0 and 1."""
    if sorted(columns) != [0, 1]:
        return {}
    return {",".join(pair if columns == (0, 1) else reversed(pair)) + end: cell for pair, cell in _CELLS.items()}


def tally_blocks(stream, tally: list[int]) -> None:
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
    block is split at line feeds only. Every stream and csv end their
    lines there too (str.splitlines would also split at form feeds,
    U+2028 and more), and csv reads a line's trailing carriage return as
    part of its end. Its lines are counted with Counter, and each
    distinct line is parsed once and counted as often as it occurs.
    From the first block that holds a quote or a carriage return outside
    a CRLF pair, or that has at least _JUDGED_LINES lines, mostly
    distinct, on, the rest of the stream goes line by line through
    _tally_csv, which parses each distinct raw (label, prediction) token
    pair once; the stream is never rewound. Either way the first invalid
    row is the first sighting of an invalid line or token pair, so the
    reported row is that of a row-by-row parse; a csv.Error is a
    ParseError at the row where csv failed.
    """
    columns = None
    offset = 0  # physical lines before the current block
    rest = ""  # a line begun by the last read
    implied: dict[str, int] = {}  # the header's implied lines, with their ends, to their cells
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
        if columns is None:
            if _irregular(block):
                _tally_csv(csv.reader(_replay(stream, block + rest)), offset, columns, tally)
                return
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
            found = [(block.count(line), cell) for line, cell in implied.items()]
            if sum(n for n, _ in found) * width == len(block):
                for n, cell in found:
                    tally[cell] += n
                offset += len(block) // width
                continue
        lines = block.split("\n")
        if not lines[-1]:
            lines.pop()  # the empty piece after the block's final newline
        counts = Counter(lines)
        distinct = len(lines) >= _JUDGED_LINES and 4 * len(counts) > len(lines)
        # A mostly distinct block is scanned whole rather than line by line.
        if _irregular(block, None if distinct else counts):
            _tally_csv(csv.reader(_replay(stream, block + rest)), offset, columns, tally)
            return
        del block  # lines hold the same text
        if distinct:
            # Mostly distinct lines (an id or a score column, say) are
            # cheaper to parse row by row than to count first.
            _tally_csv(csv.reader(itertools.chain(lines, _replay(stream, rest))), offset, columns, tally)
            return
        # One reader over the distinct lines, in order of first sighting: the
        # first invalid one is first seen on the row a row-by-row parse reports.
        reader = csv.reader(counts)
        for line, count in counts.items():

            def row_of():
                return offset + lines.index(line) + 1

            try:
                row = next(reader)
            except csv.Error as exc:
                raise _csv_error(exc, row_of()) from None
            if row:
                tally[_cell(row, columns, row_of)] += count
        offset += len(lines)
    if columns is None:
        raise EmptyInput("prediction file is empty")

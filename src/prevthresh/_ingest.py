"""Ingest's block pass over a labelled-prediction CSV, behind dataio.ingest_predictions.

dataio.ingest_predictions imports this module on its first call, so
importing the package, and every CLI call that reads no prediction
file, compiles none of it. tally_blocks describes the pass: it counts
the data lines the header implies, and gives every other block to csv.
"""

from __future__ import annotations

import csv
import itertools
import re

from .dataio import _parse_binary
from .errors import EmptyInput, ParseError, _echo

# Stripped (label, prediction) tokens -> index of their cell in a tally (tp, fp, fn, tn).
_CELLS = {("1", "1"): 0, ("0", "1"): 1, ("1", "0"): 2, ("0", "0"): 3}

# Characters ingest reads per block; a block is then cut at its last newline.
_READ_CHARS = 16_384


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


def _cell(row: list[str], columns: tuple[int, int], at: int) -> int:
    """Index in a tally (tp, fp, fn, tn) of a parsed data row, which is physical row at."""
    label_idx, pred_idx = columns
    if len(row) <= max(columns):
        raise ParseError(f"row {at}: expected at least {max(columns) + 1} fields, got {len(row)}", row=at)
    cell = _CELLS.get((row[label_idx].strip(), row[pred_idx].strip()))
    if cell is None:
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
                cell = cells[tokens] = _cell(row, columns, offset + reader.line_num)
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


def _irregular(block: str) -> bool:
    """Whether block holds a quote or a carriage return outside a CRLF pair, which only csv reads.

    Only the stream's last block may end with a carriage return, which csv reads as that line's end.
    """
    if '"' in block or "\r" not in block:
        return '"' in block
    return block.count("\r") != block.count("\r\n") + block.endswith("\r")


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
            found = [(block.count(line), cell) for line, cell in implied.items()]
            if sum(n for n, _ in found) * width == len(block):
                for n, cell in found:
                    tally[cell] += n
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

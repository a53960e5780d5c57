"""Prediction tables of several shapes, for timing prevthresh.ingest_predictions.

TABLES maps each table's name to a function of a row count that returns
the table's CSV text and the confusion counts it was built with.
scripts/bench_paired.py writes each table to a file and times ingest
on it, checking every call's counts against those. The tables differ
in what decides ingest's path (prevthresh.dataio._tally_blocks):
whether every line is one of the four the header implies, line endings,
quotes, one line longer than ingest's read block, and the order of
their rows. The share of distinct lines decides no path: csv parses
every line of a block that holds any other line, distinct or not.

- four-lines, four-lines-crlf: the four label/prediction lines, LF or CRLF.
- distinct-20pct, distinct-50pct, distinct-100pct: a score column that
  changes every fifth, every second or every row makes that share of
  the lines of any block distinct.
- quoted: every field quoted.
- eight-lines: a third 0/1 column.
- padded-every-5000: the four lines, and " 1,0" in place of every
  5,000th row.
- long-row: two short rows and one 100,000-character row, then the four
  lines.
- grouped: every tp row, then the fp, fn and tn rows, 40%, 10%, 15% and
  35% of them, in write_predictions' order, as curves-io writes them.
"""

from __future__ import annotations

from prevthresh import ConfusionCounts

# (label, prediction) of each confusion cell, in ConfusionCounts' field order.
PAIRS = (("1", "1"), ("0", "1"), ("1", "0"), ("0", "0"))
LONG_ROW_CHARS = 100_000


def _counts(pairs) -> ConfusionCounts:
    tally = [0, 0, 0, 0]
    for pair in pairs:
        tally[PAIRS.index(pair)] += 1
    return ConfusionCounts(*tally)


def _four_lines(rows: int, end: str = "\n") -> tuple[str, ConfusionCounts]:
    pairs = [PAIRS[i % 4] for i in range(rows)]
    return "label,prediction" + end + "".join(f"{label},{pred}{end}" for label, pred in pairs), _counts(pairs)


def _distinct(rows: int, step: int) -> tuple[str, ConfusionCounts]:
    """A score column that changes every step rows, so that 1/step of the lines of any block are distinct."""
    pairs = [PAIRS[i // step % 4] for i in range(rows)]
    body = "".join(f"{label},{pred},{i // step / rows!r}\n" for i, (label, pred) in enumerate(pairs))
    return "label,prediction,score\n" + body, _counts(pairs)


def _quoted(rows: int) -> tuple[str, ConfusionCounts]:
    pairs = [PAIRS[i % 4] for i in range(rows)]
    return "label,prediction\n" + "".join(f'"{label}","{pred}"\n' for label, pred in pairs), _counts(pairs)


def _eight_lines(rows: int) -> tuple[str, ConfusionCounts]:
    pairs = [PAIRS[i % 4] for i in range(rows)]
    body = "".join(f"{label},{pred},{i // 4 % 2}\n" for i, (label, pred) in enumerate(pairs))
    return "label,prediction,flag\n" + body, _counts(pairs)


def _padded(rows: int) -> tuple[str, ConfusionCounts]:
    pairs = [("1", "0") if i % 5000 == 4999 else PAIRS[i % 4] for i in range(rows)]
    lines = [" 1,0" if i % 5000 == 4999 else f"{label},{pred}" for i, (label, pred) in enumerate(pairs)]
    return "label,prediction\n" + "".join(line + "\n" for line in lines), _counts(pairs)


def _long_row(rows: int) -> tuple[str, ConfusionCounts]:
    long_row = "1,1," + "9" * (LONG_ROW_CHARS - 4)
    text, counts = _four_lines(rows)
    head = "label,prediction\n1,1\n0,0\n" + long_row + "\n"
    return head + text.split("\n", 1)[1], ConfusionCounts(counts.tp + 2, counts.fp, counts.fn, counts.tn + 1)


def _grouped(rows: int) -> tuple[str, ConfusionCounts]:
    tp, fp, fn = rows * 4 // 10, rows // 10, rows * 3 // 20
    cells = (tp, fp, fn, rows - tp - fp - fn)
    body = "".join(f"{label},{pred}\n" * count for (label, pred), count in zip(PAIRS, cells))
    return "label,prediction\n" + body, ConfusionCounts(*cells)


TABLES = {
    "four-lines": _four_lines,
    "four-lines-crlf": lambda rows: _four_lines(rows, "\r\n"),
    "distinct-20pct": lambda rows: _distinct(rows, 5),
    "distinct-50pct": lambda rows: _distinct(rows, 2),
    "distinct-100pct": lambda rows: _distinct(rows, 1),
    "quoted": _quoted,
    "eight-lines": _eight_lines,
    "padded-every-5000": _padded,
    "long-row": _long_row,
    "grouped": _grouped,
}

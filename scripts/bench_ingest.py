#!/usr/bin/env python3
"""Time prevthresh.ingest_predictions on prediction tables of several shapes.

Writes each table to a file in a temporary directory, ingests it from
its path --calls times, checks every call's confusion counts against
the ones the table was built with, and prints the fastest call per
table. The tables have --rows data rows each and differ in what decides
ingest's path (prevthresh._ingest): how many distinct lines they hold,
line endings, quotes, and one line longer than ingest's read block.

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

Timings are minima over calls in one process; run it pinned to one core
(taskset -c 0) and interleave runs to compare two states of the code.
It times whichever prevthresh the interpreter imports, so::

    PYTHONPATH=src python3 scripts/bench_ingest.py --rows 50000 --calls 40
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from prevthresh import ConfusionCounts, ingest_predictions

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
}


def _positive(text: str) -> int:
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=_positive, default=50_000, help="data rows per table (default 50000)")
    parser.add_argument("--calls", type=_positive, default=40, help="timed calls per table (default 40)")
    args = parser.parse_args(argv)

    print(f"{'table':<18} {'rows':>8} {'min_ms':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, build in TABLES.items():
            text, expected = build(args.rows)
            path = Path(tmp) / f"{name}.csv"
            path.write_bytes(text.encode("utf-8"))
            best = float("inf")
            for _ in range(args.calls):
                start = time.perf_counter()
                counts = ingest_predictions(path)
                best = min(best, time.perf_counter() - start)
                if counts != expected:
                    print(f"error: {name}: ingest gave {counts}, expected {expected}", file=sys.stderr)
                    return 1
            print(f"{name:<18} {expected.n:>8} {best * 1e3:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

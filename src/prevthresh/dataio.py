"""CSV ingestion and emission of prediction files and curve datasets.

Dialect is fixed for bit-exact fixtures: comma separators, a required
header row, "." decimals, LF line endings, no locale handling. Floats
are written with repr, the shortest digit string that round-trips.
Undefined cells are written as empty fields so every grid point keeps
its row.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import IO, Iterable, Union

from .bounds import RatioMetric, accuracy_divergence_curve
from .errors import DegenerateDenominator, EmptyInput, ParseError
from .metrics import ConfusionCounts, DiagnosticProfile, FBetaWeight, _as_weight, npv_at, ppv_at
from .thresholds import Curve, curvature_at, threshold_summary

__all__ = [
    "ingest_predictions",
    "write_predictions",
    "emit_curves",
    "emit_ratio_curves",
]

Source = Union[str, Path, IO]

# Finest prevalence grid step of the curve emitters: a million rows.
MIN_PHI_STEP = 1e-6


def _as_text_stream(source: Source):
    """Normalize a path / text stream / byte stream into (text stream, needs_close)."""
    if isinstance(source, (str, Path)):
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
    "prediction", both holding 0/1 values; 1 means the positive class. Rows are tallied as tp for (label 1,
    prediction 1), fp for (0, 1), fn for (1, 0) and tn for (0, 0).
    Malformed rows raise ParseError carrying the 1-based physical row
    number (the header is row 1); a file with no data rows raises
    EmptyInput.
    """
    stream, owns = _as_text_stream(source)
    try:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            raise EmptyInput("prediction file is empty")
        columns = [name.strip().lower() for name in header]
        try:
            label_idx = columns.index("label")
            pred_idx = columns.index("prediction")
        except ValueError:
            raise ParseError(
                f"row 1: header must name 'label' and 'prediction' columns, got {header!r}",
                row=1,
            ) from None
        tp = fp = fn = tn = 0
        rows = 0
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) <= max(label_idx, pred_idx):
                raise ParseError(
                    f"row {line}: expected at least {max(label_idx, pred_idx) + 1} fields, got {len(row)}",
                    row=line,
                )
            label = _parse_binary(row[label_idx], "label", line)
            prediction = _parse_binary(row[pred_idx], "prediction", line)
            rows += 1
            if label == 1 and prediction == 1:
                tp += 1
            elif label == 0 and prediction == 1:
                fp += 1
            elif label == 1 and prediction == 0:
                fn += 1
            else:
                tn += 1
        if rows == 0:
            raise EmptyInput("prediction file has a header but no data rows")
        return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)
    finally:
        if owns:
            stream.close()


def write_predictions(counts: ConfusionCounts, sink: IO) -> int:
    """Write one prediction row per confusion-matrix element; inverse of ingest.

    Rows are grouped tp, fp, fn, tn so output is deterministic; returns
    the number of data rows (counts.n).
    """
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["label", "prediction"])
    for _ in range(counts.tp):
        writer.writerow(["1", "1"])
    for _ in range(counts.fp):
        writer.writerow(["0", "1"])
    for _ in range(counts.fn):
        writer.writerow(["1", "0"])
    for _ in range(counts.tn):
        writer.writerow(["0", "0"])
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


def _cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def emit_curves(
    profile: DiagnosticProfile,
    step: float,
    sink: IO,
    sidecar: IO | None = None,
) -> int:
    """Write the predictive-value and curvature curves as CSV.

    Columns are phi, ppv, npv, kappa_ppv, kappa_npv over the grid
    {0, step, ..., 1}; cells where a curve is undefined are left empty.
    When a sidecar stream is given, a JSON object with the two
    thresholds (and the predictive values there) is written to it, so
    curve datasets stay paired with the analytic landmarks they should
    exhibit. Returns the number of data rows.
    """
    grid = _phi_grid(step)
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["phi", "ppv", "npv", "kappa_ppv", "kappa_npv"])
    for phi in grid:
        cells = [repr(float(phi))]
        try:
            cells.append(_cell(ppv_at(profile, phi)))
        except DegenerateDenominator:
            cells.append("")
        try:
            cells.append(_cell(npv_at(profile, phi)))
        except DegenerateDenominator:
            cells.append("")
        for curve in (Curve.PPV, Curve.NPV):
            try:
                cells.append(_cell(curvature_at(profile, phi, curve).kappa))
            except DegenerateDenominator:
                cells.append("")
        writer.writerow(cells)

    if sidecar is not None:
        json.dump(threshold_summary(profile), sidecar, indent=2)
        sidecar.write("\n")
    return len(grid)


def emit_ratio_curves(
    profile: DiagnosticProfile,
    betas: Iterable[float],
    step: float,
    sink: IO,
) -> int:
    """Write reference-over-current accuracy ratios along prevalence as CSV.

    One column per ratio (f1, each requested f_beta, fm), evaluated on
    the grid {0, step, ..., 1} against the metric's value at full
    prevalence. Cells are empty where the underlying metric is zero or
    undefined (always the case at phi = 0). Returns the number of data
    rows.
    """
    weights = [_as_weight(b) for b in betas]
    grid = _phi_grid(step)

    columns: list[tuple[str, list[float | None]]] = []
    specs: list[tuple[str, RatioMetric, FBetaWeight | None]] = [("f1_chi", RatioMetric.F1, None)]
    for w in weights:
        specs.append((f"fbeta_{w.beta:g}_chi", RatioMetric.F_BETA, w))
    specs.append(("fm_chi", RatioMetric.FM, None))
    for name, metric, w in specs:
        pairs = accuracy_divergence_curve(profile, metric, grid, beta=w)
        columns.append((name, [ratio for _, ratio in pairs]))

    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["phi"] + [name for name, _ in columns])
    for i, phi in enumerate(grid):
        writer.writerow([repr(float(phi))] + [_cell(col[i]) for _, col in columns])
    return len(grid)

"""Row-by-row reference for the CSV emitters, the prediction writer and ingest.

dataio evaluates the curve grids a column at a time, writes prediction
rows in blocks and tallies ingest a block of lines at a time. This
module keeps the per-row code those replaced: one guarded scalar call
(ppv_at, npv_at, curvature_scalar, accuracy_divergence_curve) per cell,
one csv row per prediction, and _parse_binary on every ingested row, so
the bulk paths can be checked byte for byte and ParseError row for row
against the scalar functions.

curvature_scalar is curvature_at's arithmetic written out on its own.
It shares no code with thresholds._kappa_kernel, which curvature_at,
curvature_argmax's search and the emitted kappa columns all evaluate,
so those are checked against an independent copy, not against
themselves.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Iterable

from prevthresh.bounds import accuracy_divergence_curve
from prevthresh.dataio import Source, _as_text_stream, _parse_binary, _phi_grid
from prevthresh.errors import DegenerateDenominator, EmptyInput, ParseError, _echo
from prevthresh.metrics import ConfusionCounts, DiagnosticProfile, Rate, npv_at, ppv_at
from prevthresh.thresholds import Curve, CurvaturePoint, threshold_summary
from report_oracle import checked_betas


def curvature_scalar(profile: DiagnosticProfile, phi: float, curve: Curve | str = Curve.PPV) -> CurvaturePoint:
    """Slope and curvature of a predictive-value curve at one prevalence, as curvature_at returns them.

    Derivatives are analytic from the quotient form (with denominator
    u = p*phi + q*(1-phi): |f'| = p*q/u^2, |f''| = 2*p*q*|p-q|/u^3),
    then kappa = |f''| / (1 + f'^2)^(3/2). Raises curvature_at's
    DegenerateDenominator, message for message, where u is 0, and where
    u is so small that u**3 underflows or the slope term overflows.
    """
    curve = Curve(curve)
    phi = Rate(phi)
    a, b = float(profile.sensitivity), float(profile.specificity)
    p, q, sign = (a, 1.0 - b, 1.0) if curve == Curve.PPV else (1.0 - a, b, -1.0)
    u = p * float(phi) + q * (1.0 - float(phi))
    if u == 0.0:
        raise DegenerateDenominator(
            f"{curve.value} curve undefined at phi={float(phi)!r} for {profile}"
        )
    u2 = u * u
    u3 = u2 * u
    if u3 == 0.0:
        raise DegenerateDenominator(
            f"{curve.value} curvature not representable at phi={float(phi)!r} for {profile}: u**3 underflows"
        )
    pq = p * q
    slope = sign * pq / u2
    second = 2.0 * pq * abs(p - q) / u3
    try:
        kappa = second / (1.0 + slope * slope) ** 1.5
    except OverflowError:
        raise DegenerateDenominator(
            f"{curve.value} curvature not representable at phi={float(phi)!r} for {profile}: slope**3 overflows"
        ) from None
    return CurvaturePoint(phi=phi, kappa=kappa, slope=slope)


def ingest_predictions_scalar(source: Source) -> ConfusionCounts:
    """ingest_predictions parsing every row's tokens (no BOM handling)."""
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
                f"row 1: header must name 'label' and 'prediction' columns, got {_echo(repr(header), str)}",
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


def write_predictions_scalar(counts: ConfusionCounts, sink: IO) -> int:
    """write_predictions as one csv row per confusion-matrix element."""
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


def _cell(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def emit_curves_scalar(
    profile: DiagnosticProfile,
    step: float,
    sink: IO,
    sidecar: IO | None = None,
) -> int:
    """emit_curves with one guarded ppv_at/npv_at/curvature_scalar call per cell."""
    _, rows, points = _phi_grid(step)
    grid = points(0, rows)
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
                cells.append(_cell(curvature_scalar(profile, phi, curve).kappa))
            except DegenerateDenominator:
                cells.append("")
        writer.writerow(cells)

    if sidecar is not None:
        json.dump(threshold_summary(profile), sidecar, indent=2)
        sidecar.write("\n")
    return len(grid)


def emit_ratio_curves_scalar(
    profile: DiagnosticProfile,
    betas: Iterable[float],
    step: float,
    sink: IO,
) -> int:
    """emit_ratio_curves through accuracy_divergence_curve, one cell at a time."""
    betas = checked_betas(betas)
    _, rows, points = _phi_grid(step)
    grid = points(0, rows)

    columns: list[tuple[str, list[float | None]]] = []
    specs: list[tuple[str, str, float | None]] = [("f1_chi", "f1", None)]
    for beta in betas:
        specs.append((f"fbeta_{beta:g}_chi", "f_beta", beta))
    specs.append(("fm_chi", "fm", None))
    for name, metric, beta in specs:
        pairs = accuracy_divergence_curve(profile, metric, grid, beta=beta)
        columns.append((name, [ratio for _, ratio in pairs]))

    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["phi"] + [name for name, _ in columns])
    for i, phi in enumerate(grid):
        writer.writerow([repr(float(phi))] + [_cell(col[i]) for _, col in columns])
    return len(grid)

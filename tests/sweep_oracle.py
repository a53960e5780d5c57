"""Cell-by-cell reference for the verify_bounds sweep.

verify_bounds evaluates the closed forms as arrays over the whole grid.
This module keeps the per-cell loop it replaced: it builds a profile at
every swept cell and calls the per-profile evaluators of ratio_table(),
so the vectorized report can be checked byte for byte against the
scalar functions.
"""

from functools import partial
from typing import Callable, Iterable

from prevthresh._closed import SWEEP_BETAS
from prevthresh.bounds import (
    RATIO_BOUNDS,
    BoundRecord,
    BoundsReport,
    BoundViolation,
    _grid_axis,
    f1_ratio,
    f_beta_ratio,
    fm_ratio,
    mcc_ratio,
)
from prevthresh.errors import PrevthreshError
from prevthresh.metrics import DiagnosticProfile, Rate, _beta


def ratio_table(
    betas: Iterable[float] = SWEEP_BETAS,
) -> list[tuple[str, Callable[[DiagnosticProfile], float]]]:
    """The bounded ratios as (key, evaluator) pairs, in reporting order.

    Keys are f1, f_beta_<beta:g> for each beta, fm and mcc. Each
    evaluator is the ratio function itself (f_beta_ratio bound to its
    beta): it returns the ratio of a profile as a float and raises a
    PrevthreshError where the ratio is undefined. Invalid betas raise
    ValueError here, before any ratio is evaluated.
    """
    table: list[tuple[str, Callable[[DiagnosticProfile], float]]] = [("f1", f1_ratio)]
    for beta in map(_beta, betas):
        table.append((f"f_beta_{beta:g}", partial(f_beta_ratio, beta=beta)))
    table += [("fm", fm_ratio), ("mcc", mcc_ratio)]
    return table


def verify_bounds_scalar(grid_step: float = 0.01, delta: float = 1e-6, tolerance: float = 1e-9) -> BoundsReport:
    """verify_bounds computed one cell and one evaluator call at a time (arguments unchecked)."""
    evaluators = ratio_table()

    state: dict[str, dict] = {
        key: {
            "cells": 0,
            "min": None,
            "argmin": None,
            "max": None,
            "argmax": None,
            "violations": [],
            "skipped": [],
        }
        for key, _ in evaluators
    }

    floor = 1.0 + delta
    cells_swept = 0
    for a in _grid_axis(grid_step):
        for b in _grid_axis(grid_step):
            if b >= 1.0 or a + b < floor:
                continue
            cells_swept += 1
            profile = DiagnosticProfile(Rate(a), Rate(b))
            for key, evaluate in evaluators:
                s = state[key]
                try:
                    value = evaluate(profile)
                except PrevthreshError:
                    s["skipped"].append((a, b))
                    continue
                s["cells"] += 1
                if s["min"] is None or value < s["min"]:
                    s["min"] = value
                    s["argmin"] = (a, b)
                if s["max"] is None or value > s["max"]:
                    s["max"] = value
                    s["argmax"] = (a, b)
                lower, upper = RATIO_BOUNDS[key]
                if value < lower - tolerance or value > upper + tolerance:
                    s["violations"].append(
                        BoundViolation(sensitivity=a, specificity=b, value=value, lower=lower, upper=upper)
                    )

    records = tuple(
        BoundRecord(
            metric=key,
            lower=RATIO_BOUNDS[key][0],
            upper=RATIO_BOUNDS[key][1],
            cells=state[key]["cells"],
            observed_min=state[key]["min"],
            observed_max=state[key]["max"],
            argmin=state[key]["argmin"],
            argmax=state[key]["argmax"],
            violations=tuple(state[key]["violations"]),
            skipped=tuple(state[key]["skipped"]),
        )
        for key, _ in evaluators
    )
    return BoundsReport(
        grid_step=grid_step,
        delta=delta,
        tolerance=tolerance,
        constraint=f"sensitivity + specificity >= {floor!r}",
        cells_swept=cells_swept,
        records=records,
    )

"""Acceptance suite: ten numbered criteria, one printed verdict line each.

Run under pytest (output stays visible because -s is the configured
default) or directly with `python tests/test_acceptance.py`. Every
criterion asserts both its numeric tolerance and its runtime budget;
the printed line carries the measured margin so a reader can see how
much headroom each check has.
"""

import io
import json
import math
import time

import numpy as np

from prevthresh import (
    Curve,
    DiagnosticProfile,
    PrevthreshError,
    curvature_argmax,
    curvature_at,
    emit_curves,
    emit_ratio_curves,
    f1_at,
    f1_ratio,
    f_beta_at,
    f_beta_ratio,
    fm_at,
    fm_ratio,
    mcc_from_counts,
    mcc_from_rates,
    mcc_ratio,
    negative_threshold,
    npv_at,
    positive_threshold,
    ppv_at,
    simulate_population,
    verify_bounds,
)
from prevthresh.metrics import ConfusionCounts
from prevthresh.simulate import SimulationConfig

from mcc_oracles import mcc_ratio_decomposed, mcc_ratio_long_form

SQRT2 = math.sqrt(2.0)


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:02d}: {description}{suffix}")
    assert ok, f"criterion {num:02d} failed: {description}{suffix}"


def _informative_grid(step: float = 0.05):
    """All (a, b) with both coordinates in {step, ..., 1 - step} and a + b > 1 + 1e-6."""
    k = round(1.0 / step)
    axis = [round(i * step, 10) for i in range(1, k)]
    return [(a, b) for a in axis for b in axis if a + b > 1.0 + 1e-6]


def test_criterion_01_thresholds_match_curvature_oracle():
    start = time.perf_counter()
    worst = 0.0
    cells = 0
    for a, b in _informative_grid():
        p = DiagnosticProfile(a, b)
        closed_e = math.sqrt(1 - b) / (math.sqrt(a) + math.sqrt(1 - b))
        closed_n = math.sqrt(b) / (math.sqrt(1 - a) + math.sqrt(b))
        worst = max(
            worst,
            abs(float(curvature_argmax(p, Curve.PPV).phi) - closed_e),
            abs(float(curvature_argmax(p, Curve.NPV).phi) - closed_n),
        )
        cells += 1
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "numeric curvature argmax matches both closed-form thresholds within 1e-6",
        worst <= 1e-6 and elapsed <= 30.0,
        f"max |diff| {worst:.3e} over {cells} profiles, {elapsed:.2f} s",
    )


def test_criterion_02_unit_slope_at_thresholds():
    start = time.perf_counter()
    worst = 0.0
    for a, b in _informative_grid():
        p = DiagnosticProfile(a, b)
        slope_e = curvature_at(p, positive_threshold(p).phi, Curve.PPV).slope
        slope_n = curvature_at(p, negative_threshold(p).phi, Curve.NPV).slope
        worst = max(worst, abs(slope_e - 1.0), abs(abs(slope_n) - 1.0))
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        "predictive-value slope has unit magnitude at each threshold within 1e-9",
        worst <= 1e-9 and elapsed <= 1.0,
        f"max |slope - 1| {worst:.3e}, {elapsed:.2f} s",
    )


def test_criterion_03_ratio_identities_on_random_profiles():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    profiles = []
    while len(profiles) < 10_000:
        a, b = rng.uniform(0.0, 1.0, size=2)
        if a + b > 1.0 + 1e-6:
            profiles.append((float(a), float(b)))
    worst = 0.0
    for a, b in profiles:
        p = DiagnosticProfile(a, b)
        phi_e = positive_threshold(p).phi
        direct_f1 = float(f1_at(p, 1.0)) / float(f1_at(p, phi_e))
        worst = max(worst, abs(f1_ratio(p) - direct_f1) / direct_f1)
        for beta in (0.5, 1.0, 2.0):
            direct = float(f_beta_at(p, 1.0, beta)) / float(f_beta_at(p, phi_e, beta))
            worst = max(worst, abs(f_beta_ratio(p, beta) - direct) / direct)
        direct_fm = float(fm_at(p, 1.0)) / float(fm_at(p, phi_e))
        worst = max(worst, abs(fm_ratio(p) - direct_fm) / direct_fm)
    elapsed = time.perf_counter() - start
    _criterion(
        3,
        "closed-form accuracy ratios match direct composition to 1e-12 relative",
        worst <= 1e-12 and elapsed <= 5.0,
        f"max rel err {worst:.3e} over {len(profiles)} informative profiles, {elapsed:.2f} s",
    )


def test_criterion_04_f_ratio_bounds_hold_on_fine_grid():
    start = time.perf_counter()
    report = verify_bounds(grid_step=0.01, delta=1e-6, tolerance=1e-9)
    f_metrics = ("f1", "f_beta_0.5", "f_beta_1", "f_beta_2", "fm")
    violation_count = sum(len(report.record(m).violations) for m in f_metrics)
    extreme = DiagnosticProfile(1.0, 0.0)
    spot_ok = (
        abs(f1_ratio(extreme) - 1.5) <= 1e-12
        and abs(fm_ratio(extreme) - SQRT2) <= 1e-12
    )
    elapsed = time.perf_counter() - start
    _criterion(
        4,
        "F-score and Fowlkes-Mallows ratio bounds hold over the 0.01 grid, "
        "with the extremal spot values reproduced",
        violation_count == 0 and spot_ok and elapsed <= 60.0,
        f"{report.cells_swept} cells, {violation_count} violations, "
        f"spot values 1.5 and sqrt(2) exact to 1e-12, {elapsed:.2f} s",
    )


def test_criterion_05_mcc_ratio_bound_and_three_way_agreement():
    start = time.perf_counter()
    report = verify_bounds(grid_step=0.01, delta=1e-6, tolerance=1e-9)
    mcc = report.record("mcc")
    interval_ok = (
        not mcc.violations
        and mcc.observed_min >= SQRT2 / 2.0 - 1e-9
        and mcc.observed_max <= SQRT2 + 1e-9
    )
    worst_pair = 0.0
    compared = skipped = 0
    axis = [round(0.01 * i, 10) for i in range(1, 101)]
    for a in axis:
        for b in axis:
            if b >= 1.0 or a + b < 1.0 + 1e-6:
                continue
            p = DiagnosticProfile(a, b)
            direct = mcc_ratio(p)
            try:
                decomposed = mcc_ratio_decomposed(p)
                long_form = mcc_ratio_long_form(p)
            except PrevthreshError:
                # The decomposed paths need interior rates; the direct path
                # still covers these cells via its continuity extension.
                skipped += 1
                continue
            worst_pair = max(
                worst_pair,
                abs(direct - decomposed),
                abs(direct - long_form),
                abs(decomposed - long_form),
            )
            compared += 1
    elapsed = time.perf_counter() - start
    _criterion(
        5,
        "MCC ratio stays in [sqrt(2)/2, sqrt(2)] on the 0.01 grid and its three "
        "evaluation paths agree pairwise to 1e-10",
        interval_ok and worst_pair <= 1e-10 and elapsed <= 60.0,
        f"observed [{mcc.observed_min:.6f}, {mcc.observed_max:.6f}], "
        f"max pairwise diff {worst_pair:.3e} over {compared} cells "
        f"({skipped} boundary cells direct-only), {elapsed:.2f} s",
    )


def test_criterion_06_f1_divergence_at_low_prevalence():
    start = time.perf_counter()
    p = DiagnosticProfile(0.9, 0.95)
    grid = [10.0**-k for k in range(1, 9)]
    reference = float(f1_at(p, 1.0))
    values = [reference / float(f1_at(p, phi)) for phi in grid]
    monotone = all(x < y for x, y in zip(values, values[1:]))
    at_micro = reference / float(f1_at(p, 1e-6))
    elapsed = time.perf_counter() - start
    _criterion(
        6,
        "F1 divergence ratio exceeds 1e3 at prevalence 1e-6 and grows "
        "monotonically as prevalence falls through the log grid",
        at_micro > 1e3 and monotone and elapsed <= 1.0,
        f"ratio {at_micro:.1f} at phi=1e-6, monotone over 1e-1..1e-8, {elapsed:.2f} s",
    )


def test_criterion_07_curve_datasets_reproduce_landmarks():
    start = time.perf_counter()

    sink = io.StringIO()
    emit_curves(DiagnosticProfile(0.6, 0.95), 0.001, sink)
    rows = [line.split(",") for line in sink.getvalue().splitlines()[1:]]
    kappa_rows = [(float(r[0]), float(r[3])) for r in rows if r[3]]
    peak_phi = max(kappa_rows, key=lambda item: item[1])[0]
    peak_ok = abs(peak_phi - 0.2240) <= 0.001

    sink, sidecar = io.StringIO(), io.StringIO()
    emit_curves(DiagnosticProfile(0.9, 0.95), 0.001, sink, sidecar=sidecar)
    summary = json.loads(sidecar.getvalue())
    sidecar_ok = (
        abs(summary["phi_e"] - 0.1907) <= 1e-4 and abs(summary["phi_n"] - 0.7550) <= 1e-4
    )

    sink = io.StringIO()
    emit_ratio_curves(DiagnosticProfile(0.9, 0.95), [0.5, 2.0], 0.001, sink)
    last = sink.getvalue().splitlines()[-1].split(",")
    unity_ok = float(last[0]) == 1.0 and all(
        abs(float(cell) - 1.0) <= 1e-12 for cell in last[1:]
    )

    elapsed = time.perf_counter() - start
    _criterion(
        7,
        "emitted curve datasets place the curvature peak and both thresholds at "
        "their known landmark positions, and ratio columns are unity at full prevalence",
        peak_ok and sidecar_ok and unity_ok and elapsed <= 5.0,
        f"kappa_ppv peak at {peak_phi:.4f} (target 0.2240), "
        f"phi_e {summary['phi_e']:.6f}, phi_n {summary['phi_n']:.6f}, {elapsed:.2f} s",
    )


def test_criterion_08_bayes_and_mcc_consistency_on_random_counts():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    cells = rng.integers(1, 500, size=(10_000, 4))
    worst_mcc = 0.0
    worst_bayes = 0.0
    for tp, fp, fn, tn in cells:
        counts = ConfusionCounts(tp=int(tp), fp=int(fp), fn=int(fn), tn=int(tn))
        profile = counts.profile()
        prevalence = counts.prevalence()
        via_rates = mcc_from_rates(
            counts.ppv(), profile.sensitivity, profile.specificity, counts.npv()
        )
        worst_mcc = max(worst_mcc, abs(mcc_from_counts(counts) - via_rates))
        direct_ppv = float(counts.ppv())
        direct_npv = float(counts.npv())
        worst_bayes = max(
            worst_bayes,
            abs(float(ppv_at(profile, prevalence)) - direct_ppv) / direct_ppv,
            abs(float(npv_at(profile, prevalence)) - direct_npv) / direct_npv,
        )
    elapsed = time.perf_counter() - start
    _criterion(
        8,
        "counts-based and rates-based MCC agree to 1e-10 and the predictive-value "
        "curves recompose observed PPV/NPV to 1e-12 over random confusion matrices",
        worst_mcc <= 1e-10 and worst_bayes <= 1e-12 and elapsed <= 5.0,
        f"max MCC diff {worst_mcc:.3e}, max Bayes rel err {worst_bayes:.3e}, {elapsed:.2f} s",
    )


def test_criterion_09_monte_carlo_ppv_recovery():
    start = time.perf_counter()
    profile = DiagnosticProfile(0.9, 0.95)
    hits = 0
    for seed in range(20):
        config = SimulationConfig(prevalence=0.190743, profile=profile, n=10**6, seed=seed)
        counts = simulate_population(config)
        if abs(float(counts.ppv()) - 0.809204) <= 0.01:
            hits += 1
    elapsed = time.perf_counter() - start
    _criterion(
        9,
        "simulated populations of 1e6 recover the threshold PPV within 0.01 "
        "for at least 19 of 20 seeds",
        hits >= 19 and elapsed <= 60.0,
        f"{hits}/20 seeds within tolerance, {elapsed:.2f} s",
    )


def test_criterion_10_informativeness_constraint_is_necessary():
    start = time.perf_counter()
    value = f_beta_ratio(DiagnosticProfile(0.25, 0.0), 0.5)
    elapsed = time.perf_counter() - start
    _criterion(
        10,
        "an uninformative profile pushes the F(0.5) ratio to 2.0, past its bound "
        "of 1.8, so the sweep's informativeness restriction is load-bearing",
        abs(value - 2.0) <= 1e-12 and value > 1.8 and elapsed <= 1.0,
        f"ratio {value!r}, {elapsed:.2f} s",
    )


if __name__ == "__main__":
    import sys

    failures = 0
    for name in sorted(n for n in globals() if n.startswith("test_criterion_")):
        try:
            globals()[name]()
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)

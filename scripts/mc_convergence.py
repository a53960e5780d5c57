#!/usr/bin/env python3
"""Monte Carlo convergence table for the predictive-value curves.

For each population size, draws `--seeds` independent populations at
the given prevalence/profile and reports the mean absolute deviation of
the empirical PPV and NPV from the analytic curve values. The error
should fall roughly like 1/sqrt(n). A draw counts only when both of its
empirical values are defined (it predicted each class at least once);
a size with no such draw prints n/a. A rate outside [0, 1], or a
prevalence where the analytic PPV or NPV is undefined, is a usage error.
"""

import argparse

from prevthresh import (
    DiagnosticProfile,
    PrevthreshError,
    Rate,
    SimulationConfig,
    UndefinedMetric,
    npv_at,
    ppv_at,
    simulate_population,
)


def mean_abs_errors(prevalence, profile, analytic_ppv, analytic_npv, n, seeds):
    """Mean |empirical - analytic| PPV and NPV over the draws where both are defined; None without one."""
    ppv_errs, npv_errs = [], []
    for seed in range(seeds):
        config = SimulationConfig(prevalence=prevalence, profile=profile, n=n, seed=seed)
        counts = simulate_population(config)
        try:
            ppv, npv = float(counts.ppv()), float(counts.npv())
        except UndefinedMetric:
            # A draw with no predictions of one class (likely only for tiny n).
            continue
        ppv_errs.append(abs(ppv - analytic_ppv))
        npv_errs.append(abs(npv - analytic_npv))
    if not ppv_errs:
        return None, None
    return sum(ppv_errs) / len(ppv_errs), sum(npv_errs) / len(npv_errs)


def _cell(err) -> str:
    return f"{'n/a':>15}" if err is None else f"{err:>15.6f}"


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prevalence", type=Rate, default=0.190743)
    parser.add_argument("--sensitivity", type=Rate, default=0.9)
    parser.add_argument("--specificity", type=Rate, default=0.95)
    parser.add_argument("--seeds", type=_int_at_least(0), default=20)
    parser.add_argument(
        "--sizes", type=_int_at_least(1), nargs="+", default=[10**3, 10**4, 10**5, 10**6]
    )
    args = parser.parse_args()

    profile = DiagnosticProfile(args.sensitivity, args.specificity)
    try:
        analytic_ppv = float(ppv_at(profile, args.prevalence))
        analytic_npv = float(npv_at(profile, args.prevalence))
    except PrevthreshError as exc:
        parser.error(f"no analytic value at prevalence {args.prevalence:g}: {exc}")
    print(
        f"prevalence={args.prevalence:g} sensitivity={args.sensitivity:g} "
        f"specificity={args.specificity:g} seeds={args.seeds}"
    )
    print(f"{'n':>10}  {'mean |ppv err|':>15}  {'mean |npv err|':>15}")
    for n in args.sizes:
        ppv_err, npv_err = mean_abs_errors(args.prevalence, profile, analytic_ppv, analytic_npv, n, args.seeds)
        print(f"{n:>10}  {_cell(ppv_err)}  {_cell(npv_err)}")


if __name__ == "__main__":
    main()

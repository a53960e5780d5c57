"""Command-line interface.

Subcommands map one-to-one onto the library surface: thresholds,
curves, ratios, analyze, simulate, verify-bounds; --version prints the
package version. Output goes to stdout or --output; errors go to
stderr as one machine-parsable line `error:<kind>: <message>`. Exit
codes: 0 success, 1 for any usage, validation, parse or I/O error, 2
when verify-bounds found violations. JSON output never holds NaN or an
infinity; such a payload is a validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import contextmanager, suppress
from collections.abc import Sequence

from . import __version__
from .bounds import SWEEP_BETAS, _ratio_values, verify_bounds
from .dataio import emit_curves, emit_ratio_curves, ingest_predictions
from .errors import PrevthreshError, UsageError, value_or_none
from .metrics import ConfusionCounts, DiagnosticProfile, Rate, npv_at, ppv_at
from .report import analyze_counts
from .simulate import SimulationConfig, simulate_population
from .thresholds import threshold_summary

__all__ = ["build_parser", "run_cli", "main"]

_NEGATIVE_NUMBER = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures raise instead of exiting.

    The stock parser exits with status 2, which this CLI reserves for
    bound violations; usage problems must exit 1 like every other
    input error.

    The stock parser also takes only -1 and -1.5 for negative numbers
    and reads any other argument that starts with "-" as an option, so
    "--delta -1e-5" or "--delta -inf" would fail with "expected one
    argument". Every argument that starts like a negative number,
    including -inf, -nan and comma lists such as -1,1,1,1, is a value
    here, so it reaches the flag's own validation as it does in the
    "--delta=-1e-5" form. No option of this CLI looks like a number.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise UsageError(message)


def _counts_arg(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected tp,fp,fn,tn, got {text!r}")
    try:
        tp, fp, fn, tn = (int(part.strip()) for part in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"counts must be integers, got {text!r}") from None
    return tp, fp, fn, tn


def _betas_arg(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part.strip()) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"betas must be numbers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("at least one beta is required")
    return values


def _add_profile_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sensitivity", type=float, required=True, help="true-positive rate, in [0, 1]")
    p.add_argument("--specificity", type=float, required=True, help="true-negative rate, in [0, 1]")


def _add_output_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", metavar="PATH", help="write to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prevthresh",
        description="Prevalence thresholds and accuracy-ratio bounds for binary classifiers.",
    )
    parser.add_argument("--version", action="version", version=f"prevthresh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("thresholds", help="closed-form prevalence thresholds of a profile")
    _add_profile_args(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    _add_output_arg(p)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("curves", help="predictive-value and curvature curves as CSV")
    _add_profile_args(p)
    p.add_argument("--step", type=float, default=0.001, help="prevalence grid step in [1e-6, 0.5] (default 0.001)")
    _add_output_arg(p)
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("ratios", help="accuracy-ratio curves as CSV (closed-form summary with --json)")
    _add_profile_args(p)
    p.add_argument(
        "--betas",
        type=_betas_arg,
        default=(0.5, 2.0),
        help="comma-separated F-beta weights (default 0.5,2)",
    )
    p.add_argument("--step", type=float, default=0.001, help="prevalence grid step in [1e-6, 0.5] (default 0.001)")
    p.add_argument("--json", action="store_true", help="emit the closed-form ratio summary as JSON")
    _add_output_arg(p)
    p.set_defaults(func=_cmd_ratios)

    p = sub.add_parser("analyze", help="full report for one confusion matrix")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--counts", type=_counts_arg, metavar="TP,FP,FN,TN")
    source.add_argument("--predictions", metavar="PATH", help="CSV with label,prediction columns")
    p.add_argument(
        "--betas",
        type=_betas_arg,
        default=SWEEP_BETAS,
        help="comma-separated F-beta weights (default 0.5,1,2)",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    _add_output_arg(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="draw a seeded synthetic population and report its counts")
    p.add_argument("--prevalence", type=float, required=True, help="positive-class rate, in [0, 1]")
    _add_profile_args(p)
    p.add_argument("--n", type=int, required=True, help="population size")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    _add_output_arg(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify-bounds", help="sweep the ratio bounds over a profile grid (JSON report)")
    p.add_argument("--grid-step", type=float, default=0.01, help="sensitivity/specificity grid step in [0.001, 0.05] (default 0.01)")
    p.add_argument("--delta", type=float, default=1e-6, help="informativeness margin (default 1e-6)")
    p.add_argument("--tolerance", type=float, default=1e-9, help="violation tolerance (default 1e-9)")
    _add_output_arg(p)
    p.set_defaults(func=_cmd_verify_bounds)

    return parser


@contextmanager
def _sink(path: str | None):
    """Text stream for --output PATH (stdout without one), published only on success.

    A regular file, or a path that does not exist yet, is written to a
    temporary file beside it and renamed over it when the block exits
    normally; when the block raises, the temporary file is removed and
    the path is left as it was. Paths that exist but are not regular
    files, such as /dev/null or a pipe, are written in place.
    """
    if path is None:
        yield sys.stdout
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, "w", encoding="utf-8", newline="") as stream:
            yield stream
        return
    temp = f"{target}.{os.getpid()}.tmp"
    try:
        stream = open(temp, "x", encoding="utf-8", newline="")
    except OSError as exc:
        # Report the path the user gave, not the temporary one.
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with stream:
            yield stream
        os.replace(temp, target)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def _write_json(out, payload: dict) -> None:
    # NaN and infinities are not JSON; refuse them rather than print them.
    out.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _profile_from(args) -> DiagnosticProfile:
    return DiagnosticProfile(Rate(args.sensitivity), Rate(args.specificity))


def _cmd_thresholds(args) -> int:
    payload = threshold_summary(_profile_from(args))
    with _sink(args.output) as out:
        if args.json:
            _write_json(out, payload)
        else:
            for key, value in payload.items():
                out.write(f"{key} = {_fmt(value)}\n")
    return 0


def _cmd_curves(args) -> int:
    profile = _profile_from(args)
    if args.output is None:
        emit_curves(profile, args.step, sys.stdout)
    else:
        # The curve CSV gets a companion <output>.json recording the thresholds.
        with _sink(args.output) as out, _sink(args.output + ".json") as side:
            emit_curves(profile, args.step, out, sidecar=side)
    return 0


def _ratio_summary(profile: DiagnosticProfile, betas: Sequence[float]) -> dict:
    return {
        "sensitivity": float(profile.sensitivity),
        "specificity": float(profile.specificity),
        **_ratio_values(profile, betas),
    }


def _cmd_ratios(args) -> int:
    profile = _profile_from(args)
    with _sink(args.output) as out:
        if args.json:
            _write_json(out, _ratio_summary(profile, args.betas))
        else:
            emit_ratio_curves(profile, args.betas, args.step, out)
    return 0


def _render_report(report) -> str:
    c = report.counts
    lines = [
        f"counts: tp={c.tp} fp={c.fp} fn={c.fn} tn={c.tn} n={c.n}",
        "profile: sensitivity={} specificity={} epsilon={}".format(
            _fmt(float(report.profile.sensitivity)),
            _fmt(float(report.profile.specificity)),
            _fmt(report.profile.epsilon),
        ),
        f"prevalence = {_fmt(float(report.prevalence))}",
    ]
    for section in ("metrics", "thresholds", "ratios", "flags"):
        lines.append(f"{section}:")
        for key, value in getattr(report, section).items():
            lines.append(f"  {key} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> int:
    if args.counts is not None:
        tp, fp, fn, tn = args.counts
        counts = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)
    else:
        counts = ingest_predictions(args.predictions)
    report = analyze_counts(counts, betas=args.betas)
    with _sink(args.output) as out:
        if args.json:
            _write_json(out, report.to_dict())
        else:
            out.write(_render_report(report))
    return 0


def _cmd_simulate(args) -> int:
    config = SimulationConfig(
        prevalence=Rate(args.prevalence),
        profile=_profile_from(args),
        n=args.n,
        seed=args.seed,
    )
    counts = simulate_population(config)
    payload = {
        "config": {
            "prevalence": float(config.prevalence),
            "sensitivity": float(config.profile.sensitivity),
            "specificity": float(config.profile.specificity),
            "n": config.n,
            "seed": config.seed,
        },
        "counts": {"tp": counts.tp, "fp": counts.fp, "fn": counts.fn, "tn": counts.tn, "n": counts.n},
        "empirical": {
            "prevalence": value_or_none(counts.prevalence),
            "sensitivity": value_or_none(counts.sensitivity),
            "specificity": value_or_none(counts.specificity),
            "ppv": value_or_none(counts.ppv),
            "npv": value_or_none(counts.npv),
        },
        "analytic": {
            "ppv": value_or_none(ppv_at, config.profile, config.prevalence),
            "npv": value_or_none(npv_at, config.profile, config.prevalence),
        },
    }
    with _sink(args.output) as out:
        if args.json:
            _write_json(out, payload)
        else:
            out.write(f"counts: tp={counts.tp} fp={counts.fp} fn={counts.fn} tn={counts.tn} n={counts.n}\n")
            for section in ("empirical", "analytic"):
                out.write(f"{section}:\n")
                for key, value in payload[section].items():
                    out.write(f"  {key} = {_fmt(value)}\n")
    return 0


def _cmd_verify_bounds(args) -> int:
    report = verify_bounds(grid_step=args.grid_step, delta=args.delta, tolerance=args.tolerance)
    with _sink(args.output) as out:
        _write_json(out, report.to_dict())
    return 2 if report.has_violations else 0


def run_cli(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse --help and --version exit on their own; normalize the code.
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    except PrevthreshError as exc:
        print(f"error:{exc.kind}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error:validation: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

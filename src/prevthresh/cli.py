"""Command-line interface.

Subcommands map one-to-one onto the library surface: thresholds,
curves, ratios, analyze, simulate, verify-bounds; --version prints the
package version. Output goes to stdout or --output; errors go to
stderr as one machine-parsable line `error:<kind>: <message>`. Exit
codes: 0 success, 1 for any usage, validation, parse or I/O error, 2
when verify-bounds found violations.

Every subcommand but the CSV emitters (curves, and ratios without
--json) returns one payload dict, which run_cli writes once: as JSON
with --json (verify-bounds always), else as its text form, the same
payload as key = value lines, a section as its name and indented
lines. JSON output never holds NaN or an infinity; such a payload is a
validation error. The CSV emitters write their grid a block of rows at
a time, so their memory does not grow with the number of rows.

An integer argument (--counts, --n, --seed) longer than the
interpreter's digit limit, sys.get_int_max_str_digits() (4,300 digits
by default), is a usage error, and so are counts whose total is: no
output could print it. An error line about a malformed or
out-of-range argument, an unknown subcommand, an unrecognized or
ambiguous option or a value given to a flag that takes none echoes
an argument of more than 64 characters by its first 64 and its length
(errors._echo).
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
from .bounds import SWEEP_BETAS, _finite, _ratio_values, verify_bounds
from .dataio import emit_curves, emit_ratio_curves, ingest_predictions
from .errors import _ECHO_CHARS, PrevthreshError, UsageError, _echo, value_or_none
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

    The stock parser echoes an invalid subcommand, unrecognized
    arguments, an ambiguous option and the value of a --flag=value
    whose flag takes none whole; this one cuts, in the message of any
    usage error, an argument longer than _ECHO_CHARS as _echo does.
    It reads only the message, not argparse's internals, whose shapes
    differ between Python versions.

    Python 3.10 to 3.12 drop the value of "--flag=--" and store [] for
    the flag without calling its type; 3.13 hands "--" to the type. This
    parser does as 3.13 does on each of them, so "--sensitivity=--" is
    an invalid float value and "--output=--" names a file "--".
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        raise UsageError(message)

    def _get_values(self, action, arg_strings):
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)

    def parse_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        try:
            return super().parse_args(args, namespace)
        except UsageError as err:
            raise UsageError(_cut_arguments(str(err), args)) from None


def _cut_arguments(message: str, argv: Sequence[str]) -> str:
    """message with each argument of argv over _ECHO_CHARS characters cut as _echo does.

    The value argparse reads from an --option=value or a -xvalue counts
    as an argument. Where message shows a text by its repr, the cut
    keeps the quotes. Longer texts go first, so a text inside another
    is not cut within it.
    """
    texts = {text for arg in argv for text in (arg, arg.partition("=")[2], arg[2:]) if len(text) > _ECHO_CHARS}
    for text in sorted(texts, key=len, reverse=True):
        message = message.replace(repr(text), _echo(text)).replace(text, _echo(text, str))
    return message


# An integer literal as int() reads it. int() refuses one only where it has
# more digits than the interpreter's limit, sys.get_int_max_str_digits(),
# which also bounds the integers str() writes; 0 means no limit. Compiled
# on the first error, not at every start.
_INT_LITERAL = r"\s*[+-]?\d+(?:_\d+)*\s*"


def _over_limit(what: str, shown: str) -> argparse.ArgumentTypeError:
    limit = sys.get_int_max_str_digits()
    return argparse.ArgumentTypeError(
        f"{what} may have at most {limit} digits (sys.get_int_max_str_digits()), got {_echo(shown)}"
    )


def _int(text: str, reason: str, shown: str) -> int:
    """int(text); else an ArgumentTypeError of reason and shown, or of the digit limit where that is why."""
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(_INT_LITERAL, text):
            raise _over_limit("integers", shown) from None
        raise argparse.ArgumentTypeError(reason + _echo(shown)) from None


def _float_arg(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {_echo(text)}") from None


def _int_arg(text: str) -> int:
    return _int(text, "invalid int value: ", text)


def _counts_arg(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected tp,fp,fn,tn, got {_echo(text)}")
    tp, fp, fn, tn = (_int(part, "counts must be integers, got ", text) for part in parts)
    try:
        str(tp + fp + fn + tn)  # the total n is part of every output
    except ValueError:
        raise _over_limit("the counts' total", text) from None
    return tp, fp, fn, tn


def _betas_arg(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part.strip()) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"betas must be numbers, got {_echo(text)}") from None
    if not values:
        raise argparse.ArgumentTypeError("at least one beta is required")
    return values


def _add_profile_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sensitivity", type=_float_arg, required=True, help="true-positive rate, in [0, 1]")
    p.add_argument("--specificity", type=_float_arg, required=True, help="true-negative rate, in [0, 1]")


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
    p.add_argument("--step", type=_float_arg, default=0.001, help="prevalence grid step in [1e-6, 0.5] (default 0.001)")
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
    p.add_argument("--step", type=_float_arg, default=0.001, help="prevalence grid step in [1e-6, 0.5] (default 0.001)")
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
    p.add_argument("--prevalence", type=_float_arg, required=True, help="positive-class rate, in [0, 1]")
    _add_profile_args(p)
    p.add_argument("--n", type=_int_arg, required=True, help="population size")
    p.add_argument("--seed", type=_int_arg, default=0, help="RNG seed (default 0)")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    _add_output_arg(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify-bounds", help="sweep the ratio bounds over a profile grid (JSON report)")
    p.add_argument("--grid-step", type=_float_arg, default=0.01, help="sensitivity/specificity grid step in [0.001, 0.05] (default 0.01)")
    p.add_argument("--delta", type=_float_arg, default=1e-6, help="informativeness margin (default 1e-6)")
    p.add_argument("--tolerance", type=_float_arg, default=1e-9, help="violation tolerance (default 1e-9)")
    _add_output_arg(p)
    p.set_defaults(func=_cmd_verify_bounds, json=True)

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


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_text(out, payload: dict) -> None:
    """Write a payload's text form: key = value for a scalar, name: and indented lines for a section.

    The counts and profile sections go on one line, as name: k=v ...,
    and simulate's config section, which repeats its arguments, is left
    out. The text is built whole before it is written, so a value that
    cannot be formatted leaves no partial output.
    """
    lines = []
    for key, value in payload.items():
        if not isinstance(value, dict):
            lines.append(f"{key} = {_fmt(value)}")
        elif key in ("counts", "profile"):
            lines.append(f"{key}: " + " ".join(f"{k}={_fmt(v)}" for k, v in value.items()))
        elif key != "config":
            lines.append(f"{key}:")
            lines.extend(f"  {k} = {_fmt(v)}" for k, v in value.items())
    out.write("\n".join(lines) + "\n")


def _profile_from(args) -> DiagnosticProfile:
    return DiagnosticProfile(args.sensitivity, args.specificity)


def _cmd_thresholds(args) -> dict:
    return threshold_summary(_profile_from(args))


def _cmd_curves(args) -> None:
    profile = _profile_from(args)
    if args.output is None:
        emit_curves(profile, args.step, sys.stdout)
    else:
        # The curve CSV gets a companion <output>.json recording the thresholds.
        with _sink(args.output) as out, _sink(args.output + ".json") as side:
            emit_curves(profile, args.step, out, sidecar=side)


def _cmd_ratios(args) -> dict | None:
    profile = _profile_from(args)
    if args.json:
        ratios = _ratio_values(profile, args.betas)
        for value in ratios.values():
            if value is not None:
                _finite(value)  # a ratio that overflows is a validation error here
        return {"sensitivity": float(profile.sensitivity), "specificity": float(profile.specificity), **ratios}
    with _sink(args.output) as out:
        emit_ratio_curves(profile, args.betas, args.step, out)


def _cmd_analyze(args) -> dict:
    counts = ConfusionCounts(*args.counts) if args.predictions is None else ingest_predictions(args.predictions)
    return analyze_counts(counts, betas=args.betas).to_dict()


def _cmd_simulate(args) -> dict:
    # SimulationConfig checks the prevalence too, but only after the profile
    # is built: Rate here reports a bad --prevalence before a bad profile.
    config = SimulationConfig(prevalence=Rate(args.prevalence), profile=_profile_from(args), n=args.n, seed=args.seed)
    counts = simulate_population(config)
    return {
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


def _cmd_verify_bounds(args) -> dict:
    return verify_bounds(grid_step=args.grid_step, delta=args.delta, tolerance=args.tolerance).to_dict()


def run_cli(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload = args.func(args)
        if payload is None:  # the command wrote its CSV itself
            return 0
        with _sink(args.output) as out:
            if args.json:
                # NaN and infinities are not JSON; refuse them rather than print them.
                out.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
            else:
                _write_text(out, payload)
        return 2 if payload.get("violation_count") else 0
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

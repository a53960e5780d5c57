#!/usr/bin/env python3
"""Compare this tree's prevthresh with another tree's, call by call, in one process.

Loads this tree's package (src/ beside this script) as ``prevthresh``
and the one in SRC_DIR (a directory holding a ``prevthresh`` package,
such as another checkout's src/) as ``prevthresh_base``. For each call
it times a batch on one side, then a batch of the same size on the
other, alternating which side goes first, for --rounds rounds; each
round gives one paired ratio, this tree's batch time over the base's.
It prints, per call, the first quartile, the median and the third
quartile of those ratios (below 1 means this tree is faster), the
median time of one call on each side in microseconds, and whether both
sides returned the same result (by repr, or the CSV text for
emit_ratio_curves).

The calls: ThresholdResult(...), ppv_at, npv_at, positive_threshold,
threshold_summary, curvature_argmax on the PPV and the NPV curve and on
the PPV curve of the broad-peak profile (0.6, 0.401), whose coarse scan
evaluates the whole grid, mcc_at_threshold, mcc_ratio, f_beta_at,
analyze_counts, verify_bounds(0.01), emit_ratio_curves,
simulate_population (after the grid calls have loaded numpy, so its
draws are numpy's Generator's, as in the validate workload),
ingest_predictions on each of bench_ingest.py's ten tables of --rows
rows, and run_cli of ``thresholds --json``, ``ratios --json`` and
``analyze --counts 9,1,1,9`` (text) in process, with stdout sent to a
StringIO. Every ingest call's counts are checked against the ones its
table was built with; a mismatch ends the run with exit code 1.
Pairing calls in one process cancels most of the drift between
separate runs; pin it to one core (taskset -c 0) all the same::

    python3 scripts/bench_paired.py ../parent/src
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
sys.path[:0] = [str(SCRIPTS.parent / "src"), str(SCRIPTS)]

import prevthresh  # noqa: E402  (this tree's, from the path set above)
from bench_ingest import TABLES  # noqa: E402

CLI_CALLS = {
    "cli thresholds --json": ["thresholds", "--sensitivity", "0.9", "--specificity", "0.95", "--json"],
    "cli ratios --json": ["ratios", "--sensitivity", "0.9", "--specificity", "0.95", "--json"],
    "cli analyze 9,1,1,9": ["analyze", "--counts", "9,1,1,9"],
}


def load_package(name: str, src_dir: Path):
    """Import src_dir/prevthresh as a package named name; its relative imports stay inside it."""
    init = src_dir / "prevthresh" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no prevthresh package in {src_dir}")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def calls(pkg, tables: dict[str, tuple[Path, tuple[int, int, int, int]]]) -> dict:
    """Each timed call of pkg as a function of no arguments, by name.

    tables maps a table's name to its file and its expected counts as
    (tp, fp, fn, tn).
    """
    profile = pkg.DiagnosticProfile(0.9, 0.95)
    broad_peak = pkg.DiagnosticProfile(0.6, 0.401)
    counts = pkg.ConfusionCounts(90, 5, 10, 95)
    population = pkg.SimulationConfig(0.19, profile, 10**6, 7)

    def ratio_curves() -> str:
        sink = io.StringIO()
        pkg.emit_ratio_curves(profile, [0.5, 2.0], 0.001, sink)
        return sink.getvalue()

    named = {
        "ThresholdResult(...)": lambda: pkg.ThresholdResult(0.19, 0.78),
        "ppv_at": lambda: pkg.ppv_at(profile, 0.19),
        "npv_at": lambda: pkg.npv_at(profile, 0.19),
        "positive_threshold": lambda: pkg.positive_threshold(profile),
        "threshold_summary": lambda: pkg.threshold_summary(profile),
        "curvature_argmax": lambda: pkg.curvature_argmax(profile),
        "curvature_argmax(npv)": lambda: pkg.curvature_argmax(profile, "npv"),
        "curvature_argmax(broad)": lambda: pkg.curvature_argmax(broad_peak),
        "mcc_at_threshold": lambda: pkg.mcc_at_threshold(profile, "negative"),
        "mcc_ratio": lambda: pkg.mcc_ratio(profile),
        "f_beta_at": lambda: pkg.f_beta_at(profile, 0.19, 2.0),
        "analyze_counts": lambda: pkg.analyze_counts(counts),
        "verify_bounds(0.01)": lambda: pkg.verify_bounds(0.01),
        "emit_ratio_curves": ratio_curves,
        "simulate_population": lambda: pkg.simulate_population(population),
    }
    for table, (path, expected) in tables.items():

        def ingest(table=table, path=path, expected=expected):
            counts = pkg.ingest_predictions(path)
            if (counts.tp, counts.fp, counts.fn, counts.tn) != expected:
                raise SystemExit(f"error: {pkg.__name__} ingest {table}: got {counts}, expected {expected}")
            return counts

        named[f"ingest {table}"] = ingest
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    for name, argv in CLI_CALLS.items():

        def run_cli(argv=argv) -> str:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.run_cli(argv)
            return out.getvalue()

        named[name] = run_cli
    return named


def batch_seconds(fn, number: int) -> float:
    """Wall time of number calls of fn, with the garbage collector off as in timeit."""
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        return time.perf_counter() - start
    finally:
        gc.enable()


def paired(this, base, rounds: int, batch_s: float) -> tuple[list[float], int, list[float], list[float]]:
    """Per-round ratios this/base, the batch size, and each side's per-call times.

    The batch size is the smallest power of two whose base batch takes
    at least batch_s; the sides alternate in going first.
    """
    number = 1
    while batch_seconds(base, number) < batch_s:
        number *= 2
    ratios, this_times, base_times = [], [], []
    for i in range(rounds):
        if i % 2:
            b = batch_seconds(base, number)
            t = batch_seconds(this, number)
        else:
            t = batch_seconds(this, number)
            b = batch_seconds(base, number)
        ratios.append(t / b)
        this_times.append(t / number)
        base_times.append(b / number)
    return ratios, number, this_times, base_times


def _shown(result) -> str:
    return result if isinstance(result, str) else repr(result)


def _positive(text: str) -> int:
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dir", metavar="SRC_DIR", type=Path, help="directory holding the base prevthresh package")
    parser.add_argument("--rounds", type=_positive, default=15, help="paired batches per call (default 15)")
    parser.add_argument("--batch-ms", type=float, default=20.0, help="least time of one batch in ms (default 20)")
    parser.add_argument("--rows", type=_positive, default=20_000, help="data rows per ingest table (default 20000)")
    args = parser.parse_args(argv)
    if not args.batch_ms > 0.0:
        parser.error(f"argument --batch-ms: must be positive, got {args.batch_ms!r}")

    base_pkg = load_package("prevthresh_base", args.src_dir.resolve())
    print(f"this: {Path(prevthresh.__file__).parent}")
    print(f"base: {Path(base_pkg.__file__).parent}")
    print(f"{'call':<24} {'q1_ratio':>9} {'med_ratio':>9} {'q3_ratio':>9} {'this_us':>11} {'base_us':>11} {'batch':>6} same")
    with tempfile.TemporaryDirectory() as tmp:
        tables = {}
        for table, build in TABLES.items():
            text, expected = build(args.rows)
            path = Path(tmp) / f"{table}.csv"
            path.write_bytes(text.encode("utf-8"))
            tables[table] = path, (expected.tp, expected.fp, expected.fn, expected.tn)
        this_calls = calls(prevthresh, tables)
        base_calls = calls(base_pkg, tables)
        for name, this in this_calls.items():
            base = base_calls[name]
            same = "yes" if _shown(this()) == _shown(base()) else "NO"
            ratios, number, this_times, base_times = paired(this, base, args.rounds, args.batch_ms / 1e3)
            q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
            print(
                f"{name:<24} {q1:>9.3f} {median:>9.3f} {q3:>9.3f}"
                f" {statistics.median(this_times) * 1e6:>11.2f} {statistics.median(base_times) * 1e6:>11.2f}"
                f" {number:>6} {same}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

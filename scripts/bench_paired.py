#!/usr/bin/env python3
"""Compare this tree's prevthresh with another tree's, call by call, in one process.

Loads this tree's package (src/ beside this script) as ``prevthresh``
and the one in SRC_DIR (a directory holding a ``prevthresh`` package,
such as another checkout's src/) as ``prevthresh_base``. For each call
it times a batch on one side, then a batch of the same size on the
other, alternating which side goes first, for --rounds rounds (31 by
default: at 15, 1.0 could fall outside [q1, q3] for a call neither tree
changed); each round gives one paired ratio, this tree's batch time
over the base's.
It prints, per call, the first quartile, the median and the third
quartile of those ratios (below 1 means this tree is faster), the
median time of one call on each side in microseconds, and whether both
sides returned the same result (by repr, or the CSV text for
emit_curves and emit_ratio_curves, or the standard output of a cold
call). Two loads of one tree must agree: where SRC_DIR holds this
tree's own package, or the --null copy's result differs from the
base's, a "NO" ends the run with exit code 1 after the table, naming
the calls on stderr.

The calls: ThresholdResult(...), ppv_at, npv_at, positive_threshold,
negative_threshold, ppv_at_threshold, threshold_summary,
curvature_argmax on the PPV and the NPV curve and on the PPV curve of
the broad-peak profile (0.6, 0.401), whose coarse scan evaluates the
whole grid, curvature_argmax on both curves of 32 seeded profiles drawn
as perfbench's validate workload draws its oracle profiles (so a change
to the scan shows on that workload's mix, not on one curve),
mcc_at_threshold, mcc_ratio, f_beta_at,
analyze_counts, verify_bounds(0.01), emit_curves at step 5e-4 (the
curves-io workload's step), emit_ratio_curves at step 0.001, the emit
pair (emit_curves, then emit_ratio_curves with betas 0.5 and 2, at step
5e-4 on the first of those 32 profiles, as curves-io runs them),
emit_curves (fresh step), which alternates between steps 5e-4 and
1/2001 so that no call finds the phi text the one before it kept,
simulate_population (after verify_bounds has loaded numpy, so its
draws are numpy's Generator's, as in the validate workload),
ingest_predictions on each of bench_ingest.py's ten tables of --rows
rows, and run_cli of ``thresholds --json``, ``ratios --json`` and
``analyze --counts 9,1,1,9`` (text) in process, with stdout sent to a
StringIO. Every ingest call's counts are checked against the ones its
table was built with; a mismatch ends the run with exit code 1.

Then the cold calls, one fresh interpreter each, as perfbench's
cli-burst workload starts them: ``from prevthresh.cli import main;
main()`` with one cli-burst kind's arguments (thresholds --json,
ratios --betas 0.5,2 --json, analyze --counts 9,1,1,9 --json, simulate,
and an out-of-range rate that exits 1), and ``import prevthresh,
prevthresh.cli``, which perfbench's setup_s times. Each runs in a
temporary working directory with PYTHONPATH set to its side's src/
and PYTHONDONTWRITEBYTECODE=1; one that exits with another code than
its program's ends the run with exit code 1.

Pairing calls in one process cancels most of the drift between
separate runs. The script pins itself, and so every cold call, to one
CPU. It writes no bytecode, so it leaves no __pycache__ in either tree;
a tree that already holds one spares its cold calls compiling the
package, so the script warns on stderr about it::

    python3 scripts/bench_paired.py ../parent/src

With --null the base tree is loaded a second time, as
``prevthresh_null``, and each round times that copy too, the three
sides in a rotating order. Its ratios over the base, base against
itself, show how far a call's ratio strays when no code differs: each
row gains that null ratio's first and third quartile and a last column
saying whether the change's median lies outside them ("moved").
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import itertools
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Set before either package loads, so that no run leaves __pycache__ for a later cold call to read.
sys.dont_write_bytecode = True
SCRIPTS = Path(__file__).resolve().parent
sys.path[:0] = [str(SCRIPTS.parent / "src"), str(SCRIPTS)]

import prevthresh  # noqa: E402  (this tree's, from the path set above)
from bench_ingest import TABLES  # noqa: E402

PROFILE = ["--sensitivity", "0.9", "--specificity", "0.95"]
CLI_CALLS = {
    "cli thresholds --json": ["thresholds", *PROFILE, "--json"],
    "cli ratios --json": ["ratios", *PROFILE, "--json"],
    "cli analyze 9,1,1,9": ["analyze", "--counts", "9,1,1,9"],
}
CLI_CHILD = "from prevthresh.cli import main; main()"
# Each cold call's interpreter arguments and its expected exit code.
COLD_CALLS = {
    "cold thresholds --json": (["-c", CLI_CHILD, "thresholds", *PROFILE, "--json"], 0),
    "cold ratios --json": (["-c", CLI_CHILD, "ratios", *PROFILE, "--betas", "0.5,2", "--json"], 0),
    "cold analyze --json": (["-c", CLI_CHILD, "analyze", "--counts", "9,1,1,9", "--json"], 0),
    "cold simulate": (["-c", CLI_CHILD, "simulate", "--prevalence", "0.3", *PROFILE, "--n", "10000", "--json"], 0),
    "cold error exit": (["-c", CLI_CHILD, "thresholds", "--sensitivity=1.5", "--specificity=0.95", "--json"], 1),
    "cold import": (["-c", "import prevthresh, prevthresh.cli"], 0),
}


def drawn_profiles() -> list[tuple[float, float]]:
    """32 seeded interior informative profiles, drawn as perfbench's validate workload draws its oracle profiles."""
    rng = random.Random(0)
    profiles = []
    while len(profiles) < 32:
        a = round(rng.uniform(0.05, 0.99), 6)
        b = round(rng.uniform(0.05, 0.99), 6)
        if a + b >= 1.05:
            profiles.append((a, b))
    return profiles


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


def calls(pkg, tables: dict[str, tuple[Path, tuple[int, int, int, int]]], cwd: Path) -> dict:
    """Each timed call of pkg as a function of no arguments, by name.

    tables maps a table's name to its file and its expected counts as
    (tp, fp, fn, tn); the cold calls run in the directory cwd.
    """
    profile = pkg.DiagnosticProfile(0.9, 0.95)
    broad_peak = pkg.DiagnosticProfile(0.6, 0.401)
    drawn = [pkg.DiagnosticProfile(a, b) for a, b in drawn_profiles()]
    counts = pkg.ConfusionCounts(90, 5, 10, 95)
    population = pkg.SimulationConfig(0.19, profile, 10**6, 7)

    def curves() -> str:
        sink = io.StringIO()
        pkg.emit_curves(profile, 5e-4, sink)
        return sink.getvalue()

    def ratio_curves() -> str:
        sink = io.StringIO()
        pkg.emit_ratio_curves(profile, [0.5, 2.0], 0.001, sink)
        return sink.getvalue()

    def emit_pair() -> str:
        sink = io.StringIO()
        pkg.emit_curves(drawn[0], 5e-4, sink)
        pkg.emit_ratio_curves(drawn[0], [0.5, 2.0], 5e-4, sink)
        return sink.getvalue()

    fresh_steps = itertools.cycle((5e-4, 1 / 2001))

    def curves_fresh_step() -> str:
        sink = io.StringIO()
        pkg.emit_curves(profile, next(fresh_steps), sink)
        return sink.getvalue()

    named = {
        "ThresholdResult(...)": lambda: pkg.ThresholdResult(0.19, 0.78),
        "ppv_at": lambda: pkg.ppv_at(profile, 0.19),
        "npv_at": lambda: pkg.npv_at(profile, 0.19),
        "positive_threshold": lambda: pkg.positive_threshold(profile),
        "negative_threshold": lambda: pkg.negative_threshold(profile),
        "ppv_at_threshold": lambda: pkg.ppv_at_threshold(profile),
        "threshold_summary": lambda: pkg.threshold_summary(profile),
        "curvature_argmax": lambda: pkg.curvature_argmax(profile),
        "curvature_argmax(npv)": lambda: pkg.curvature_argmax(profile, "npv"),
        "curvature_argmax(broad)": lambda: pkg.curvature_argmax(broad_peak),
        "curvature_argmax(drawn)": lambda: [pkg.curvature_argmax(p, curve) for p in drawn for curve in ("ppv", "npv")],
        "mcc_at_threshold": lambda: pkg.mcc_at_threshold(profile, "negative"),
        "mcc_ratio": lambda: pkg.mcc_ratio(profile),
        "f_beta_at": lambda: pkg.f_beta_at(profile, 0.19, 2.0),
        "analyze_counts": lambda: pkg.analyze_counts(counts),
        "verify_bounds(0.01)": lambda: pkg.verify_bounds(0.01),
        "emit_curves": curves,
        "emit_ratio_curves": ratio_curves,
        "emit pair": emit_pair,
        "emit_curves (fresh step)": curves_fresh_step,
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
    env = dict(os.environ, PYTHONPATH=str(Path(pkg.__file__).parents[1]), PYTHONDONTWRITEBYTECODE="1")
    for name, (args, code) in COLD_CALLS.items():

        def run_cold(name=name, args=args, code=code) -> str:
            proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)
            if proc.returncode != code:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"error: {pkg.__name__} {name}: exited {proc.returncode}, expected {code}")
            return proc.stdout

        named[name] = run_cold
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


def paired(sides: dict, rounds: int, batch_s: float) -> tuple[int, dict[str, list[float]]]:
    """The batch size, and each side's per-round batch times, by the sides' names.

    sides maps a name to a function of no arguments; "base" must be one
    of them. The batch size is the smallest power of two whose base
    batch takes at least batch_s. Each round times one batch of every
    side, in the next of the sides' orders (with two sides, this
    alternates which goes first).
    """
    number = 1
    while batch_seconds(sides["base"], number) < batch_s:
        number *= 2
    orders = list(itertools.permutations(sides))
    times: dict[str, list[float]] = {name: [] for name in sides}
    for i in range(rounds):
        for name in orders[i % len(orders)]:
            times[name].append(batch_seconds(sides[name], number))
    return number, times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method); one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


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
    parser.add_argument("--rounds", type=_positive, default=31, help="paired batches per call (default 31)")
    parser.add_argument("--batch-ms", type=float, default=20.0, help="least time of one batch in ms (default 20)")
    parser.add_argument("--rows", type=_positive, default=20_000, help="data rows per ingest table (default 20000)")
    parser.add_argument("--null", action="store_true", help="also time a second copy of the base: the null ratios")
    args = parser.parse_args(argv)
    if not args.batch_ms > 0.0:
        parser.error(f"argument --batch-ms: must be positive, got {args.batch_ms!r}")

    base_pkg = load_package("prevthresh_base", args.src_dir.resolve())
    packages = {"this": prevthresh, "base": base_pkg}
    if args.null:
        packages["null"] = load_package("prevthresh_null", args.src_dir.resolve())
    for side in ("this", "base"):
        package = Path(packages[side].__file__).parent
        print(f"{side}: {package}")
        if any(package.rglob("__pycache__")):
            print(f"warning: {package} holds __pycache__ directories; its cold calls read cached bytecode", file=sys.stderr)
    one_tree = Path(prevthresh.__file__).parent == Path(base_pkg.__file__).parent
    differing = []
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    null_columns = f" {'null_q1':>9} {'null_q3':>9}" if args.null else ""
    print(
        f"{'call':<24} {'q1_ratio':>9} {'med_ratio':>9} {'q3_ratio':>9}{null_columns}"
        f" {'this_us':>11} {'base_us':>11} {'batch':>6} same{' moved' if args.null else ''}"
    )
    with tempfile.TemporaryDirectory() as tmp:
        tables = {}
        for table, build in TABLES.items():
            text, expected = build(args.rows)
            path = Path(tmp) / f"{table}.csv"
            path.write_bytes(text.encode("utf-8"))
            tables[table] = path, (expected.tp, expected.fp, expected.fn, expected.tn)
        named = {side: calls(pkg, tables, Path(tmp)) for side, pkg in packages.items()}
        for name in named["this"]:
            sides = {side: fns[name] for side, fns in named.items()}
            shown = {side: _shown(fn()) for side, fn in sides.items()}
            same = len(set(shown.values())) == 1
            if not same and (one_tree or ("null" in shown and shown["null"] != shown["base"])):
                differing.append(name)
            number, times = paired(sides, args.rounds, args.batch_ms / 1e3)
            q1, median, q3 = quartiles([t / b for t, b in zip(times["this"], times["base"])])
            row = f"{name:<24} {q1:>9.3f} {median:>9.3f} {q3:>9.3f}"
            if args.null:
                null_q1, _, null_q3 = quartiles([n / b for n, b in zip(times["null"], times["base"])])
                row += f" {null_q1:>9.3f} {null_q3:>9.3f}"
            row += (
                f" {statistics.median(times['this']) / number * 1e6:>11.2f}"
                f" {statistics.median(times['base']) / number * 1e6:>11.2f}"
                f" {number:>6} {'yes' if same else 'NO'}"
            )
            if args.null:
                # Decided on the printed figures, so a row can be checked by eye.
                inside = round(null_q1, 3) <= round(median, 3) <= round(null_q3, 3)
                row += f" {'no' if inside else 'yes'}"
            print(row)
    if differing:
        print(f"error: two loads of one tree differ on: {', '.join(differing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare the cold start of this tree's prevthresh with another tree's, one fresh interpreter per run.

Each timed program runs in a new interpreter with PYTHONPATH set to one
tree's src/ directory (this tree's, beside this script, or SRC_DIR, a
directory holding another checkout's ``prevthresh`` package) and
PYTHONDONTWRITEBYTECODE=1, as perfbench's cli-burst workload runs its
calls. The programs are one call of each cli-burst kind, each a
``from prevthresh.cli import main; main()`` child with fixed arguments
(thresholds, ratios --json, analyze --counts, simulate and an
out-of-range rate that exits 1), and ``import prevthresh,
prevthresh.cli``, which perfbench's setup_s times.

Every round runs each program four times in ABBA order (this tree, the
base, the base, this tree), so a drift that is linear over the round
cancels, and gives one paired ratio: this tree's two wall times over
the base's two. The script pins itself, and so every child, to one CPU.
It prints, per program, the first quartile, the median and the third
quartile of those ratios (below 1 means this tree starts faster), the
median wall time of one run on each side in milliseconds, and whether
both trees wrote the same standard output. A child that exits with
another code than its program's ends the run with exit code 1.

A tree that holds __pycache__ directories spares its runs compiling
the package, so the script warns on stderr when either tree has one::

    python3 scripts/bench_cold.py ../parent/src --rounds 40
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

THIS_SRC = Path(__file__).resolve().parents[1] / "src"
CLI_CHILD = "from prevthresh.cli import main; main()"
PROFILE = ["--sensitivity", "0.9", "--specificity", "0.95"]
# Each program's arguments after the interpreter and its expected exit code.
PROGRAMS = {
    "thresholds": (["-c", CLI_CHILD, "thresholds", *PROFILE, "--json"], 0),
    "ratios --json": (["-c", CLI_CHILD, "ratios", *PROFILE, "--betas", "0.5,2", "--json"], 0),
    "analyze --counts": (["-c", CLI_CHILD, "analyze", "--counts", "9,1,1,9", "--json"], 0),
    "simulate": (["-c", CLI_CHILD, "simulate", "--prevalence", "0.3", *PROFILE, "--n", "10000", "--json"], 0),
    "error exit": (["-c", CLI_CHILD, "thresholds", "--sensitivity=1.5", "--specificity=0.95", "--json"], 1),
    "import": (["-c", "import prevthresh, prevthresh.cli"], 0),
}


def run_once(src: Path, args: list[str], code: int, cwd: str) -> tuple[float, str]:
    """Wall time in seconds of one fresh interpreter on src's package, and its standard output."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)
    seconds = perf_counter() - t0
    if proc.returncode != code:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {' '.join(args)} on {src} exited {proc.returncode}, expected {code}")
    return seconds, proc.stdout


def _rounds(text: str) -> int:
    """argparse type: an integer >= 2, the fewest rounds that have quartiles."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be an integer >= 2, got {text!r}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_dir", metavar="SRC_DIR", type=Path, help="directory holding the base prevthresh package")
    parser.add_argument("--rounds", type=_rounds, default=20, help="ABBA rounds per program (default 20)")
    args = parser.parse_args(argv)

    trees = {"this": THIS_SRC, "base": args.src_dir.resolve()}
    if not (trees["base"] / "prevthresh" / "__init__.py").is_file():
        print(f"error: no prevthresh package in {args.src_dir}", file=sys.stderr)
        return 1
    for side, src in trees.items():
        package = src / "prevthresh"
        print(f"{side}: {package}")
        if any(package.rglob("__pycache__")):
            print(f"warning: {package} holds __pycache__ directories; its runs read cached bytecode", file=sys.stderr)

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(f"{'program':<18} {'q1_ratio':>9} {'med_ratio':>9} {'q3_ratio':>9} {'this_ms':>8} {'base_ms':>8} same")
    with tempfile.TemporaryDirectory() as cwd:
        for name, (program, code) in PROGRAMS.items():
            ratios, times, outputs = [], {"this": [], "base": []}, {"this": set(), "base": set()}
            for _ in range(args.rounds):
                round_times = {"this": 0.0, "base": 0.0}
                for side in ("this", "base", "base", "this"):
                    seconds, stdout = run_once(trees[side], program, code, cwd)
                    round_times[side] += seconds
                    times[side].append(seconds)
                    outputs[side].add(stdout)
                ratios.append(round_times["this"] / round_times["base"])
            q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
            same = "yes" if len(outputs["this"]) == 1 and outputs["this"] == outputs["base"] else "NO"
            print(
                f"{name:<18} {q1:>9.3f} {median:>9.3f} {q3:>9.3f}"
                f" {statistics.median(times['this']) * 1e3:>8.1f} {statistics.median(times['base']) * 1e3:>8.1f} {same}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())

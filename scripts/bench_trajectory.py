#!/usr/bin/env python3
"""Record the benchmark's seed-0 end-to-end metrics as BENCH_<label>.json.

For each workload that BENCHMARK.json declares, runs its command
(``python3 perfbench/run.py``) with ``--workload <w> --seed 0 --trace 0``,
one workload after another, and writes BENCH_<label>.json at the root of
the checkout. Per workload the file holds the end-to-end metrics that
BENCHMARK.json names, the gate's attempted and failed operation counts,
and the provenance line run.py prints (versions, git commit, source
digest), and its bytecode state: the value of PYTHONDONTWRITEBYTECODE
and whether any __pycache__ directory exists under src/prevthresh when
the run starts. Cached bytecode spares a run compiling the package and
so moves cli-burst's figures; the script warns on stderr when caches
exist. One file per labelled state of the code keeps the performance
trajectory next to the code. Nothing is written unless every run exits 0.

Usage, from anywhere in a source checkout::

    python3 scripts/bench_trajectory.py --label windowed-scan
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "prevthresh"
SEED = 0
PROVENANCE_PREFIX = "provenance "


def parse_run_output(stdout: str, end_to_end: list[str]) -> dict:
    """One workload's record from run.py's standard output.

    The last line is run.py's result object; the line starting with
    "provenance " carries the provenance object. Raises ValueError when
    either is missing or an end-to-end metric has no value.
    """
    lines = stdout.splitlines()
    if not lines:
        raise ValueError("run.py printed nothing")
    result = json.loads(lines[-1])
    provenance = [json.loads(line[len(PROVENANCE_PREFIX):]) for line in lines if line.startswith(PROVENANCE_PREFIX)]
    if len(provenance) != 1:
        raise ValueError(f"expected one provenance line, found {len(provenance)}")
    metrics = result["metrics"]
    missing = [name for name in end_to_end if name not in metrics]
    if missing:
        raise ValueError(f"run.py printed no value for {', '.join(missing)}")
    return {
        "metrics": {name: metrics[name] for name in end_to_end},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "provenance": provenance[0],
    }


def bytecode_state(package: Path, environ) -> dict:
    """PYTHONDONTWRITEBYTECODE in environ (None when unset) and whether package holds any __pycache__."""
    return {
        "PYTHONDONTWRITEBYTECODE": environ.get("PYTHONDONTWRITEBYTECODE"),
        "pycache": any(package.rglob("__pycache__")),
    }


def _label(text: str) -> str:
    """argparse type: a label that is safe inside a file name."""
    if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*", text):
        raise argparse.ArgumentTypeError(f"must be letters, digits, '.', '_' or '-', got {text!r}")
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, type=_label, help="names the output file BENCH_<label>.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [metric["name"] for metric in spec["end_to_end"]]
    record: dict = {"label": args.label, "seed": SEED, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        command = [*spec["command"], "--workload", workload, "--seed", str(SEED), "--trace", "0"]
        print(f"running {' '.join(command)}", file=sys.stderr)
        bytecode = bytecode_state(PACKAGE, os.environ)
        if bytecode["pycache"]:
            print(f"warning: {PACKAGE} holds __pycache__ directories; this run reads cached bytecode", file=sys.stderr)
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"error: {' '.join(command)} exited {proc.returncode}", file=sys.stderr)
            return 1
        record["workloads"][workload] = {**parse_run_output(proc.stdout, end_to_end), "bytecode": bytecode}

    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

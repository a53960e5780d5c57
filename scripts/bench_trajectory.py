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

With --check-provenance it runs nothing and writes nothing: for each
BENCH_*.json at the root of the checkout it recomputes run.py's
src_sha256 (a digest of src/prevthresh/*.py) over the files of the
commit that added that BENCH file (git log --diff-filter=A), or over the
working tree for a BENCH file not yet committed, and compares it with
every src_sha256 the file records. It prints one line per file and
exits 1 when a file outside KNOWN_MISMATCHES does not match, so a new
record must name the code it measured. It needs the whole history: in a
shallow clone git shows the oldest fetched commit as adding every file,
so it refuses to check one and exits 1.

Usage, from anywhere in a source checkout::

    python3 scripts/bench_trajectory.py --label windowed-scan
    python3 scripts/bench_trajectory.py --check-provenance
"""

from __future__ import annotations

import argparse
import hashlib
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
SRC_DIR = "src/prevthresh"

# BENCH files whose recorded src_sha256 matched no tree at the commit that
# added them when --check-provenance was written: their figures cannot be
# tied to committed code (CHANGES.md lists them). They are reported, not
# failed; any other BENCH file must match.
KNOWN_MISMATCHES = frozenset({"BENCH_pr14.json", "BENCH_pr26.json", "BENCH_pr27.json", "BENCH_pr30.json"})


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


def _git(root: Path, *args: str) -> bytes:
    proc = subprocess.run(["git", *args], cwd=root, capture_output=True)
    if proc.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)} failed: {proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout


def src_digest(files: dict[str, bytes]) -> str:
    """run.py's src_sha256 of the files of src/prevthresh, given as {name: contents}: each name, NUL, contents, by name."""
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name])
    return digest.hexdigest()


def src_files_at(root: Path, commit: str | None) -> dict[str, bytes]:
    """The *.py files directly in src/prevthresh, at commit or (None) in the working tree, by name."""
    if commit is None:
        return {path.name: path.read_bytes() for path in (root / SRC_DIR).glob("*.py")}
    listed = _git(root, "ls-tree", "--name-only", commit, f"{SRC_DIR}/").decode().splitlines()
    names = [path.rsplit("/", 1)[1] for path in listed if path.endswith(".py")]
    return {name: _git(root, "show", f"{commit}:{SRC_DIR}/{name}") for name in names}


def recorded_digests(record: dict) -> set[str]:
    """Every src_sha256 a BENCH record holds: one per workload's provenance."""
    return {w["provenance"]["src_sha256"] for w in record.get("workloads", {}).values() if "src_sha256" in w.get("provenance", {})}


def check_provenance(root: Path) -> list[tuple[str, str | None, bool, str]]:
    """(file, adding commit or None if uncommitted, whether it matches, message) for each BENCH_*.json in root."""
    if _git(root, "rev-parse", "--is-shallow-repository").strip() == b"true":
        raise RuntimeError("a shallow clone names no BENCH file's adding commit; fetch the whole history")
    results = []
    for path in sorted(root.glob("BENCH_*.json"), key=lambda p: p.name):
        added = _git(root, "log", "--diff-filter=A", "--format=%H", "--", path.name).decode().split()
        commit = added[0] if added else None  # the latest commit that added it
        recorded = recorded_digests(json.loads(path.read_text(encoding="utf-8")))
        actual = src_digest(src_files_at(root, commit))
        where = commit[:12] if commit else "the working tree"
        if not recorded:
            results.append((path.name, commit, False, f"records no src_sha256; {where} has {actual[:12]}"))
        elif recorded == {actual}:
            results.append((path.name, commit, True, f"src_sha256 {actual[:12]} is {where}'s"))
        else:
            shown = ", ".join(sorted(d[:12] for d in recorded))
            results.append((path.name, commit, False, f"records {shown}; {where} has {actual[:12]}"))
    return results


def _check_provenance_main(root: Path) -> int:
    try:
        results = check_provenance(root)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = []
    for name, _, matches, message in results:
        if matches:
            verdict = "ok"
        elif name in KNOWN_MISMATCHES:
            verdict = "known mismatch"
        else:
            verdict = "MISMATCH"
            failed.append(name)
        print(f"{name}: {verdict}: {message}")
    if failed:
        print(f"error: {', '.join(failed)} do not record the source digest of the code they measured", file=sys.stderr)
        return 1
    return 0


def _label(text: str) -> str:
    """argparse type: a label that is safe inside a file name."""
    if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9._-]*", text):
        raise argparse.ArgumentTypeError(f"must be letters, digits, '.', '_' or '-', got {text!r}")
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--label", type=_label, help="names the output file BENCH_<label>.json")
    mode.add_argument(
        "--check-provenance",
        action="store_true",
        help="check that each BENCH_*.json records the src_sha256 of the commit that added it",
    )
    args = parser.parse_args(argv)
    if args.check_provenance:
        return _check_provenance_main(ROOT)

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

"""Benchmark for prevthresh: seeded workloads, end-to-end metrics, traced per-layer metrics.

Usage, from the root of a source checkout (no install needed)::

    python3 perfbench/run.py --workload cli-burst --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` a run measures rounds of the workload for ``--seconds``
(and at least MIN_ROUNDS, so the p90 has ten samples beyond it) and
prints the end-to-end metrics: ``setup_s``, ``round_p50_norm`` and
``peak_rss_mb``. A round's normalised time is its
wall time divided by the median time of the nearby passes of a fixed
reference job run on the same CPU (see calibrate.py). The normalised p90
and raw wall-clock percentiles are printed beside them and kept in the
result file; the p90 is not a bounded metric because its run-to-run
spread on a 2-core VM came close to the largest allowed bound. With
``--trace 1`` it measures a
fixed number of rounds twice, untraced and then traced, and prints the
per-layer metrics. Either way the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Every output is checked (see gate.py); a wrong output, digest mismatch,
unexpected exit code or uncaught exception counts as a failed operation.

The run reads ``src/`` and writes only under ``.perfbench/`` in the
checkout: temporary files (removed at exit), the result with its
provenance, and the traced run's spans.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path
from time import perf_counter

import gate as g
import spans
import workloads as w

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

MIN_ROUNDS = 100  # p90 needs ten samples beyond it
MAX_LOOP_SECONDS = 150.0  # hard stop so a run always ends within 180 s
SETUP_SAMPLES = 7
CALIBRATION_WINDOW = 4  # a round is normalised by the median of the 2k+1 reference passes around it
IMPORT_SAMPLES = 7
# Traced runs measure ceil(seconds * rate) rounds, so their counts repeat exactly.
TRACE_ROUNDS_PER_SECOND = {"cli-burst": 1.0, "validate": 1.5, "curves-io": 1.0}

# What each workload's stages mean as the throughputs named in the predictions map.
STAGE_METRICS = {
    "sweep": "stage.sweep_cells_per_s",
    "oracle": "stage.oracle_profiles_per_s",
    "mc": "stage.mc_reports_per_s",
    "emit": "stage.emit_rows_per_s",
    "write": "stage.write_rows_per_s",
    "ingest": "stage.ingest_rows_per_s",
    "invoke": "stage.cli_invocations_per_s",
}


def tail_percentile(samples, q: float, min_beyond: int = 10) -> float | None:
    """Nearest-rank q-quantile, or None unless at least ``min_beyond`` samples lie above it."""
    xs = sorted(samples)
    if not xs:
        return None
    rank = math.ceil(q * len(xs))
    if len(xs) - rank < min_beyond:
        return None
    return xs[rank - 1]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _time_process(argv: list[str], env: dict) -> float:
    t0 = perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def measure_setup(env: dict) -> float:
    """Median wall time of a fresh interpreter importing prevthresh and prevthresh.cli."""
    argv = [sys.executable, "-c", "import prevthresh, prevthresh.cli"]
    _time_process(argv, env)  # warm-up: byte-compiles the sources once
    return statistics.median(_time_process(argv, env) for _ in range(SETUP_SAMPLES))


def measure_imports(env: dict) -> dict[str, float]:
    """Fresh-process import costs in ms, each minus the bare interpreter (interleaved samples)."""
    programs = {"interp": "pass", "numpy": "import numpy", "prevthresh": "import prevthresh, prevthresh.cli"}
    samples: dict[str, list[float]] = {k: [] for k in programs}
    for _ in range(IMPORT_SAMPLES):
        for key, code in programs.items():
            samples[key].append(_time_process([sys.executable, "-c", code], env))
    med = {k: statistics.median(v) * 1e3 for k, v in samples.items()}
    return {
        "import.interp_ms": med["interp"],
        "import.numpy_ms": med["numpy"] - med["interp"],
        "import.prevthresh_ms": med["prevthresh"] - med["interp"],
    }


def provenance() -> dict:
    files = sorted((SRC / "prevthresh").glob("*.py"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "timer": "time.perf_counter",
    }


class Pass:
    """Round times, per-stage time and work, and the tally of one measuring pass."""

    def __init__(self):
        self.rounds: list[int] = []
        self.round_s: list[float] = []
        self.reference_rounds: list[int] = []
        self.reference_s: list[float] = []
        self.stage_s: dict[str, float] = {}
        self.stage_units: dict[str, int] = {}
        self.tally = w.Tally()

    def round_norm(self) -> list[float]:
        """Round times over the median reference time of the passes around them.

        A centred window follows a change of machine speed from both sides,
        and the median keeps one noisy reference pass from skewing a round.
        """
        k, refs = CALIBRATION_WINDOW, self.reference_s
        out = []
        for i, t in zip(self.rounds, self.round_s):
            pos = bisect.bisect_left(self.reference_rounds, i)
            out.append(t / statistics.median(refs[max(0, pos - k) : pos + k + 1]))
        return out

    def throughputs(self) -> dict[str, float]:
        return {
            STAGE_METRICS[k]: self.stage_units.get(k, 0) / t
            for k, t in self.stage_s.items()
            if t > 0.0
        }


def measure(workload, seed: int, gate: g.Gate, seconds: float | None = None,
            rounds: int | None = None, tracer=None) -> Pass:
    """Run rounds 0, 1, ... for ``seconds`` (and at least MIN_ROUNDS), or exactly ``rounds``."""
    result = Pass()
    start = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - start
        if rounds is not None:
            if i >= rounds:
                break
        elif (elapsed >= seconds and i >= MIN_ROUNDS) or elapsed >= MAX_LOOP_SECONDS:
            break
        inp = workload.inputs(seed, i)
        reference_s = workload.reference(i)
        if reference_s is not None:
            result.reference_rounds.append(i)
            result.reference_s.append(reference_s)
        clock = w.Clock(tracer)
        try:
            out = workload.run(inp, clock)
        except Exception as exc:  # noqa: BLE001 - a program failure is a failed operation
            gate.op(f"{workload.name} round {i}", [f"raised {exc!r}"])
        else:
            round_s = sum(clock.stages.values())
            result.rounds.append(i)
            result.round_s.append(round_s)
            for k, t in clock.stages.items():
                result.stage_s[k] = result.stage_s.get(k, 0.0) + t
            for k, n in clock.units.items():
                result.stage_units[k] = result.stage_units.get(k, 0) + n
            workload.check(seed, i, inp, out, gate, result.tally)
        i += 1
    return result


def end_to_end(workload, seed: int, seconds: float, gate: g.Gate) -> tuple[dict, dict]:
    measured = measure(workload, seed, gate, seconds=seconds)
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    norm = measured.round_norm()
    metrics = {
        "round_p50_norm": (tail_percentile(norm, 0.5), "x"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
    }
    p50, p90 = tail_percentile(measured.round_s, 0.5), tail_percentile(measured.round_s, 0.9)
    info = {
        "rounds": len(measured.round_s),
        "round_p90_norm": tail_percentile(norm, 0.9),
        "wall_clock": {
            "round_p50_ms": None if p50 is None else p50 * 1e3,
            "round_p90_ms": None if p90 is None else p90 * 1e3,
        },
        "stage_throughputs": measured.throughputs(),
    }
    return metrics, info


def per_layer(workload, seed: int, seconds: float, gate: g.Gate, env: dict) -> tuple[dict, dict]:
    rounds = math.ceil(seconds * TRACE_ROUNDS_PER_SECOND[workload.name])
    imports = measure_imports(env)
    untraced = measure(workload, seed, gate, rounds=rounds)
    tracer = spans.Tracer()
    if workload.in_process:
        with spans.installed(tracer):
            traced = measure(workload, seed, gate, rounds=rounds, tracer=tracer)
    else:
        traced = measure(workload, seed, gate, rounds=rounds, tracer=tracer)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}")

    totals = tracer.totals()
    sums, maxima, samples = traced.tally.sums, traced.tally.maxima, traced.tally.samples
    metrics: dict[str, tuple[float, str]] = {k: (v, "ms") for k, v in imports.items()}
    run_cli = samples.get("cli.run_cli_s", [])
    metrics["cli.run_cli.calls"] = (len(run_cli), "count")
    metrics["cli.run_cli.self_ms"] = (statistics.median(run_cli) * 1e3 if run_cli else 0.0, "ms")
    metrics["cli.error_exits"] = (sums.get("cli.error_exits", 0), "count")
    for module, functions in spans.TRACED.items():
        for fname in functions:
            name = f"{module}.{fname}"
            calls, self_s = totals.get(name, (0, 0.0))
            if module == "dataio":
                metrics[f"{name}.rows"] = (sums.get(f"{name}.rows", 0), "rows")
                metrics[f"{name}.bytes"] = (sums.get(f"{name}.bytes", 0), "bytes")
            else:
                metrics[f"{name}.calls"] = (calls, "count")
            metrics[f"{name}.self_s"] = (self_s, "s")
    evaluations = sums.get("bounds.evaluations", 0)
    metrics["bounds.skipped_frac"] = (sums.get("bounds.skipped", 0) / evaluations if evaluations else 0.0, "ratio")
    metrics["thresholds.oracle_max_abs_err"] = (maxima.get("thresholds.oracle_max_abs_err", 0.0), "abs")
    metrics["metrics.Rate.calls"] = (tracer.rate_calls, "count")
    cells = sums.get("dataio.cells", 0)
    metrics["dataio.empty_cell_frac"] = (sums.get("dataio.empty_cells", 0) / cells if cells else 0.0, "ratio")
    # Normalised medians, so a drift in machine speed between the two passes cancels.
    untraced_norm, traced_norm = untraced.round_norm(), traced.round_norm()
    overhead = statistics.median(traced_norm) / statistics.median(untraced_norm) - 1.0 if untraced_norm else 0.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    throughputs = untraced.throughputs()
    for name in STAGE_METRICS.values():
        metrics[name] = (throughputs.get(name, 0.0), "1/s")
    info = {"rounds": rounds, "spans": len(tracer.name)}
    return metrics, info


def run_workload(args) -> int:
    workload_cls = w.WORKLOADS[args.workload]
    prov = provenance()
    # One CPU for this process and its children, so the reference job and
    # the round it normalises run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        gate = g.Gate(g.load_digests())
        sys.path.insert(0, str(SRC))
        workload = workload_cls(ROOT, tmp, env)
        setup_s = None if args.trace else measure_setup(env)
        # Warm-up round, untimed and unchecked: byte-compiles the sources, fills caches.
        workload.run(workload.inputs(args.seed, -1), w.Clock())
        if args.trace:
            metrics, info = per_layer(workload, args.seed, args.seconds, gate, env)
        else:
            metrics, info = end_to_end(workload, args.seed, args.seconds, gate)
            metrics = {"setup_s": (setup_s, "s"), **metrics}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    missing = [k for k, (v, _) in metrics.items() if v is None]
    if missing:
        print(f"error: no value for {missing} ({info['rounds']} rounds)", file=sys.stderr)
        return 1
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "provenance": {**prov, "pinned_cpus": sorted(os.sched_getaffinity(0))}, **info, "failures": gate.failures, "result": result}
    (OUT / "results").mkdir(exist_ok=True)
    with open(OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)

    print(f"workload {args.workload}, seed {args.seed}, {info['rounds']} rounds")
    for k, (v, u) in metrics.items():
        print(f"  {k} = {v!r} {u}")
    if "round_p90_norm" in info:
        print(f"  (round_p90_norm = {info['round_p90_norm']!r} x)")
    for k, v in info.get("wall_clock", {}).items():
        print(f"  (wall clock {k} = {v!r} ms)")
    for k, v in info.get("stage_throughputs", {}).items():
        print(f"  ({k} = {v!r} 1/s)")
    print(f"  (ops_failed_frac = {gate.failed}/{gate.attempted})")
    for failure in gate.failures:
        print(f"  FAILED {failure}")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, one after another, and summarise."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in w.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            summary["metrics"][f"{name}.{k}"] = v
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*w.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=w.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "prevthresh" / "__init__.py").is_file():
        print(f"error: no prevthresh sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

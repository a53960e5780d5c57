"""Smoke tests of the scripts under scripts/, each run as a fresh process on this source tree."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prevthresh

ROOT = Path(__file__).resolve().parents[1]
MC_CONVERGENCE = ROOT / "scripts" / "mc_convergence.py"
BENCH_TRAJECTORY = ROOT / "scripts" / "bench_trajectory.py"
BENCH_INGEST = ROOT / "scripts" / "bench_ingest.py"
BENCH_PAIRED = ROOT / "scripts" / "bench_paired.py"


def run_script(script: Path, *args: str) -> subprocess.CompletedProcess:
    src = str(Path(prevthresh.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, env=env, timeout=120
    )


def table_rows(stdout: str) -> dict[str, list[str]]:
    """Rows of the convergence table after its two header lines, keyed by population size."""
    return {row.split()[0]: row.split()[1:] for row in stdout.splitlines()[2:]}


@pytest.mark.parametrize(
    "args, sizes",
    [(("--sizes", "1000", "10000", "--seeds", "3"), ["1000", "10000"]), (("--sizes", "1"), ["1"])],
)
def test_mc_convergence_runs(args, sizes):
    proc = run_script(MC_CONVERGENCE, *args)
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = table_rows(proc.stdout)
    assert list(rows) == sizes
    for size, cells in rows.items():
        assert len(cells) == 2
        if size == "1":
            # A single-element draw never predicts both classes, so no draw counts.
            assert cells == ["n/a", "n/a"]
        else:
            assert all(0.0 <= float(cell) < 0.1 for cell in cells)


@pytest.mark.parametrize(
    "args, flag",
    [(("--sizes", "0", "--seeds", "2"), "--sizes"), (("--sizes", "1000", "-5"), "--sizes"), (("--seeds", "-1"), "--seeds")],
)
def test_mc_convergence_rejects_out_of_range_counts(args, flag):
    proc = run_script(MC_CONVERGENCE, *args)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert f"error: argument {flag}: must be an integer >= " in proc.stderr
    assert "Traceback" not in proc.stderr


def load_script(script: Path):
    spec = importlib.util.spec_from_file_location(script.stem, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The standard output of `python3 perfbench/run.py --workload validate --seed 0 --trace 0`.
CANNED_RUN_OUTPUT = """\
workload validate, seed 0, 549 rounds
  setup_s = 0.121225835999212 s
  round_p50_norm = 4.7269754476138734 x
  peak_rss_mb = 39.80078125 MB
  (round_p90_norm = 5.546525512401993 x)
  (wall clock round_p50_ms = 43.44402800052194 ms)
  (stage.oracle_profiles_per_s = 1314.5111621653184 1/s)
  (ops_failed_frac = 0/88409)
provenance {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "git_commit": "cf0e7f8", "pinned_cpus": [0]}
{"correct": true, "attempted": 88409, "failed": 0, "metrics": {"setup_s": {"value": 0.121225835999212, "unit": "s"}, \
"round_p50_norm": {"value": 4.7269754476138734, "unit": "x"}, "peak_rss_mb": {"value": 39.80078125, "unit": "MB"}}}
"""


def test_bench_trajectory_parses_run_output():
    bench = load_script(BENCH_TRAJECTORY)
    end_to_end = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    record = bench.parse_run_output(CANNED_RUN_OUTPUT, end_to_end)
    assert record == {
        "metrics": {
            "setup_s": {"value": 0.121225835999212, "unit": "s"},
            "round_p50_norm": {"value": 4.7269754476138734, "unit": "x"},
            "peak_rss_mb": {"value": 39.80078125, "unit": "MB"},
        },
        "attempted": 88409,
        "failed": 0,
        "provenance": {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "git_commit": "cf0e7f8", "pinned_cpus": [0]},
    }
    with pytest.raises(ValueError, match="no value for wall_s"):
        bench.parse_run_output(CANNED_RUN_OUTPUT, [*end_to_end, "wall_s"])
    without_provenance = "\n".join(line for line in CANNED_RUN_OUTPUT.splitlines() if not line.startswith("provenance"))
    with pytest.raises(ValueError, match="one provenance line"):
        bench.parse_run_output(without_provenance, end_to_end)


@pytest.mark.parametrize("label", ["../escape", "", "a/b", "-x"])
def test_bench_trajectory_rejects_unsafe_labels(label):
    proc = run_script(BENCH_TRAJECTORY, "--label", label)
    assert proc.returncode == 2
    assert "argument --label" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bench_trajectory_bytecode_state(tmp_path):
    bench = load_script(BENCH_TRAJECTORY)
    package = tmp_path / "prevthresh"
    (package / "sub").mkdir(parents=True)
    (package / "sub" / "mod.py").write_text("")
    assert bench.bytecode_state(package, {}) == {"PYTHONDONTWRITEBYTECODE": None, "pycache": False}
    (package / "sub" / "__pycache__").mkdir()
    assert bench.bytecode_state(package, {"PYTHONDONTWRITEBYTECODE": "1"}) == {
        "PYTHONDONTWRITEBYTECODE": "1",
        "pycache": True,
    }


def test_bench_ingest_runs_every_table(tmp_path):
    # Each table, written as bench_paired.py writes it, ingests to the counts it was built with.
    bench = load_script(BENCH_INGEST)
    for name, build in bench.TABLES.items():
        text, expected = build(300)
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        assert prevthresh.ingest_predictions(path) == expected, name
        assert expected.n == (303 if name == "long-row" else 300), name


def test_bench_paired_against_the_same_tree():
    src = Path(prevthresh.__file__).resolve().parents[1]
    proc = run_script(BENCH_PAIRED, str(src), "--rounds", "2", "--batch-ms", "1", "--rows", "300")
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[0] == f"this: {ROOT / 'src' / 'prevthresh'}"
    assert lines[1] == f"base: {src / 'prevthresh'}"
    rows = [line.rsplit(None, 7) for line in lines[3:]]
    assert [row[0] for row in rows] == [
        "ThresholdResult(...)", "ppv_at", "npv_at", "positive_threshold", "threshold_summary", "curvature_argmax",
        "curvature_argmax(npv)", "curvature_argmax(broad)", "mcc_at_threshold", "mcc_ratio", "f_beta_at",
        "analyze_counts", "verify_bounds(0.01)", "emit_ratio_curves", "simulate_population",
        *[f"ingest {table}" for table in load_script(BENCH_INGEST).TABLES],
        "cli thresholds --json", "cli ratios --json", "cli analyze 9,1,1,9",
    ]
    for _, q1_ratio, median_ratio, q3_ratio, this_us, base_us, batch, same in rows:
        assert 0 < float(q1_ratio) <= float(median_ratio) <= float(q3_ratio)
        assert float(this_us) > 0 and float(base_us) > 0 and int(batch) >= 1
        assert same == "yes"


def test_bench_paired_checks_each_ingest_call(tmp_path):
    bench = load_script(BENCH_PAIRED)
    path = tmp_path / "t.csv"
    path.write_text("label,prediction\n1,1\n0,1\n")
    ingest = bench.calls(prevthresh, {"t": (path, (1, 1, 0, 1))})["ingest t"]
    with pytest.raises(SystemExit, match=r"ingest t: got ConfusionCounts\(tp=1, fp=1, fn=0, tn=0\), expected \(1, 1, 0, 1\)"):
        ingest()
    path.write_text("label,prediction\n1,1\n0,1\n0,0\n")
    assert ingest() == prevthresh.ConfusionCounts(1, 1, 0, 1)


def test_bench_paired_rejects_a_tree_without_the_package(tmp_path):
    proc = run_script(BENCH_PAIRED, str(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr == f"error: no prevthresh package in {tmp_path}\n"

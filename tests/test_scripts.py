"""Smoke tests of the scripts under scripts/, each run as a fresh process on this source tree."""

import importlib.util
import json
import os
import shutil
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


@pytest.mark.parametrize(
    "args, error",
    [
        (("--prevalence", "1.5"), "error: argument --prevalence: invalid Rate value: '1.5'"),
        (
            ("--specificity", "1", "--prevalence", "0"),
            "error: no analytic value at prevalence 0: no positive predictions at phi=0.0",
        ),
    ],
    ids=["rate-out-of-range", "undefined-ppv"],
)
def test_mc_convergence_rejects_rates_without_an_analytic_value(args, error):
    proc = run_script(MC_CONVERGENCE, *args)
    assert (proc.returncode, proc.stdout) == (2, "")
    (error_line,) = [line for line in proc.stderr.splitlines() if "error" in line]
    assert error_line.startswith(f"mc_convergence.py: {error}")
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


def test_bench_trajectory_checks_the_source_digest_of_each_bench_file(tmp_path):
    bench = load_script(BENCH_TRAJECTORY)

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    def record(digest):
        provenance = {"src_sha256": digest}
        return json.dumps({"workloads": {"validate": {"provenance": provenance}, "cli-burst": {"provenance": provenance}}})

    package = tmp_path / "src" / "prevthresh"
    package.mkdir(parents=True)
    (package / "metrics.py").write_text("x = 1\n")
    (package / "__init__.py").write_text("")
    (package / "notes.txt").write_text("not hashed")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    first = bench.src_digest({"__init__.py": b"", "metrics.py": b"x = 1\n"})
    assert bench.src_digest(bench.src_files_at(tmp_path, None)) == first
    # Measured the committed tree: ok. Measured an edit that was never committed: a mismatch.
    (tmp_path / "BENCH_good.json").write_text(record(first))
    (package / "metrics.py").write_text("x = 2\n")
    (tmp_path / "BENCH_stale.json").write_text(record(bench.src_digest({"__init__.py": b"", "metrics.py": b"x = 3\n"})))
    git("add", "BENCH_good.json", "BENCH_stale.json")
    git("commit", "-q", "-m", "records")
    # Not yet committed: checked against the working tree, whose metrics.py is x = 2.
    (tmp_path / "BENCH_new.json").write_text(record(bench.src_digest(bench.src_files_at(tmp_path, None))))
    results = {name: (matches, message) for name, _, matches, message in bench.check_provenance(tmp_path)}
    assert {name: matches for name, (matches, _) in results.items()} == {
        "BENCH_good.json": True, "BENCH_new.json": True, "BENCH_stale.json": False,
    }
    assert results["BENCH_new.json"][1].endswith("is the working tree's")
    assert bench._check_provenance_main(tmp_path) == 1
    bench.KNOWN_MISMATCHES = frozenset({"BENCH_stale.json"})
    assert bench._check_provenance_main(tmp_path) == 0
    # A shallow clone's oldest commit adds every file, so the check refuses to run there.
    git("commit", "-q", "--allow-empty", "-m", "later")
    subprocess.run(
        ["git", "clone", "-q", "--depth", "1", tmp_path.as_uri(), str(tmp_path / "shallow")],
        check=True, capture_output=True,
    )
    with pytest.raises(RuntimeError, match="shallow clone"):
        bench.check_provenance(tmp_path / "shallow")
    assert bench._check_provenance_main(tmp_path / "shallow") == 1


def test_bench_trajectory_provenance_mode_takes_no_label():
    proc = run_script(BENCH_TRAJECTORY, "--check-provenance", "--label", "x")
    assert proc.returncode == 2
    assert "not allowed with argument" in proc.stderr


def test_bench_ingest_runs_every_table(tmp_path):
    # Each table, written as bench_paired.py writes it, ingests to the counts it was built with.
    bench = load_script(BENCH_INGEST)
    for name, build in bench.TABLES.items():
        text, expected = build(300)
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        assert prevthresh.ingest_predictions(path) == expected, name
        assert expected.n == (303 if name == "long-row" else 300), name


COLD_CALLS = [
    "cold thresholds --json", "cold ratios --json", "cold analyze --json", "cold simulate", "cold error exit",
    "cold import",
]


@pytest.fixture(scope="module")
def copied_tree_run(tmp_path_factory):
    """The copied tree and bench_paired.py's run on a copy of src/ and scripts/, against that copy's src/.

    PYTHONDONTWRITEBYTECODE is unset, so only the script's own rule keeps bytecode out of the copy.
    """
    tree = tmp_path_factory.mktemp("tree").resolve()
    for name in ("src", "scripts"):
        shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        [sys.executable, str(tree / "scripts" / "bench_paired.py"), str(tree / "src"),
         "--rounds", "2", "--batch-ms", "1", "--rows", "300"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    return tree, proc


def test_bench_paired_against_the_same_tree(copied_tree_run):
    tree, proc = copied_tree_run
    # The copy holds no __pycache__, so no warning either.
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert lines[:2] == [f"this: {tree / 'src' / 'prevthresh'}", f"base: {tree / 'src' / 'prevthresh'}"]
    rows = [line.rsplit(None, 7) for line in lines[3 : -len(COLD_CALLS)]]
    assert [row[0] for row in rows] == [
        "ThresholdResult(...)", "ppv_at", "npv_at", "positive_threshold", "negative_threshold", "ppv_at_threshold",
        "threshold_summary", "curvature_argmax", "curvature_argmax(npv)", "curvature_argmax(broad)", "curvature_argmax(drawn)", "mcc_at_threshold", "mcc_ratio", "f_beta_at",
        "analyze_counts", "verify_bounds(0.01)", "emit_curves", "emit_ratio_curves", "emit pair",
        "emit_curves (fresh step)", "simulate_population",
        *[f"ingest {table}" for table in load_script(BENCH_INGEST).TABLES],
        "cli thresholds --json", "cli ratios --json", "cli analyze 9,1,1,9",
    ]
    for _, q1_ratio, median_ratio, q3_ratio, this_us, base_us, batch, same in rows:
        assert 0 < float(q1_ratio) <= float(median_ratio) <= float(q3_ratio)
        assert float(this_us) > 0 and float(base_us) > 0 and int(batch) >= 1
        assert same == "yes"


def test_bench_paired_times_cold_calls_after_the_in_process_ones(copied_tree_run):
    _, proc = copied_tree_run
    assert proc.returncode == 0
    rows = [line.rsplit(None, 7) for line in proc.stdout.splitlines()[-len(COLD_CALLS) :]]
    assert [row[0] for row in rows] == COLD_CALLS
    for _, q1_ratio, median_ratio, q3_ratio, this_us, base_us, batch, same in rows:
        assert 0 < float(q1_ratio) <= float(median_ratio) <= float(q3_ratio)
        # No fresh interpreter starts within a millisecond.
        assert float(this_us) > 1000 and float(base_us) > 1000 and int(batch) >= 1
        # Both sides wrote the same stdout; the error exit wrote none, with exit code 1 as expected.
        assert same == "yes"


def test_bench_paired_writes_no_bytecode(copied_tree_run):
    tree, proc = copied_tree_run
    assert proc.returncode == 0
    assert list(tree.rglob("__pycache__")) == []


def test_bench_paired_null_pairs_the_base_with_itself():
    src = Path(prevthresh.__file__).resolve().parents[1]
    # A tree that holds bytecode caches, as a test run may leave, is warned about once per side.
    package = src / "prevthresh"
    warning = f"warning: {package} holds __pycache__ directories; its cold calls read cached bytecode\n"
    expected_stderr = 2 * warning if any(package.rglob("__pycache__")) else ""
    proc = run_script(BENCH_PAIRED, str(src), "--null", "--rounds", "3", "--batch-ms", "1", "--rows", "300")
    assert (proc.returncode, proc.stderr) == (0, expected_stderr)
    lines = proc.stdout.splitlines()
    assert lines[2].split() == [
        "call", "q1_ratio", "med_ratio", "q3_ratio", "null_q1", "null_q3", "this_us", "base_us", "batch", "same", "moved"
    ]
    rows = [line.rsplit(None, 10) for line in lines[3:]]
    assert "analyze_counts" in [row[0] for row in rows]
    for _, q1_ratio, median_ratio, q3_ratio, null_q1, null_q3, this_us, base_us, batch, same, moved in rows:
        assert 0 < float(q1_ratio) <= float(median_ratio) <= float(q3_ratio)
        assert 0 < float(null_q1) <= float(null_q3)
        assert moved == ("no" if float(null_q1) <= float(median_ratio) <= float(null_q3) else "yes")
        assert float(this_us) > 0 and float(base_us) > 0 and int(batch) >= 1
        assert same == "yes"


@pytest.fixture
def bench_paired(monkeypatch):
    """bench_paired.py loaded as a module, with the bytecode flag its import sets restored after the test."""
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    return load_script(BENCH_PAIRED)


def test_bench_paired_checks_each_ingest_call(bench_paired, tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("label,prediction\n1,1\n0,1\n")
    ingest = bench_paired.calls(prevthresh, {"t": (path, (1, 1, 0, 1))}, tmp_path)["ingest t"]
    with pytest.raises(SystemExit, match=r"ingest t: got ConfusionCounts\(tp=1, fp=1, fn=0, tn=0\), expected \(1, 1, 0, 1\)"):
        ingest()
    path.write_text("label,prediction\n1,1\n0,1\n0,0\n")
    assert ingest() == prevthresh.ConfusionCounts(1, 1, 0, 1)


def test_bench_paired_rejects_a_tree_without_the_package(tmp_path):
    proc = run_script(BENCH_PAIRED, str(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr == f"error: no prevthresh package in {tmp_path}\n"


def test_bench_paired_ends_the_run_on_a_wrong_exit_code(bench_paired, monkeypatch, tmp_path):
    args, _ = bench_paired.COLD_CALLS["cold import"]
    monkeypatch.setitem(bench_paired.COLD_CALLS, "cold import", (args, 1))
    cold_import = bench_paired.calls(prevthresh, {}, tmp_path)["cold import"]
    with pytest.raises(SystemExit, match=r"^error: prevthresh cold import: exited 0, expected 1$"):
        cold_import()


@pytest.mark.parametrize(
    "base, null, results, code",
    [
        # SRC_DIR is this tree's src/: this and base are one tree and must agree.
        ("this tree", False, {"this": "a", "base": "b"}, 1),
        # Another tree may differ from this one, but its --null copy may not differ from it.
        ("other tree", False, {"this": "a", "base": "b"}, 0),
        ("other tree", True, {"this": "b", "base": "a", "null": "a"}, 0),
        ("other tree", True, {"this": "a", "base": "a", "null": "b"}, 1),
        ("this tree", True, {"this": "a", "base": "a", "null": "a"}, 0),
    ],
)
def test_bench_paired_fails_where_two_loads_of_one_tree_differ(
    bench_paired, monkeypatch, tmp_path, capsys, base, null, results, code
):
    base_pkg = prevthresh if base == "this tree" else type(sys)("prevthresh_base")
    if base != "this tree":
        base_pkg.__file__ = str(tmp_path / "prevthresh" / "__init__.py")
    sides = iter(results)
    # Only the base's file path is read; every side's one call returns that side's result.
    monkeypatch.setattr(bench_paired, "load_package", lambda name, src_dir: base_pkg)
    monkeypatch.setattr(bench_paired, "calls", lambda pkg, tables, cwd: {"call": lambda r=results[next(sides)]: r})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: None)
    argv = ["src", "--rounds", "1", "--batch-ms", "0.01", "--rows", "10", *(["--null"] if null else [])]
    assert bench_paired.main(argv) == code
    out, err = capsys.readouterr()
    row = out.splitlines()[-1].split()
    assert row[0] == "call"
    assert row[-2 if null else -1] == ("yes" if len(set(results.values())) == 1 else "NO")
    assert ("error: two loads of one tree differ on: call\n" in err) == (code == 1)


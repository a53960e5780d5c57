"""Smoke tests of the scripts under scripts/, each run as a fresh process on this source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import prevthresh

ROOT = Path(__file__).resolve().parents[1]
MC_CONVERGENCE = ROOT / "scripts" / "mc_convergence.py"


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

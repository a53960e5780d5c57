"""Regenerate digests.json from the sources under src/.

Run from the root of a checkout, only when the deterministic outputs are
meant to change::

    python3 perfbench/record_digests.py

It runs the first DIGEST_ROUNDS rounds of every workload at the default
seed and stores the sha256 of each deterministic payload (simulation
output is left out: it is stable only within one numpy build).
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
import tempfile
from importlib import metadata
from pathlib import Path

import gate as g
import run
import workloads as w


def main() -> int:
    digests: dict[str, str] = {}
    gate = g.Gate(digests, record=True)
    sys.path.insert(0, str(run.SRC))
    env = run.child_env()
    run.OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=run.OUT)
    try:
        for cls in w.WORKLOADS.values():
            run.measure(cls(run.ROOT, Path(tmp), env), w.DEFAULT_SEED, gate, rounds=w.DIGEST_ROUNDS)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if gate.failed:
        print("\n".join(gate.failures), file=sys.stderr)
        return 1
    table = {
        "seed": w.DEFAULT_SEED,
        "rounds": w.DIGEST_ROUNDS,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "payloads": dict(sorted(digests.items())),
    }
    with open(g.DIGESTS_PATH, "w", encoding="utf-8") as f:
        json.dump(table, f, indent=1)
        f.write("\n")
    print(f"{len(digests)} digests over {gate.attempted} checked operations -> {g.DIGESTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

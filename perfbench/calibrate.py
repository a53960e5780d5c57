"""Fixed reference jobs that measure the machine's momentary speed.

On small shared machines the speed of a core drifts by 20-30% within a
minute (neighbours, frequency, shared caches, page cache), and thread
CPU time drifts with it, so absolute round times from two runs are not
comparable. A reference job of the same kind as a round, run beside it
on the same CPU, slows down and speeds up with the round, so round time
divided by reference time is steady where either alone is not. Neither
job touches ``prevthresh``, and this file must stay unchanged between
the two commits being compared.

- ``kernel_seconds`` is the reference for in-process rounds: the same kind
  of work as the library's scalar code (validated float subclasses, a
  frozen dataclass, calls, a guarded division, ``math.sqrt``, dict and
  list updates, ``repr``). A tighter arithmetic loop was tried first; it
  sped up more than the rounds did when the machine did, which skewed
  the p90.
- ``process_seconds`` is the reference for CLI rounds: a fresh interpreter
  that imports numpy, which is most of what a CLI invocation does.
"""

from __future__ import annotations

import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

REFERENCE_PROCESS = "import numpy"


class _Unit(float):
    """A validated float in [0, 1], built the way the library builds its rates."""

    __slots__ = ()

    def __new__(cls, value):
        v = float(value)
        if not math.isfinite(v) or v < 0.0 or v > 1.0:
            raise ValueError(value)
        return super().__new__(cls, v)


@dataclass(frozen=True)
class _Pair:
    a: _Unit
    b: _Unit

    def __post_init__(self):
        object.__setattr__(self, "a", _Unit(self.a))
        object.__setattr__(self, "b", _Unit(self.b))


def _bayes(p: _Pair, x: float) -> _Unit:
    x = _Unit(x)
    num = float(p.a) * float(x)
    den = num + (1.0 - float(p.b)) * (1.0 - float(x))
    if den == 0.0:
        raise ZeroDivisionError
    return _Unit(num / den)


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed kernel (7-10 ms on a 2-core x86-64 VM)."""
    t0 = perf_counter()
    table = {}
    out = []
    for i in range(1500):
        p = _Pair(0.5 + (i % 97) * 0.005, (i % 50) * 0.02)
        x = (i % 101) * 0.01
        try:
            v = float(_bayes(p, x))
        except ZeroDivisionError:
            v = 0.0
        table[i & 127] = math.sqrt(v * float(p.a))
        if i % 4 == 0:
            out.append(repr(v))
    ",".join(out)
    return perf_counter() - t0


def process_seconds(env: dict, cwd: Path) -> float:
    """Wall time of a fresh interpreter running REFERENCE_PROCESS (0.15-0.25 s on the same VM)."""
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", REFERENCE_PROCESS],
        cwd=cwd, env=env, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    return perf_counter() - t0

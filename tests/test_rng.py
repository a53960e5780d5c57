"""_rng against numpy's Generator, its oracle: the same 64-bit stream and the same binomial draws, bit for bit.

A numpy release that changes its seeding, PCG64 or binomial sampler
fails these tests; _rng must then follow it, and simulate's counts
change with it.
"""

import json
import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from prevthresh import DiagnosticProfile, SimulationConfig, _rng, simulate_population
from test_cli import source_env

SEEDS = st.integers(0, 2**64 - 1)
SIZES = st.integers(1, 2**63 - 1)
# The edges of [0, 1], the smallest subnormal, a band below 2**-52, where
# p·n passes inversion's limit of 30 only for n above 1.5e17, and one minus
# each (which rounds 1 - p to within an ulp of 1).
PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 0.5]),
    st.floats(1e-17, 2e-16),
    st.floats(1e-17, 2e-16).map(lambda x: 1.0 - x),
    st.floats(0.0, 1.0),
)

# PCG64(seed).random_raw(4) as numpy 2.4.6 gives it.
RAW_STREAMS = {
    0: [0xA30FEBCFD9C2825F, 0x4510BDF882D9D721, 0x0A7D3DA94ECDE8B8, 0x043B27B61342F01D],
    1: [0x8306BDF37922E4FF, 0xF35196BBC152A866, 0x24E7A4F608EC18CD, 0xF2DAB0AED2AC6FD2],
    2**32: [0xE3C5EBE285AC1625, 0x8EA09968FE31DBCC, 0xCD084FF84D8DE9BE, 0xF4DE16EC3A8B9986],
    2**64 - 1: [0xAE163A7A8C47568F, 0xD86659F5F3382359, 0x01E52B195BC2D24A, 0xE5026AAF19A22DB1],
}


def draws(rng, calls) -> list[int]:
    return [int(rng.binomial(n, p)) for n, p in calls]


@pytest.mark.parametrize("seed", sorted(RAW_STREAMS))
def test_raw_stream_is_pinned(seed):
    rng = _rng.Generator(seed)
    assert [rng.next64() for _ in range(4)] == RAW_STREAMS[seed]


@pytest.mark.parametrize("seed", sorted(RAW_STREAMS))
def test_raw_stream_matches_numpy(seed):
    rng = _rng.Generator(seed)
    assert [rng.next64() for _ in range(64)] == np.random.PCG64(seed).random_raw(64).tolist()


def test_next_double_matches_numpy():
    rng = _rng.Generator(0)
    assert rng.next_double() == 0.6369616873214543
    assert [rng.next_double() for _ in range(99)] == np.random.default_rng(0).random(100).tolist()[1:]


@given(seed=SEEDS, calls=st.lists(st.tuples(SIZES, PROBABILITIES), min_size=1, max_size=6))
@example(seed=0, calls=[(2**63 - 1, 1.0), (2**63 - 1, 0.0), (2**63 - 1, 5e-324), (1, 1.0 - 1e-17)])
def test_binomial_matches_numpy(seed, calls):
    assert draws(_rng.Generator(seed), calls) == draws(np.random.default_rng(seed), calls)


# Regimes in which numpy's arithmetic has details that a plain transcription
# misses, each a list of (n, p) drawn in turn from one seed.
REGIMES = {
    # Inversion's starting mass exp(n·log1p(-p)): log(1 - p) is 0 here.
    "inversion, p below 1e-16": [(10**18, 1e-17), (3 * 10**18, 9e-18), (10**18, 1 - 1e-17)],
    # BTPE's squeeze term takes k·k as an int64 product, which wraps for these n.
    "btpe, k·k wraps": [(2**63 - 1, 0.5), (6 * 10**18, 0.3), (8 * 10**18, 0.4999999)],
    # BTPE's final test forms z and w from float(n); n + 1 - m as an exact
    # integer rounds otherwise. p·n in the hundreds reaches that test often.
    "btpe, n above 2**62": [
        (7001581301995435489, 1 - 2**-52), (4784966174430245710, 1 - 2**-53), (2**63 - 88, 5.6e-17),
    ],
    # Exactly at inversion's limit, p·n = 30, numpy still inverts.
    "inversion, p·n at its limit": [(60, 0.5), (300, 0.1), (60, 0.5 + 2**-53)],
    # BTPE's pmf product takes n + 1 as an int64 sum, which wraps at the largest n.
    "btpe, n + 1 wraps": [(2**63 - 1, 1e-17), (2**63 - 1, 2e-17), (2**63 - 1, 1 - 3e-17)],
}


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_binomial_regimes_match_numpy(regime):
    calls = REGIMES[regime] * 3
    for seed in range(300):
        assert draws(_rng.Generator(seed), calls) == draws(np.random.default_rng(seed), calls), seed


@contextmanager
def numpy_unloaded():
    """sys.modules without numpy for the block, as in a process that never imported it."""
    saved = sys.modules.pop("numpy")
    try:
        yield
    finally:
        sys.modules["numpy"] = saved


@given(
    prevalence=PROBABILITIES,
    sensitivity=PROBABILITIES,
    specificity=PROBABILITIES,
    n=SIZES,
    seed=SEEDS,
)
def test_simulate_population_is_the_same_on_both_paths(prevalence, sensitivity, specificity, n, seed):
    config = SimulationConfig(prevalence, DiagnosticProfile(sensitivity, specificity), n, seed)
    with numpy_unloaded():
        pure = simulate_population(config)
    assert pure == simulate_population(config)


def test_simulate_population_draws_with_rng_without_numpy(monkeypatch):
    made = []
    generator = _rng.Generator
    monkeypatch.setattr(_rng, "Generator", lambda seed: made.append(seed) or generator(seed))
    config = SimulationConfig(0.19, DiagnosticProfile(0.9, 0.95), 10**6, 7)
    numpy_counts = simulate_population(config)
    assert made == []
    with numpy_unloaded():
        assert simulate_population(config) == numpy_counts
    assert made == [7]


# A fresh interpreter draws once with numpy blocked or imported first, and
# reports its counts and which of prevthresh's array modules it loaded.
DRAW_PROBE = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # every import of numpy now raises ModuleNotFoundError
else:
    import numpy
from prevthresh import DiagnosticProfile, SimulationConfig, simulate_population
counts = simulate_population(SimulationConfig(0.19, DiagnosticProfile(0.9, 0.95), 10**6, 7))
loaded = sorted(name for name in ("prevthresh._arrays", "prevthresh._rng") if name in sys.modules)
print(json.dumps({"counts": [counts.tp, counts.fp, counts.fn, counts.tn], "loaded": loaded}))
"""


@pytest.mark.parametrize("numpy_state, loaded", [("blocked", ["prevthresh._rng"]), ("imported", [])])
def test_simulate_population_in_a_fresh_process(numpy_state, loaded):
    # Blocked, numpy is not loaded and _rng draws; imported, numpy is taken
    # from sys.modules, with no import of _arrays (nor of _rng).
    proc = subprocess.run(
        [sys.executable, "-c", DRAW_PROBE, numpy_state], capture_output=True, text=True, env=source_env(), timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    counts = simulate_population(SimulationConfig(0.19, DiagnosticProfile(0.9, 0.95), 10**6, 7))
    assert json.loads(proc.stdout) == {"counts": [counts.tp, counts.fp, counts.fn, counts.tn], "loaded": loaded}

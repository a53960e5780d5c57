"""Seedable Monte Carlo population simulator.

Realizes the generative model behind the predictive-value curves: each
of n subjects is positive with the configured prevalence, positives are
detected with the profile's sensitivity, and negatives are correctly
cleared with its specificity. The empirical PPV/NPV of the resulting
confusion counts converge to the analytic curves as n grows, which the
test suite uses to validate the algebra end to end.
"""

from __future__ import annotations

import sys

from .errors import _echo
from .metrics import ConfusionCounts, DiagnosticProfile, Rate, _field_setters, _Record

__all__ = ["SimulationConfig", "simulate_population"]

_SEED_LIMIT = 2**64
# numpy, whose draws _rng reproduces, takes binomial counts as signed 64-bit integers.
_N_LIMIT = 2**63


class SimulationConfig(_Record):
    """Population size, class balance, classifier profile and RNG seed.

    The same config produces the same counts on every run, numpy
    loaded or not: simulate_population draws them as numpy's
    default_rng(seed).binomial does, with numpy's Generator or with
    its pure-Python copy in _rng. A numpy release that changes its
    binomial sampler would change the counts, and the tests that
    compare the two generators would fail.
    """

    __slots__ = _fields = ("prevalence", "profile", "n", "seed")

    def __init__(self, prevalence: float, profile: DiagnosticProfile, n: int, seed: int):
        prevalence = Rate(prevalence)
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be a positive integer, got {_echo(repr(n), str)}")
        if n >= _N_LIMIT:
            raise ValueError(f"n must fit in a signed 64-bit integer, got {_echo(repr(n), str)}")
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        if not 0 <= seed < _SEED_LIMIT:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {_echo(repr(seed), str)}")
        _set_prevalence(self, prevalence)
        _set_profile(self, profile)
        _set_n(self, n)
        _set_seed(self, seed)


_set_prevalence, _set_profile, _set_n, _set_seed = _field_setters(SimulationConfig)


def simulate_population(config: SimulationConfig) -> ConfusionCounts:
    """Draw one synthetic population and tally its confusion matrix.

    Drawn as three nested binomials (how many subjects are positive,
    how many of those are detected, how many negatives are cleared),
    which has exactly the same distribution as n independent
    per-subject draws but costs O(1) RNG calls. Deterministic for a
    fixed seed, and the same counts as numpy's
    np.random.default_rng(seed).binomial gives. Where numpy is already
    loaded, as in a process that ran verify_bounds (the only path that
    loads it) or imported it itself, the draws are numpy's Generator's,
    with numpy taken from sys.modules, so no import statement runs and
    _arrays is not loaded; otherwise, numpy never imported or its import
    blocked (sys.modules["numpy"] = None), they are _rng's, its
    pure-Python copy (~30 us a call against numpy's ~14 us on validate's
    configurations, on one core of a shared 2-core machine, but without
    numpy's import), imported on the first call that needs it.
    """
    np = sys.modules.get("numpy")
    if np is not None:
        rng = np.random.default_rng(config.seed)
    else:
        from ._rng import Generator

        rng = Generator(config.seed)
    positives = int(rng.binomial(config.n, float(config.prevalence)))
    negatives = config.n - positives
    tp = int(rng.binomial(positives, float(config.profile.sensitivity)))
    tn = int(rng.binomial(negatives, float(config.profile.specificity)))
    return ConfusionCounts(tp, negatives - tn, positives - tp, tn)

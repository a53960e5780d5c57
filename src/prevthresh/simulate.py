"""Seedable Monte Carlo population simulator.

Realizes the generative model behind the predictive-value curves: each
of n subjects is positive with the configured prevalence, positives are
detected with the profile's sensitivity, and negatives are correctly
cleared with its specificity. The empirical PPV/NPV of the resulting
confusion counts converge to the analytic curves as n grows, which the
test suite uses to validate the algebra end to end.
"""

from __future__ import annotations

from .metrics import ConfusionCounts, DiagnosticProfile, Rate, _Record, _set

__all__ = ["SimulationConfig", "simulate_population"]

_SEED_LIMIT = 2**64
# numpy draws binomial counts as signed 64-bit integers.
_N_LIMIT = 2**63


class SimulationConfig(_Record):
    """Population size, class balance, classifier profile and RNG seed.

    The same config produces the same counts on every run within one
    installed build; bit-stability across library upgrades is not
    promised (the tolerances in play are statistical, not golden).
    """

    __slots__ = _fields = ("prevalence", "profile", "n", "seed")

    def __init__(self, prevalence: float, profile: DiagnosticProfile, n: int, seed: int):
        prevalence = Rate(prevalence)
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        if n >= _N_LIMIT:
            raise ValueError(f"n must fit in a signed 64-bit integer, got {n!r}")
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        if not 0 <= seed < _SEED_LIMIT:
            raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed!r}")
        _set(self, "prevalence", prevalence)
        _set(self, "profile", profile)
        _set(self, "n", n)
        _set(self, "seed", seed)


def simulate_population(config: SimulationConfig) -> ConfusionCounts:
    """Draw one synthetic population and tally its confusion matrix.

    Drawn as three nested binomials (how many subjects are positive,
    how many of those are detected, how many negatives are cleared),
    which has exactly the same distribution as n independent
    per-subject draws but costs O(1) RNG calls. Deterministic for a
    fixed seed. The generator is numpy's, reached through _arrays, which
    is imported on the first call.
    """
    from . import _arrays

    rng = _arrays.np.random.default_rng(config.seed)
    positives = int(rng.binomial(config.n, float(config.prevalence)))
    negatives = config.n - positives
    tp = int(rng.binomial(positives, float(config.profile.sensitivity)))
    tn = int(rng.binomial(negatives, float(config.profile.specificity)))
    return ConfusionCounts(tp=tp, fp=negatives - tn, fn=positives - tp, tn=tn)

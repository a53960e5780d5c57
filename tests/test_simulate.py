"""Seeded population simulation: determinism, edge cases, convergence."""

import pytest

from prevthresh import (
    ConfusionCounts,
    DiagnosticProfile,
    Rate,
    SimulationConfig,
    ppv_at,
    simulate_population,
)

P_9095 = DiagnosticProfile(0.9, 0.95)


def config(phi=0.19, profile=P_9095, n=1000, seed=0):
    return SimulationConfig(prevalence=phi, profile=profile, n=n, seed=seed)


class TestConfig:
    def test_coerces_prevalence(self):
        assert isinstance(config().prevalence, Rate)

    @pytest.mark.parametrize("n", [0, -5, 2.0, True, 2**63, 10**20])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            SimulationConfig(prevalence=0.5, profile=P_9095, n=n, seed=0)

    def test_accepts_largest_int64_n(self):
        assert config(n=2**63 - 1).n == 2**63 - 1

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.0, True])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError):
            SimulationConfig(prevalence=0.5, profile=P_9095, n=10, seed=seed)

    def test_rejects_bad_prevalence(self):
        with pytest.raises(ValueError):
            SimulationConfig(prevalence=1.5, profile=P_9095, n=10, seed=0)


class TestSimulatePopulation:
    def test_returns_counts_summing_to_n(self):
        counts = simulate_population(config(n=12345))
        assert isinstance(counts, ConfusionCounts)
        assert counts.n == 12345

    def test_same_seed_same_counts(self):
        assert simulate_population(config(seed=7)) == simulate_population(config(seed=7))

    def test_different_seeds_differ(self):
        draws = {simulate_population(config(seed=s, n=10**4)) for s in range(5)}
        assert len(draws) > 1

    def test_full_prevalence_has_no_negatives(self):
        counts = simulate_population(config(phi=1.0, n=500))
        assert counts.fp == 0 and counts.tn == 0
        assert counts.tp + counts.fn == 500

    def test_zero_prevalence_has_no_positives(self):
        counts = simulate_population(config(phi=0.0, n=500))
        assert counts.tp == 0 and counts.fn == 0

    def test_perfect_classifier_makes_no_errors(self):
        counts = simulate_population(config(profile=DiagnosticProfile(1.0, 1.0), n=2000))
        assert counts.fp == 0 and counts.fn == 0

    def test_always_wrong_classifier(self):
        counts = simulate_population(config(profile=DiagnosticProfile(0.0, 0.0), n=2000))
        assert counts.tp == 0 and counts.tn == 0

    def test_counts_near_expectation(self):
        # n * phi = 19000 positives in expectation, sd about 124.
        counts = simulate_population(config(n=10**5, seed=3))
        assert abs((counts.tp + counts.fn) - 19000) < 1000


class TestConvergence:
    def test_empirical_ppv_error_shrinks_with_n(self):
        # Mean absolute deviation from the analytic curve over 20 seeds must
        # fall strictly at each tenfold increase in population size.
        phi = 0.19
        analytic = float(ppv_at(P_9095, phi))
        mean_errors = []
        for n in (10**3, 10**4, 10**5, 10**6):
            errors = []
            for seed in range(20):
                counts = simulate_population(config(phi=phi, n=n, seed=seed))
                errors.append(abs(float(counts.ppv()) - analytic))
            mean_errors.append(sum(errors) / len(errors))
        assert mean_errors[0] > mean_errors[1] > mean_errors[2] > mean_errors[3]

    def test_large_population_lands_close(self):
        phi = 0.19
        analytic = float(ppv_at(P_9095, phi))
        for seed in range(5):
            counts = simulate_population(config(phi=phi, n=10**6, seed=seed))
            assert abs(float(counts.ppv()) - analytic) < 0.01

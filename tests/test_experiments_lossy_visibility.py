"""Eq. 1 validation-by-simulation tests."""

import pytest

from repro.analysis.clash_model import no_clash_probability
from repro.experiments.lossy_visibility import (
    simulate_generation,
    simulated_no_clash_probability,
)


class TestSimulateGeneration:
    def test_no_invisibility_never_clashes(self, rng):
        for __ in range(20):
            assert simulate_generation(100, 40, 0.0, rng)

    def test_full_invisibility_usually_clashes(self, rng):
        outcomes = [simulate_generation(100, 60, 1.0, rng)
                    for __ in range(20)]
        assert sum(outcomes) <= 2

    def test_bad_inputs(self, rng):
        with pytest.raises(ValueError):
            simulate_generation(10, 0, 0.1, rng)
        with pytest.raises(ValueError):
            simulate_generation(10, 10, 0.1, rng)
        with pytest.raises(ValueError):
            simulate_generation(10, 5, 1.5, rng)


class TestEquationOneAgreement:
    @pytest.mark.parametrize("n,m,f", [
        (500, 100, 0.01),
        (500, 250, 0.005),
        (1000, 300, 0.002),
    ])
    def test_simulation_matches_eq1(self, n, m, f):
        simulated, stderr = simulated_no_clash_probability(
            n, m, f, rounds=150, seed=3
        )
        predicted = no_clash_probability(n, m, f * m)
        # Within 4 standard errors plus a small model tolerance (the
        # formula treats i as its expectation; the simulation draws it
        # binomially per allocation).
        assert abs(simulated - predicted) < 4 * stderr + 0.06

    def test_monotone_in_invisibility(self):
        p_low, __ = simulated_no_clash_probability(500, 200, 0.001,
                                                   rounds=80, seed=4)
        p_high, __ = simulated_no_clash_probability(500, 200, 0.02,
                                                    rounds=80, seed=4)
        assert p_high <= p_low

    def test_bad_rounds(self):
        with pytest.raises(ValueError):
            simulated_no_clash_probability(100, 10, 0.1, rounds=0)

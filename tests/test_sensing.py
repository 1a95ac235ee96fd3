"""Energy measurement."""

import numpy as np
import pytest
from conftest import make_block

from css_lab.sensing import measure_energy


class TestMeasureEnergy:
    def test_zero_block(self):
        assert measure_energy(make_block(np.zeros(10))) == 0.0

    def test_unit_modulus_sum(self):
        assert measure_energy(make_block([1, -1, 1j, -1j])) == 4.0

    def test_h0_moment(self, rng):
        # 1e5 pure-noise energies at N=1000: mean within 3*sqrt(2N/trials)
        n, trials = 1000, 100_000
        energies = (rng.standard_normal((trials, n)) ** 2).sum(axis=1)
        assert abs(energies.mean() - n) <= 3 * np.sqrt(2 * n / trials)

    def test_permutation_invariant(self, rng):
        samples = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        shuffled = rng.permutation(samples)
        assert measure_energy(samples) == pytest.approx(measure_energy(shuffled), rel=1e-12)

    def test_additive_over_partition(self, rng):
        samples = rng.standard_normal(40)
        total = measure_energy(samples)
        assert total == pytest.approx(
            measure_energy(samples[:13]) + measure_energy(samples[13:]), rel=1e-12
        )

    def test_scaling(self, rng):
        samples = rng.standard_normal(16)
        for c in (0.5, 2.0, 7.3):
            assert measure_energy(c * samples) == pytest.approx(
                c**2 * measure_energy(samples), rel=1e-12
            )


"""Combining rules and the fixed-threshold decision."""

import numpy as np
import pytest
from conftest import conventional_one, make_block

from css_lab.channel import Hypothesis
from css_lab.fusion import DegenerateWeightsError, combine, combine_signal_mrc, decide_conventional
from css_lab.sensing import measure_energy
from css_lab.theory import CombinerKind, cfar_threshold


class TestCombine:
    def test_slc_sum(self):
        assert combine(CombinerKind.SLC, [1.0, 2.0, 3.0]) == 6.0

    def test_sls_max(self):
        assert combine(CombinerKind.SLS, [1.0, 2.0, 3.0]) == 3.0

    def test_mrc_points_to_signal_level_combining(self):
        with pytest.raises(ValueError, match="combine_signal_mrc"):
            combine(CombinerKind.MRC, [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            combine(CombinerKind.SLC, [])

    def test_ordering_invariant(self, rng):
        for _ in range(200):
            energies = rng.exponential(5.0, size=rng.integers(1, 8))
            sls = combine(CombinerKind.SLS, list(energies))
            slc = combine(CombinerKind.SLC, list(energies))
            assert sls >= energies.max() - 1e-12
            assert slc >= sls - 1e-12

    def test_k1_collapse(self):
        single = [4.2]
        assert combine(CombinerKind.SLC, single) == combine(CombinerKind.SLS, single) == 4.2


class TestCombineSignalMrc:
    def test_single_block_identity(self):
        block = make_block([1.0, -2.0, 0.5], snr=1.0)
        combined = combine_signal_mrc([block])
        assert np.allclose(combined, block.samples)

    def test_noise_scale_preserved(self, rng):
        # weighted combining keeps unit-variance noise at unit variance
        blocks = [make_block(rng.standard_normal(4000), snr=s) for s in (0.5, 1.0, 2.0)]
        combined = combine_signal_mrc(blocks)
        assert measure_energy(combined) / 4000 == pytest.approx(1.0, abs=0.15)

    def test_all_zero_gains_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            combine_signal_mrc([make_block([1.0, 2.0], snr=0.0)])


class TestDecideConventional:
    def test_below_threshold(self):
        assert decide_conventional(6999.9, 7000.0) is Hypothesis.H0

    def test_boundary_inclusive(self):
        assert decide_conventional(7000.0, 7000.0) is Hypothesis.H1

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            decide_conventional(1.0, 0.0)

    def test_empirical_false_alarm_rate(self):
        # seeded Monte Carlo: SLC at the 0.1-target threshold
        from css_lab.harness import Scenario, derive_rng

        scenario = Scenario(uncertainty_db=0.0, trials=100_000, seed=314)
        lam = cfar_threshold(scenario.theory_params(), 0.1)
        rate = conventional_one(scenario, False, [lam], derive_rng(314, 90))[0]
        assert abs(rate - 0.1) <= 3 * np.sqrt(0.1 * 0.9 / scenario.trials)

"""Combining rules, CFAR threshold inversion and the fixed-threshold decision."""

import itertools

import numpy as np
import pytest
from conftest import make_block

from css_lab.channel import Hypothesis
from css_lab.fusion import (
    CombinerKind,
    DegenerateWeightsError,
    cfar_threshold,
    combine,
    combine_signal_mrc,
    decide_conventional,
)
from css_lab.sensing import measure_energy
from css_lab.theory import TheoryParams, qfa_approx


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


class TestCfarThreshold:
    def test_slc_median(self):
        params = TheoryParams(CombinerKind.SLC, 7, 1000)
        assert cfar_threshold(params, 0.5) == pytest.approx(7000.0)

    def test_mrc_median(self):
        params = TheoryParams(CombinerKind.MRC, 7, 1000)
        assert cfar_threshold(params, 0.5) == pytest.approx(1000.0)

    def test_round_trip_through_gaussian_tail(self):
        # inverting and re-evaluating the same approximation is exact
        for kind, k in itertools.product(CombinerKind, (1, 7, 48)):
            params = TheoryParams(kind, k, 1000)
            for target in (0.01, 0.05, 0.1, 0.3, 0.5):
                lam = cfar_threshold(params, target)
                assert abs(qfa_approx(params, lam) - target) <= 1e-10

    def test_strictly_decreasing_in_target(self):
        for kind in CombinerKind:
            params = TheoryParams(kind, 7, 1000)
            lams = [cfar_threshold(params, t) for t in np.linspace(0.01, 0.9, 15)]
            assert all(b < a for a, b in zip(lams, lams[1:]))

    def test_k1_thresholds_coincide(self):
        lams = {
            kind: cfar_threshold(TheoryParams(kind, 1, 1000), 0.1) for kind in CombinerKind
        }
        assert lams[CombinerKind.SLC] == pytest.approx(lams[CombinerKind.MRC])
        assert lams[CombinerKind.SLS] == pytest.approx(lams[CombinerKind.MRC])

    def test_rejects_bad_target(self):
        params = TheoryParams(CombinerKind.SLC, 7, 1000)
        for bad in (0.0, 1.0, -0.1, 1.7):
            with pytest.raises(ValueError):
                cfar_threshold(params, bad)

    def test_small_tbw_warns(self):
        params = TheoryParams(CombinerKind.SLC, 2, 64)
        with pytest.warns(UserWarning, match="N=64 is small"):
            cfar_threshold(params, 0.1)


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
        from css_lab.harness import Scenario, conventional_rate, derive_rng

        scenario = Scenario(uncertainty_db=0.0, trials=100_000, seed=314)
        lam = cfar_threshold(scenario.theory_params(), 0.1)
        rate = conventional_rate(scenario, False, [lam], derive_rng(314, 90))[0]
        assert abs(rate - 0.1) <= 3 * np.sqrt(0.1 * 0.9 / scenario.trials)

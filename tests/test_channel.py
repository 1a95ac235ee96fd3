"""Channel synthesis: PU symbols, fading draws, noise uncertainty, received blocks."""

import numpy as np
import pytest

from css_lab.channel import (
    Hypothesis,
    draw_channel,
    draw_noise_variance,
    gen_pu_samples,
    synthesize_received,
)
from css_lab.sensing import measure_energy


class TestGenPuSamples:
    def test_bpsk_alphabet(self, rng):
        s = gen_pu_samples(4, rng)
        assert np.all(np.isin(s.real, (-1.0, 1.0)))
        assert np.all(s.imag == 0.0)

    def test_unit_power_exact(self, rng):
        s = gen_pu_samples(100_000, rng)
        assert np.mean(np.abs(s) ** 2) == 1.0

    def test_mean_concentration(self, rng):
        # binomial bound: |mean| <= 3/sqrt(n) with ~99.7% margin, fixed seed
        n = 100_000
        s = gen_pu_samples(n, rng)
        assert abs(np.mean(s.real)) <= 3.0 / np.sqrt(n)

    def test_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            gen_pu_samples(0, rng)


class TestDrawChannel:
    def test_mean_snr_matches_average(self):
        rng = np.random.default_rng(21)
        gbar = 10 ** (-1.5)
        snrs = np.array([abs(draw_channel(gbar, rng)) ** 2 for _ in range(100_000)])
        assert abs(snrs.mean() - gbar) <= 0.01 * gbar

    def test_exponential_tail(self):
        rng = np.random.default_rng(22)
        gbar = 0.5
        snrs = np.array([abs(draw_channel(gbar, rng)) ** 2 for _ in range(200_000)])
        assert abs(np.mean(snrs > gbar) - np.exp(-1.0)) <= 0.005

    def test_rejects_nonpositive_snr(self, rng):
        with pytest.raises(ValueError):
            draw_channel(0.0, rng)


class TestDrawNoiseVariance:
    def test_zero_halfwidth_is_exact(self, rng):
        assert all(draw_noise_variance(0.0, rng) == 1.0 for _ in range(100))

    def test_one_db_bounds(self):
        rng = np.random.default_rng(23)
        lo, hi = 10 ** (-0.1), 10 ** 0.1
        draws = np.array([draw_noise_variance(1.0, rng) for _ in range(20_000)])
        assert draws.min() >= lo and draws.max() <= hi

    def test_extremes_reach_endpoints(self):
        rng = np.random.default_rng(24)
        lo, hi = 10 ** (-1.0 / 10), 10 ** (1.0 / 10)
        draws = 10.0 ** (rng.uniform(-1.0, 1.0, 1_000_000) / 10.0)
        # vectorized twin of draw_noise_variance's law; endpoint approach to 0.1%
        assert draws.min() <= lo * 1.001
        assert draws.max() >= hi * 0.999
        spot = np.array([draw_noise_variance(1.0, rng) for _ in range(5_000)])
        assert spot.min() < lo * 1.01 and spot.max() > hi * 0.99

    def test_invalid_model(self, rng):
        with pytest.raises(ValueError):
            draw_noise_variance(-0.5, rng)


class TestSynthesizeReceived:
    def test_h0_energy_mean(self):
        rng = np.random.default_rng(25)
        n, sigma_sq, trials = 100, 1.0, 100_000
        gain = 0j
        pu = np.ones(n, dtype=complex)
        energies = np.empty(trials)
        for i in range(trials):
            energies[i] = measure_energy(
                synthesize_received(Hypothesis.H0, gain, pu, sigma_sq, rng)
            )
        se = energies.std(ddof=1) / np.sqrt(trials)
        assert abs(energies.mean() - n * sigma_sq) <= 3 * se

    def test_zero_gain_matches_h0_noise_sequence(self):
        pu = gen_pu_samples(64, np.random.default_rng(0))
        gain = 0j
        b0 = synthesize_received(Hypothesis.H0, gain, pu, 1.0, np.random.default_rng(9))
        b1 = synthesize_received(Hypothesis.H1, gain, pu, 1.0, np.random.default_rng(9))
        assert np.array_equal(b0.samples, b1.samples)

    def test_zero_gain_energy_distribution_matches_h0(self):
        from scipy import stats as sp_stats

        rng = np.random.default_rng(28)
        pu = gen_pu_samples(200, rng)
        gain = 0j
        e0 = [
            measure_energy(synthesize_received(Hypothesis.H0, gain, pu, 1.0, rng))
            for _ in range(2_000)
        ]
        e1 = [
            measure_energy(synthesize_received(Hypothesis.H1, gain, pu, 1.0, rng))
            for _ in range(2_000)
        ]
        assert sp_stats.ks_2samp(e0, e1).pvalue > 0.01

    def test_h1_energy_mean_fixed_snr(self):
        rng = np.random.default_rng(26)
        n, trials, snr = 1000, 20_000, 0.05
        gain = complex(np.sqrt(snr))
        pu = gen_pu_samples(n, rng)
        energies = np.empty(trials)
        for i in range(trials):
            energies[i] = measure_energy(synthesize_received(Hypothesis.H1, gain, pu, 1.0, rng))
        se = energies.std(ddof=1) / np.sqrt(trials)
        assert abs(energies.mean() - n * (1.0 + snr)) <= 3 * se

    def test_rejects_empty_pu(self, rng):
        gain = 0j
        with pytest.raises(ValueError):
            synthesize_received(Hypothesis.H0, gain, np.array([]), 1.0, rng)


class TestBlockInvariants:
    def test_seeded_determinism(self):
        pu = gen_pu_samples(128, np.random.default_rng(3))
        gain = draw_channel(0.1, np.random.default_rng(4))
        a = synthesize_received(Hypothesis.H1, gain, pu, 1.1, np.random.default_rng(5))
        b = synthesize_received(Hypothesis.H1, gain, pu, 1.1, np.random.default_rng(5))
        assert np.array_equal(a.samples, b.samples)

    def test_h1_moments_match_gaussian_model(self):
        # mean N*sigma^2*(snr+1), variance 2N*sigma^4*(snr+1)^2 within 3 SE
        rng = np.random.default_rng(27)
        n, trials, snr = 1000, 100_000, 0.0316
        gain = complex(np.sqrt(snr))
        pu = gen_pu_samples(n, rng)
        energies = np.empty(trials)
        for i in range(trials):
            energies[i] = measure_energy(synthesize_received(Hypothesis.H1, gain, pu, 1.0, rng))
        mean_se = energies.std(ddof=1) / np.sqrt(trials)
        assert abs(energies.mean() - n * (1 + snr)) <= 3 * mean_se
        var = energies.var(ddof=1)
        centered = energies - energies.mean()
        var_se = np.sqrt((np.mean(centered**4) - var**2) / trials)
        assert abs(var - 2 * n * (1 + snr) ** 2) <= 3 * var_se

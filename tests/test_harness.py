"""Monte Carlo engine: scenarios, seeding, regimes, sweeps and summaries."""

import numpy as np
import pytest

from css_lab.adaptive import FusionState, advance, push_event
from css_lab.channel import Hypothesis
from css_lab.fusion import CombinerKind, cfar_threshold
from css_lab.harness import (
    DEFAULT_PFA_GRID,
    Scenario,
    conventional_rate,
    derive_rng,
    equivalence_search,
    expected_rho,
    forced_rates,
    markov_states,
    paired_run,
    proposed_decisions_rolling,
    roc_sweep,
    run_regime,
    run_regime_sampled,
    sweep_param,
    transition_penalty,
    trapezoid_auc,
)


class TestScenario:
    def test_defaults_are_valid(self):
        sc = Scenario()
        assert sc.num_crs == 7 and sc.history_len == 15 and sc.n_samples == 1000
        assert sc.gamma_bar == pytest.approx(10 ** (-1.5))
        assert len(DEFAULT_PFA_GRID) == 15
        assert DEFAULT_PFA_GRID[0] == pytest.approx(0.01)
        assert DEFAULT_PFA_GRID[-1] == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(history_len=1)
        with pytest.raises(ValueError):
            Scenario(n_samples=999)
        with pytest.raises(ValueError):
            Scenario(pfa_grid=(0.3, 0.1))
        with pytest.raises(ValueError):
            Scenario(pfa_grid=(0.0, 0.1))
        with pytest.raises(ValueError):
            Scenario(channel_kind="laplace")
        with pytest.raises(ValueError):
            Scenario(pu_model="markov:10")  # dwell below 10 * history_len
        with pytest.raises(ValueError):
            Scenario(pu_model="sometimes")

    def test_markov_dwell_parse(self):
        assert Scenario(pu_model="markov:200").mean_dwell_events == 200

    def test_digest_stability_and_sensitivity(self):
        a, b = Scenario(seed=1), Scenario(seed=1)
        assert a.digest() == b.digest()
        assert Scenario(seed=2).digest() != a.digest()
        assert Scenario(snr_db=-14.0).digest() != a.digest()


class TestSeeding:
    def test_derive_rng_deterministic(self):
        x = derive_rng(5, 1, 2).standard_normal(4)
        y = derive_rng(5, 1, 2).standard_normal(4)
        z = derive_rng(5, 1, 3).standard_normal(4)
        assert np.array_equal(x, y)
        assert not np.array_equal(x, z)


class TestRunRegime:
    def test_unreachable_threshold(self):
        sc = Scenario(trials=2000, seed=2, pu_model="forced_h0")
        rate, _ = run_regime(sc, "conventional", 1e12)
        assert rate == 0.0

    def test_always_exceeded_threshold(self):
        sc = Scenario(trials=2000, seed=2, pu_model="forced_h1")
        rate, _ = run_regime(sc, "proposed", 1e-9)
        assert rate == 1.0

    def test_false_alarm_tracks_target(self):
        sc = Scenario(uncertainty_db=0.0, trials=100_000, seed=3, pu_model="forced_h0")
        lam = cfar_threshold(sc.fusion_config(), 0.1)
        rate, ci = run_regime(sc, "conventional", lam)
        assert abs(rate - 0.1) <= max(0.01, ci)

    def test_small_trials_warn(self):
        sc = Scenario(trials=50, seed=4)
        with pytest.warns(UserWarning):
            run_regime(sc, "conventional", 7000.0)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            run_regime(Scenario(trials=200, seed=1), "hybrid", 7000.0)

    def test_lean_conventional_path_consistent(self):
        # the single-event sampler and the windowed sampler estimate the same
        # probability
        sc = Scenario(uncertainty_db=0.0, trials=40_000, seed=6)
        lam = cfar_threshold(sc.fusion_config(), 0.2)
        lean = conventional_rate(sc, False, lam, derive_rng(6, 100))
        paired = forced_rates(sc, False, lam, derive_rng(6, 101)).conventional
        tol = 3 * np.sqrt(0.2 * 0.8 * 2 / sc.trials)
        assert abs(lean - paired) <= tol


class TestRollingEngineEquivalence:
    def test_matches_event_loop(self, rng):
        # the vectorized rolling decisions replicate the FusionState pipeline
        length, lam = 9, 105.0
        n_events = 400
        energies = rng.exponential(100.0, n_events)
        variances = rng.uniform(0.8, 1.25, n_events)
        fast = proposed_decisions_rolling(energies, variances, length, lam)
        state = FusionState(length)
        slow = np.empty(n_events, dtype=bool)
        rhos = []
        for i, (e, v) in enumerate(zip(energies, variances)):
            if len(state) < length - 1:
                push_event(state, float(e), float(v))
                slow[i] = e >= lam
            else:
                decision = advance(state, float(e), float(v), lam)
                slow[i] = decision.decision is Hypothesis.H1
                rhos.append(decision.rho)
        assert np.array_equal(fast, slow)
        assert all(r >= 1.0 for r in rhos)

    def test_rho_override(self, rng):
        energies = rng.exponential(100.0, 50)
        variances = rng.uniform(0.9, 1.1, 50)
        fixed = proposed_decisions_rolling(energies, variances, 5, 100.0, rho_override=1.5)
        assert fixed.shape == (50,)

    def test_needs_full_window(self, rng):
        with pytest.raises(ValueError):
            proposed_decisions_rolling(np.ones(3), np.ones(3), 5, 1.0)


class TestSampledReference:
    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_energy_sampler_matches_waveform_path(self, kind):
        sc = Scenario(
            combiner=kind,
            n_samples=256,
            num_crs=3,
            history_len=4,
            trials=1500,
            seed=31,
            pu_model="forced_h1",
            snr_db=-9.0,
        )
        lam = cfar_threshold(sc.fusion_config(), 0.1)
        fast, _ = run_regime(sc, "proposed", lam)
        slow, _ = run_regime_sampled(sc, "proposed", lam)
        p = (fast + slow) / 2
        tol = 3 * np.sqrt(max(p * (1 - p), 1e-4) * 2 / sc.trials)
        assert abs(fast - slow) <= tol


class TestRocSweep:
    def test_single_median_point(self):
        sc = Scenario(uncertainty_db=0.0, trials=20_000, seed=8, pfa_grid=(0.5,))
        curve = roc_sweep(sc, "conventional")
        point = curve.points[0]
        assert abs(point.empirical_pfa - 0.5) <= point.empirical_pfa_ci

    def test_zero_uncertainty_schemes_identical(self):
        sc = Scenario(uncertainty_db=0.0, trials=5_000, seed=9, pfa_grid=(0.05, 0.1, 0.3))
        conv = roc_sweep(sc, "conventional")
        prop = roc_sweep(sc, "proposed")
        for a, b in zip(conv.points, prop.points):
            assert a.empirical_pfa == b.empirical_pfa
            assert a.empirical_pd == b.empirical_pd
            assert a.theory_pfa == b.theory_pfa
            assert a.theory_pd == b.theory_pd
        assert conv.auc == prop.auc
        assert prop.mean_rho == 1.0

    def test_thread_count_does_not_change_results(self):
        sc = Scenario(trials=3_000, seed=10, pfa_grid=(0.05, 0.1, 0.2, 0.4))
        assert roc_sweep(sc, "proposed", threads=1) == roc_sweep(sc, "proposed", threads=4)

    def test_repeatable(self):
        sc = Scenario(trials=2_000, seed=11, pfa_grid=(0.1, 0.3))
        assert roc_sweep(sc, "proposed") == roc_sweep(sc, "proposed")

    def test_conventional_tracks_theory(self):
        sc = Scenario(uncertainty_db=0.0, trials=30_000, seed=12, pfa_grid=(0.05, 0.1, 0.3))
        curve = roc_sweep(sc, "conventional")
        for p in curve.points:
            assert abs(p.empirical_pfa - p.theory_pfa) <= max(0.01, p.empirical_pfa_ci)
            assert abs(p.empirical_pd - p.theory_pd) <= p.empirical_pd_ci

    def test_points_ordered_and_statistically_monotone(self):
        # raw points are reported unregularized; monotonicity along the curve
        # holds within the confidence half-widths
        sc = Scenario(trials=20_000, seed=23)
        curve = roc_sweep(sc, "proposed")
        targets = [p.target_pfa for p in curve.points]
        assert targets == sorted(targets)
        path = sorted((p.empirical_pfa, p.empirical_pd, p.empirical_pd_ci) for p in curve.points)
        for (_, pd_a, ci_a), (_, pd_b, ci_b) in zip(path, path[1:]):
            assert pd_b >= pd_a - np.hypot(ci_a, ci_b)


class TestPairedDominance:
    def test_holds_where_predictor_reliable(self):
        # below the crossover target (where the threshold meets the
        # uncertainty-inflated idle-window mean) the dual thresholds dominate
        # pointwise
        sc = Scenario(trials=15_000, seed=13, pfa_grid=(0.01, 0.05, 0.1, 0.2, 0.25))
        conv = roc_sweep(sc, "conventional")
        prop = roc_sweep(sc, "proposed")
        for a, b in zip(conv.points, prop.points):
            assert b.empirical_pfa <= a.empirical_pfa
            assert b.empirical_pd >= a.empirical_pd
        assert prop.auc > conv.auc

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "at high targets the threshold drops below the uncertainty-inflated "
            "idle-window mean, the window predictor then fires under H0 and the "
            "false-alarm ordering reverses; dominance only holds pointwise where "
            "the predictor is reliable"
        ),
    )
    def test_full_default_grid(self):
        sc = Scenario(trials=15_000, seed=13)
        conv = roc_sweep(sc, "conventional")
        prop = roc_sweep(sc, "proposed")
        assert all(
            b.empirical_pfa <= a.empirical_pfa and b.empirical_pd >= a.empirical_pd
            for a, b in zip(conv.points, prop.points)
        )


class TestPairedRun:
    def test_zero_uncertainty_is_degenerate(self):
        sc = Scenario(uncertainty_db=0.0, trials=100, seed=14, pu_model="forced_h1")
        lam = cfar_threshold(sc.fusion_config(), 0.1)
        conv, prop = paired_run(sc, lam, 20_000)
        assert np.array_equal(conv, prop)

    def test_requires_forced_model(self):
        sc = Scenario(trials=100, seed=14, pu_model="markov:200")
        with pytest.raises(ValueError):
            paired_run(sc, 7000.0, 1000)


class TestMarkov:
    def test_states_alternate_with_requested_dwell(self):
        rng = derive_rng(15, 0)
        states = markov_states(200_000, 250, rng)
        toggles = int(np.count_nonzero(states[1:] != states[:-1]))
        mean_dwell = states.size / max(toggles, 1)
        assert 200 <= mean_dwell <= 310

    def test_transition_penalty_positive(self):
        sc = Scenario(trials=150_000, seed=16, pu_model="markov:200")
        lam = cfar_threshold(sc.fusion_config(), 0.1)
        penalty = transition_penalty(sc, lam)
        assert penalty.toggles > 100
        assert penalty.excess_false_alarm > 0.0
        assert penalty.excess_missed_detection > 0.0

    def test_run_regime_markov_rate(self):
        sc = Scenario(trials=30_000, seed=17, pu_model="markov:200")
        lam = cfar_threshold(sc.fusion_config(), 0.1)
        rate, _ = run_regime(sc, "proposed", lam)
        assert 0.0 < rate < 1.0


class TestSweepsAndAuc:
    def test_trapezoid_basics(self):
        assert trapezoid_auc([(0.5, 0.5)]) == pytest.approx(0.5)
        assert trapezoid_auc([(0.0, 1.0)]) == pytest.approx(1.0)
        assert trapezoid_auc([(0.2, 0.9), (0.1, 0.7)]) == pytest.approx(
            trapezoid_auc([(0.1, 0.7), (0.2, 0.9)])
        )

    def test_sweep_param_single_value_matches_roc(self):
        base = Scenario(trials=2_000, seed=18, pfa_grid=(0.1, 0.3))
        curves = sweep_param(base, "history_len", (15,))
        assert len(curves) == 1
        assert curves[0] == roc_sweep(base, "proposed")

    def test_sweep_param_validation(self):
        base = Scenario(trials=200, seed=18)
        with pytest.raises(ValueError):
            sweep_param(base, "snr_db", (1, 2))
        with pytest.raises(ValueError):
            sweep_param(base, "history_len", ())
        with pytest.raises(ValueError):
            sweep_param(base, "history_len", (1,))

    def test_equivalence_degenerate_match(self):
        # with no uncertainty the schemes coincide, so the proposed sensor
        # count itself closes the gap
        sc = Scenario(uncertainty_db=0.0, num_crs=3, trials=3_000, seed=19, pfa_grid=(0.1, 0.3))
        result = equivalence_search(sc, k_range=(3, 5))
        assert result.k_match == 3
        assert abs(result.auc_gap) <= 0.02

    def test_equivalence_gap_positive_at_same_k(self):
        sc = Scenario(num_crs=3, trials=3_000, seed=20, pfa_grid=(0.05, 0.1, 0.3))
        result = equivalence_search(sc, k_range=(3,))
        assert result.k_match == -1
        assert result.auc_gap > 0.0

    def test_equivalence_range_validation(self):
        sc = Scenario(trials=200, seed=20)
        with pytest.raises(ValueError):
            equivalence_search(sc, k_range=(5, 3))


class TestExpectedRho:
    def test_zero_uncertainty(self):
        assert expected_rho(Scenario(uncertainty_db=0.0)) == 1.0

    def test_default_window_value(self):
        # frozen from a large direct simulation of the window statistic
        value = expected_rho(Scenario(seed=21), windows=200_000)
        assert value == pytest.approx(1.0895, abs=0.002)

    def test_chunking_leaves_value_unchanged(self, monkeypatch):
        scenario = Scenario(seed=22)
        whole = expected_rho(scenario, windows=3_000)
        # 1000 cells hold 9 windows of 15 x 7: 333 full chunks and a remainder
        monkeypatch.setattr("css_lab.harness._RHO_CHUNK_CELLS", 1000)
        assert expected_rho(scenario, windows=3_000) == whole

"""Dual-threshold decision pipeline: history, prediction, rho, threshold toggle."""

import numpy as np
import pytest

from css_lab.adaptive import (
    AdaptiveDecision,
    FusionState,
    WarmupIncompleteError,
    advance,
    dynamic_threshold,
    estimate_rho,
    predict_activity,
    push_event,
)
from css_lab.channel import Hypothesis
from css_lab.fusion import decide_conventional
from css_lab.theory import CombinerKind, TheoryParams, cfar_threshold

# window-average predictor probability at the spec's default operating point:
# Q((lam - N*K*(1+snr)) / sigma_avg) with lam = cfar(SLC, 0.1), K=7, N=1000,
# L=15, per-sensor snr 10**-1.5; frozen from the Gaussian window model
PREDICTOR_AT_DEFAULTS = 0.9865270764266724


class TestFusionState:
    def test_push_grows_then_rings(self):
        state = FusionState(3)
        push_event(state, 5.0, 1.0)
        assert len(state) == 1
        for i in range(4):
            push_event(state, float(i), 1.0 + i)
        assert len(state) == 3
        assert tuple(state.energy) == (1.0, 2.0, 3.0)
        assert tuple(state.variance) == (2.0, 3.0, 4.0)

    def test_window_statistics_match_recompute_over_last_pushes(self, rng):
        capacity = 17
        state = FusionState(capacity)
        pushed = []
        for _ in range(1_000):
            pushed.append((float(rng.exponential(100.0)), float(rng.uniform(0.5, 2.0))))
            push_event(state, *pushed[-1])
            if len(state) < capacity:
                continue
            energies, variances = zip(*pushed[-capacity:])
            e_avg, _ = predict_activity(state, 100.0)
            assert e_avg == pytest.approx(sum(energies) / capacity, rel=1e-12)
            rho = max(1.0, max(variances) / (sum(variances) / capacity))
            assert estimate_rho(state) == pytest.approx(rho, rel=1e-12)

    def test_rho_follows_eviction_of_maximum(self):
        state = FusionState(3)
        for v in (9.0, 1.0, 2.0):
            push_event(state, 0.0, v)
        assert estimate_rho(state) == pytest.approx(9.0 / 4.0)
        push_event(state, 0.0, 1.5)  # evicts the 9.0
        assert estimate_rho(state) == pytest.approx(2.0 / 1.5)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FusionState(1)


class TestPredictActivity:
    def test_warmup_guard(self):
        state = FusionState(4)
        push_event(state, 1.0, 1.0)
        with pytest.raises(WarmupIncompleteError):
            predict_activity(state, 10.0)

    def test_boundary_inclusive(self):
        state = FusionState(3)
        for _ in range(3):
            push_event(state, 7.0, 1.0)
        e_avg, predicted = predict_activity(state, 7.0)
        assert e_avg == pytest.approx(7.0)
        assert predicted is Hypothesis.H1

    def test_all_zero_predicts_absent(self):
        state = FusionState(3)
        for _ in range(3):
            push_event(state, 0.0, 1.0)
        _, predicted = predict_activity(state, 5.0)
        assert predicted is Hypothesis.H0

    def test_prediction_rate_at_defaults(self):
        # windows of 15 active-PU combined energies at the default operating
        # point; the empirical H1-prediction rate matches the Gaussian window
        # model (frozen above) within Monte Carlo tolerance
        rng = np.random.default_rng(41)
        n, k, snr, length, windows = 1000, 7, 10 ** (-1.5), 15, 10_000
        lam = cfar_threshold(TheoryParams(CombinerKind.SLC, k, n), 0.1)
        draws = rng.noncentral_chisquare(n, n * snr, size=(windows, length, k)).sum(axis=2)
        hits = 0
        for row in draws:
            state = FusionState(length)
            for e in row:
                push_event(state, float(e), 1.0)
            _, predicted = predict_activity(state, lam)
            hits += predicted is Hypothesis.H1
        rate = hits / windows
        tol = 3 * np.sqrt(PREDICTOR_AT_DEFAULTS * (1 - PREDICTOR_AT_DEFAULTS) / windows)
        assert abs(rate - PREDICTOR_AT_DEFAULTS) <= tol
        assert rate >= 0.98


class TestEstimateRho:
    def test_flat_history(self):
        state = FusionState(3)
        for _ in range(3):
            push_event(state, 0.0, 0.3)
        assert estimate_rho(state) == 1.0

    def test_direct_ratio(self):
        state = FusionState(3)
        for v in (1.0, 1.0, 2.0):
            push_event(state, 0.0, v)
        assert estimate_rho(state) == pytest.approx(1.5)

    def test_at_least_one(self, rng):
        for _ in range(500):
            state = FusionState(8)
            for v in rng.uniform(0.5, 2.0, size=8):
                push_event(state, 0.0, float(v))
            assert estimate_rho(state) >= 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_rho(FusionState(3))


class TestDynamicThreshold:
    def test_unity_rho_is_identity(self):
        assert dynamic_threshold(7000.0, 1.0, Hypothesis.H1) == 7000.0
        assert dynamic_threshold(7000.0, 1.0, Hypothesis.H0) == 7000.0

    def test_active_prediction_divides(self):
        assert dynamic_threshold(7000.0, 1.4, Hypothesis.H1) == pytest.approx(5000.0)

    def test_idle_prediction_multiplies(self):
        assert dynamic_threshold(7000.0, 1.4, Hypothesis.H0) == pytest.approx(9800.0)

    def test_rejects_rho_below_one(self):
        with pytest.raises(ValueError):
            dynamic_threshold(7000.0, 0.99, Hypothesis.H1)


class TestAdvance:
    def _filled_state(self, length, energy=1.0, variance=1.0):
        state = FusionState(length)
        for _ in range(length - 1):
            push_event(state, energy, variance)
        return state

    def test_warmup_guard_without_mutation(self):
        state = FusionState(5)
        push_event(state, 1.0, 1.0)
        with pytest.raises(WarmupIncompleteError):
            advance(state, 2.0, 1.0, 10.0)
        assert len(state) == 1

    def test_decision_record_consistency(self):
        state = self._filled_state(4, energy=100.0, variance=1.0)
        decision = advance(state, 120.0, 2.0, 90.0)
        assert isinstance(decision, AdaptiveDecision)
        assert decision.predicted is Hypothesis.H1
        assert decision.rho >= 1.0
        assert decision.lambda_new in (decision.lambda_base / decision.rho,
                                       decision.rho * decision.lambda_base)

    def test_flat_variances_reduce_to_conventional(self, rng):
        length, lam = 6, 50.0
        state = FusionState(length)
        for _ in range(length - 1):
            push_event(state, float(rng.exponential(40.0)), 0.7)
        for _ in range(200):
            e = float(rng.exponential(40.0))
            got = advance(state, e, 0.7, lam)
            assert got.rho == 1.0
            assert got.lambda_new == lam
            assert got.decision is decide_conventional(e, lam)

    def test_conditional_dominance(self, rng):
        # given the prediction, the toggled threshold can only move decisions
        # one way relative to the fixed rule
        length, lam = 8, 55.0
        state = FusionState(length)
        for _ in range(length - 1):
            push_event(state, float(rng.exponential(50.0)), float(rng.uniform(0.8, 1.2)))
        for _ in range(500):
            e = float(rng.exponential(50.0))
            got = advance(state, e, float(rng.uniform(0.8, 1.2)), lam)
            conventional = decide_conventional(e, lam)
            if got.predicted is Hypothesis.H1 and conventional is Hypothesis.H1:
                assert got.decision is Hypothesis.H1
            if got.predicted is Hypothesis.H0 and conventional is Hypothesis.H0:
                assert got.decision is Hypothesis.H0

    def test_replay_reproduces_decisions(self, rng):
        length, lam = 7, 60.0
        events = [(float(rng.exponential(55.0)), float(rng.uniform(0.7, 1.4))) for _ in range(300)]

        def run():
            state = FusionState(length)
            out = []
            for e, v in events:
                if len(state) < length - 1:
                    push_event(state, e, v)
                else:
                    out.append(advance(state, e, v, lam))
            return out

        first, second = run(), run()
        assert all(a == b for a, b in zip(first, second))


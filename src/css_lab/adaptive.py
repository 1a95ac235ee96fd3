"""Dual-threshold fusion with PU-activity prediction and noise-uncertainty tracking.

The fusion center keeps a rolling window of the last ``L`` combined energies
and mean reported noise variances.  Averaging the energy window (current
event included) predicts whether the PU is on the air; the ratio of the
window's maximum mean variance to its average estimates the noise
uncertainty factor ``rho >= 1``.  The decision threshold is then toggled to
``lambda/rho`` when activity is predicted and ``rho*lambda`` otherwise,
before the usual energy comparison.

During the first ``L - 1`` events the window is still filling and callers
fall back to the fixed-threshold rule while continuing to push history.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .channel import Hypothesis
from .fusion import decide_conventional


class WarmupIncompleteError(RuntimeError):
    """Raised when a prediction is requested before the history holds L events."""


@dataclass(frozen=True)
class AdaptiveDecision:
    """Full record of one dual-threshold decision."""

    decision: Hypothesis
    predicted: Hypothesis
    e_avg: float
    rho: float
    lambda_base: float
    lambda_new: float


class FusionState:
    """Rolling window of the last ``capacity`` combined energies and mean noise variances."""

    def __init__(self, capacity: int):
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        self.capacity = capacity
        self.energy: deque[float] = deque(maxlen=capacity)
        self.variance: deque[float] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self.energy)


def push_event(state: FusionState, e_comb: float, sigma_mean_sq: float) -> FusionState:
    """Append one event, evicting the oldest once the window is full.

    Mutates ``state`` in place and returns it for chaining.
    """
    state.energy.append(e_comb)
    state.variance.append(sigma_mean_sq)
    return state


def predict_activity(state: FusionState, lambda_base: float) -> tuple[float, Hypothesis]:
    """Window-average energy and the activity prediction it implies.

    The window must be full (the current event is its newest entry).
    Prediction is H1 when the average reaches the base threshold.
    """
    if len(state) < state.capacity:
        raise WarmupIncompleteError(
            f"history holds {len(state)} of {state.capacity} events"
        )
    e_avg = sum(state.energy) / state.capacity
    predicted = Hypothesis.H1 if e_avg >= lambda_base else Hypothesis.H0
    return e_avg, predicted


def estimate_rho(state: FusionState) -> float:
    """Noise-uncertainty factor: window maximum over window mean variance.

    Mathematically at least 1; clamped there to absorb rounding when all
    entries are identical.
    """
    n = len(state)
    if n < 1:
        raise ValueError("variance history is empty")
    return max(1.0, max(state.variance) / (sum(state.variance) / n))


def dynamic_threshold(lambda_base: float, rho: float, predicted: Hypothesis) -> float:
    """Toggled threshold: favour detection under predicted activity, else guard
    against false alarms."""
    if lambda_base <= 0.0:
        raise ValueError("lambda_base must be positive")
    if rho < 1.0:
        raise ValueError("rho must be at least 1")
    return lambda_base / rho if predicted is Hypothesis.H1 else rho * lambda_base


def advance(
    state: FusionState,
    e_comb: float,
    sigma_mean_sq: float,
    lambda_base: float,
) -> AdaptiveDecision:
    """Push one combined event and run the full dual-threshold decision.

    The uncertainty factor is estimated from the window (:func:`estimate_rho`).
    """
    if len(state) < state.capacity - 1:
        raise WarmupIncompleteError(
            f"history holds {len(state)} events; {state.capacity - 1} required "
            "before the first adaptive decision"
        )
    push_event(state, e_comb, sigma_mean_sq)
    e_avg, predicted = predict_activity(state, lambda_base)
    rho = estimate_rho(state)
    lambda_new = dynamic_threshold(lambda_base, rho, predicted)
    decision = decide_conventional(e_comb, lambda_new)
    return AdaptiveDecision(
        decision=decision,
        predicted=predicted,
        e_avg=e_avg,
        rho=rho,
        lambda_base=lambda_base,
        lambda_new=lambda_new,
    )


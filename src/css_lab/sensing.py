"""Per-sensor energy measurement and report assembly."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SampleBlock


@dataclass(frozen=True)
class SensingReport:
    """What one sensor ships to the fusion center for one sensing event."""

    energy: float
    est_noise_variance: float

    def __post_init__(self) -> None:
        if self.energy < 0.0:
            raise ValueError("energy must be nonnegative")
        if self.est_noise_variance <= 0.0:
            raise ValueError("est_noise_variance must be positive")


def measure_energy(block: SampleBlock | np.ndarray) -> float:
    """Total received energy: the sum of squared sample magnitudes."""
    samples = block.samples if isinstance(block, SampleBlock) else np.asarray(block)
    return float(np.sum(np.abs(samples) ** 2))


def make_report(block: SampleBlock) -> SensingReport:
    """Bundle a block's energy and noise variance into a report.

    The reported noise variance is the block's true drawn variance (perfect
    estimation).
    """
    return SensingReport(
        energy=measure_energy(block),
        est_noise_variance=block.true_noise_variance,
    )

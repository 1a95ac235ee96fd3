"""Per-sensor energy measurement."""

from __future__ import annotations

import numpy as np

from .channel import SampleBlock


def measure_energy(block: SampleBlock | np.ndarray) -> float:
    """Total received energy: the sum of squared sample magnitudes."""
    samples = block.samples if isinstance(block, SampleBlock) else np.asarray(block)
    return float(np.sum(np.abs(samples) ** 2))

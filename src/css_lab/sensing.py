"""Per-sensor energy measurement."""

from __future__ import annotations

import numpy as np


def measure_energy(samples: np.ndarray) -> float:
    """Total received energy: the sum of squared samples."""
    return float(np.sum(samples**2))

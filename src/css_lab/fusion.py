"""Sample-level fusion-center reference: combining and the fixed-threshold rule.

Three soft-combining statistics (:class:`css_lab.theory.CombinerKind`):

* SLC (square-law combining): the sum of all sensor energies.
* MRC (maximal-ratio combining): SNR-proportional weighting, realised at
  the signal level by ``combine_signal_mrc`` (sample streams combined
  before the energy detector), which is the statistic the closed-form
  analysis in :mod:`css_lab.theory` describes.
* SLS (square-law selection): the largest sensor energy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .channel import Hypothesis

# cfar_threshold is not used here; perfbench/spans.py times it under this module's name
from .theory import CombinerKind, cfar_threshold


class DegenerateWeightsError(ValueError):
    """Raised when ratio-combining weights cannot be formed (all channel gains zero)."""


def combine(kind: CombinerKind, energies: Sequence[float]) -> float:
    """Fuse one event's SLC or SLS sensor energies into the combined energy statistic."""
    if kind is CombinerKind.MRC:
        raise ValueError("MRC combines sample streams, not energies; use combine_signal_mrc")
    if len(energies) < 1:
        raise ValueError("need at least one energy")
    if kind is CombinerKind.SLC:
        return float(np.sum(energies))
    return float(np.max(energies))


def combine_signal_mrc(blocks: Sequence[np.ndarray], gains: Sequence[float]) -> np.ndarray:
    """Maximal-ratio combine raw sample streams into one detector input.

    The streams are weighted by their channel-gain magnitudes ``gains`` and
    normalised so the combined stream keeps unit noise scale:
    ``z = sum_j h_j y_j / sqrt(sum_j h_j**2)``.  This is the statistic
    whose false-alarm probability is independent of the number of sensors.
    """
    if len(blocks) < 1 or len(blocks) != len(gains):
        raise ValueError("need one gain for each of at least one block")
    mags = np.asarray(gains, dtype=float)
    norm = np.sqrt(np.sum(mags**2))
    if norm <= 0.0:
        raise DegenerateWeightsError("all channel gains are zero; MRC undefined")
    # one reciprocal, not a division per sample: MRC energies keep the bits of earlier releases
    return (mags[:, None] * np.stack(blocks)).sum(axis=0) * (1.0 / norm)


def decide_conventional(combined_energy: float, threshold: float) -> Hypothesis:
    """Fixed-threshold rule: declare the PU present when energy reaches it."""
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    return Hypothesis.H1 if combined_energy >= threshold else Hypothesis.H0

"""Fusion-center combining, CFAR threshold selection and the fixed-threshold rule.

Three soft-combining statistics are supported:

* SLC (square-law combining): the sum of all sensor energies.
* MRC (maximal-ratio combining): SNR-proportional weighting, realised at
  the signal level by ``combine_signal_mrc`` (sample streams combined
  before the energy detector), which is the statistic the closed-form
  analysis in :mod:`css_lab.theory` describes.
* SLS (square-law selection): the largest sensor energy.

Thresholds come from a constant-false-alarm-rate inversion of the Gaussian
approximation of each statistic's null distribution: the same
:class:`css_lab.theory.TheoryParams` model (``K`` sensors, ``N`` samples,
nominal noise variance) and the same null moments that the closed forms use.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .channel import Hypothesis

if TYPE_CHECKING:  # theory imports CombinerKind from this module
    from .theory import TheoryParams


class DegenerateWeightsError(ValueError):
    """Raised when ratio-combining weights cannot be formed (all channel gains zero)."""


class CombinerKind(enum.Enum):
    SLC = "slc"
    MRC = "mrc"
    SLS = "sls"


def combine(kind: CombinerKind, energies: Sequence[float]) -> float:
    """Fuse one event's SLC or SLS sensor energies into the combined energy statistic."""
    if kind is CombinerKind.MRC:
        raise ValueError("MRC combines sample streams, not energies; use combine_signal_mrc")
    if len(energies) < 1:
        raise ValueError("need at least one energy")
    if kind is CombinerKind.SLC:
        return float(np.sum(energies))
    return float(np.max(energies))


def combine_signal_mrc(blocks: Sequence) -> np.ndarray:
    """Maximal-ratio combine raw sample streams into one detector input.

    The streams are weighted by channel-gain magnitude and normalised so the
    combined stream keeps unit noise scale:
    ``z = sum_j |h_j| y_j / sqrt(sum_j |h_j|**2)``.  This is the statistic
    whose false-alarm probability is independent of the number of sensors.
    """
    if len(blocks) < 1:
        raise ValueError("need at least one block")
    mags = np.array([abs(b.gain) for b in blocks], dtype=float)
    norm = np.sqrt(np.sum(mags**2))
    if norm <= 0.0:
        raise DegenerateWeightsError("all channel gains are zero; MRC undefined")
    stacked = np.stack([np.asarray(b.samples) for b in blocks])
    return (mags[:, None] * stacked).sum(axis=0) / norm


def cfar_threshold(p: TheoryParams, target_pfa: float) -> float:
    """Decision threshold achieving ``target_pfa`` under the Gaussian null model of ``p``.

    Inverts the null that :func:`css_lab.theory.qfa_approx` evaluates, at the
    per-branch rate for SLS; the threshold is in units of the nominal noise
    variance.
    """
    if not 0.0 < target_pfa < 1.0:
        raise ValueError("target_pfa must lie strictly between 0 and 1")
    # Local imports: theory depends on this module for CombinerKind, and scipy
    # imported with this module, ahead of theory, raised the CLI's peak RSS by 0.7 MB
    from scipy import special

    from .theory import _h1_moments, _statistic_rate, _warn_small_n

    _warn_small_n(p)
    mean, var = _h1_moments(p, 0.0)
    # the rate lies inside (0, 1), so erfcinv's argument lies inside (0, 2), where it is finite
    return mean + np.sqrt(2.0 * var) * special.erfcinv(2.0 * _statistic_rate(p, target_pfa))


def decide_conventional(combined_energy: float, threshold: float) -> Hypothesis:
    """Fixed-threshold rule: declare the PU present when energy reaches it."""
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    return Hypothesis.H1 if combined_energy >= threshold else Hypothesis.H0

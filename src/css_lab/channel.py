"""Primary-user signal, Rayleigh fading and noise synthesis for one sensing event.

Conventions used throughout the simulator:

* The PU waveform is unit-power BPSK on the real axis.
* The noise variance ``v`` is the per-sample variance of the real
  Gaussian noise process, so a pure-noise block of ``n`` samples has energy
  distributed as ``v * chi2(n)`` with mean ``n * v`` and variance
  ``2 * n * v**2``.  Samples are real (post carrier-recovery baseband),
  which is what keeps the energy statistic an exact (non)central
  chi-square with one degree of freedom per sample.
* Channel gains are magnitudes relative to the nominal noise power, so a
  gain's instantaneous SNR ``gain**2`` is exponential under Rayleigh fading.
"""

from __future__ import annotations

import enum

import numpy as np


class Hypothesis(enum.Enum):
    """Channel occupancy truth: primary user absent (H0) or present (H1)."""

    H0 = 0
    H1 = 1


def gen_pu_samples(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` unit-power BPSK symbols (+1/-1 on the real axis).

    Every symbol has unit modulus, so the empirical mean power is exactly 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    bits = rng.integers(0, 2, size=n)
    return 2.0 * bits - 1.0


def draw_channel(avg_snr: float, rng: np.random.Generator) -> float:
    """Draw one Rayleigh flat-fading gain magnitude with the given average linear SNR.

    The magnitude of a circularly symmetric complex Gaussian with
    ``E[gain**2] = avg_snr`` (unit signal power, unit nominal noise
    power), which makes the instantaneous SNR ``gain**2`` exponential
    with mean ``avg_snr``.
    """
    if avg_snr <= 0.0:
        raise ValueError("avg_snr must be positive")
    scale = np.sqrt(avg_snr / 2.0)
    return abs(complex(rng.standard_normal() * scale, rng.standard_normal() * scale))


def draw_noise_variance(uncertainty_db: float, rng: np.random.Generator) -> float:
    """Draw one noise variance over nominal, uniform in dB within ``uncertainty_db`` either side."""
    if uncertainty_db < 0.0:
        raise ValueError("uncertainty_db must be nonnegative")
    offset_db = rng.uniform(-uncertainty_db, uncertainty_db)
    return 10.0 ** (offset_db / 10.0)


def synthesize_received(
    hyp: Hypothesis,
    gain: float,
    pu: np.ndarray,
    noise_variance: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Build the received samples of one sensing event at one sensor.

    Under H0 they are pure Gaussian noise with the given per-sample
    variance.  Under H1 the PU symbols, scaled by the fading gain magnitude
    (after carrier phase recovery), ride on the noise, so the per-sample
    signal power is ``gain**2``.  Noise is drawn first, so one seed gives
    the same noise under either hypothesis.
    """
    if pu.size < 1:
        raise ValueError("pu sequence must not be empty")
    if noise_variance <= 0.0:
        raise ValueError("noise_variance must be positive")
    samples = rng.standard_normal(pu.size) * np.sqrt(noise_variance)
    if hyp is Hypothesis.H1:
        samples = samples + gain * pu
    return samples

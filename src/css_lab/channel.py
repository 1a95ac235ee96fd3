"""Primary-user signal, Rayleigh fading and noise synthesis for one sensing event.

Conventions used throughout the simulator:

* The PU waveform is unit-power BPSK on the real axis.
* The noise variance ``v`` is the per-sample variance of the real
  Gaussian noise process, so a pure-noise block of ``n`` samples has energy
  distributed as ``v * chi2(n)`` with mean ``n * v`` and variance
  ``2 * n * v**2``.  Sample containers are complex for generality, but
  synthesis places noise on the real axis (post carrier-recovery
  baseband), which is what keeps the energy statistic an exact
  (non)central chi-square with one degree of freedom per sample.
* Channel gains are drawn relative to the nominal noise power, so a
  gain's instantaneous SNR is ``|gain|**2`` times signal power over
  nominal noise power and is exponentially distributed under Rayleigh
  fading.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Hypothesis(enum.Enum):
    """Channel occupancy truth: primary user absent (H0) or present (H1)."""

    H0 = 0
    H1 = 1


@dataclass(frozen=True)
class SampleBlock:
    """The received samples of one sensing event at one sensor."""

    samples: np.ndarray
    true_noise_variance: float
    gain: complex

    def __post_init__(self) -> None:
        if len(self.samples) < 1:
            raise ValueError("a sample block needs at least one sample")
        if self.true_noise_variance <= 0.0:
            raise ValueError("true_noise_variance must be positive")


def gen_pu_samples(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` unit-power BPSK symbols (+1/-1 on the real axis).

    Every symbol has unit modulus, so the empirical mean power is exactly 1.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    bits = rng.integers(0, 2, size=n)
    return (2.0 * bits - 1.0).astype(np.complex128)


def draw_channel(avg_snr: float, rng: np.random.Generator) -> complex:
    """Draw one Rayleigh flat-fading gain with the given average linear SNR.

    The gain is circularly symmetric complex Gaussian with
    ``E[|gain|**2] = avg_snr`` (unit signal power, unit nominal noise
    power), which makes the instantaneous SNR ``|gain|**2`` exponential
    with mean ``avg_snr``.
    """
    if avg_snr <= 0.0:
        raise ValueError("avg_snr must be positive")
    scale = np.sqrt(avg_snr / 2.0)
    return complex(rng.standard_normal() * scale, rng.standard_normal() * scale)


def draw_noise_variance(uncertainty_db: float, rng: np.random.Generator) -> float:
    """Draw one noise variance over nominal, uniform in dB within ``uncertainty_db`` either side."""
    if uncertainty_db < 0.0:
        raise ValueError("uncertainty_db must be nonnegative")
    offset_db = rng.uniform(-uncertainty_db, uncertainty_db)
    return 10.0 ** (offset_db / 10.0)


def synthesize_received(
    hyp: Hypothesis,
    gain: complex,
    pu: np.ndarray,
    noise_variance: float,
    rng: np.random.Generator,
) -> SampleBlock:
    """Build the received block for one sensing event.

    Under H0 the block is pure Gaussian noise with the given per-sample
    variance.  Under H1 the PU symbols ride on top of the noise through the
    fading gain; the gain is applied coherently (by magnitude, i.e. after
    carrier phase recovery), so the per-sample signal power is
    ``|gain|**2``.  Noise is drawn before the signal is added, so the same
    seed reproduces the identical noise sequence under either hypothesis.
    """
    pu = np.asarray(pu)
    if pu.size < 1:
        raise ValueError("pu sequence must not be empty")
    if noise_variance <= 0.0:
        raise ValueError("noise_variance must be positive")
    noise = rng.standard_normal(pu.size) * np.sqrt(noise_variance)
    samples = noise.astype(np.complex128)
    if hyp is Hypothesis.H1:
        samples = samples + abs(gain) * pu
    return SampleBlock(samples=samples, true_noise_variance=noise_variance, gain=gain)

"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from css_lab.channel import SampleBlock


def make_block(samples, noise_variance: float = 1.0, snr: float = 0.0) -> SampleBlock:
    """Build a SampleBlock around explicit samples for unit tests."""
    gain = complex(np.sqrt(snr)) if snr > 0 else 0j
    return SampleBlock(
        samples=np.asarray(samples, dtype=np.complex128),
        true_noise_variance=noise_variance,
        gain=gain,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from css_lab.channel import SampleBlock
from css_lab.harness import conventional_rate, forced_rates
from css_lab.theory import CombinerKind, TheoryParams


def make_block(samples, noise_variance: float = 1.0, snr: float = 0.0) -> SampleBlock:
    """Build a SampleBlock around explicit samples for unit tests."""
    gain = complex(np.sqrt(snr)) if snr > 0 else 0j
    return SampleBlock(
        samples=np.asarray(samples, dtype=np.complex128),
        true_noise_variance=noise_variance,
        gain=gain,
    )


def forced_one(scenario, h1, lams, rng):
    """``forced_rates`` for the scenario's own combiner: both rate vectors and the mean rho."""
    conv, prop, rho = forced_rates(scenario, h1, [lams], rng, [scenario.combiner])
    return conv[0], prop[0], rho


def conventional_one(scenario, h1, lams, rng):
    """``conventional_rate`` at the scenario's own sensor count: one rate vector."""
    return conventional_rate(scenario, h1, [lams], rng, [scenario.num_crs])[0]


def gaussian_pd(p: TheoryParams, lam: float, snr: float) -> float:
    """Gaussian (CLT) detection probability with every sensor at ``snr``.

    A normal matched to the statistic's H1 mean ``2 order boost`` and variance
    ``4 order boost^2`` (per branch for SLS, which then takes the K-branch
    complement), where ``boost`` is ``1 + K snr`` for MRC and ``1 + snr``
    otherwise; at ``snr = 0`` it is the null that ``qfa_approx`` evaluates.
    """
    boost = 1.0 + (p.K * snr if p.kind is CombinerKind.MRC else snr)
    mean = 2.0 * p.order * boost
    tail = float(stats.norm.sf(lam, mean, np.sqrt(2.0 * mean * boost)))
    return 1.0 - (1.0 - tail) ** p.K if p.kind is CombinerKind.SLS else tail


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

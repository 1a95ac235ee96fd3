"""Monte Carlo experiment engine: seeded campaigns, ROC sweeps and AUC summaries.

Sampling strategy
-----------------
Per-sensor energies have known exact distributions (scaled central or
noncentral chi-square, see :mod:`css_lab.theory`), so the campaign engine
draws energies directly from those laws instead of synthesising sample
waveforms; that is orders of magnitude faster and statistically identical.
One kernel, ``_draw_events``, draws every Monte Carlo path: single events,
trials x window grids and rolling chains, with the PU present, absent, or
set per event.  One vectorised rule, ``_dual_threshold`` (with the rho
estimator ``_window_rho``), decides on those windows; :mod:`css_lab.adaptive`
is its scalar, event-level reference.  A sample-level reference path built
on :mod:`css_lab.channel` is provided for cross-validation
(``run_regime_sampled``) and the test suite checks the two agree.

Ratio combining is realised at the signal level (one detector at the summed
branch SNR with a gain-weighted effective noise variance), which is the
statistic the analysis layer describes; the energy-domain weighted sum of
:func:`css_lab.fusion.combine` remains available for event-level use.

Seeding
-------
Every stochastic path derives its generator from
``SeedSequence((scenario.seed, *tags))`` where the tags encode regime and
purpose, each purpose under its own leading tag (see :func:`derive_rng`).
Results are therefore bit-identical across runs and across thread counts:
threads only ever parallelise whole regimes, each on its own stream.

Measurement regimes
-------------------
ROC points are measured under forced hypotheses, with common random numbers
across the CFAR grid: a sweep draws once per hypothesis and scores every grid
threshold on those draws.  For the dual-threshold scheme each counted trial
is the final event of an independent freshly-warmed window, which keeps the
trials i.i.d.; the fixed-threshold rate is read off the same events.  Sweeps
that ask for the fixed threshold alone count single independent events
instead.  Points on one curve share their draws, so a curve is monotone in
the threshold trial by trial, and its AUC interval comes from the per-trial
covariance of the decisions across the grid (a paired delta method), not
from independent per-point binomial widths.  Sensor-count searches share
one prefix draw: :func:`equivalence_search` draws once per hypothesis at its
largest count and scores every smaller count on the sensor-axis prefixes of
that draw, so its curves across counts are correlated.  The ``markov`` PU
model drives a single rolling chain and is summarised separately as a
transition penalty around PU toggles.
"""

from __future__ import annotations

import functools
import hashlib
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .adaptive import FusionState, advance, push_event
from .channel import (
    ChannelDraw,
    Hypothesis,
    NoiseModel,
    draw_channel,
    draw_noise_variance,
    gen_pu_samples,
    synthesize_received,
)
from .fusion import CombinerKind, FusionConfig, cfar_threshold, combine, combine_signal_mrc
from .sensing import make_report, measure_energy
from .theory import TheoryParams, qd_proposed_rayleigh, qd_rayleigh, qfa_approx, qfa_proposed

NOMINAL_VARIANCE = 1.0  # thresholds and theory scale linearly in it; fixed here
DEFAULT_SEED = 20240601
DEFAULT_PFA_GRID = tuple(float(x) for x in np.logspace(np.log10(0.01), np.log10(0.5), 15))
AUC_MATCH_TOL = 0.02
_CHUNK_CELLS = 1 << 22  # cap on rows*events*sensors drawn per chunk
# expected_rho's chunk: at 1<<20 cells it was faster and held half the peak
# memory of one 1<<22-cell chunk
_RHO_CHUNK_CELLS = 1 << 20

# stream tags keeping every stochastic purpose on its own substream
_TAG_SWEEP = 1
_TAG_REGIME = 2
_TAG_MARKOV = 3
_TAG_PAIRED = 4
_TAG_SAMPLED = 5
_TAG_RHO = 6
_TAG_PENALTY = 7

_PU_MODELS = ("forced_h0", "forced_h1")
_CHANNEL_KINDS = ("rayleigh", "awgn")
_FADING_BLOCKS = ("event", "chain")

SCHEME_CONVENTIONAL = "conventional"
SCHEME_PROPOSED = "proposed"


@dataclass(frozen=True)
class Scenario:
    """Complete configuration of one simulated campaign."""

    snr_db: float = -15.0
    n_samples: int = 1000
    num_crs: int = 7
    history_len: int = 15
    uncertainty_db: float = 1.0
    combiner: CombinerKind = CombinerKind.SLC
    trials: int = 10000
    seed: int = DEFAULT_SEED
    pfa_grid: tuple[float, ...] = DEFAULT_PFA_GRID
    channel_kind: str = "rayleigh"
    pu_model: str = "forced_h0"
    fading_block: str = "event"

    def __post_init__(self) -> None:
        if self.n_samples < 2 or self.n_samples % 2 != 0:
            raise ValueError("n_samples must be an even integer >= 2")
        if self.num_crs < 1:
            raise ValueError("num_crs must be at least 1")
        if self.history_len < 2:
            raise ValueError("history_len must be at least 2")
        if self.uncertainty_db < 0.0:
            raise ValueError("uncertainty_db must be nonnegative")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.channel_kind not in _CHANNEL_KINDS:
            raise ValueError(f"channel_kind must be one of {_CHANNEL_KINDS}")
        if self.fading_block not in _FADING_BLOCKS:
            raise ValueError(f"fading_block must be one of {_FADING_BLOCKS}")
        grid = tuple(float(t) for t in self.pfa_grid)
        if not grid:
            raise ValueError("pfa_grid must not be empty")
        if any(not 0.0 < t < 1.0 for t in grid):
            raise ValueError("pfa_grid entries must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("pfa_grid must be strictly increasing")
        # a list grid would leave the scenario unhashable and unequal to its tuple twin
        object.__setattr__(self, "pfa_grid", grid)
        if self.pu_model not in _PU_MODELS:
            dwell = self._parse_dwell(self.pu_model)
            if dwell < 10 * self.history_len:
                raise ValueError(
                    "markov mean dwell must be at least 10 * history_len "
                    f"({10 * self.history_len}); got {dwell}"
                )

    @staticmethod
    def _parse_dwell(pu_model: str) -> int:
        prefix, _, arg = pu_model.partition(":")
        if prefix != "markov" or not arg:
            raise ValueError(
                "pu_model must be 'forced_h0', 'forced_h1' or 'markov:<mean dwell>'"
            )
        try:
            dwell = int(arg)
        except ValueError as exc:
            raise ValueError(f"markov mean dwell must be an integer, got {arg!r}") from exc
        if dwell < 1:
            raise ValueError("markov mean dwell must be positive")
        return dwell

    @property
    def gamma_bar(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    @property
    def mean_dwell_events(self) -> int:
        if self.pu_model in _PU_MODELS:
            raise ValueError("mean_dwell_events only applies to the markov PU model")
        return self._parse_dwell(self.pu_model)

    def fusion_config(self, kind: CombinerKind | None = None) -> FusionConfig:
        return FusionConfig(
            kind=kind or self.combiner,
            num_crs=self.num_crs,
            n_samples=self.n_samples,
            nominal_variance=NOMINAL_VARIANCE,
        )

    def theory_params(self, rho: float = 1.0, M: int | None = None) -> TheoryParams:
        return TheoryParams(
            kind=self.combiner,
            K=self.num_crs,
            N=self.n_samples,
            sigma_sq=NOMINAL_VARIANCE,
            gamma_bar=self.gamma_bar,
            rho=rho,
            L=self.history_len,
            M=M,
        )

    def resolved_text(self) -> str:
        """Canonical key=value rendering of every field; the digest is taken over this."""
        items = {f.name: _FIELD_TEXT.get(f.type, str)(getattr(self, f.name)) for f in fields(self)}
        return "".join(f"{k}={v}\n" for k, v in sorted(items.items()))

    def digest(self) -> str:
        return hashlib.sha256(self.resolved_text().encode()).hexdigest()[:16]


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


# field annotation -> text in resolved_text; annotations are postponed, so strings
_FIELD_TEXT = {
    "float": _fmt,
    "tuple[float, ...]": lambda grid: ",".join(_fmt(t) for t in grid),
    "CombinerKind": lambda kind: kind.name,
}


@dataclass(frozen=True)
class RocPoint:
    target_pfa: float
    lam: float
    empirical_pfa: float
    empirical_pfa_ci: float
    empirical_pd: float
    empirical_pd_ci: float
    theory_pfa: float
    theory_pd: float
    trials: int


@dataclass(frozen=True)
class RocCurve:
    scheme: str
    scenario: Scenario
    points: tuple[RocPoint, ...]
    auc: float
    auc_ci: float
    mean_rho: float


@dataclass(frozen=True)
class TransitionPenalty:
    """Decision quality near PU toggles versus in steady state."""

    near_false_alarm: float
    far_false_alarm: float
    near_missed_detection: float
    far_missed_detection: float
    toggles: int
    events: int

    @property
    def excess_false_alarm(self) -> float:
        return self.near_false_alarm - self.far_false_alarm

    @property
    def excess_missed_detection(self) -> float:
        return self.near_missed_detection - self.far_missed_detection


@dataclass(frozen=True)
class EquivalenceResult:
    k_match: int  # -1 when no searched K closes the gap
    auc_gap: float
    proposed_curve: RocCurve
    conventional_curves: tuple[RocCurve, ...]

    @property
    def proposed_auc(self) -> float:
        return self.proposed_curve.auc

    @property
    def searched(self) -> tuple[int, ...]:
        return tuple(c.scenario.num_crs for c in self.conventional_curves)

    @property
    def conventional_aucs(self) -> tuple[float, ...]:
        return tuple(c.auc for c in self.conventional_curves)


def derive_rng(seed: int, *tags: int) -> np.random.Generator:
    """Counter-style stream derivation; same inputs give the same stream.

    ``SeedSequence`` pads entropy shorter than its pool (four 32-bit words)
    with zeros, so tag tuples that differ only by trailing zeros name the
    same stream: ``derive_rng(s, 3)`` is ``derive_rng(s, 3, 0)``.  Each
    default stream of this module therefore has its own leading tag.
    """
    entropy = (seed & (2**64 - 1),) + tuple(int(t) for t in tags)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def binomial_ci(p_hat: float, n: int) -> float:
    """Three-sigma binomial half-width around an empirical rate."""
    if n <= 0:
        return float("nan")
    return 3.0 * float(np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n))


def _noise_variances(
    rng: np.random.Generator, uncertainty_db: float, shape: tuple[int, ...]
) -> np.ndarray:
    """Per-sensor noise variances, uniform in dB within ``uncertainty_db`` of nominal."""
    if uncertainty_db == 0.0:
        return np.full(shape, NOMINAL_VARIANCE)
    # in place: these are the largest arrays of a draw, and each copy costs time and memory
    sig2 = rng.uniform(-uncertainty_db, uncertainty_db, shape)
    sig2 /= 10.0
    np.power(10.0, sig2, out=sig2)
    sig2 *= NOMINAL_VARIANCE
    return sig2


def _draw_events(
    scenario: Scenario,
    rng: np.random.Generator,
    shape: tuple[int, ...],
    signal: bool | np.ndarray,
    gamma_per_row: bool = False,
    sizes: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Combined energies and mean reported variances for an array of sensing events.

    ``signal`` is whether the PU transmits, for every event or one bool per
    event.  The fading gains exist either way; absence zeroes the
    noncentrality, and a draw without any signal takes numpy's central
    chi-square, which gives the same values as zero noncentrality.  With
    ``gamma_per_row`` the fading draw is shared along each row of a 2-D
    ``shape`` (block fading over a window).

    ``sizes`` (ascending sensor counts, at most ``num_crs``) combines the
    sensor-axis prefixes of the one ``num_crs``-sensor draw instead, and
    both outputs gain a trailing axis, one entry per size: SLC takes a
    cumulative sum, SLS a cumulative maximum, and MRC draws one chi-square
    per size at the prefix sums of ``gamma`` and ``gamma * sigma^2``.
    """
    full = (*shape, scenario.num_crs)
    if scenario.channel_kind == "awgn":
        gamma = np.broadcast_to(np.float64(scenario.gamma_bar), full)
    elif gamma_per_row:
        row_gamma = rng.exponential(scenario.gamma_bar, (shape[0], 1, scenario.num_crs))
        gamma = np.broadcast_to(row_gamma, full)
    else:
        gamma = rng.exponential(scenario.gamma_bar, full)
    sig2 = _noise_variances(rng, scenario.uncertainty_db, full)
    mrc = scenario.combiner is CombinerKind.MRC
    last = None if sizes is None else sizes - 1  # prefix ends on the sensor axis
    if mrc:  # one detector at the summed SNR, gain-weighted effective variance
        if last is None:
            gain = gamma.sum(axis=-1)
            scale = (gamma * sig2).sum(axis=-1) / gain
        else:
            gain = np.cumsum(gamma, axis=-1)[..., last]
            scale = np.cumsum(gamma * sig2, axis=-1)[..., last] / gain
    else:
        gain, scale = gamma, sig2
    signal = np.asarray(signal, dtype=bool)
    n = scenario.n_samples
    if not signal.any():
        energy = rng.chisquare(n, scale.shape)
    else:
        if not signal.all():
            gain = gain * signal.reshape(signal.shape + (1,) * (gain.ndim - signal.ndim))
        energy = rng.noncentral_chisquare(n, n * gain / scale)
    energy *= scale
    if last is None:
        if scenario.combiner is CombinerKind.SLC:
            energy = energy.sum(axis=-1)
        elif scenario.combiner is CombinerKind.SLS:
            energy = energy.max(axis=-1)
        return energy, sig2.mean(axis=-1)
    # nothing reads the per-sensor arrays again, so they accumulate in place:
    # a second full-size array per prefix reduction would raise the peak memory
    if scenario.combiner is CombinerKind.SLC:
        energy = np.add.accumulate(energy, axis=-1, out=energy)[..., last]
    elif scenario.combiner is CombinerKind.SLS:
        energy = np.maximum.accumulate(energy, axis=-1, out=energy)[..., last]
    sig_mean = np.add.accumulate(sig2, axis=-1, out=sig2)[..., last]
    sig_mean /= sizes
    return energy, sig_mean


def _chunked(total: int, per_chunk: int):
    done = 0
    while done < total:
        step = min(per_chunk, total - done)
        yield step
        done += step


@dataclass(frozen=True, eq=False)
class DecisionRates:
    """One rule's decisions at every grid threshold, scored on one set of draws.

    ``moment`` is the per-trial second moment ``E[d d^T]`` of the 0/1
    decision vector ``d`` over the grid.
    """

    moment: np.ndarray

    @property
    def rate(self) -> np.ndarray:
        """Positive rate at every threshold: the diagonal, since ``d_i^2 = d_i``."""
        return np.diag(self.moment)

    @property
    def covariance(self) -> np.ndarray:
        """Per-trial covariance of the decision vector, ``E[d d^T] - p p^T``."""
        return self.moment - np.outer(self.rate, self.rate)


def _cross(decisions: np.ndarray) -> np.ndarray:
    """``d^T d`` summed over the trials (rows) of a 0/1 decision matrix."""
    d = decisions.astype(np.float64)
    return d.T @ d


def conventional_rate(
    scenario: Scenario,
    h1: bool,
    lams: Sequence[float] | Sequence[Sequence[float]],
    rng: np.random.Generator,
    sizes: Sequence[int] | None = None,
) -> DecisionRates | tuple[DecisionRates, ...]:
    """Fixed-threshold positive rates over single independent events, at every ``lams``.

    Leaner than :func:`forced_rates` (no window draws, ``L`` times fewer
    cells).  :func:`roc_sweep` uses it for conventional-only requests.

    With ``sizes`` (ascending sensor counts, the largest at most
    ``scenario.num_crs``) one ``num_crs``-sensor draw scores every size on
    its sensor-axis prefix, ``lams`` holds one threshold vector per size, and
    the call returns one :class:`DecisionRates` per size.
    :func:`equivalence_search` scores its sensor counts this way, so its
    curves across counts share their draws and are correlated.
    """
    nested = sizes is not None
    if nested:
        sizes = np.asarray(sizes, dtype=np.int64)
        ascending = sizes.size > 0 and np.array_equal(np.unique(sizes), sizes)
        if not ascending or not 1 <= sizes[0] <= sizes[-1] <= scenario.num_crs:
            raise ValueError("sizes must be ascending sensor counts within 1..num_crs")
    lams = np.atleast_2d(np.asarray(lams, dtype=float))  # one threshold vector per size
    if lams.ndim != 2 or lams.shape[0] != (sizes.size if nested else 1):
        raise ValueError("lams must hold one threshold vector per size")
    per_chunk = max(1, _CHUNK_CELLS // scenario.num_crs)
    cross = np.zeros((lams.shape[0], lams.shape[1], lams.shape[1]))
    for step in _chunked(scenario.trials, per_chunk):
        energy, _ = _draw_events(scenario, rng, (step,), h1, sizes=sizes)
        decisions = energy.reshape(step, -1).T[..., None] >= lams[:, None, :]  # size, trial, grid
        for size_cross, size_decisions in zip(cross, decisions):
            size_cross += _cross(size_decisions)
    rates = tuple(DecisionRates(c / scenario.trials) for c in cross)
    return rates if nested else rates[0]


@dataclass(frozen=True, eq=False)
class ForcedRates:
    """Both decision rules measured on one shared stream of window draws."""

    conventional: DecisionRates
    proposed: DecisionRates
    mean_rho: float


def forced_rates(
    scenario: Scenario,
    h1: bool,
    lams: Sequence[float],
    rng: np.random.Generator,
    rho_override: float | None = None,
) -> ForcedRates:
    """Positive rates of both rules over independent freshly-warmed windows, at every ``lams``.

    Each counted trial is the newest event of its own ``L``-event window,
    and every threshold is scored on the same windows.  The fixed-threshold
    rule is evaluated on the same events, which makes scheme comparisons
    exactly paired (and byte-identical when the uncertainty halfwidth is
    zero, since the rules then coincide).  Per trial the dual-threshold
    threshold ``where(mean >= lam, lam / rho, rho * lam)`` increases with
    ``lam``, so both rules' decisions are non-increasing in it.
    """
    lams = np.asarray(lams, dtype=float)
    length = scenario.history_len
    gamma_per_row = scenario.fading_block == "chain"
    per_chunk = max(1, _CHUNK_CELLS // (scenario.num_crs * length))
    conv_cross = np.zeros((lams.size, lams.size))
    prop_cross = np.zeros_like(conv_cross)
    rho_total = 0.0
    for step in _chunked(scenario.trials, per_chunk):
        energy, sig_mean = _draw_events(scenario, rng, (step, length), h1, gamma_per_row)
        proposed, rho = _dual_threshold(energy, sig_mean, lams, rho_override)
        rho_total += float(rho.sum())
        conv_cross += _cross(energy[:, -1:] >= lams)
        prop_cross += _cross(proposed)
    return ForcedRates(
        conventional=DecisionRates(conv_cross / scenario.trials),
        proposed=DecisionRates(prop_cross / scenario.trials),
        mean_rho=rho_total / scenario.trials,
    )


def _window_rho(sig_mean: np.ndarray) -> np.ndarray:
    """Uncertainty factor ``max / mean`` of each window along the last axis, at least 1."""
    return np.maximum(1.0, sig_mean.max(axis=-1) / sig_mean.mean(axis=-1))


def _dual_threshold(
    energy: np.ndarray,
    sig_mean: np.ndarray,
    lams: np.ndarray,
    rho_override: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The dual-threshold rule on the newest event of each window along the last axis.

    Returns the decisions at every threshold of ``lams`` (windows x grid)
    and each window's estimated rho, which ``rho_override`` replaces in the
    rule but not in the returned estimate.  :mod:`css_lab.adaptive` is the
    scalar, event-level reference.
    """
    rho = _window_rho(sig_mean)
    factor = rho[..., None] if rho_override is None else rho_override
    predicted = energy.mean(axis=-1)[..., None] >= lams
    lam_new = np.where(predicted, lams / factor, factor * lams)
    return energy[..., -1:] >= lam_new, rho


def proposed_decisions_rolling(
    energies: np.ndarray,
    sigma_means: np.ndarray,
    history_len: int,
    lam: float,
    rho_override: float | None = None,
) -> np.ndarray:
    """Dual-threshold decisions along one rolling event stream.

    The first ``history_len - 1`` events fall back to the fixed-threshold
    rule while the window fills.  Vectorised equivalent of repeatedly
    calling :func:`css_lab.adaptive.advance`.
    """
    length = history_len
    n = energies.size
    if n < length:
        raise ValueError(f"need at least {length} events, got {n}")
    decisions = np.empty(n, dtype=bool)
    decisions[: length - 1] = energies[: length - 1] >= lam
    windows = sliding_window_view(energies, length), sliding_window_view(sigma_means, length)
    proposed, _ = _dual_threshold(*windows, np.array([lam]), rho_override)
    decisions[length - 1 :] = proposed[:, 0]
    return decisions


def _check_scheme(scheme: str) -> None:
    if scheme not in (SCHEME_CONVENTIONAL, SCHEME_PROPOSED):
        raise ValueError(f"unknown scheme {scheme!r}")


def run_regime(
    scenario: Scenario,
    scheme: str,
    lam: float,
    rng: np.random.Generator | None = None,
    rho_override: float | None = None,
) -> tuple[float, float]:
    """Positive-decision rate and 3-sigma half-width under the scenario's PU model.

    Under ``forced_h0`` the rate is a false-alarm probability, under
    ``forced_h1`` a detection probability; under ``markov`` it is the
    marginal positive rate along one rolling chain.
    """
    _check_scheme(scheme)
    if scenario.trials < 100:
        warnings.warn(
            f"only {scenario.trials} trials; confidence intervals will be wide",
            stacklevel=2,
        )
    scheme_code = 0 if scheme == SCHEME_CONVENTIONAL else 1
    if scenario.pu_model not in _PU_MODELS:
        if rng is None:
            rng = derive_rng(scenario.seed, _TAG_MARKOV, scheme_code)
        states = markov_states(scenario.trials, scenario.mean_dwell_events, rng)
        energy, sig_mean = _draw_events(scenario, rng, states.shape, states)
        if scheme == SCHEME_CONVENTIONAL:
            rate = float((energy >= lam).mean())
        else:
            rate = float(
                proposed_decisions_rolling(
                    energy, sig_mean, scenario.history_len, lam, rho_override
                ).mean()
            )
        return rate, binomial_ci(rate, scenario.trials)
    h1 = scenario.pu_model == "forced_h1"
    if rng is None:
        rng = derive_rng(scenario.seed, _TAG_REGIME, int(h1))
    if scheme == SCHEME_CONVENTIONAL:
        rates = conventional_rate(scenario, h1, [lam], rng)
    else:
        rates = forced_rates(scenario, h1, [lam], rng, rho_override).proposed
    rate = float(rates.rate[0])
    return rate, binomial_ci(rate, scenario.trials)


def markov_states(n_events: int, mean_dwell: int, rng: np.random.Generator) -> np.ndarray:
    """Alternating PU on/off truth with geometric dwell times."""
    states = np.empty(n_events, dtype=bool)
    pos = 0
    current = bool(rng.integers(0, 2))
    while pos < n_events:
        dwell = int(rng.geometric(1.0 / mean_dwell))
        states[pos : pos + dwell] = current
        pos += dwell
        current = not current
    return states


def _theory_columns(
    scenario: Scenario, scheme: str, lam: float, rho: float
) -> tuple[float, float]:
    if scheme == SCHEME_CONVENTIONAL:
        params = scenario.theory_params()
        return qfa_approx(params, lam), qd_rayleigh(params, lam)
    params = scenario.theory_params(rho=rho)
    return qfa_proposed(params, lam), qd_proposed_rayleigh(params, lam)


def _regime_rates(
    scenario: Scenario, paired: bool, lams: Sequence[float], h: int
) -> tuple[dict[str, DecisionRates], float]:
    """Every grid threshold scored on one draw under hypothesis ``h``, per scheme."""
    rng = derive_rng(scenario.seed, _TAG_SWEEP, h)
    if paired:
        rates = forced_rates(scenario, bool(h), lams, rng)
        return {
            SCHEME_CONVENTIONAL: rates.conventional,
            SCHEME_PROPOSED: rates.proposed,
        }, rates.mean_rho
    return {SCHEME_CONVENTIONAL: conventional_rate(scenario, bool(h), lams, rng)}, 1.0


def trapezoid_auc(points: Sequence[tuple[float, float]]) -> float:
    """Area under the (pfa, pd) polyline anchored at (0, 0) and (1, 1)."""
    path = sorted(points)
    xs = np.array([0.0] + [p[0] for p in path] + [1.0])
    ys = np.array([0.0] + [p[1] for p in path] + [1.0])
    return 0.5 * float(np.sum((xs[1:] - xs[:-1]) * (ys[1:] + ys[:-1])))


def _auc_with_ci(
    points: Sequence[RocPoint], cov_pfa: np.ndarray, cov_pd: np.ndarray
) -> tuple[float, float]:
    """AUC of the empirical points and its 3-sigma half-width by the paired delta method.

    The points of one curve share their draws, so they are correlated.
    ``cov_pfa`` and ``cov_pd`` are the per-trial covariances of the decision
    vectors over the points (in ``points`` order) under H0 and H1, which are
    drawn independently of each other: ``var = g_x^T C0 g_x / n + g_y^T C1 g_y / n``
    with ``g`` the gradient of the trapezoid area in the points' coordinates.
    """
    pairs = [(p.empirical_pfa, p.empirical_pd) for p in points]
    pfa, pd = np.array(pairs).T
    order = np.lexsort((pd, pfa))  # the order trapezoid_auc walks the points in
    xs = np.concatenate(([0.0], pfa[order], [1.0]))
    ys = np.concatenate(([0.0], pd[order], [1.0]))
    g_x, g_y = np.empty(len(pairs)), np.empty(len(pairs))
    g_x[order] = (ys[:-2] - ys[2:]) / 2.0
    g_y[order] = (xs[2:] - xs[:-2]) / 2.0
    var = (g_x @ cov_pfa @ g_x + g_y @ cov_pd @ g_y) / points[0].trials
    return trapezoid_auc(pairs), 3.0 * float(np.sqrt(max(var, 0.0)))


def _per_hypothesis(regime, threads: int) -> tuple:
    """``regime(0)`` and ``regime(1)``, run concurrently when ``threads > 1``."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=2) as pool:
            return tuple(pool.map(regime, (0, 1)))
    return tuple(map(regime, (0, 1)))


def _curve(
    scenario: Scenario,
    scheme: str,
    lams: Sequence[float],
    pfa: DecisionRates,
    pd: DecisionRates,
    mean_rho: float,
) -> RocCurve:
    """One ROC curve from its H0 and H1 decision rates at the grid thresholds ``lams``."""
    n = scenario.trials
    points = []
    rates = zip(pfa.rate.tolist(), pd.rate.tolist())
    for target, lam, (x, y) in zip(scenario.pfa_grid, lams, rates):
        theory_pfa, theory_pd = _theory_columns(scenario, scheme, lam, mean_rho)
        points.append(
            RocPoint(
                target_pfa=target,
                lam=lam,
                empirical_pfa=x,
                empirical_pfa_ci=binomial_ci(x, n),
                empirical_pd=y,
                empirical_pd_ci=binomial_ci(y, n),
                theory_pfa=theory_pfa,
                theory_pd=theory_pd,
                trials=n,
            )
        )
    auc, auc_ci = _auc_with_ci(points, pfa.covariance, pd.covariance)
    return RocCurve(scheme, scenario, tuple(points), auc, auc_ci, mean_rho)


def roc_sweep(
    scenario: Scenario,
    schemes: Sequence[str] = (SCHEME_CONVENTIONAL, SCHEME_PROPOSED),
    threads: int = 1,
) -> tuple[RocCurve, ...]:
    """ROC curves, one per requested scheme and in that order, from one draw per hypothesis.

    Thresholds come from CFAR inversion of the grid.  When ``schemes``
    includes the dual-threshold rule, the sweep makes one
    :func:`forced_rates` call per hypothesis, scores every grid threshold on
    it, and every requested curve reads its rates off those two calls, so
    scheme comparisons are exactly paired.  A conventional-only request
    draws single events through :func:`conventional_rate` on the same
    streams instead.  ``threads > 1`` runs the two hypotheses concurrently.
    """
    if isinstance(schemes, str) or not schemes:
        raise ValueError("schemes must be a non-empty sequence of scheme names")
    for scheme in schemes:
        _check_scheme(scheme)
    cfg = scenario.fusion_config()
    lams = [cfar_threshold(cfg, t) for t in scenario.pfa_grid]
    regime = functools.partial(_regime_rates, scenario, SCHEME_PROPOSED in schemes, lams)
    (h0, rho), (h1, _) = _per_hypothesis(regime, threads)
    return tuple(
        _curve(scenario, s, lams, h0[s], h1[s], rho if s == SCHEME_PROPOSED else 1.0)
        for s in schemes
    )


def sweep_param(
    base: Scenario,
    param: str,
    values: Sequence[int],
    threads: int = 1,
) -> list[RocCurve]:
    """Dual-threshold curves across history lengths or sensor counts.

    All curves share the base seed so comparisons are paired.
    """
    if param not in ("history_len", "num_crs"):
        raise ValueError("param must be 'history_len' or 'num_crs'")
    if not values:
        raise ValueError("values must not be empty")
    curves = []
    for value in values:
        scenario = replace(base, **{param: int(value)})
        curves.extend(roc_sweep(scenario, (SCHEME_PROPOSED,), threads=threads))
    return curves


def equivalence_search(
    proposed: Scenario,
    k_range: Sequence[int] | None = None,
    threads: int = 1,
) -> EquivalenceResult:
    """Smallest conventional sensor count matching the dual-threshold AUC.

    Matching means the conventional AUC comes within ``AUC_MATCH_TOL`` of
    the dual-threshold scheme's AUC at its own (smaller) sensor count.
    Returns ``k_match = -1`` and the residual gap at the largest searched
    count when nothing in the range matches.  At the proposed sensor count
    the conventional curve is the one paired with the dual-threshold curve.
    Every other count is scored on the sensor-axis prefixes of one
    :func:`conventional_rate` draw per hypothesis at the largest count, so
    the curves across counts are correlated; the stop rule is unchanged:
    curves are built in ascending count, and the search stops at the first
    one within ``AUC_MATCH_TOL``, with theory columns only up to it.
    """
    ks = tuple(int(k) for k in (k_range if k_range is not None else range(1, 49)))
    if not ks or ks[0] < 1 or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k_range must be ascending positive integers")
    sizes = [k for k in ks if k != proposed.num_crs]
    subs = {k: replace(proposed, num_crs=k) for k in sizes}
    # every size is scored on the one draw, so every size needs its thresholds first
    lams = {
        k: [cfar_threshold(sub.fusion_config(), t) for t in proposed.pfa_grid]
        for k, sub in subs.items()
    }
    rates: dict[int, tuple[DecisionRates, DecisionRates]] = {}
    if sizes:

        def regime(h: int) -> tuple[DecisionRates, ...]:
            rng = derive_rng(proposed.seed, _TAG_SWEEP, h)
            return conventional_rate(subs[sizes[-1]], bool(h), list(lams.values()), rng, sizes)

        rates = dict(zip(sizes, zip(*_per_hypothesis(regime, threads))))
    # each draw has its own stream, so the order is free; drawn after the paired
    # sweep, the nested draws raised the process's peak RSS by about 0.5 MB
    paired, target_curve = roc_sweep(proposed, threads=threads)
    target = target_curve.auc
    curves: list[RocCurve] = []
    for k in ks:
        if k == proposed.num_crs:
            curve = paired
        else:
            curve = _curve(subs[k], SCHEME_CONVENTIONAL, lams[k], *rates[k], 1.0)
        curves.append(curve)
        if curve.auc >= target - AUC_MATCH_TOL:
            return EquivalenceResult(
                k_match=k,
                auc_gap=target - curve.auc,
                proposed_curve=target_curve,
                conventional_curves=tuple(curves),
            )
    return EquivalenceResult(
        k_match=-1,
        auc_gap=target - curves[-1].auc,
        proposed_curve=target_curve,
        conventional_curves=tuple(curves),
    )


def paired_run(
    scenario: Scenario,
    lam: float,
    n_events: int,
    rho_override: float | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed- and dual-threshold decisions over one shared rolling event stream."""
    if scenario.pu_model not in _PU_MODELS:
        raise ValueError("paired_run requires a forced PU model")
    if rng is None:
        rng = derive_rng(scenario.seed, _TAG_PAIRED)
    h1 = scenario.pu_model == "forced_h1"
    energy, sig_mean = _draw_events(scenario, rng, (n_events,), h1)
    conventional = energy >= lam
    proposed = proposed_decisions_rolling(
        energy, sig_mean, scenario.history_len, lam, rho_override
    )
    return conventional, proposed


def transition_penalty(
    scenario: Scenario, lam: float, rng: np.random.Generator | None = None
) -> TransitionPenalty:
    """Decision-error inflation within one window length of each PU toggle."""
    dwell = scenario.mean_dwell_events  # validates the PU model too
    if rng is None:
        rng = derive_rng(scenario.seed, _TAG_PENALTY)
    states = markov_states(scenario.trials, dwell, rng)
    energy, sig_mean = _draw_events(scenario, rng, states.shape, states)
    decisions = proposed_decisions_rolling(energy, sig_mean, scenario.history_len, lam)
    toggles = np.flatnonzero(states[1:] != states[:-1]) + 1
    near = np.zeros(states.size, dtype=bool)
    for t in toggles:
        near[max(0, t - scenario.history_len) : t + scenario.history_len] = True

    def _rate(mask: np.ndarray, positive: bool) -> float:
        if not mask.any():
            return float("nan")
        rate = float(decisions[mask].mean())
        return rate if positive else 1.0 - rate

    h0 = ~states
    return TransitionPenalty(
        near_false_alarm=_rate(h0 & near, True),
        far_false_alarm=_rate(h0 & ~near, True),
        near_missed_detection=_rate(states & near, False),
        far_missed_detection=_rate(states & ~near, False),
        toggles=int(toggles.size),
        events=int(states.size),
    )


def expected_rho(scenario: Scenario, windows: int = 100_000) -> float:
    """Mean estimated uncertainty factor for the scenario's window geometry.

    Deterministic (seeded from the scenario) so serialized outputs stay
    reproducible; exactly 1 when the uncertainty halfwidth is zero.
    """
    if scenario.uncertainty_db == 0.0:
        return 1.0
    rng = derive_rng(scenario.seed, _TAG_RHO)
    per_chunk = max(1, _RHO_CHUNK_CELLS // (scenario.history_len * scenario.num_crs))
    rho = np.empty(windows)
    done = 0
    # the stream is drawn in order, so chunking leaves every value unchanged
    for step in _chunked(windows, per_chunk):
        shape = (step, scenario.history_len, scenario.num_crs)
        sig_mean = _noise_variances(rng, scenario.uncertainty_db, shape).mean(axis=-1)
        rho[done : done + step] = _window_rho(sig_mean)
        done += step
    return float(rho.mean())


def run_regime_sampled(
    scenario: Scenario, scheme: str, lam: float, rng: np.random.Generator | None = None
) -> tuple[float, float]:
    """Sample-level reference implementation of :func:`run_regime`.

    Synthesises full waveforms through the channel/sensing stack; intended
    for cross-validation at modest trial counts.
    """
    _check_scheme(scheme)
    if scenario.pu_model not in _PU_MODELS:
        raise ValueError("run_regime_sampled requires a forced PU model")
    if rng is None:
        rng = derive_rng(scenario.seed, _TAG_SAMPLED)
    hyp = Hypothesis.H1 if scenario.pu_model == "forced_h1" else Hypothesis.H0
    noise_model = NoiseModel(NOMINAL_VARIANCE, scenario.uncertainty_db)
    positives = 0
    for _ in range(scenario.trials):
        if scheme == SCHEME_CONVENTIONAL:
            decision = _sampled_event(scenario, hyp, noise_model, rng)[0] >= lam
        else:
            state = FusionState(scenario.history_len)
            for _event in range(scenario.history_len - 1):
                e_comb, sig_mean = _sampled_event(scenario, hyp, noise_model, rng)
                push_event(state, e_comb, sig_mean)
            e_comb, sig_mean = _sampled_event(scenario, hyp, noise_model, rng)
            decision = advance(state, e_comb, sig_mean, lam).decision is Hypothesis.H1
        positives += int(decision)
    rate = positives / scenario.trials
    return rate, binomial_ci(rate, scenario.trials)


def _sampled_event(
    scenario: Scenario,
    hyp: Hypothesis,
    noise_model: NoiseModel,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """One full-waveform sensing event; returns (combined energy, mean variance)."""
    pu = gen_pu_samples(scenario.n_samples, rng)
    blocks = []
    for _ in range(scenario.num_crs):
        if scenario.channel_kind == "awgn":
            channel = ChannelDraw(
                gain=complex(np.sqrt(scenario.gamma_bar)),
                instantaneous_snr=scenario.gamma_bar,
            )
        else:
            channel = draw_channel(scenario.gamma_bar, rng)
        variance = draw_noise_variance(noise_model, rng)
        blocks.append(synthesize_received(hyp, channel, pu, variance, rng))
    reports = [make_report(b, j + 1) for j, b in enumerate(blocks)]
    if scenario.combiner is CombinerKind.MRC:
        e_comb = measure_energy(combine_signal_mrc(blocks))
    else:
        e_comb = combine(scenario.combiner, reports)
    sig_mean = float(np.mean([r.est_noise_variance for r in reports]))
    return e_comb, sig_mean

"""Monte Carlo experiment engine: seeded campaigns, ROC sweeps and AUC summaries.

Sampling strategy
-----------------
Per-sensor energies have known exact distributions (scaled central or
noncentral chi-square, see :mod:`css_lab.theory`), so the campaign engine
draws energies directly from those laws instead of synthesising sample
waveforms; that is orders of magnitude faster and statistically identical.
One kernel, ``_draw_events``, draws every Monte Carlo path: single events
and trials x window grids, with the PU present or absent.  It serves a
list of reads, each a combiner on a sensor-axis prefix of one draw of gains
and variances.  SLC and SLS differ only in how they reduce the per-sensor
energies (a sum or a maximum, both by ``_prefix_reduce``), so one per-sensor
draw serves both; MRC combines the same gains and variances, by the same
helper, before its own chi-square draw.  Each rule reduces a trial
to one score and decides positive at threshold ``lam`` exactly when the
score reaches ``lam``: the fixed-threshold score is the newest combined
energy, and one vectorised function, ``_dual_score``, scores the
dual-threshold rule on whole windows at the factor rho it is given, which
the counting loop estimates per window with ``_window_rho``;
:mod:`css_lab.adaptive` is its scalar, event-level reference.  The two rate
functions return rate arrays with one row per read: :func:`forced_rates`
both rules' rates on windows, one row per combiner, with the mean estimated
rho, and :func:`conventional_rate` the fixed-threshold rates on single
events, one row per sensor count.  A sample-level reference path built on
:mod:`css_lab.channel` is provided for cross-validation
(``run_regime_sampled``) and the test suite checks it against
:func:`forced_rates`.

Ratio combining is realised at the signal level (one detector at the summed
branch SNR with a gain-weighted effective noise variance), which is the
statistic the analysis layer describes.  Every curve's theory columns are
that layer's :func:`css_lab.theory.closed_form_rates` at the curve's mean
estimated rho, which is 1 for the fixed-threshold rule.

Seeding
-------
Every stochastic path derives its generator from
``SeedSequence((scenario.seed, *tags))`` where the tags encode regime and
purpose, each purpose under its own leading tag (see :func:`derive_rng`).
Results are therefore bit-identical across runs and across thread counts:
threads only ever parallelise whole regimes, each on its own stream.  Both
rate functions draw in blocks of trials of at most ``_BLOCK_CELLS`` cells,
and each block draws each purpose (fading gains, noise variances,
per-sensor chi-squares, MRC's chi-squares) on a stream of its own, spawned
from the regime's stream.  So a block's draws depend on that block alone,
no read moves another's draws, and a draw that reads no gains skips them;
the block size fixes the streams.

Measurement regimes
-------------------
ROC points are measured under forced hypotheses, with common random numbers
across the CFAR grid: a sweep draws once per hypothesis and scores every grid
threshold on those draws: a grid rate is the count of trial scores at or
above its threshold.  Each counted trial is the final event of an
independent freshly-warmed window, which keeps the trials i.i.d.; both
schemes are read off the same events, and every sweep returns both curves.
Points on one curve share their draws, so a curve is monotone in the
threshold trial by trial and its decisions are nested: for thresholds
``lam_i <= lam_j`` a trial positive at ``lam_j`` is positive at ``lam_i``,
so ``E[d_i d_j] = min(p_i, p_j)``.  The AUC interval comes from that
covariance of the decisions across the grid (a paired delta method), not
from independent per-point binomial widths.  A sweep over several combiners
(``compare``) draws its windows' gains and variances once per hypothesis;
SLC and SLS read one per-sensor chi-square draw off them and MRC a draw of
its own, each on its own stream, so each combiner's curves are exactly those
of a sweep of that combiner alone.  Sensor-count searches share
one prefix draw: :func:`equivalence_search` draws once per hypothesis at its
largest count and scores every smaller count on the sensor-axis prefixes of
that draw, so its curves across counts are correlated.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Iterator, Sequence

import numpy as np

from .adaptive import FusionState, advance, push_event
from .channel import (
    Hypothesis,
    draw_channel,
    draw_noise_variance,
    gen_pu_samples,
    synthesize_received,
)
from .fusion import combine, combine_signal_mrc
from .sensing import measure_energy
from .theory import CHANNEL_KINDS, CombinerKind, TheoryParams, cfar_threshold, closed_form_rates
from .theory import expected_rho  # not called here; perfbench/spans.py times harness.expected_rho

DEFAULT_SEED = 20240601
DEFAULT_PFA_GRID = tuple(float(x) for x in np.logspace(np.log10(0.01), np.log10(0.5), 15))
AUC_MATCH_TOL = 0.02
_PFA_FLOOR = float(np.finfo(float).tiny)
# cap on rows*events*sensors per block of a draw; each block draws on streams of its
# own, so a change moves every byte of a draw of more than one block
_BLOCK_CELLS = 1 << 16

# stream tags keeping every stochastic purpose on its own substream; a tag keeps
# its number, since every seeded output drawn on it depends on that number
_TAG_SWEEP = 1
_TAG_SAMPLED = 5
_TAG_NESTED = 8

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
    fading_block: str = "event"

    def __post_init__(self) -> None:
        # nan and inf pass the comparisons below and fail deep in the draws or the series,
        # and so does a dB value whose linear value overflows, or underflows to 0
        with np.errstate(all="ignore"):
            if not 0.0 < np.float64(10.0) ** (self.snr_db / 10.0) < np.inf:
                raise ValueError("snr_db must be finite, with a positive finite linear SNR")
        if self.n_samples < 2 or self.n_samples % 2 != 0:
            raise ValueError("n_samples must be an even integer >= 2")
        if self.num_crs < 1:
            raise ValueError("num_crs must be at least 1")
        if self.history_len < 2:
            raise ValueError("history_len must be at least 2")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.channel_kind not in CHANNEL_KINDS:
            raise ValueError(f"channel_kind must be one of {CHANNEL_KINDS}")
        if self.fading_block not in _FADING_BLOCKS:
            raise ValueError(f"fading_block must be one of {_FADING_BLOCKS}")
        grid = tuple(float(t) for t in self.pfa_grid)
        if not grid:
            raise ValueError("pfa_grid must not be empty")
        # below the smallest normal double, SLS's per-branch CFAR rate can underflow to 0
        if any(not _PFA_FLOOR <= t < 1.0 for t in grid):
            raise ValueError(f"pfa_grid entries must lie in [{_PFA_FLOOR!r}, 1)")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("pfa_grid must be strictly increasing")
        # a list grid would leave the scenario unhashable and unequal to its tuple twin
        object.__setattr__(self, "pfa_grid", grid)
        self.theory_params()  # the analysis model's own checks, uncertainty_db among them

    @property
    def gamma_bar(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)

    def theory_params(self, rho: float = 1.0) -> TheoryParams:
        return TheoryParams(
            kind=self.combiner,
            K=self.num_crs,
            N=self.n_samples,
            gamma_bar=self.gamma_bar,
            rho=rho,
            L=self.history_len,
            channel=self.channel_kind,
            uncertainty_db=self.uncertainty_db,
        )

    def cfar_grid(self) -> list[float]:
        """The CFAR threshold of each ``pfa_grid`` target under this scenario's null model."""
        return cfar_threshold(self.theory_params(), self.pfa_grid).tolist()

    def resolved_text(self) -> str:
        """Canonical key=value rendering of every field; the digest is taken over this."""
        items = {f.name: _FIELD_TEXT.get(f.type, str)(getattr(self, f.name)) for f in fields(self)}
        return "".join(f"{k}={v}\n" for k, v in sorted(items.items()))

    def digest(self) -> str:
        return hashlib.sha256(self.resolved_text().encode()).hexdigest()[:16]


def fmt(x: float) -> str:
    """A float as written to every artifact: 12 significant digits."""
    return f"{float(x):.12g}"


# field annotation -> text in resolved_text; annotations are postponed, so strings
_FIELD_TEXT = {
    "float": fmt,
    "tuple[float, ...]": lambda grid: ",".join(fmt(t) for t in grid),
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
class EquivalenceResult:
    k_match: int  # -1 when no searched K closes the gap
    auc_gap: float
    proposed_curve: RocCurve
    conventional_curves: tuple[RocCurve, ...]


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
    """Per-sensor noise variances over nominal, uniform in dB within ``uncertainty_db``."""
    if uncertainty_db == 0.0:
        return np.ones(shape)
    # in place: these are the largest arrays of a draw, and each copy costs time and memory
    out = rng.uniform(-uncertainty_db, uncertainty_db, shape)
    out /= 10.0
    return np.power(10.0, out, out=out)


def _draw_events(
    scenario: Scenario,
    rng: np.random.Generator,
    shape: tuple[int, ...],
    signal: bool,
    reads: Sequence[tuple[CombinerKind, int]],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Combined energies and mean reported variances of an array of sensing events, in blocks.

    ``signal`` is whether the PU transmits: without it the energies take
    numpy's central chi-square and only MRC reads the fading gains, with it
    the noncentral one at noncentrality ``N * gain / scale``.  With
    ``scenario.fading_block == "chain"`` and a 2-D ``(trials, L)`` ``shape``
    the fading draw is shared along each window (block fading); single
    events fade independently either way.

    A read is a ``(combiner, sensors)`` pair: that combiner on the first
    ``sensors`` of the one ``num_crs``-sensor draw of gains and variances.
    Each combiner's counts must ascend strictly within ``1..num_crs``.  SLC
    and SLS reduce one per-sensor chi-square draw (:func:`_prefix_reduce`, a
    sum or a maximum); MRC's reads share one chi-square draw at their sums of
    ``gamma`` and ``gamma * sigma^2``.

    The draw goes in blocks of at most ``_BLOCK_CELLS`` cells along the
    leading axis of ``shape``.  Each block draws on four streams spawned from
    ``rng``, one per purpose: the gains (not drawn when nothing reads them),
    the variances, the per-sensor chi-squares and MRC's chi-squares; ``rng``
    itself draws nothing.  So the block size fixes the streams, and no read
    moves another's draws.  Each block yields fresh arrays: its energies, with
    a leading read axis, and its mean variances, which average all
    ``num_crs`` sensors.
    """
    reads = tuple(reads)
    if not reads:
        raise ValueError("reads must not be empty")
    rows: dict[CombinerKind, list[int]] = {}  # each combiner's read indices, by ascending count
    for i, (kind, count) in enumerate(reads):
        below = reads[rows[kind][-1]][1] if kind in rows else 0
        if not below < count <= scenario.num_crs:
            raise ValueError("each combiner's read counts must ascend strictly within 1..num_crs")
        rows.setdefault(kind, []).append(i)
    counts = {kind: [reads[i][1] for i in index] for kind, index in rows.items()}
    full = (*shape, scenario.num_crs)
    step = min(shape[0], max(1, _BLOCK_CELLS // math.prod(full[1:])))
    mrc = rows.pop(CombinerKind.MRC, [])  # rows keeps the reads of the per-sensor draw
    chain = scenario.fading_block == "chain" and len(shape) == 2
    n = scenario.n_samples
    for start in range(0, shape[0], step):
        cells = (min(step, shape[0] - start), *full[1:])
        # rng.spawn(4)'s streams: Generator.spawn's own code is 64 kB more to hold resident
        gain_rng, sig_rng, energy_rng, mrc_rng = map(np.random.Generator, rng.bit_generator.spawn(4))
        gamma = None  # without the PU only MRC's weights read the gains
        if scenario.channel_kind == "awgn":
            gamma = np.broadcast_to(scenario.gamma_bar, cells)
        elif signal or mrc:
            fading = (cells[0], 1, cells[-1]) if chain else cells
            gamma = np.broadcast_to(gain_rng.exponential(scenario.gamma_bar, fading), cells)
        sig2 = _noise_variances(sig_rng, scenario.uncertainty_db, cells)
        if mrc:  # one detector at the summed SNR, gain-weighted effective variance
            gain = _prefix_reduce(np.add, gamma, counts[CombinerKind.MRC])
            scale = _prefix_reduce(np.add, gamma, counts[CombinerKind.MRC], weights=sig2)
            scale /= gain
            if signal:  # in place: the gains are not read again
                gain *= n
                gain /= scale
                mrc_energy = mrc_rng.noncentral_chisquare(n, gain)
            else:
                mrc_energy = mrc_rng.chisquare(n, gain.shape)
            mrc_energy *= scale
            del gain, scale
        out = np.empty((len(reads), *cells[:-1]))  # once MRC's temporaries are gone
        if mrc:
            out[mrc] = mrc_energy
            del mrc_energy
        if rows:
            if signal:  # the noncentralities, freed as the draw replaces them
                energy = np.multiply(gamma, n)
                energy /= sig2
                energy = energy_rng.noncentral_chisquare(n, energy)
            else:
                energy = energy_rng.chisquare(n, cells)
            energy *= sig2
            for kind, index in rows.items():
                ufunc = np.add if kind is CombinerKind.SLC else np.maximum
                _prefix_reduce(ufunc, energy, counts[kind], [out[i] for i in index])
            del energy
        yield out, sig2.mean(axis=-1)
        del out, gamma, sig2  # a finished block goes before the next one is drawn


def _prefix_reduce(
    ufunc: np.ufunc, values: np.ndarray, counts: Sequence[int], out=None, weights=None
):
    """``ufunc`` reduced over the first ``count`` entries of the last axis, per ``counts``.

    ``counts`` ascend strictly; the result for each count goes to one entry
    of ``out`` (default: a new array, one leading entry per count).  It
    folds in one sensor slice at a time, in sensor order, so each result
    equals ``ufunc.accumulate(values, axis=-1)[..., count - 1]`` bit for bit:
    a maximum equals numpy's ``max``, and a sum equals numpy's ``sum`` up to
    7 sensors, past which that sum regroups its terms pairwise.  With
    ``weights``, of the shape of ``values``, it reduces ``values * weights``,
    each product formed one slice at a time, so no full-size product exists.
    """
    if out is None:
        out = np.empty((len(counts), *values.shape[:-1]))

    def term(k: int) -> np.ndarray:
        return values[..., k] if weights is None else values[..., k] * weights[..., k]

    done, reduced = 1, term(0)
    for row, count in zip(out, counts):
        np.copyto(row, reduced)
        for k in range(done, count):
            ufunc(row, term(k), out=row)
        done, reduced = count, row
    return out


def _count_at_least(scores: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """How many of ``scores`` reach each threshold of ``lams``: ``(scores >= lam).sum()``."""
    return scores.size - np.searchsorted(np.sort(scores), lams, side="left")


def _rates(
    scenario: Scenario,
    h1: bool,
    lams: Sequence[Sequence[float]],
    rng: np.random.Generator,
    length: int,
    reads: Sequence[tuple[CombinerKind, int]],
) -> tuple[np.ndarray, np.ndarray | None, float]:
    """The one counting loop: rates over ``scenario.trials`` windows of ``length`` events.

    Per ``(combiner, sensors)`` read of :func:`_draw_events` it counts the
    newest energies and, when ``length > 1``, the dual-threshold scores at or
    above each threshold, scored at each window's estimated rho
    (:func:`_window_rho`).  Returns both rate arrays, one row per read
    (``None`` for the scores of single events), and the mean estimated rho.
    """
    lams = np.asarray(lams, dtype=float)  # one threshold vector per read
    if lams.ndim != 2 or lams.shape[0] != len(reads):
        raise ValueError("lams must hold one threshold vector per read")
    conv_counts = np.zeros(lams.shape, dtype=np.int64)
    prop_counts = np.zeros_like(conv_counts) if length > 1 else None
    rho_total = 0.0
    for energies, sig_mean in _draw_events(scenario, rng, (scenario.trials, length), h1, reads):
        for conv, energy, read_lams in zip(conv_counts, energies, lams):
            conv += _count_at_least(energy[..., -1], read_lams)
        if prop_counts is not None:
            rho = _window_rho(sig_mean)
            # broadcast: a rho pinned to one factor for all windows counts once per window
            rho_total += float(np.broadcast_to(rho, len(sig_mean)).sum())
            for prop, score, read_lams in zip(prop_counts, _dual_score(energies, rho), lams):
                prop += _count_at_least(score, read_lams)
        del energies, sig_mean  # so that the kernel can free the block
    n = scenario.trials
    return conv_counts / n, (None if prop_counts is None else prop_counts / n), rho_total / n


def conventional_rate(
    scenario: Scenario,
    h1: bool,
    lams: Sequence[Sequence[float]],
    rng: np.random.Generator,
    sizes: Sequence[int],
) -> np.ndarray:
    """Fixed-threshold positive rates over single independent events, one row per size.

    One ``num_crs``-sensor draw scores every size of ``sizes`` (ascending
    sensor counts, the largest at most ``scenario.num_crs``) on its
    sensor-axis prefix, at its own threshold vector of ``lams``; the rates
    form a ``(sizes, thresholds)`` array.  :func:`equivalence_search` scores
    its sensor counts this way, so its curves across counts share their
    draws and are correlated.  Leaner than :func:`forced_rates` (no window
    draws, ``L`` times fewer cells); its blocks draw on streams spawned from
    ``rng``, as there.
    """
    reads = [(scenario.combiner, k) for k in sizes]
    return _rates(scenario, h1, lams, rng, 1, reads)[0]


def forced_rates(
    scenario: Scenario,
    h1: bool,
    lams: Sequence[Sequence[float]],
    rng: np.random.Generator,
    combiners: Sequence[CombinerKind],
) -> tuple[np.ndarray, np.ndarray, float]:
    """Positive rates of both rules over independent freshly-warmed windows, at every ``lams``.

    Each counted trial is the newest event of its own ``L``-event window,
    and every threshold is scored on the same windows.  The fixed-threshold
    rule is evaluated on the same events, which makes scheme comparisons
    exactly paired (and byte-identical when the uncertainty halfwidth is
    zero, since the rules then coincide).  Each rule reduces a window to one
    score (see :func:`_dual_score`) and is positive at ``lam`` exactly when
    the score reaches it, so both rules' decisions are non-increasing in
    ``lam`` and a rate is a count of scores.

    One window draw of gains and variances serves every combiner of
    ``combiners`` (distinct kinds), each at its own threshold vector of
    ``lams``, and the window mean variance and rho are computed once for all
    of them.  Returns the conventional and the dual-threshold rates, each a
    ``(combiners, thresholds)`` array, and the mean estimated rho.  A
    combiner's rows equal those of a call for it alone on the same stream:
    each block draws each purpose on its own stream spawned from ``rng`` (see
    :func:`_draw_events`).
    """
    reads = [(kind, scenario.num_crs) for kind in combiners]
    return _rates(scenario, h1, lams, rng, scenario.history_len, reads)


def _window_rho(sig_mean: np.ndarray) -> np.ndarray:
    """Uncertainty factor ``max / mean`` of each window along the last axis, at least 1."""
    return np.maximum(1.0, sig_mean.max(axis=-1) / sig_mean.mean(axis=-1))


def _dual_score(energy: np.ndarray, rho) -> np.ndarray:
    """The dual-threshold rule's score of each window along the last axis, at factor ``rho``.

    The rule predicts activity when the window mean ``M`` reaches ``lam`` and
    then compares the newest energy ``E`` with ``lam / rho``, else with
    ``rho * lam``.  So it is positive at ``lam`` exactly when the score
    ``E / rho`` (where ``E / rho > M``, else ``min(M, rho * E)``) reaches
    ``lam``.  ``rho`` is one factor per window or one for all; ``energy`` may
    carry a leading combiner axis, which the scores keep.
    :mod:`css_lab.adaptive` is the scalar, event-level reference.
    """
    newest = energy[..., -1]
    mean = energy.mean(axis=-1)
    high = newest / rho  # the score whenever it lies above the window mean
    return np.where(high > mean, high, np.minimum(mean, rho * newest))


def _auc_with_ci(
    points: Sequence[RocPoint], cov_pfa: np.ndarray, cov_pd: np.ndarray
) -> tuple[float, float]:
    """AUC of the empirical points and its 3-sigma half-width by the paired delta method.

    The AUC is the area under the (pfa, pd) polyline through the points in
    ascending order, anchored at (0, 0) and (1, 1).  The points of one curve
    share their draws, so they are correlated.  ``cov_pfa`` and ``cov_pd``
    are the per-trial covariances of the decision vectors over the points
    (in ``points`` order) under H0 and H1, which are drawn independently of
    each other: ``var = g_x^T C0 g_x / n + g_y^T C1 g_y / n`` with ``g`` the
    gradient of the trapezoid area in the points' coordinates.
    """
    pfa, pd = np.array([(p.empirical_pfa, p.empirical_pd) for p in points]).T
    order = np.lexsort((pd, pfa))  # by pfa, ties by pd
    xs = np.concatenate(([0.0], pfa[order], [1.0]))
    ys = np.concatenate(([0.0], pd[order], [1.0]))
    g_x, g_y = np.empty(len(points)), np.empty(len(points))
    g_x[order] = (ys[:-2] - ys[2:]) / 2.0
    g_y[order] = (xs[2:] - xs[:-2]) / 2.0
    var = (g_x @ cov_pfa @ g_x + g_y @ cov_pd @ g_y) / points[0].trials
    auc = 0.5 * float(np.sum((xs[1:] - xs[:-1]) * (ys[1:] + ys[:-1])))
    return auc, 3.0 * float(np.sqrt(max(var, 0.0)))


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
    pfa: np.ndarray,
    pd: np.ndarray,
    mean_rho: float,
) -> RocCurve:
    """One ROC curve from its H0 and H1 positive rates at the grid thresholds ``lams``."""
    n = scenario.trials
    points = []
    theory = closed_form_rates(scenario.theory_params(mean_rho), lams)
    rates = zip(pfa.tolist(), pd.tolist(), *theory)
    for target, lam, (x, y, theory_pfa, theory_pd) in zip(scenario.pfa_grid, lams, rates):
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
    # nested decisions: the per-trial covariance is min(p_i, p_j) - p_i p_j
    cov_pfa, cov_pd = (np.minimum.outer(p, p) - np.outer(p, p) for p in (pfa, pd))
    auc, auc_ci = _auc_with_ci(points, cov_pfa, cov_pd)
    return RocCurve(scheme, scenario, tuple(points), auc, auc_ci, mean_rho)


def roc_sweep(
    scenario: Scenario,
    threads: int = 1,
    combiners: Sequence[CombinerKind] | None = None,
) -> tuple[RocCurve, ...]:
    """The conventional and then the dual-threshold ROC curve of each combiner, combiner-major.

    ``combiners`` defaults to the scenario's own; each curve carries the
    scenario with its combiner.  Thresholds come from CFAR inversion of the
    grid.  Per hypothesis, every combiner reads one :func:`forced_rates`
    call, one draw of fading gains and noise variances, on the sweep's
    stream, so each combiner's curves equal those of a sweep of that
    combiner alone.  Every grid threshold and both rules are scored on those
    draws, so scheme comparisons are exactly paired.  ``threads > 1`` runs
    the two hypotheses concurrently.  Fewer than 100 trials raise a
    ``UserWarning``, since the intervals are then wide.
    """
    kinds = (scenario.combiner,) if combiners is None else tuple(combiners)
    if scenario.trials < 100:
        warnings.warn(
            f"only {scenario.trials} trials; confidence intervals will be wide",
            stacklevel=2,
        )
    subs = {kind: replace(scenario, combiner=kind) for kind in kinds}
    lams = {kind: sub.cfar_grid() for kind, sub in subs.items()}

    def regime(h: int) -> tuple[np.ndarray, np.ndarray, float]:
        rng = derive_rng(scenario.seed, _TAG_SWEEP, h)
        return forced_rates(scenario, bool(h), list(lams.values()), rng, kinds)

    (conv0, prop0, rho0), (conv1, prop1, _) = _per_hypothesis(regime, threads)
    curves = []
    for i, kind in enumerate(kinds):
        sub, grid = subs[kind], lams[kind]
        curves.append(_curve(sub, SCHEME_CONVENTIONAL, grid, conv0[i], conv1[i], 1.0))
        # the theory columns take the mean rho of the noise-only (H0) windows
        curves.append(_curve(sub, SCHEME_PROPOSED, grid, prop0[i], prop1[i], rho0))
    return tuple(curves)


def equivalence_search(
    proposed: Scenario,
    k_range: Sequence[int],
    threads: int = 1,
) -> EquivalenceResult:
    """Smallest conventional sensor count matching the dual-threshold AUC.

    Matching means the conventional AUC comes within ``AUC_MATCH_TOL`` of
    the dual-threshold scheme's AUC at its own (smaller) sensor count.
    Returns ``k_match = -1`` and the residual gap at the largest searched
    count when nothing in the range matches.  At the proposed sensor count
    the conventional curve is the one paired with the dual-threshold curve.
    Every other count is scored on the sensor-axis prefixes of one
    :func:`conventional_rate` draw per hypothesis at the largest count, on
    a stream of its own, so those curves are correlated with each other but
    independent of the paired sweep's; the stop rule is unchanged:
    curves are built in ascending count, and the search stops at the first
    one within ``AUC_MATCH_TOL``, with theory columns only up to it.
    """
    ks = tuple(int(k) for k in k_range)
    if not ks or ks[0] < 1 or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k_range must be ascending positive integers")
    sizes = [k for k in ks if k != proposed.num_crs]
    subs = {k: replace(proposed, num_crs=k) for k in sizes}
    # every size is scored on the one draw, so every size needs its thresholds first
    lams = {k: sub.cfar_grid() for k, sub in subs.items()}
    rates: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    if sizes:

        def regime(h: int) -> np.ndarray:
            rng = derive_rng(proposed.seed, _TAG_NESTED, h)
            return conventional_rate(subs[sizes[-1]], bool(h), list(lams.values()), rng, sizes)

        rates = dict(zip(sizes, zip(*_per_hypothesis(regime, threads))))
    # the nested draws and the paired sweep have their own streams, so the order is
    # free; drawn after the paired sweep, the nested draws raised the process's peak
    # RSS by about 0.5 MB
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
            break
    else:
        k = -1
    return EquivalenceResult(k, target - curves[-1].auc, target_curve, tuple(curves))


def run_regime_sampled(
    scenario: Scenario,
    scheme: str,
    h1: bool,
    lam: float,
) -> tuple[float, float]:
    """Positive-decision rate of one rule and its 3-sigma half-width, from sampled waveforms.

    The sample-level reference for :func:`forced_rates`: it synthesises
    full waveforms, measures and fuses their energies and decides with
    :mod:`css_lab.adaptive`, one freshly-warmed window per trial, under H1
    when ``h1`` and H0 otherwise.  Intended for cross-validation at modest
    trial counts.
    """
    if scheme not in (SCHEME_CONVENTIONAL, SCHEME_PROPOSED):
        raise ValueError(f"unknown scheme {scheme!r}")
    rng = derive_rng(scenario.seed, _TAG_SAMPLED)
    hyp = Hypothesis.H1 if h1 else Hypothesis.H0
    positives = 0
    for _ in range(scenario.trials):
        if scheme == SCHEME_CONVENTIONAL:
            decision = _sampled_event(scenario, hyp, rng)[0] >= lam
        else:
            state = FusionState(scenario.history_len)
            for _event in range(scenario.history_len - 1):
                e_comb, sig_mean = _sampled_event(scenario, hyp, rng)
                push_event(state, e_comb, sig_mean)
            e_comb, sig_mean = _sampled_event(scenario, hyp, rng)
            decision = advance(state, e_comb, sig_mean, lam).decision is Hypothesis.H1
        positives += int(decision)
    rate = positives / scenario.trials
    return rate, binomial_ci(rate, scenario.trials)


def _sampled_event(
    scenario: Scenario,
    hyp: Hypothesis,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """One full-waveform sensing event; returns (combined energy, mean variance)."""
    pu = gen_pu_samples(scenario.n_samples, rng)
    blocks = []
    for _ in range(scenario.num_crs):
        if scenario.channel_kind == "awgn":
            gain = complex(np.sqrt(scenario.gamma_bar))
        else:
            gain = draw_channel(scenario.gamma_bar, rng)
        variance = draw_noise_variance(scenario.uncertainty_db, rng)
        blocks.append(synthesize_received(hyp, gain, pu, variance, rng))
    if scenario.combiner is CombinerKind.MRC:
        e_comb = measure_energy(combine_signal_mrc(blocks))
    else:
        e_comb = combine(scenario.combiner, [measure_energy(b) for b in blocks])
    # each sensor knows its drawn noise variance exactly (perfect estimation)
    sig_mean = float(np.mean([b.true_noise_variance for b in blocks]))
    return e_comb, sig_mean

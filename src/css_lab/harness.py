"""Monte Carlo experiment engine: seeded campaigns, ROC sweeps and AUC summaries.

Sampling strategy
-----------------
Per-sensor energies have known exact distributions (scaled central or
noncentral chi-square, see :mod:`css_lab.theory`), so the campaign engine
draws energies directly from those laws instead of synthesising sample
waveforms; that is orders of magnitude faster and statistically identical.
A sample-level reference path built on :mod:`css_lab.channel` is provided
for cross-validation (``run_regime_sampled``) and the test suite checks the
two agree.

Ratio combining is realised at the signal level (one detector at the summed
branch SNR with a gain-weighted effective noise variance), which is the
statistic the analysis layer describes; the energy-domain weighted sum of
:func:`css_lab.fusion.combine` remains available for event-level use.

Seeding
-------
Every stochastic path derives its generator from
``SeedSequence((scenario.seed, *tags))`` where the tags encode grid point,
regime and purpose.  Results are therefore bit-identical across runs and
across thread counts: threads only ever parallelise whole grid points.

Measurement regimes
-------------------
ROC points are measured under forced hypotheses.  For the dual-threshold
scheme each counted trial is the final event of an independent
freshly-warmed window, which keeps counted decisions i.i.d. so binomial
confidence intervals apply.  The ``markov`` PU model drives a single
rolling chain and is summarised separately as a transition penalty around
PU toggles.
"""

from __future__ import annotations

import hashlib
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
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
# expected_rho keeps three full-size temporaries per chunk; at 1<<20 cells it
# was faster and held half the peak memory of one 1<<22-cell chunk
_RHO_CHUNK_CELLS = 1 << 20

# stream tags keeping every stochastic purpose on its own substream
_TAG_SWEEP = 1
_TAG_REGIME = 2
_TAG_MARKOV = 3
_TAG_PAIRED = 4
_TAG_SAMPLED = 5

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
        """Canonical key=value rendering; the digest is taken over this."""
        items = {
            "snr_db": _fmt(self.snr_db),
            "n_samples": str(self.n_samples),
            "num_crs": str(self.num_crs),
            "history_len": str(self.history_len),
            "uncertainty_db": _fmt(self.uncertainty_db),
            "combiner": self.combiner.name,
            "trials": str(self.trials),
            "seed": str(self.seed),
            "pfa_grid": ",".join(_fmt(t) for t in self.pfa_grid),
            "channel_kind": self.channel_kind,
            "pu_model": self.pu_model,
            "fading_block": self.fading_block,
        }
        return "".join(f"{k}={v}\n" for k, v in sorted(items.items()))

    def digest(self) -> str:
        return hashlib.sha256(self.resolved_text().encode()).hexdigest()[:16]


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


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
    """Counter-style stream derivation; same inputs give the same stream."""
    entropy = (seed & (2**64 - 1),) + tuple(int(t) for t in tags)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def binomial_ci(p_hat: float, n: int) -> float:
    """Three-sigma binomial half-width around an empirical rate."""
    if n <= 0:
        return float("nan")
    return 3.0 * float(np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n))


def _draw_energy_matrix(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    *,
    h1: bool,
    kind: CombinerKind,
    num_crs: int,
    n_samples: int,
    gamma_bar: float,
    uncertainty_db: float,
    awgn_channel: bool,
    gamma_per_row: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw combined energies and mean reported variances for a grid of events.

    Returns arrays of shape ``(rows, cols)``; with ``gamma_per_row`` the
    fading draw is shared along each row (block fading over a window).
    """
    shape = (rows, cols, num_crs)
    if awgn_channel:
        gamma = np.broadcast_to(np.float64(gamma_bar), shape)
    elif gamma_per_row:
        gamma = np.broadcast_to(rng.exponential(gamma_bar, (rows, 1, num_crs)), shape)
    else:
        gamma = rng.exponential(gamma_bar, shape)
    if uncertainty_db > 0.0:
        sig2 = NOMINAL_VARIANCE * 10.0 ** (
            rng.uniform(-uncertainty_db, uncertainty_db, shape) / 10.0
        )
    else:
        sig2 = np.full(shape, NOMINAL_VARIANCE)
    n = n_samples
    if kind is CombinerKind.MRC:
        weight_sum = gamma.sum(axis=-1)
        eff_var = (gamma * sig2).sum(axis=-1) / weight_sum
        if h1:
            energy = eff_var * rng.noncentral_chisquare(n, n * weight_sum / eff_var)
        else:
            energy = eff_var * rng.chisquare(n, (rows, cols))
    else:
        if h1:
            branch = sig2 * rng.noncentral_chisquare(n, n * gamma / sig2)
        else:
            branch = sig2 * rng.chisquare(n, shape)
        energy = branch.sum(axis=-1) if kind is CombinerKind.SLC else branch.max(axis=-1)
    return energy, sig2.mean(axis=-1)


def _scenario_matrix_kwargs(scenario: Scenario) -> dict:
    return dict(
        kind=scenario.combiner,
        num_crs=scenario.num_crs,
        n_samples=scenario.n_samples,
        gamma_bar=scenario.gamma_bar,
        uncertainty_db=scenario.uncertainty_db,
        awgn_channel=scenario.channel_kind == "awgn",
    )


def _chunked(total: int, per_chunk: int):
    done = 0
    while done < total:
        step = min(per_chunk, total - done)
        yield step
        done += step


def conventional_rate(
    scenario: Scenario, h1: bool, lam: float, rng: np.random.Generator
) -> float:
    """Fixed-threshold positive rate over single independent events.

    Leaner than :func:`forced_rates` (no window draws); use it for studies
    that never compare against the dual-threshold rule.
    """
    kwargs = _scenario_matrix_kwargs(scenario)
    per_chunk = max(1, _CHUNK_CELLS // scenario.num_crs)
    positives = 0
    for step in _chunked(scenario.trials, per_chunk):
        energy, _ = _draw_energy_matrix(rng, step, 1, h1=h1, gamma_per_row=False, **kwargs)
        positives += int(np.count_nonzero(energy[:, 0] >= lam))
    return positives / scenario.trials


@dataclass(frozen=True)
class ForcedRates:
    """Both decision rules measured on one shared stream of window draws."""

    conventional: float
    proposed: float
    mean_rho: float


def forced_rates(
    scenario: Scenario,
    h1: bool,
    lam: float,
    rng: np.random.Generator,
    rho_override: float | None = None,
) -> ForcedRates:
    """Positive rates of both rules over independent freshly-warmed windows.

    Each counted trial is the newest event of its own ``L``-event window.
    The fixed-threshold rule is evaluated on the same events, which makes
    scheme comparisons exactly paired (and byte-identical when the
    uncertainty halfwidth is zero, since the rules then coincide).
    """
    kwargs = _scenario_matrix_kwargs(scenario)
    length = scenario.history_len
    gamma_per_row = scenario.fading_block == "chain"
    per_chunk = max(1, _CHUNK_CELLS // (scenario.num_crs * length))
    conv_positives = 0
    prop_positives = 0
    rho_total = 0.0
    for step in _chunked(scenario.trials, per_chunk):
        energy, sig_mean = _draw_energy_matrix(
            rng, step, length, h1=h1, gamma_per_row=gamma_per_row, **kwargs
        )
        rho = np.maximum(1.0, sig_mean.max(axis=1) / sig_mean.mean(axis=1))
        rho_total += float(rho.sum())
        if rho_override is not None:
            rho = np.full(step, rho_override)
        predicted = energy.mean(axis=1) >= lam
        lam_new = np.where(predicted, lam / rho, rho * lam)
        current = energy[:, -1]
        conv_positives += int(np.count_nonzero(current >= lam))
        prop_positives += int(np.count_nonzero(current >= lam_new))
    return ForcedRates(
        conventional=conv_positives / scenario.trials,
        proposed=prop_positives / scenario.trials,
        mean_rho=rho_total / scenario.trials,
    )


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
    window_mean = np.convolve(energies, np.ones(length), mode="valid") / length
    sig_windows = sliding_window_view(sigma_means, length)
    rho = np.maximum(1.0, sig_windows.max(axis=1) / sig_windows.mean(axis=1))
    if rho_override is not None:
        rho = np.full_like(rho, rho_override)
    predicted = window_mean >= lam
    lam_new = np.where(predicted, lam / rho, rho * lam)
    decisions[length - 1 :] = energies[length - 1 :] >= lam_new
    return decisions


def rolling_event_stream(
    scenario: Scenario, states_h1: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Energies and mean variances for one rolling chain of mixed-truth events.

    The fading gains exist whether or not the PU transmits; absence simply
    zeroes the noncentrality, so one masked draw covers both hypotheses.
    """
    n = states_h1.size
    shape = (n, scenario.num_crs)
    if scenario.channel_kind == "awgn":
        channel_gamma = np.full(shape, scenario.gamma_bar)
    else:
        channel_gamma = rng.exponential(scenario.gamma_bar, shape)
    signal_gamma = channel_gamma * states_h1[:, None]
    if scenario.uncertainty_db > 0.0:
        sig2 = NOMINAL_VARIANCE * 10.0 ** (
            rng.uniform(-scenario.uncertainty_db, scenario.uncertainty_db, shape) / 10.0
        )
    else:
        sig2 = np.full(shape, NOMINAL_VARIANCE)
    nsamp = scenario.n_samples
    if scenario.combiner is CombinerKind.MRC:
        weight_sum = channel_gamma.sum(axis=1)
        eff_var = (channel_gamma * sig2).sum(axis=1) / weight_sum
        energy = eff_var * rng.noncentral_chisquare(
            nsamp, nsamp * signal_gamma.sum(axis=1) / eff_var
        )
    else:
        branch = sig2 * rng.noncentral_chisquare(nsamp, nsamp * signal_gamma / sig2)
        energy = (
            branch.sum(axis=1)
            if scenario.combiner is CombinerKind.SLC
            else branch.max(axis=1)
        )
    return energy, sig2.mean(axis=1)


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
        energy, sig_mean = rolling_event_stream(scenario, states, rng)
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
    rates = forced_rates(scenario, h1, lam, rng, rho_override)
    rate = rates.conventional if scheme == SCHEME_CONVENTIONAL else rates.proposed
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


def _sweep_point(
    scenario: Scenario, scheme: str, index: int, target: float, lam: float
) -> tuple[RocPoint, float]:
    h0 = forced_rates(scenario, False, lam, derive_rng(scenario.seed, _TAG_SWEEP, index, 0))
    h1 = forced_rates(scenario, True, lam, derive_rng(scenario.seed, _TAG_SWEEP, index, 1))
    rho = h0.mean_rho if scheme == SCHEME_PROPOSED else 1.0
    if scheme == SCHEME_CONVENTIONAL:
        pfa, pd = h0.conventional, h1.conventional
    else:
        pfa, pd = h0.proposed, h1.proposed
    theory_pfa, theory_pd = _theory_columns(scenario, scheme, lam, rho)
    point = RocPoint(
        target_pfa=target,
        lam=lam,
        empirical_pfa=pfa,
        empirical_pfa_ci=binomial_ci(pfa, scenario.trials),
        empirical_pd=pd,
        empirical_pd_ci=binomial_ci(pd, scenario.trials),
        theory_pfa=theory_pfa,
        theory_pd=theory_pd,
        trials=scenario.trials,
    )
    return point, rho


def trapezoid_auc(points: Sequence[tuple[float, float]]) -> float:
    """Area under the (pfa, pd) polyline anchored at (0, 0) and (1, 1)."""
    path = sorted(points)
    xs = np.array([0.0] + [p[0] for p in path] + [1.0])
    ys = np.array([0.0] + [p[1] for p in path] + [1.0])
    return 0.5 * float(np.sum((xs[1:] - xs[:-1]) * (ys[1:] + ys[:-1])))


def _auc_with_ci(points: Sequence[RocPoint]) -> tuple[float, float]:
    path = sorted(
        (p.empirical_pfa, p.empirical_pd, p.empirical_pfa_ci, p.empirical_pd_ci)
        for p in points
    )
    xs = np.array([0.0] + [p[0] for p in path] + [1.0])
    ys = np.array([0.0] + [p[1] for p in path] + [1.0])
    auc = 0.5 * float(np.sum((xs[1:] - xs[:-1]) * (ys[1:] + ys[:-1])))
    # first-order propagation of the per-point 3-sigma half-widths
    var = 0.0
    for i, (_, _, ci_x, ci_y) in enumerate(path, start=1):
        dy = (xs[i + 1] - xs[i - 1]) / 2.0
        dx = (ys[i - 1] - ys[i + 1]) / 2.0
        var += (dy * ci_y / 3.0) ** 2 + (dx * ci_x / 3.0) ** 2
    return auc, 3.0 * float(np.sqrt(var))


def roc_sweep(scenario: Scenario, scheme: str, threads: int = 1) -> RocCurve:
    """One ROC curve: CFAR thresholds from the grid, both forced regimes per point."""
    _check_scheme(scheme)
    cfg = scenario.fusion_config()
    lams = [cfar_threshold(cfg, t) for t in scenario.pfa_grid]
    jobs = list(enumerate(zip(scenario.pfa_grid, lams)))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(
                pool.map(
                    lambda job: _sweep_point(scenario, scheme, job[0], job[1][0], job[1][1]),
                    jobs,
                )
            )
    else:
        results = [_sweep_point(scenario, scheme, i, t, lam) for i, (t, lam) in jobs]
    points = tuple(r[0] for r in results)
    mean_rho = float(np.mean([r[1] for r in results]))
    auc, auc_ci = _auc_with_ci(points)
    return RocCurve(
        scheme=scheme,
        scenario=scenario,
        points=points,
        auc=auc,
        auc_ci=auc_ci,
        mean_rho=mean_rho,
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
        curves.append(roc_sweep(scenario, SCHEME_PROPOSED, threads=threads))
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
    count when nothing in the range matches.
    """
    ks = tuple(int(k) for k in (k_range if k_range is not None else range(1, 49)))
    if not ks or ks[0] < 1 or any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k_range must be ascending positive integers")
    target_curve = roc_sweep(proposed, SCHEME_PROPOSED, threads=threads)
    target = target_curve.auc
    curves: list[RocCurve] = []
    for k in ks:
        curve = roc_sweep(replace(proposed, num_crs=k), SCHEME_CONVENTIONAL, threads=threads)
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
    states = np.full(n_events, scenario.pu_model == "forced_h1")
    energy, sig_mean = rolling_event_stream(scenario, states, rng)
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
        rng = derive_rng(scenario.seed, _TAG_MARKOV)
    states = markov_states(scenario.trials, dwell, rng)
    energy, sig_mean = rolling_event_stream(scenario, states, rng)
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
    rng = derive_rng(scenario.seed, 6)
    halfwidth = scenario.uncertainty_db
    per_chunk = max(1, _RHO_CHUNK_CELLS // (scenario.history_len * scenario.num_crs))
    rho = np.empty(windows)
    done = 0
    # the stream is drawn in order, so chunking leaves every value unchanged
    for step in _chunked(windows, per_chunk):
        shape = (step, scenario.history_len, scenario.num_crs)
        sig2 = 10.0 ** (rng.uniform(-halfwidth, halfwidth, shape) / 10.0)
        sig_mean = sig2.mean(axis=2)
        rho[done : done + step] = np.maximum(1.0, sig_mean.max(axis=1) / sig_mean.mean(axis=1))
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

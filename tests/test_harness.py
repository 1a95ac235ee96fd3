"""Monte Carlo engine: scenarios, seeding, regimes, sweeps and summaries."""

import copy
import dataclasses
import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy
from numpy.lib.stride_tricks import sliding_window_view

from css_lab import adaptive, harness
from css_lab.adaptive import FusionState, advance, push_event
from css_lab.channel import Hypothesis
from css_lab.harness import (
    DEFAULT_PFA_GRID,
    Scenario,
    binomial_ci,
    conventional_rate,
    derive_rng,
    equivalence_search,
    forced_rates,
    roc_sweep,
    run_regime_sampled,
)
from css_lab import theory
from css_lab.theory import CombinerKind, cfar_threshold, closed_form_rates
from conftest import conventional_one, forced_one


def _rolling(energies, variances, length, lam, rho_override=None):
    """Dual-threshold decisions along one rolling stream, scored on its sliding windows.

    The first ``length - 1`` events fall back to the fixed threshold while
    the window fills, as :func:`_event_loop` does.
    """
    decisions = energies >= lam
    rho = rho_override
    if rho is None:
        rho = harness._window_rho(sliding_window_view(variances, length))
    decisions[length - 1 :] = harness._dual_score(sliding_window_view(energies, length), rho) >= lam
    return decisions


def _joined_draw(scenario, rng, shape, signal, reads=None):
    """The blocks of :func:`harness._draw_events` joined along the leading axis of ``shape``.

    ``reads`` defaults to the lone read of the scenario's combiner on every sensor.
    """
    if reads is None:
        reads = ((scenario.combiner, scenario.num_crs),)
    energies, sig_means = zip(*harness._draw_events(scenario, rng, shape, signal, reads))
    return np.concatenate(energies, axis=1), np.concatenate(sig_means)


def _draw_peak(scenario, rng, shape, signal, reads):
    """The tracemalloc peak of one :func:`harness._draw_events` call run through its blocks."""
    tracemalloc.start()
    try:
        for _ in harness._draw_events(scenario, rng, shape, signal, reads):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _event_loop(energies, variances, length, lam):
    """The same stream decided one event at a time by the scalar reference."""
    state = FusionState(length)
    decisions = np.empty(energies.size, dtype=bool)
    rhos = []
    for i, (e, v) in enumerate(zip(energies, variances)):
        if len(state) < length - 1:
            push_event(state, float(e), float(v))
            decisions[i] = e >= lam
        else:
            decision = advance(state, float(e), float(v), lam)
            decisions[i] = decision.decision is Hypothesis.H1
            rhos.append(decision.rho)
    return decisions, rhos


class TestScenario:
    def test_defaults_are_valid(self):
        sc = Scenario()
        assert sc.num_crs == 7 and sc.history_len == 15 and sc.n_samples == 1000
        assert sc.gamma_bar == pytest.approx(10 ** (-1.5))
        assert len(DEFAULT_PFA_GRID) == 15
        assert DEFAULT_PFA_GRID[0] == pytest.approx(0.01)
        assert DEFAULT_PFA_GRID[-1] == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(history_len=1)
        with pytest.raises(ValueError):
            Scenario(n_samples=999)
        with pytest.raises(ValueError):
            Scenario(pfa_grid=(0.3, 0.1))
        with pytest.raises(ValueError):
            Scenario(pfa_grid=(0.0, 0.1))
        with pytest.raises(ValueError):
            Scenario(channel_kind="laplace")

    def test_digest_stability_and_sensitivity(self):
        a, b = Scenario(seed=1), Scenario(seed=1)
        assert a.digest() == b.digest()
        # pinned: artifacts carry the digest, so its text must not drift
        assert Scenario().digest() == "b8973e9cd9fc992c"
        perturbed = {
            "snr_db": -14.0,
            "n_samples": 1002,
            "num_crs": 6,
            "history_len": 14,
            "uncertainty_db": 0.5,
            "combiner": CombinerKind.MRC,
            "trials": 9999,
            "seed": 2,
            "pfa_grid": (0.1, 0.3),
            "channel_kind": "awgn",
            "fading_block": "chain",
        }
        assert set(perturbed) == {f.name for f in dataclasses.fields(Scenario)}
        for name, value in perturbed.items():
            assert dataclasses.replace(a, **{name: value}).digest() != a.digest(), name

    def test_list_grid_is_stored_as_tuple(self):
        listed, tupled = Scenario(pfa_grid=[0.1, 0.3]), Scenario(pfa_grid=(0.1, 0.3))
        assert listed.pfa_grid == (0.1, 0.3)
        assert listed == tupled
        assert hash(listed) == hash(tupled)
        assert listed.digest() == tupled.digest()


class TestSeeding:
    def test_derive_rng_deterministic(self):
        x = derive_rng(5, 1, 2).standard_normal(4)
        y = derive_rng(5, 1, 2).standard_normal(4)
        z = derive_rng(5, 1, 3).standard_normal(4)
        assert np.array_equal(x, y)
        assert not np.array_equal(x, z)

    def test_default_streams_are_distinct(self, monkeypatch):
        # SeedSequence pads short entropy with zeros, so tags differing only by
        # trailing zeros alias; every default stream must still be its own
        assert derive_rng(5, 3).random() == derive_rng(5, 3, 0).random()
        used = set()

        def recording(seed, *tags):
            used.add((seed, *tags))
            return derive_rng(seed, *tags)

        drawn = []
        draw = harness._draw_events

        def recording_draw(scenario, rng, *args, **kwargs):
            drawn.append(rng)
            return draw(scenario, rng, *args, **kwargs)

        monkeypatch.setattr(harness, "derive_rng", recording)
        monkeypatch.setattr(harness, "_draw_events", recording_draw)
        monkeypatch.setattr(harness, "_BLOCK_CELLS", 600)  # the sweep's windows in two blocks
        sc = Scenario(trials=200, seed=5, n_samples=200, num_crs=2, history_len=3, pfa_grid=(0.1,))
        roc_sweep(sc)
        equivalence_search(sc, k_range=(1, 2))
        run_regime_sampled(dataclasses.replace(sc, trials=1), "conventional", False, 100.0)
        # the sweep's two streams, the nested search's two and the sampled stream
        assert len(used) == 5
        # each block spawned four streams, one per purpose, and drew nothing on its own: the
        # nested draws take one block, the sweep's (run twice, the search pairs it) two
        spawned = sorted(rng.bit_generator.seed_seq.n_children_spawned for rng in drawn)
        assert spawned == [4, 4, 8, 8, 8, 8]
        for rng in drawn:
            assert rng.random() == derive_rng(*rng.bit_generator.seed_seq.entropy).random()
        roots = [derive_rng(*entropy) for entropy in used]
        streams = roots + [child for root in roots for child in root.spawn(8)]
        assert len({stream.random() for stream in streams}) == len(streams)


class TestRunRegime:
    """Single-threshold rates under one forced hypothesis, on the kernel functions."""

    def test_unreachable_threshold(self):
        sc = Scenario(trials=2000, seed=2)
        rate = conventional_one(sc, False, [1e12], derive_rng(2, 2, 0))[0]
        assert rate == 0.0

    def test_always_exceeded_threshold(self):
        sc = Scenario(trials=2000, seed=2)
        rate = forced_one(sc, True, [1e-9], derive_rng(2, 2, 1))[1][0]
        assert rate == 1.0

    def test_false_alarm_tracks_target(self):
        sc = Scenario(uncertainty_db=0.0, trials=100_000, seed=3)
        lam = cfar_threshold(sc.theory_params(), 0.1)
        rate = conventional_one(sc, False, [lam], derive_rng(3, 2, 0))[0]
        assert abs(rate - 0.1) <= max(0.01, binomial_ci(rate, sc.trials))

    def test_small_trials_warn(self):
        sc = Scenario(trials=50, seed=4, pfa_grid=(0.1,))
        with pytest.warns(UserWarning, match="only 50 trials"):
            roc_sweep(sc)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            run_regime_sampled(Scenario(trials=200, seed=1), "hybrid", False, 7000.0)

    def test_lean_conventional_path_consistent(self):
        # the single-event sampler and the windowed sampler estimate the same
        # probability
        sc = Scenario(uncertainty_db=0.0, trials=40_000, seed=6)
        lam = cfar_threshold(sc.theory_params(), 0.2)
        lean = conventional_one(sc, False, [lam], derive_rng(6, 100))[0]
        paired = forced_one(sc, False, [lam], derive_rng(6, 101))[0][0]
        tol = 3 * np.sqrt(0.2 * 0.8 * 2 / sc.trials)
        assert abs(lean - paired) <= tol


class TestDrawEvents:
    def test_central_draw_equals_zero_noncentrality(self):
        # signal-free events take the central law; numpy's noncentral draw at
        # zero noncentrality gives the same values
        central = derive_rng(30, 2).chisquare(64, 1000)
        assert np.array_equal(derive_rng(30, 2).noncentral_chisquare(64, np.zeros(1000)), central)


class TestNestedSizes:
    """One draw at the largest sensor count scores every smaller count on its prefixes."""

    SIZES = (1, 3, 8)

    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_prefix_rates_match_independent_draws(self, kind):
        sc = Scenario(combiner=kind, num_crs=max(self.SIZES), trials=20_000, seed=31)
        subs = [dataclasses.replace(sc, num_crs=k) for k in self.SIZES]
        lams = [[cfar_threshold(sub.theory_params(), 0.1)] for sub in subs]
        for h1 in (False, True):
            nested = conventional_rate(sc, h1, lams, derive_rng(31, int(h1)), self.SIZES)
            assert len(nested) == len(self.SIZES)
            for i, (sub, lam, rates) in enumerate(zip(subs, lams, nested)):
                own = conventional_one(sub, h1, lam, derive_rng(32, i, int(h1)))[0]
                shared = rates[0]
                sigma = np.sqrt((own * (1 - own) + shared * (1 - shared)) / sc.trials)
                assert abs(shared - own) <= 3 * sigma, (sub.num_crs, h1, shared, own)

    @pytest.mark.parametrize("h1", [False, True])
    def test_sls_prefix_is_running_max_of_sensor_energies(self, h1):
        sc = Scenario(combiner=CombinerKind.SLS, num_crs=6, trials=100, seed=33)
        sizes = np.arange(1, 7)
        reads = [(CombinerKind.SLS, k) for k in sizes]
        energy, sig_mean = _joined_draw(sc, derive_rng(33), (500,), h1, reads)
        assert energy.shape == (len(sizes), 500)
        # the one block's streams, per sensor: fading, variances, then energies
        gain_rng, sig_rng, energy_rng, _ = derive_rng(33).spawn(4)
        gamma = gain_rng.exponential(sc.gamma_bar, (500, 6))
        sig2 = harness._noise_variances(sig_rng, sc.uncertainty_db, (500, 6))
        n = sc.n_samples
        if h1:
            per_sensor = energy_rng.noncentral_chisquare(n, n * gamma / sig2) * sig2
        else:
            per_sensor = energy_rng.chisquare(n, (500, 6)) * sig2
        for k in sizes:
            assert np.array_equal(energy[k - 1], per_sensor[:, :k].max(axis=1))
        # the mean variance is over every sensor of the draw, whatever the prefix
        assert np.array_equal(sig_mean, sig2.mean(axis=1))

    @pytest.mark.parametrize("h1", [False, True])
    @pytest.mark.parametrize("kind", [CombinerKind.SLC, CombinerKind.SLS])
    def test_widest_prefix_reproduces_plain_draw(self, kind, h1):
        # the widest of several reads is a lone read of the whole draw, bit for bit
        sc = Scenario(combiner=kind, num_crs=9, trials=100, seed=34)
        plain, plain_mean = _joined_draw(sc, derive_rng(34), (300,), h1, [(kind, 9)])
        reads = [(kind, 1), (kind, 4), (kind, 9)]
        nested, nested_mean = _joined_draw(sc, derive_rng(34), (300,), h1, reads)
        assert plain.shape == (1, 300) and nested.shape == (3, 300)
        assert np.array_equal(nested[-1], plain[0])
        assert np.array_equal(nested_mean, plain_mean)

    @pytest.mark.parametrize("h1", [False, True])
    def test_mrc_read_holds_no_full_size_product(self, h1):
        # MRC sums its gain-weighted variances one sensor slice at a time
        sc = Scenario(num_crs=48, trials=100, seed=36)
        block = harness._BLOCK_CELLS * 8  # 10,000 events of 48 sensors are 7.3 blocks

        def peak(reads):
            return _draw_peak(sc, derive_rng(36), (10_000,), h1, reads)

        # measured 2.2 blocks: the gains and the variances, and MRC's reduced arrays
        assert peak([(CombinerKind.MRC, 48)]) < 7 * block
        # reads at every count: only arrays of at most one block each, and a finished
        # block goes before the next is drawn (measured 6.0 blocks, the loop variable
        # holding the previous block's energies among them)
        every = [(CombinerKind.MRC, k) for k in range(1, 49)]
        assert peak(every) < 7 * block

    def test_h0_per_sensor_reads_hold_no_gains(self):
        # without the PU, SLC and SLS read only the variances: their draw keeps no gains
        # block, which a draw with an MRC read does
        sc = Scenario()
        block = harness._BLOCK_CELLS * 8
        per_sensor = [(CombinerKind.SLC, sc.num_crs), (CombinerKind.SLS, sc.num_crs)]

        def peak(reads):
            return _draw_peak(sc, derive_rng(sc.seed), (sc.trials, sc.history_len), False, reads)

        assert peak(per_sensor) + block <= peak(per_sensor + [(CombinerKind.MRC, sc.num_crs)])

    def test_sizes_validation(self):
        sc = Scenario(num_crs=4, trials=100, seed=35)
        lams = [[4000.0], [8000.0]]
        for bad in ((2, 1), (0, 2), (2, 5), ()):
            with pytest.raises(ValueError):
                conventional_rate(sc, False, lams, derive_rng(35), bad)
        with pytest.raises(ValueError):
            conventional_rate(sc, False, [4000.0, 8000.0], derive_rng(35), (1, 2))

    def test_read_validation(self):
        # each combiner's counts ascend strictly within 1..num_crs; combiners may interleave
        sc = Scenario(num_crs=4, trials=100, seed=35)
        slc, mrc, sls = CombinerKind.SLC, CombinerKind.MRC, CombinerKind.SLS
        reads = [(slc, 1), (mrc, 2), (sls, 4), (slc, 3), (mrc, 4)]
        energy, _ = _joined_draw(sc, derive_rng(35), (10,), True, reads)
        assert energy.shape == (len(reads), 10)
        descending = [(slc, 2), (mrc, 1), (slc, 1)]
        for bad in ([], [(slc, 0)], [(mrc, 5)], [(sls, 3), (sls, 3)], descending):
            with pytest.raises(ValueError):
                _joined_draw(sc, derive_rng(35), (10,), True, bad)

    def test_early_match_computes_theory_only_for_searched_counts(self, monkeypatch):
        seen = []
        original = theory.qd_rayleigh

        def counted(params, lams):
            seen.append((params.K, len(lams)))
            return original(params, lams)

        monkeypatch.setattr(theory, "qd_rayleigh", counted)
        # no uncertainty: the schemes coincide, so K=3 closes the gap
        sc = Scenario(uncertainty_db=0.0, num_crs=3, trials=2_000, seed=36, pfa_grid=(0.1, 0.3))
        result = equivalence_search(sc, k_range=(1, 3, 6, 12, 24))
        searched = [c.scenario.num_crs for c in result.conventional_curves]
        assert result.k_match == 3 and searched == [1, 3]
        # one grid call per curve; the paired dual-threshold curve, at a mean rho of exactly
        # 1, takes qd_rayleigh too
        assert sorted(seen) == sorted((k, len(sc.pfa_grid)) for k in searched + [sc.num_crs])


def _block_reference(sc, streams, cells, signal, reads):
    """Every read of one block of a draw, each step on whole arrays, on the block's streams.

    ``streams`` are the block's four: the gains', the variances', the per-sensor
    chi-squares' and MRC's.  Each is drawn whether or not a read needs it.
    """
    gain_rng, sig_rng, energy_rng, mrc_rng = streams
    if sc.channel_kind == "awgn":
        gamma = np.full(cells, sc.gamma_bar)
    elif sc.fading_block == "chain":
        gamma = np.broadcast_to(gain_rng.exponential(sc.gamma_bar, (cells[0], 1, cells[-1])), cells)
    else:
        gamma = gain_rng.exponential(sc.gamma_bar, cells)
    sig2 = harness._noise_variances(sig_rng, sc.uncertainty_db, cells)
    n = sc.n_samples
    if signal:
        per_sensor = energy_rng.noncentral_chisquare(n, n * gamma / sig2) * sig2
    else:
        per_sensor = energy_rng.chisquare(n, cells) * sig2
    out = np.empty((len(reads), *cells[:-1]))
    for i, (kind, count) in enumerate(reads):
        if kind is not CombinerKind.MRC:
            ufunc = np.add if kind is CombinerKind.SLC else np.maximum
            out[i] = ufunc.accumulate(per_sensor, axis=-1)[..., count - 1]
    mrc = [i for i, (kind, _) in enumerate(reads) if kind is CombinerKind.MRC]
    if mrc:
        counts = [reads[i][1] - 1 for i in mrc]
        gain = np.moveaxis(np.add.accumulate(gamma, axis=-1)[..., counts], -1, 0)
        scale = np.moveaxis(np.add.accumulate(gamma * sig2, axis=-1)[..., counts], -1, 0) / gain
        if signal:
            energy = mrc_rng.noncentral_chisquare(n, n * gain / scale)
        else:
            energy = mrc_rng.chisquare(n, gain.shape)
        out[mrc] = energy * scale
    return out, sig2.mean(axis=-1)


class TestBlockDraw:
    """Each block of a draw takes one stream per purpose; no array grows with the trials."""

    SLC, MRC, SLS = CombinerKind.SLC, CombinerKind.MRC, CombinerKind.SLS
    READS = {
        "slc": [(SLC, 4)],
        "mrc": [(MRC, 2), (MRC, 4)],  # no per-sensor read
        "sls": [(SLS, 4)],
        "mixed": [(SLC, 2), (MRC, 1), (SLS, 4), (MRC, 4), (SLC, 4)],
    }

    @pytest.mark.parametrize("uncertainty_db", [0.0, 1.0])
    @pytest.mark.parametrize("channel_kind", ["rayleigh", "awgn"])
    @pytest.mark.parametrize("fading_block", ["event", "chain"])
    @pytest.mark.parametrize("h1", [False, True])
    @pytest.mark.parametrize("reads", sorted(READS))
    def test_each_block_is_the_reference_draw_on_its_streams(
        self, monkeypatch, reads, h1, fading_block, channel_kind, uncertainty_db
    ):
        sc = Scenario(
            num_crs=4,
            history_len=5,
            trials=100,
            seed=37,
            uncertainty_db=uncertainty_db,
            channel_kind=channel_kind,
            fading_block=fading_block,
        )
        monkeypatch.setattr(harness, "_BLOCK_CELLS", 16 * 5 * 4)  # 16 windows per block
        rng, root = derive_rng(37, int(h1)), derive_rng(37, int(h1))
        blocks = list(harness._draw_events(sc, rng, (50, 5), h1, self.READS[reads]))
        assert [len(sig_mean) for _, sig_mean in blocks] == [16, 16, 16, 2]
        for energy, sig_mean in blocks:  # block b takes the b-th four streams spawned
            cells = (len(sig_mean), 5, sc.num_crs)
            reference = _block_reference(sc, root.spawn(4), cells, h1, self.READS[reads])
            assert np.array_equal(energy, reference[0])
            assert np.array_equal(sig_mean, reference[1])
        # and the draw's own stream drew nothing
        assert rng.random() == derive_rng(37, int(h1)).random()

    def test_h0_per_sensor_draw_is_the_same_under_any_fading(self, monkeypatch):
        # without the PU, SLC and SLS read no gains, which have a stream of their own: the
        # fading model moves no byte of their draw, as it does with the PU
        monkeypatch.setattr(harness, "_BLOCK_CELLS", 16 * 5 * 4)  # 16 windows per block
        sc = Scenario(num_crs=4, history_len=5, trials=100, seed=38)
        reads = [(self.SLC, 2), (self.SLS, 4), (self.SLC, 4)]
        fadings = [{}, {"fading_block": "chain"}, {"channel_kind": "awgn"}]
        for h1 in (False, True):
            draws = [
                _joined_draw(dataclasses.replace(sc, **fading), derive_rng(38), (50, 5), h1, reads)
                for fading in fadings
            ]
            for energy, sig_mean in draws[1:]:
                assert np.array_equal(sig_mean, draws[0][1])
                assert np.array_equal(energy, draws[0][0]) is not h1

    @pytest.mark.parametrize("uncertainty_db", [0.0, 1.0])
    def test_block_size_moves_rates_only_within_their_noise(self, monkeypatch, uncertainty_db):
        # 2000 windows of 5 x 4 cells in one block, or in blocks of 15 windows, the last
        # ragged: the block size picks the streams, so the rates move, but no tiling biases
        # them, as a rate or rho averaged per block at the wrong weights would
        sc = Scenario(trials=2000, seed=39, num_crs=4, history_len=5, uncertainty_db=uncertainty_db)
        kinds = tuple(CombinerKind)
        lams = [dataclasses.replace(sc, combiner=kind).cfar_grid() for kind in kinds]
        runs = []
        for cells in (harness._BLOCK_CELLS, 15 * 5 * 4):
            monkeypatch.setattr(harness, "_BLOCK_CELLS", cells)
            rates, rhos = [], []
            for h1 in (0, 1):
                conv, prop, rho = forced_rates(sc, h1, lams, derive_rng(39, h1), kinds)
                rates += [conv, prop]
                rhos.append(rho)
            rates.append(conventional_rate(sc, True, lams[:1] * 2, derive_rng(40), (2, 4)))
            runs.append((np.concatenate(rates, axis=None), np.array(rhos)))
        (one, one_rho), (tiled, tiled_rho) = runs
        assert not np.array_equal(one, tiled)
        # each rate is a count over 2000 independent trials on either side: 5 sigma of the
        # difference of two binomials, at the pooled rate
        pooled = (one + tiled) / 2
        assert np.all(np.abs(one - tiled) <= 5 * np.sqrt(2 * pooled * (1 - pooled) / sc.trials))
        if uncertainty_db == 0.0:
            assert np.array_equal(one_rho, [1.0, 1.0]) and np.array_equal(tiled_rho, one_rho)
        else:
            # a window's rho lies in [1, 10^(2 u / 10)]: its variance is at most a quarter of
            # that range squared
            sigma = (10 ** (2 * uncertainty_db / 10) - 1) / 2 / np.sqrt(sc.trials)
            assert np.all(np.abs(one_rho - tiled_rho) <= 5 * np.sqrt(2) * sigma)

    @pytest.mark.parametrize("trials", [10_000, 30_000])
    def test_compare_peak_is_a_few_blocks(self, trials):
        # compare's three reads: windows of 15 events at 7 sensors
        sc = Scenario(trials=trials)
        kinds = tuple(CombinerKind)
        lams = [dataclasses.replace(sc, combiner=kind).cfar_grid() for kind in kinds]
        for h1 in (False, True):
            tracemalloc.start()
            try:
                forced_rates(sc, h1, lams, derive_rng(sc.seed, h1), kinds)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # measured 1.97 MiB (3.9 blocks) under H0 and 2.47 MiB (4.9 blocks) under H1, at
            # 10,000 trials as at 30,000; a trials-sized array per read breaks the bound
            assert peak <= 5.5 * harness._BLOCK_CELLS * 8


class TestRollingEngineEquivalence:
    """The vectorized rule on sliding windows against its scalar reference, adaptive.advance."""

    def test_matches_event_loop(self, rng):
        # the vectorized rolling decisions replicate the FusionState pipeline
        length, lam = 9, 105.0
        n_events = 400
        energies = rng.exponential(100.0, n_events)
        variances = rng.uniform(0.8, 1.25, n_events)
        fast = _rolling(energies, variances, length, lam)
        slow, rhos = _event_loop(energies, variances, length, lam)
        assert np.array_equal(fast, slow)
        assert all(r >= 1.0 for r in rhos)

    def test_rho_override(self, rng, monkeypatch):
        energies = rng.exponential(100.0, 50)
        variances = rng.uniform(0.9, 1.1, 50)
        fixed = _rolling(energies, variances, 5, 100.0, rho_override=1.5)
        assert fixed.shape == (50,)
        monkeypatch.setattr(adaptive, "estimate_rho", lambda state: 1.5)
        slow, rhos = _event_loop(energies, variances, 5, 100.0)
        assert np.array_equal(fixed, slow)
        assert set(rhos) == {1.5}


class TestDualScore:
    """The dual-threshold rule is positive at lam exactly where its window score reaches lam."""

    @pytest.mark.parametrize("rho_override", [None, 1.5])
    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_score_decides_as_the_event_loop_at_random_thresholds(
        self, monkeypatch, kind, rho_override
    ):
        # a strong, widely faded signal, so that E / rho exceeds the window mean now and then
        if rho_override is not None:
            monkeypatch.setattr(adaptive, "estimate_rho", lambda state: rho_override)
        sc = Scenario(combiner=kind, snr_db=10.0, num_crs=2, history_len=5, trials=100, seed=47)
        rng = derive_rng(47, list(CombinerKind).index(kind))
        forms = set()
        for h1 in (False, True):
            (energy,), sig_mean = _joined_draw(sc, rng, (40, sc.history_len), h1)
            rho = harness._window_rho(sig_mean) if rho_override is None else rho_override
            score = harness._dual_score(energy, rho)
            forms.update((energy[:, -1] / rho > energy.mean(axis=-1)).tolist())
            lams = rng.uniform(score.min(), score.max(), 30)
            for e, v, s in zip(energy, sig_mean, score):
                state = FusionState(sc.history_len)
                for x, y in zip(e[:-1], v[:-1]):
                    push_event(state, float(x), float(y))
                for lam in lams:
                    decision = advance(copy.deepcopy(state), e[-1], v[-1], lam)
                    assert (decision.decision is Hypothesis.H1) == (s >= lam)
        assert forms == {False, True}  # both forms of the score were decided

    @pytest.mark.parametrize("rho", [1.0, 1.2, 3.0])
    def test_one_factor_for_all_scores_as_one_per_window(self, rho):
        # a combiner axis, 40 windows of 5 events: a scalar rho is that rho in every window
        energy = derive_rng(65).exponential(size=(2, 40, 5))
        per_window = harness._dual_score(energy, np.full(40, rho))
        assert per_window.shape == (2, 40)
        assert np.array_equal(harness._dual_score(energy, rho), per_window)

    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_pinned_unit_rho_makes_the_rules_coincide(self, monkeypatch, kind):
        # at rho = 1 the score is the newest energy, so the pipeline's two rate rows agree
        # bit for bit over several blocks; unpinned, the estimated rho parts them
        monkeypatch.setattr(harness, "_BLOCK_CELLS", 400)
        sc = Scenario(combiner=kind, trials=300, seed=66, num_crs=4, history_len=5)
        lams = np.linspace(0.5, 2.0, 16) * cfar_threshold(sc.theory_params(), 0.1)
        conv, prop, mean_rho = forced_one(sc, True, lams, derive_rng(66))
        assert mean_rho > 1.0 and not np.array_equal(conv, prop)
        monkeypatch.setattr(harness, "_window_rho", lambda sig_mean: 1.0)
        pinned_conv, pinned_prop, pinned_rho = forced_one(sc, True, lams, derive_rng(66))
        assert pinned_rho == 1.0
        assert np.array_equal(pinned_conv, conv)  # the pin moves no draw
        assert np.array_equal(pinned_prop, pinned_conv)

    def test_count_at_least_counts_ties(self):
        # scores on a coarse lattice, so many equal each other and the thresholds
        scores = np.round(derive_rng(48).normal(size=500), 1)
        lams = np.concatenate((scores[:40], [-9.0, 9.0], np.round(np.linspace(-2, 2, 41), 1)))
        expected = (scores[:, None] >= lams).sum(axis=0)
        assert np.array_equal(harness._count_at_least(scores, lams), expected)


class TestSampledReference:
    @pytest.mark.parametrize("channel_kind", ["rayleigh", "awgn"])
    @pytest.mark.parametrize("h1", [False, True], ids=["H0", "H1"])
    @pytest.mark.parametrize("scheme", ["conventional", "proposed"])
    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_energy_sampler_matches_waveform_path(self, kind, scheme, h1, channel_kind):
        sc = Scenario(
            combiner=kind,
            n_samples=256,
            num_crs=3,
            history_len=4,
            trials=1500,
            seed=31,
            snr_db=-9.0,
            channel_kind=channel_kind,
        )
        lam = cfar_threshold(sc.theory_params(), 0.1)
        conv, prop, _ = forced_one(sc, h1, [lam], derive_rng(31, 2, int(h1)))
        fast = (prop if scheme == "proposed" else conv)[0]
        slow, _ = run_regime_sampled(sc, scheme, h1, lam)
        p = (fast + slow) / 2
        tol = 3 * np.sqrt(max(p * (1 - p), 1e-4) * 2 / sc.trials)
        assert abs(fast - slow) <= tol


# one line per combiner, scheme, hypothesis and channel kind:
# kind,scheme,h1,channel_kind,rate,half-width, with the floats as reprs
GOLDEN_SAMPLED_SHA256 = "3a3a6cfbe81986943edf581979eb42fa91f05e941fa859444da16189fbf50b3f"


@pytest.mark.skipif(
    not (np.__version__.startswith("2.4.") and scipy.__version__.startswith("1.17.")),
    reason="golden digest recorded with numpy 2.4.x and scipy 1.17.x; Generator "
    "streams are not promised stable across versions",
)
def test_sampled_reference_golden_digest():
    # pins every draw of the waveform reference, in order, and what it computes from them
    rows = []
    cases = itertools.product(
        CombinerKind, ("conventional", "proposed"), (False, True), ("rayleigh", "awgn")
    )
    for kind, scheme, h1, channel_kind in cases:
        sc = Scenario(
            combiner=kind,
            channel_kind=channel_kind,
            n_samples=64,
            num_crs=3,
            history_len=3,
            trials=60,
            seed=7,
            snr_db=-6.0,
        )
        with pytest.warns(UserWarning, match="N=64 is small"):
            lam = cfar_threshold(sc.theory_params(), 0.1)
        rate, ci = run_regime_sampled(sc, scheme, h1, lam)
        rows.append(f"{kind.name},{scheme},{int(h1)},{channel_kind},{rate!r},{ci!r}\n")
    assert hashlib.sha256("".join(rows).encode()).hexdigest() == GOLDEN_SAMPLED_SHA256


class TestAwgnTheoryColumns:
    """Under AWGN the theory columns take pd at the one SNR, not the Rayleigh average."""

    @staticmethod
    def _gaps(rates, theory, trials):
        """Each ``|empirical - theory|`` over its 3-sigma binomial half-width at the theory value."""
        theory = np.asarray(theory)
        tol = np.maximum(3 * np.sqrt(theory * (1 - theory) / trials), 3.0 / trials)
        return np.abs(np.asarray(rates) - theory) / tol

    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_conventional_curve_tracks_theory(self, kind):
        sc = Scenario(combiner=kind, channel_kind="awgn", uncertainty_db=0.0, seed=52)
        conv, _ = roc_sweep(sc)
        columns = [("empirical_pd", "theory_pd")]
        if kind is not CombinerKind.SLS:
            # SLS's Gaussian pfa form misses the chi-square skew on any channel, which
            # criterion 1's strict xfail pins (up to 1.84 CI on this curve)
            columns.append(("empirical_pfa", "theory_pfa"))
        for rate, column in columns:
            rates = [getattr(p, rate) for p in conv.points]
            theory = [getattr(p, column) for p in conv.points]
            assert self._gaps(rates, theory, sc.trials).max() <= 1.0, column

    @pytest.mark.parametrize("kind", [CombinerKind.SLC, CombinerKind.MRC])
    def test_dual_threshold_tracks_theory_at_pinned_rho(self, monkeypatch, kind):
        rho = 1.2
        monkeypatch.setattr(harness, "_window_rho", lambda sig_mean: rho)
        sc = Scenario(combiner=kind, channel_kind="awgn", uncertainty_db=0.0, seed=53)
        lams = [cfar_threshold(sc.theory_params(), t) for t in sc.pfa_grid]
        pfa = forced_one(sc, False, lams, derive_rng(53, 0))[1]
        pd = forced_one(sc, True, lams, derive_rng(53, 1))[1]
        theory_pfa, theory_pd = closed_form_rates(sc.theory_params(rho), lams)
        assert self._gaps(pfa, theory_pfa, sc.trials).max() <= 1.0
        assert self._gaps(pd, theory_pd, sc.trials).max() <= 1.0


class TestRocSweep:
    def test_single_median_point(self):
        sc = Scenario(uncertainty_db=0.0, trials=20_000, seed=8, pfa_grid=(0.5,))
        curve, _ = roc_sweep(sc)
        point = curve.points[0]
        assert abs(point.empirical_pfa - 0.5) <= point.empirical_pfa_ci

    def test_zero_uncertainty_schemes_identical(self):
        sc = Scenario(uncertainty_db=0.0, trials=5_000, seed=9, pfa_grid=(0.05, 0.1, 0.3))
        conv, prop = roc_sweep(sc)
        for a, b in zip(conv.points, prop.points):
            assert a.empirical_pfa == b.empirical_pfa
            assert a.empirical_pd == b.empirical_pd
            assert a.theory_pfa == b.theory_pfa
            assert a.theory_pd == b.theory_pd
        assert conv.auc == prop.auc
        assert prop.mean_rho == 1.0

    def test_thread_count_does_not_change_results(self):
        sc = Scenario(trials=3_000, seed=10, pfa_grid=(0.05, 0.1, 0.2, 0.4))
        serial = roc_sweep(sc, threads=1)
        for threads in (2, 4):
            assert roc_sweep(sc, threads) == serial

    def test_repeatable(self):
        sc = Scenario(trials=2_000, seed=11, pfa_grid=(0.1, 0.3))
        assert roc_sweep(sc) == roc_sweep(sc)

    def test_conventional_tracks_theory(self):
        sc = Scenario(uncertainty_db=0.0, trials=30_000, seed=12, pfa_grid=(0.05, 0.1, 0.3))
        curve, _ = roc_sweep(sc)
        for p in curve.points:
            assert abs(p.empirical_pfa - p.theory_pfa) <= max(0.01, p.empirical_pfa_ci)
            assert abs(p.empirical_pd - p.theory_pd) <= p.empirical_pd_ci

    def test_points_ordered_and_statistically_monotone(self):
        # raw points are reported unregularized; monotonicity along the curve
        # holds within the confidence half-widths
        sc = Scenario(trials=20_000, seed=23)
        _, curve = roc_sweep(sc)
        targets = [p.target_pfa for p in curve.points]
        assert targets == sorted(targets)
        path = sorted((p.empirical_pfa, p.empirical_pd, p.empirical_pd_ci) for p in curve.points)
        for (_, pd_a, ci_a), (_, pd_b, ci_b) in zip(path, path[1:]):
            assert pd_b >= pd_a - np.hypot(ci_a, ci_b)


class TestOnePass:
    """A sweep draws once per hypothesis, whatever the grid size."""

    GRIDS = ((0.1,), (0.05, 0.1, 0.3), (0.01, 0.03, 0.1, 0.2, 0.3, 0.5))

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"forced_rates": 0, "conventional_rate": 0}
        for name in counts:
            original = getattr(harness, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(harness, name, counted)
        return counts

    @pytest.mark.parametrize(
        "combiners",
        [
            None,
            (CombinerKind.SLS,),
            (CombinerKind.MRC, CombinerKind.SLC),
            (CombinerKind.SLC, CombinerKind.MRC, CombinerKind.SLS),
        ],
        ids=["own", "sls", "mrc-slc", "slc-mrc-sls"],
    )
    def test_two_forced_calls_per_point(self, calls, combiners):
        # one forced_rates call per hypothesis scores every point of the grid,
        # for both rules and every combiner
        for grid in self.GRIDS:
            calls.update(forced_rates=0, conventional_rate=0)
            sc = Scenario(trials=500, seed=24, pfa_grid=grid)
            curves = roc_sweep(sc, combiners=combiners)
            kinds = (sc.combiner,) if combiners is None else combiners
            assert [(c.scenario.combiner, c.scheme) for c in curves] == [
                (kind, scheme) for kind in kinds for scheme in ("conventional", "proposed")
            ]
            assert [len(c.points) for c in curves] == [len(grid)] * 2 * len(kinds)
            assert calls == {"forced_rates": 2, "conventional_rate": 0}

    def test_equivalence_reuses_paired_curve(self, calls):
        sc = Scenario(num_crs=3, trials=500, seed=25, pfa_grid=self.GRIDS[1])
        result = equivalence_search(sc, k_range=(2, 3, 4))
        assert [c.scenario.num_crs for c in result.conventional_curves] == [2, 3, 4]
        # paired sweep at K=3; K=2 and K=4 share one nested draw at K=4 per hypothesis
        assert calls == {"forced_rates": 2, "conventional_rate": 2}
        paired, proposed = roc_sweep(sc)
        assert result.conventional_curves[1] == paired
        assert result.proposed_curve == proposed


class TestRateFunctionsStandAlone:
    """Neither public rate function calls the other, so a tracer times each on its own."""

    @pytest.mark.parametrize("raising", ["conventional_rate", "forced_rates"])
    def test_runs_while_the_other_raises(self, monkeypatch, raising):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{raising} was called")

        monkeypatch.setattr(harness, raising, refuse)
        monkeypatch.setattr(harness, "_BLOCK_CELLS", 400)  # several blocks per call
        sc = Scenario(trials=300, seed=49, num_crs=4, history_len=5)
        lam = cfar_threshold(sc.theory_params(), 0.1)
        if raising == "conventional_rate":
            harness.forced_rates(sc, True, [[lam]], derive_rng(49), (sc.combiner,))
            kinds = (CombinerKind.SLC, CombinerKind.MRC)
            harness.forced_rates(sc, True, [[lam]] * 2, derive_rng(49), kinds)
        else:
            harness.conventional_rate(sc, True, [[lam]], derive_rng(49), (sc.num_crs,))
            harness.conventional_rate(sc, True, [[lam]] * 2, derive_rng(49), (2, 4))


class TestSharedWindowDraw:
    """SLC and SLS read one per-sensor window draw; every curve equals its own sweep."""

    KINDS = (CombinerKind.SLC, CombinerKind.MRC, CombinerKind.SLS)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("fading_block", ["event", "chain"])
    @pytest.mark.parametrize("channel_kind", ["rayleigh", "awgn"])
    def test_compare_curves_equal_single_combiner_sweeps(
        self, channel_kind, fading_block, threads
    ):
        sc = Scenario(
            trials=600,
            seed=40,
            num_crs=4,
            history_len=5,
            pfa_grid=(0.05, 0.2, 0.4),
            channel_kind=channel_kind,
            fading_block=fading_block,
        )
        shared = roc_sweep(sc, threads, self.KINDS)
        alone = [
            curve
            for kind in self.KINDS
            for curve in roc_sweep(dataclasses.replace(sc, combiner=kind), threads=threads)
        ]
        assert shared == tuple(alone)
        assert [(c.scenario.combiner, c.scheme) for c in shared] == [
            (kind, scheme) for kind in self.KINDS for scheme in ("conventional", "proposed")
        ]

    @pytest.mark.parametrize("h1", [False, True])
    def test_forced_rates_equal_per_combiner_calls_across_blocks(self, monkeypatch, h1):
        # 600 trials of 5 x 4 cells in blocks of 12 windows: 50 blocks
        monkeypatch.setattr(harness, "_BLOCK_CELLS", 250)
        sc = Scenario(trials=600, seed=41, num_crs=4, history_len=5)
        kinds = (CombinerKind.SLS, CombinerKind.SLC)
        params = [dataclasses.replace(sc, combiner=k).theory_params() for k in kinds]
        lams = [[cfar_threshold(p, t) for t in (0.05, 0.3)] for p in params]
        conv, prop, rho = forced_rates(sc, h1, lams, derive_rng(41, int(h1)), kinds)
        assert conv.shape == prop.shape == (len(kinds), 2)
        for kind, kind_lams, *rates in zip(kinds, lams, conv, prop):
            sub = dataclasses.replace(sc, combiner=kind)
            own = forced_one(sub, h1, kind_lams, derive_rng(41, int(h1)))
            assert np.array_equal(rates, own[:2])
            assert rho == own[2]

    @pytest.mark.parametrize("block_cells", [250, harness._BLOCK_CELLS])  # 50 blocks or one
    @pytest.mark.parametrize("fading_block", ["event", "chain"])
    @pytest.mark.parametrize("channel_kind", ["rayleigh", "awgn"])
    @pytest.mark.parametrize("h1", [False, True])
    def test_three_combiner_forced_rates_equal_per_combiner_calls(
        self, monkeypatch, h1, channel_kind, fading_block, block_cells
    ):
        monkeypatch.setattr(harness, "_BLOCK_CELLS", block_cells)
        sc = Scenario(
            trials=600,
            seed=44,
            num_crs=4,
            history_len=5,
            channel_kind=channel_kind,
            fading_block=fading_block,
        )
        params = [dataclasses.replace(sc, combiner=k).theory_params() for k in self.KINDS]
        lams = [[cfar_threshold(p, t) for t in (0.05, 0.3)] for p in params]
        conv, prop, rho = forced_rates(sc, h1, lams, derive_rng(44, int(h1)), self.KINDS)
        for kind, kind_lams, *rates in zip(self.KINDS, lams, conv, prop):
            sub = dataclasses.replace(sc, combiner=kind)
            own = forced_one(sub, h1, kind_lams, derive_rng(44, int(h1)))
            assert np.array_equal(rates, own[:2])
            assert rho == own[2]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_multi_block_sweep_equals_single_combiner_sweeps(self, monkeypatch, threads):
        # 600 trials of 5 x 4 cells in blocks of 12 windows: 50 blocks per hypothesis
        monkeypatch.setattr(harness, "_BLOCK_CELLS", 250)
        sc = Scenario(trials=600, seed=45, num_crs=4, history_len=5, pfa_grid=(0.05, 0.2, 0.4))
        shared = roc_sweep(sc, threads, self.KINDS)
        alone = [
            curve
            for kind in self.KINDS
            for curve in roc_sweep(dataclasses.replace(sc, combiner=kind))
        ]
        assert shared == tuple(alone)

    @pytest.mark.parametrize("uncertainty_db", [0.0, 1.0])
    def test_blocks_combine_as_trial_weighted_single_block_calls(
        self, monkeypatch, uncertainty_db
    ):
        sc = Scenario(trials=250, seed=46, num_crs=3, history_len=4, uncertainty_db=uncertainty_db)
        lams = [cfar_threshold(sc.theory_params(), t) for t in (0.05, 0.3)]
        steps = [40] * 6 + [10]

        def block_stream(tag, block):
            # a stream whose first four spawned streams are those of a draw's block-th block
            rng = derive_rng(46, tag)
            rng.spawn(4 * block)
            return rng

        alone = [
            forced_one(dataclasses.replace(sc, trials=step), True, lams, block_stream(1, b))
            for b, step in enumerate(steps)
        ]
        monkeypatch.setattr(harness, "_BLOCK_CELLS", 40 * 4 * 3)  # 40 windows per block
        blocked = forced_one(sc, True, lams, derive_rng(46, 1))
        for rule in (0, 1):  # conventional, proposed
            # each rate is a count of positive trials over its own trials
            counts = sum(np.rint(r[rule] * n) for r, n in zip(alone, steps))
            assert np.array_equal(blocked[rule], counts / sc.trials)
        rho = sum(r[2] * n for r, n in zip(alone, steps)) / sc.trials
        assert blocked[2] == pytest.approx(rho, rel=1e-12)
        if uncertainty_db == 0.0:
            assert blocked[2] == 1.0
        # conventional_rate takes its blocks' streams the same way, with and without
        # nested sensor prefixes
        monkeypatch.setattr(harness, "_BLOCK_CELLS", 40 * 3)  # 40 events per block
        nested_lams = [
            [cfar_threshold(sub.theory_params(), t) for t in (0.05, 0.3)]
            for sub in (dataclasses.replace(sc, num_crs=k) for k in (1, 3))
        ]
        for size_lams, sizes in (([lams], (3,)), (nested_lams, (1, 3))):
            alone = [
                conventional_rate(
                    dataclasses.replace(sc, trials=step), True, size_lams, block_stream(2, b), sizes
                )
                for b, step in enumerate(steps)
            ]
            blocked = conventional_rate(sc, True, size_lams, derive_rng(46, 2), sizes)
            counts = sum(np.rint(r * n) for r, n in zip(alone, steps))
            assert np.array_equal(blocked, counts / sc.trials)

    @pytest.mark.parametrize("num_crs", [1, 7, 48])
    def test_prefix_reduce_is_exact(self, num_crs):
        energy = derive_rng(42).chisquare(1000, (200, 15, num_crs))
        counts = range(1, num_crs + 1)
        for ufunc in (np.add, np.maximum):
            prefixes = harness._prefix_reduce(ufunc, energy, counts)
            assert np.array_equal(prefixes, np.moveaxis(ufunc.accumulate(energy, axis=-1), -1, 0))
        (widest,) = harness._prefix_reduce(np.maximum, energy, [num_crs])
        assert np.array_equal(widest, np.max(energy, axis=-1))
        if num_crs <= 7:  # from 8 sensors numpy's sum regroups its terms pairwise
            (total,) = harness._prefix_reduce(np.add, energy, [num_crs])
            assert np.array_equal(total, energy.sum(axis=-1))

    def test_combiner_list_validation(self):
        sc = Scenario(trials=100, seed=43)
        slc, mrc, sls = self.KINDS
        for good in ((mrc,), (slc, mrc), (sls, mrc, slc)):
            lams = [[4000.0]] * len(good)
            conv, prop, _ = forced_rates(sc, False, lams, derive_rng(43), good)
            assert conv.shape == prop.shape == (len(good), 1)
        for bad in ((slc, slc), (mrc, mrc), (sls, slc, sls), ()):
            lams = [[4000.0]] * len(bad)
            with pytest.raises(ValueError):
                forced_rates(sc, False, lams, derive_rng(43), bad)
        for lams in ([[4000.0]], [[4000.0]] * 3, [4000.0, 8000.0]):
            with pytest.raises(ValueError):
                forced_rates(sc, False, lams, derive_rng(43), (slc, sls))
        for bad in ((), (slc, slc)):
            with pytest.raises(ValueError):
                roc_sweep(sc, combiners=bad)


class TestCommonRandomNumbers:
    """Every grid threshold is scored on the same draws."""

    GRID = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5)

    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_each_column_equals_its_own_single_threshold_draw(self, kind):
        sc = Scenario(combiner=kind, trials=3_000, seed=26)
        lams = [cfar_threshold(sc.theory_params(), t) for t in self.GRID]
        for h1 in (False, True):
            whole = forced_one(sc, h1, lams, derive_rng(26, int(h1)))
            lean = conventional_one(sc, h1, lams, derive_rng(27, int(h1)))
            for g, lam in enumerate(lams):
                alone = forced_one(sc, h1, [lam], derive_rng(26, int(h1)))
                assert alone[0][0] == whole[0][g]
                assert alone[1][0] == whole[1][g]
                assert alone[2] == whole[2]
                single = conventional_one(sc, h1, [lam], derive_rng(27, int(h1)))
                assert single[0] == lean[g]

    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_curves_monotone_in_threshold(self, kind):
        # per trial the decisions are non-increasing in lambda, so the rates are too
        sc = Scenario(combiner=kind, trials=2_000, seed=28)
        for curve in roc_sweep(sc):
            path = sorted(curve.points, key=lambda p: p.lam)
            for a, b in zip(path, path[1:]):
                assert b.empirical_pfa <= a.empirical_pfa
                assert b.empirical_pd <= a.empirical_pd

    @pytest.mark.parametrize("fading_block", ["event", "chain"])
    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_auc_ci_equals_explicit_decision_matrix(self, kind, fading_block):
        # each rule's trials x grid decision matrix, rebuilt on the sweep's stream
        # from the threshold form of the rule, gives the sweep's AUC and interval
        sc = Scenario(combiner=kind, trials=2_000, seed=29, pfa_grid=self.GRID,
                      fading_block=fading_block)
        lams = np.array([cfar_threshold(sc.theory_params(), t) for t in self.GRID])
        covariance = {}
        for h in (0, 1):
            rng = derive_rng(sc.seed, harness._TAG_SWEEP, h)
            (energy,), sig_mean = _joined_draw(sc, rng, (sc.trials, sc.history_len), bool(h))
            rho = np.maximum(1.0, sig_mean.max(axis=-1) / sig_mean.mean(axis=-1))[:, None]
            predicted = energy.mean(axis=-1)[:, None] >= lams
            lam_new = np.where(predicted, lams / rho, rho * lams)
            newest = energy[:, -1:]
            for scheme, lam_rule in (("conventional", lams), ("proposed", lam_new)):
                d = (newest >= lam_rule).astype(np.float64)
                moment = d.T @ d / sc.trials
                rate = np.diag(moment)
                covariance[scheme, h] = moment - np.outer(rate, rate)
        for curve in roc_sweep(sc):
            cov_pfa, cov_pd = covariance[curve.scheme, 0], covariance[curve.scheme, 1]
            assert harness._auc_with_ci(curve.points, cov_pfa, cov_pd) == (curve.auc, curve.auc_ci)


class TestPairedDominance:
    def test_holds_where_predictor_reliable(self):
        # below the crossover target (where the threshold meets the
        # uncertainty-inflated idle-window mean) the dual thresholds dominate
        # pointwise
        sc = Scenario(trials=15_000, seed=13, pfa_grid=(0.01, 0.05, 0.1, 0.2, 0.25))
        conv, prop = roc_sweep(sc)
        for a, b in zip(conv.points, prop.points):
            assert b.empirical_pfa <= a.empirical_pfa
            assert b.empirical_pd >= a.empirical_pd
        assert prop.auc > conv.auc

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "at high targets the threshold drops below the uncertainty-inflated "
            "idle-window mean, the window predictor then fires under H0 and the "
            "false-alarm ordering reverses; dominance only holds pointwise where "
            "the predictor is reliable"
        ),
    )
    def test_full_default_grid(self):
        sc = Scenario(trials=15_000, seed=13)
        conv, prop = roc_sweep(sc)
        assert all(
            b.empirical_pfa <= a.empirical_pfa and b.empirical_pd >= a.empirical_pd
            for a, b in zip(conv.points, prop.points)
        )


class TestPairedRun:
    def test_zero_uncertainty_is_degenerate(self):
        # both rules on one rolling stream of H1 events
        sc = Scenario(uncertainty_db=0.0, trials=100, seed=14)
        lam = cfar_threshold(sc.theory_params(), 0.1)
        (energy,), sig_mean = _joined_draw(sc, derive_rng(14, 4), (20_000,), True)
        conv = energy >= lam
        prop = _rolling(energy, sig_mean, sc.history_len, lam)
        assert np.array_equal(conv, prop)


class TestSweepsAndAuc:
    def test_trapezoid_basics(self):
        def auc(*pairs):
            points = [
                harness.RocPoint(0.1, 1.0, x, 0.0, y, 0.0, 0.0, 0.0, 100) for x, y in pairs
            ]
            zero = np.zeros((len(points), len(points)))
            value, ci = harness._auc_with_ci(points, zero, zero)
            assert ci == 0.0
            return value

        assert auc((0.5, 0.5)) == pytest.approx(0.5)
        assert auc((0.0, 1.0)) == pytest.approx(1.0)
        assert auc((0.2, 0.9), (0.1, 0.7)) == auc((0.1, 0.7), (0.2, 0.9))
        # ties in pfa are walked in ascending pd
        assert auc((0.3, 0.8), (0.3, 0.6)) == pytest.approx(0.5 * 0.3 * 0.6 + 0.7 * 0.9)

    def test_curve_auc_is_trapezoid_of_its_points(self):
        # a sweep's AUC is the anchored trapezoid area under its own points,
        # and _auc_with_ci with zero covariances returns it with a zero half-width
        sc = Scenario(trials=2_000, seed=18, pfa_grid=(0.05, 0.1, 0.3))
        zero = np.zeros((3, 3))
        for curve in roc_sweep(sc):
            path = [(0.0, 0.0)]
            path += sorted((p.empirical_pfa, p.empirical_pd) for p in curve.points)
            path += [(1.0, 1.0)]
            area = sum((x1 - x0) * (y1 + y0) / 2 for (x0, y0), (x1, y1) in zip(path, path[1:]))
            assert curve.auc == pytest.approx(area, rel=1e-12)
            assert harness._auc_with_ci(curve.points, zero, zero) == (curve.auc, 0.0)

    def test_auc_ci_reduces_to_independent_points(self):
        # with uncorrelated points the paired estimator is the per-point
        # propagation of the binomial half-widths
        sc = Scenario(trials=2_000, seed=18, pfa_grid=(0.05, 0.1, 0.3))
        for curve in roc_sweep(sc):
            pfa = np.array([p.empirical_pfa for p in curve.points])
            pd = np.array([p.empirical_pd for p in curve.points])
            _, ci = harness._auc_with_ci(
                curve.points, np.diag(pfa * (1 - pfa)), np.diag(pd * (1 - pd))
            )
            xs = np.concatenate(([0.0], pfa, [1.0]))
            ys = np.concatenate(([0.0], pd, [1.0]))
            var = sum(
                ((xs[i + 1] - xs[i - 1]) / 2 * p.empirical_pd_ci / 3) ** 2
                + ((ys[i - 1] - ys[i + 1]) / 2 * p.empirical_pfa_ci / 3) ** 2
                for i, p in enumerate(curve.points, start=1)
            )
            assert ci == pytest.approx(3 * np.sqrt(var), rel=1e-12)

    def test_auc_ci_covers_seed_to_seed_spread(self):
        # the reported AUC sd (a third of the half-width) tracks the spread of
        # the AUC over independent seeds, for both schemes
        grid = (0.01, 0.0266, 0.0707, 0.188, 0.5)
        aucs, sds = {}, {}
        for seed in range(60):
            for curve in roc_sweep(Scenario(trials=400, seed=1000 + seed, pfa_grid=grid)):
                aucs.setdefault(curve.scheme, []).append(curve.auc)
                sds.setdefault(curve.scheme, []).append(curve.auc_ci / 3)
        for scheme in ("conventional", "proposed"):
            ratio = np.mean(sds[scheme]) / np.std(aucs[scheme], ddof=1)
            assert 0.75 <= ratio <= 1.33, (scheme, ratio)

    def test_equivalence_degenerate_match(self):
        # with no uncertainty the schemes coincide, so the proposed sensor
        # count itself closes the gap
        sc = Scenario(uncertainty_db=0.0, num_crs=3, trials=3_000, seed=19, pfa_grid=(0.1, 0.3))
        result = equivalence_search(sc, k_range=(3, 5))
        assert result.k_match == 3
        assert abs(result.auc_gap) <= 0.02

    def test_equivalence_gap_positive_at_same_k(self):
        sc = Scenario(num_crs=3, trials=3_000, seed=20, pfa_grid=(0.05, 0.1, 0.3))
        result = equivalence_search(sc, k_range=(3,))
        assert result.k_match == -1
        assert result.auc_gap > 0.0

    def test_equivalence_range_validation(self):
        sc = Scenario(trials=200, seed=20)
        with pytest.raises(ValueError):
            equivalence_search(sc, k_range=(5, 3))

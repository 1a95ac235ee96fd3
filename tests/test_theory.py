"""Analysis layer: special functions, exact/approximate tails, fading averages,
window predictor statistics and the dual-threshold probabilities."""

import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate, special, stats

from css_lab.cli import parse_scenario, run_command
from css_lab.harness import Scenario
from css_lab.theory import (
    CombinerKind,
    NumericError,
    TheoryParams,
    cfar_threshold,
    closed_form_rates,
    expected_rho,
    marcum_q,
    qd_awgn_exact,
    qd_proposed_awgn,
    qd_proposed_rayleigh,
    qd_rayleigh,
    qfa_approx,
    qfa_exact,
    qfa_proposed,
)
from css_lab import harness, theory
from conftest import forced_one, gaussian_pd

GBAR = 10 ** (-1.5)


def params(kind=CombinerKind.SLC, K=7, N=1000, **kw):
    return TheoryParams(kind=kind, K=K, N=N, gamma_bar=GBAR, **kw)


def predictor_weight(p, lam, snr):
    """Predictor firing probability with all ``p.L`` window events at ``snr``; idle at 0."""
    return float(theory._gaussian_tail(lam, *theory._avg_moments(p, snr)))


def marcum_series_oracle(order, a, b):
    """Poisson-weighted series over regularized gamma tails, truncated ~1e-12."""
    rate = a * a / 2.0
    x = b * b / 2.0
    lo = max(0, int(rate - 60 * np.sqrt(rate) - 20))
    hi = int(rate + 60 * np.sqrt(rate) + 60)
    k = np.arange(lo, hi + 1)
    return float(np.sum(stats.poisson.pmf(k, rate) * special.gammaincc(order + k, x)))


def upper_gamma_quad_oracle(s, x):
    """Adaptive quadrature of the normalized defining integrand."""
    integrand = lambda t: np.exp((s - 1.0) * np.log(t) - t - special.gammaln(s))
    hi = x + 60.0 * np.sqrt(s) + 60.0
    value, _ = integrate.quad(integrand, x, hi, epsabs=1e-13, epsrel=1e-13, limit=400)
    return value


class TestQFunc:
    def test_zero(self):
        assert theory._q(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry(self):
        for x in np.linspace(-6, 6, 25):
            assert theory._q(x) + theory._q(-x) == pytest.approx(1.0, abs=1e-12)

    def test_decile(self):
        # 0.9-quantile of the standard normal, root-found on the erfc series
        assert theory._q(1.2815515655) == pytest.approx(0.1, abs=1e-9)


class TestInvErfc:
    """The inverse-erfc step of ``cfar_threshold``: ``lam = mean + sqrt(2 var) erfcinv(2 rate)``."""

    def test_unit(self):
        # erfcinv(1) = 0: a median target lands exactly on the null mean
        assert special.erfcinv(1.0) == 0.0
        assert cfar_threshold(params(CombinerKind.SLC), 0.5) == 7000.0
        assert cfar_threshold(params(CombinerKind.MRC), 0.5) == 1000.0

    def test_sign_structure(self):
        for kind, mean in ((CombinerKind.SLC, 7000.0), (CombinerKind.MRC, 1000.0)):
            assert cfar_threshold(params(kind), 0.1) > mean
            assert cfar_threshold(params(kind), 0.9) < mean

    def test_round_trip_grid(self):
        for kind in CombinerKind:
            p = params(kind)
            for y in np.linspace(1e-4, 2 - 1e-4, 100):
                target = float(y) / 2.0
                assert qfa_approx(p, cfar_threshold(p, target)) == pytest.approx(target, rel=1e-10)

    def test_domain(self):
        # the target check keeps erfcinv's argument inside (0, 2)
        for kind in CombinerKind:
            for bad in (0.0, 1.0, -0.5, 1.25):
                with pytest.raises(ValueError):
                    cfar_threshold(params(kind), bad)
        with pytest.raises(ValueError, match="SLS branch"):
            cfar_threshold(params(CombinerKind.SLS, K=48), 5e-324)


class TestCfarThreshold:
    def test_slc_median(self):
        params = TheoryParams(CombinerKind.SLC, 7, 1000)
        assert cfar_threshold(params, 0.5) == pytest.approx(7000.0)

    def test_mrc_median(self):
        params = TheoryParams(CombinerKind.MRC, 7, 1000)
        assert cfar_threshold(params, 0.5) == pytest.approx(1000.0)

    def test_round_trip_through_gaussian_tail(self):
        # inverting and re-evaluating the same approximation is exact
        for kind, k in itertools.product(CombinerKind, (1, 7, 48)):
            params = TheoryParams(kind, k, 1000)
            for target in (0.01, 0.05, 0.1, 0.3, 0.5):
                lam = cfar_threshold(params, target)
                assert abs(qfa_approx(params, lam) - target) <= 1e-10

    def test_strictly_decreasing_in_target(self):
        for kind in CombinerKind:
            params = TheoryParams(kind, 7, 1000)
            lams = [cfar_threshold(params, t) for t in np.linspace(0.01, 0.9, 15)]
            assert all(b < a for a, b in zip(lams, lams[1:]))

    def test_k1_thresholds_coincide(self):
        lams = {
            kind: cfar_threshold(TheoryParams(kind, 1, 1000), 0.1) for kind in CombinerKind
        }
        assert lams[CombinerKind.SLC] == pytest.approx(lams[CombinerKind.MRC])
        assert lams[CombinerKind.SLS] == pytest.approx(lams[CombinerKind.MRC])

    def test_rejects_bad_target(self):
        params = TheoryParams(CombinerKind.SLC, 7, 1000)
        for bad in (0.0, 1.0, -0.1, 1.7):
            with pytest.raises(ValueError):
                cfar_threshold(params, bad)

    def test_small_tbw_warns(self):
        params = TheoryParams(CombinerKind.SLC, 2, 64)
        with pytest.warns(UserWarning, match="N=64 is small"):
            cfar_threshold(params, 0.1)


class TestUpperRegGamma:
    """The regularized upper gamma step of ``qfa_exact``, at shape ``K u`` or ``u``."""

    def test_zero_lower_tail(self):
        for kind in CombinerKind:
            assert qfa_exact(params(kind), 0.0) == 1.0
            assert qfa_exact(params(kind), 5e-324) == 1.0

    def test_exponential_special_case(self):
        # N = 2 gives u = 1, so each branch tail is exp(-lam / 2)
        for x in (0.1, 1.0, 4.2):
            for p in (TheoryParams(CombinerKind.SLC, 1, 2), TheoryParams(CombinerKind.MRC, 3, 2)):
                assert qfa_exact(p, 2.0 * x) == pytest.approx(np.exp(-x), rel=1e-12)

    def test_large_argument_vs_quadrature(self):
        oracle = upper_gamma_quad_oracle(500.0, 500.0)
        for p in (TheoryParams(CombinerKind.SLC, 1, 1000), params(CombinerKind.MRC)):
            assert qfa_exact(p, 1000.0) == pytest.approx(oracle, abs=1e-8)

    def test_domain(self):
        # TheoryParams refuses a nonpositive shape; a nonpositive threshold saturates
        with pytest.raises(ValueError):
            TheoryParams(CombinerKind.SLC, K=0, N=1000)
        with pytest.raises(ValueError):
            TheoryParams(CombinerKind.MRC, K=1, N=0)
        for kind in CombinerKind:
            assert qfa_exact(params(kind), -1.0) == 1.0


class TestMarcumQ:
    def test_zero_second_argument(self):
        assert marcum_q(3.0, 1.7, 0.0) == 1.0

    def test_zero_noncentrality_identity(self):
        for m, b in ((1.0, 1.0), (5.0, 3.0), (500.0, 32.0)):
            assert marcum_q(m, 0.0, b) == pytest.approx(
                special.gammaincc(m, b * b / 2.0), rel=1e-12
            )

    def test_unit_case_vs_series(self):
        assert marcum_q(1.0, 1.0, 1.0) == pytest.approx(
            marcum_series_oracle(1.0, 1.0, 1.0), abs=1e-10
        )

    def test_far_past_the_threshold_is_one(self):
        # a noncentrality of 1e20, where scipy's evaluator returns nan; the value is 1
        # within 1e-330 by the bound exp(-(a - b)^2 / 2) / 2
        assert theory._marcum_q_vec(3500, 1e10, 84.0) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            marcum_q(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            marcum_q(1.0, -1.0, 1.0)


class TestExactTails:
    def test_tiny_threshold_saturates(self):
        for kind in CombinerKind:
            assert qfa_exact(params(kind), 1e-12) == pytest.approx(1.0)
            assert qd_awgn_exact(params(kind), 1e-12, GBAR) == pytest.approx(1.0)

    def test_sls_single_branch_equals_mrc(self):
        lam = 1057.0
        assert qfa_exact(params(CombinerKind.SLS, K=1), lam) == pytest.approx(
            qfa_exact(params(CombinerKind.MRC, K=1), lam), rel=1e-12
        )

    def test_slc_cfar_operating_point(self):
        p = params()
        assert 0.09 <= qfa_exact(p, cfar_threshold(p, 0.1)) <= 0.11

    def test_zero_snr_reduces_to_false_alarm(self):
        for kind in CombinerKind:
            lam = cfar_threshold(TheoryParams(kind, 7, 1000), 0.2)
            assert qd_awgn_exact(params(kind), lam, 0.0) == pytest.approx(
                qfa_exact(params(kind), lam), rel=1e-12
            )

    def test_slc_detection_vs_monte_carlo(self):
        # 1e6 draws of the K=3 combined statistic at equal branch SNR
        rng = np.random.default_rng(61)
        k, n, snr = 3, 1000, GBAR
        p = params(CombinerKind.SLC, K=k)
        lam = cfar_threshold(TheoryParams(CombinerKind.SLC, k, n), 0.1)
        draws = rng.noncentral_chisquare(n * k, n * k * snr, size=1_000_000)
        empirical = float((draws >= lam).mean())
        value = qd_awgn_exact(p, lam, snr)
        assert abs(empirical - value) <= 3 * np.sqrt(value * (1 - value) / 1_000_000)


class TestRayleighAverage:
    def test_tiny_threshold(self):
        assert qd_rayleigh(params(), 1e-12) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 8, 16, 128, 1024])
    def test_rule_integrates_monomials_exactly(self, n):
        nodes, weights = theory._clenshaw_curtis_rule(n)
        assert nodes.shape == weights.shape == (n + 1,)
        assert nodes[0] == 0.0 and nodes[-1] == 1.0 and (np.diff(nodes) > 0.0).all()
        worst = max(abs(weights @ nodes**k - 1.0 / (k + 1)) for k in range(n + 1))
        assert worst <= 1e-14

    @pytest.mark.parametrize("n", [2, 8, 16, 128, 1024, 8192])
    def test_rule_weights_are_positive_and_sum_to_one(self, n):
        weights = theory._clenshaw_curtis_rule(n)[1]
        assert (weights > 0.0).all()
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 8, 64, 1024, 4096])
    def test_rules_nest_bit_for_bit(self, n):
        coarse, fine = theory._clenshaw_curtis_rule(n)[0], theory._clenshaw_curtis_rule(2 * n)[0]
        assert np.array_equal(fine[0::2], coarse)

    def test_fading_average_evaluates_each_node_once(self):
        # one panel per integral, steeper exponentials needing larger rules
        rates = np.array([0.5, 20.0, 200.0, 2000.0])
        edges = [[0.0, 1.0]] * rates.size
        seen = [[] for _ in rates]
        calls = []

        def integrand(g, rows):
            calls.append(rows.tolist())
            for row, nodes in zip(rows.tolist(), g):
                seen[row].extend(nodes.tolist())
            return np.exp(-rates[rows, None] * g) * rates[rows, None]

        totals = theory._fading_average(integrand, edges, "test")
        assert totals == pytest.approx(-np.expm1(-rates), abs=1e-9)
        # a panel in i calls ends at n = 8 * 2^(i - 1) intervals: its n + 1 nodes, once each
        final = [theory._QUAD_MIN_NODES << (sum(row in c for c in calls) - 1) for row in range(4)]
        assert len(set(final)) > 2
        assert sum(len(s) for s in seen) == sum(n + 1 for n in final)
        for nodes, n in zip(seen, final):
            assert sorted(nodes) == theory._clenshaw_curtis_rule(n)[0].tolist()

    def test_k1_collapse_across_kinds(self):
        lam = cfar_threshold(TheoryParams(CombinerKind.MRC, 1, 1000), 0.1)
        values = [qd_rayleigh(params(kind, K=1), lam) for kind in CombinerKind]
        assert max(values) - min(values) <= 1e-6

    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_matches_monte_carlo(self, kind):
        rng = np.random.default_rng(62)
        k, n, trials = 7, 1000, 1_000_000
        lam = cfar_threshold(TheoryParams(kind, k, n), 0.1)
        gamma = rng.exponential(GBAR, size=(trials, k))
        if kind is CombinerKind.SLS:
            branch = rng.noncentral_chisquare(n, n * gamma)
            stat = branch.max(axis=1)
        elif kind is CombinerKind.SLC:
            stat = rng.noncentral_chisquare(n * k, n * gamma.sum(axis=1))
        else:
            stat = rng.noncentral_chisquare(n, n * gamma.sum(axis=1))
        empirical = float((stat >= lam).mean())
        value = qd_rayleigh(params(kind), lam)
        assert abs(empirical - value) <= 3 * np.sqrt(value * (1 - value) / trials)


class TestGaussianTails:
    def test_slc_median(self):
        assert qfa_approx(params(), 7000.0) == pytest.approx(0.5, abs=1e-12)

    def test_sls_k1_equals_mrc(self):
        lam = 1031.0
        assert qfa_approx(params(CombinerKind.SLS, K=1), lam) == pytest.approx(
            qfa_approx(params(CombinerKind.MRC, K=1), lam), rel=1e-12
        )

    def test_slc_grid_matches_exact(self):
        p = params()
        for t in np.logspace(np.log10(0.01), np.log10(0.9), 20):
            lam = cfar_threshold(p, float(t))
            assert abs(qfa_approx(p, lam) - qfa_exact(p, lam)) <= 0.01

    def test_detection_zero_snr_degeneracy(self):
        for kind in CombinerKind:
            lam = cfar_threshold(TheoryParams(kind, 7, 1000), 0.3)
            assert gaussian_pd(params(kind), lam, 0.0) == pytest.approx(
                qfa_approx(params(kind), lam), rel=1e-12
            )

    def test_detection_shifted_median(self):
        snr = 0.04
        lam = 7000.0 * (1.0 + snr)
        assert gaussian_pd(params(), lam, snr) == pytest.approx(0.5, abs=1e-12)

    def test_detection_grid_matches_exact(self):
        p = params()
        for t in np.logspace(np.log10(0.01), np.log10(0.9), 20):
            lam = cfar_threshold(p, float(t))
            assert abs(gaussian_pd(p, lam, GBAR) - qd_awgn_exact(p, lam, GBAR)) <= 0.01

    @pytest.mark.parametrize("snr", [1e160, 1e300])
    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_detection_at_huge_snr_is_one(self, kind, snr):
        assert qd_awgn_exact(params(kind), 7100.0, snr) == 1.0

    def test_small_n_warns(self):
        with pytest.warns(UserWarning):
            qfa_approx(params(N=50), 350.0)

    @pytest.mark.parametrize("rho", [1.0, 1.2])
    def test_small_n_warning_names_the_caller(self, rho):
        # each public entry point warns once, from the line that called it
        p = params(N=64, rho=rho)
        calls = (
            lambda: cfar_threshold(p, 0.1),
            lambda: qfa_approx(p, 500.0),
            lambda: qfa_proposed(p, 500.0),
        )
        for call in calls:
            with pytest.warns(UserWarning, match="N=64 is small") as record:
                call()
            assert len(record) == 1
            assert [w.filename for w in record] == [__file__]


class TestWindowMoments:
    def test_idle_window(self):
        # all L events at zero SNR
        mu, var = theory._avg_moments(params(L=15), 0.0)
        assert mu == pytest.approx(7000.0)
        assert var == pytest.approx(2 * 1000 * 7 / 15.0)

    def test_active_window(self):
        mu, _ = theory._avg_moments(params(L=15), GBAR)
        assert mu == pytest.approx(7000.0 * (1.0 + GBAR))

    def test_active_window_matches_simulation(self):
        # 1e5 windows of L active events at fixed per-sensor SNR
        rng = np.random.default_rng(63)
        k, n, length, windows = 7, 1000, 14, 100_000
        p = params(L=length)
        events = rng.noncentral_chisquare(n * k, n * k * GBAR, size=(windows, length))
        averages = events.mean(axis=1)
        mu, var = theory._avg_moments(p, GBAR)
        mean_se = averages.std(ddof=1) / np.sqrt(windows)
        assert abs(averages.mean() - mu) <= 3 * mean_se
        sample_var = averages.var(ddof=1)
        centered = averages - averages.mean()
        var_se = np.sqrt((np.mean(centered**4) - sample_var**2) / windows)
        assert abs(sample_var - var) <= 3 * var_se


class TestPredictorWeight:
    def test_median(self):
        p = params(L=15)
        mu, _ = theory._avg_moments(p, GBAR)
        assert predictor_weight(p, mu, GBAR) == pytest.approx(0.5, abs=1e-12)

    def test_reliable_active_regime(self):
        # probe at the mean combined SNR: essentially certain prediction
        p = params(L=15)
        lam = cfar_threshold(TheoryParams(CombinerKind.SLC, 7, 1000), 0.1)
        assert predictor_weight(p, lam, 7 * GBAR) >= 0.99

    def test_idle_regime(self):
        p = params(L=15)
        lam = cfar_threshold(TheoryParams(CombinerKind.SLC, 7, 1000), 0.1)
        assert predictor_weight(p, lam, 0.0) <= 0.01
        assert predictor_weight(p, lam, 0.0) == pytest.approx(3.4629885e-07, rel=1e-5)


class TestProposedFalseAlarm:
    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_unity_rho_collapse_is_exact(self, kind):
        p = params(kind, rho=1.0)
        for lam in (6900.0, 7000.0, 7151.6):
            lam *= 2 * p.order / 7000.0  # about the statistic's null mean, 7000 for SLC
            assert qfa_proposed(p, lam) == qfa_exact(p, lam)

    def test_idle_window_regime(self):
        p = params(rho=1.2, L=15)
        lam = cfar_threshold(TheoryParams(CombinerKind.SLC, 7, 1000), 0.1)
        assert abs(qfa_proposed(p, lam) - qfa_exact(p, 1.2 * lam)) <= 1e-4

    @pytest.mark.parametrize("rho", [1.05, 1.2])
    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_is_the_detection_mixture_at_zero_snr(self, kind, rho):
        # one mixture gives both columns: an idle window is all L events at zero SNR
        p = params(kind, rho=rho)
        lams = np.array([*Scenario(combiner=kind).cfar_grid(), 0.0, -1.0])
        assert np.array_equal(qfa_proposed(p, lams), qd_proposed_awgn(p, lams, 0.0))

    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_mixes_endpoint_rates_by_idle_window_weight(self, kind):
        # the predictor sees an idle window: L noise-only events, each of mean
        # `scale` and variance 2 scale (SLC sums K sensors, MRC and SLS read one)
        rho, length = 1.2, 15
        p = params(kind, rho=rho, L=length)
        scale = 1000 * 7 if kind is CombinerKind.SLC else 1000
        sd = np.sqrt(2.0 * scale / length)
        targets = [cfar_threshold(p, t) for t in (0.01, 0.1, 0.5)]
        for lam in [*targets, *(scale + z * sd for z in (-2.0, 0.0, 1.0, 3.0))]:
            w = stats.norm.sf((lam - scale) / sd)
            mixture = w * qfa_exact(p, lam / rho) + (1.0 - w) * qfa_exact(p, rho * lam)
            assert qfa_proposed(p, lam) == pytest.approx(mixture, rel=1e-12)

    def test_between_endpoint_rates(self, rng):
        p = params(rho=1.15, L=15)
        for lam in rng.uniform(6800, 7400, 25):
            value = qfa_proposed(p, float(lam))
            lo = qfa_exact(p, 1.15 * float(lam))
            hi = qfa_exact(p, float(lam) / 1.15)
            assert lo - 1e-12 <= value <= hi + 1e-12


class TestProposedDetection:
    def test_ordering_when_predictor_reliable(self):
        # idle window, near-zero predictor: strictly lower false alarm
        lam = cfar_threshold(TheoryParams(CombinerKind.SLC, 7, 1000), 0.1)
        p_idle = params(rho=1.1, L=15)
        assert predictor_weight(p_idle, lam, 0.0) <= 0.01
        assert qfa_proposed(p_idle, lam) < qfa_exact(p_idle, lam)


# every closed form that is elementwise over its thresholds (cfar_threshold: its targets)
ELEMENTWISE_FORMS = {
    "cfar_threshold": cfar_threshold,
    "qfa_exact": qfa_exact,
    "qfa_approx": qfa_approx,
    "qfa_proposed": qfa_proposed,
    "qd_awgn_exact": lambda p, lam: qd_awgn_exact(p, lam, GBAR),
    "qd_proposed_awgn": lambda p, lam: qd_proposed_awgn(p, lam, GBAR),
    "qd_proposed_rayleigh": qd_proposed_rayleigh,
}
ONE_AT_NONPOSITIVE_LAM = {
    "qfa_exact",
    "qfa_proposed",
    "qd_awgn_exact",
    "qd_proposed_awgn",
    "qd_proposed_rayleigh",
}


class TestProposedRayleigh:
    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_unity_rho_collapse(self, kind):
        p = params(kind, rho=1.0)
        lam = 7151.0 * (2 * p.order / 7000.0)  # about the statistic's null mean, 7000 for SLC
        assert qd_proposed_rayleigh(p, lam) == qd_rayleigh(p, lam)

    @pytest.mark.parametrize(
        "kind",
        [
            CombinerKind.SLC,
            CombinerKind.MRC,
            pytest.param(
                CombinerKind.SLS,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason=(
                        "SLS applies the K-fold complement inside the dual-threshold "
                        "fading average (all branches at one SNR) but after it in "
                        "qd_rayleigh (independent branches): at N=1000, -15 dB, a 0.1 "
                        "target and rho=1+1e-9, 0.4188 against 0.5832 at K=7 (0.3408 "
                        "against 0.3790 at K=2)"
                    ),
                ),
            ),
        ],
    )
    def test_tends_to_conventional_as_rho_tends_to_one(self, kind):
        lam = cfar_threshold(TheoryParams(kind, 7, 1000), 0.1)
        near = qd_proposed_rayleigh(params(kind, rho=1.0 + 1e-9), lam)
        assert near == pytest.approx(qd_rayleigh(params(kind), lam), rel=0, abs=1e-6)

    def test_strictly_better_in_reliable_regime(self):
        # grid restricted to targets where the active-window predictor at the
        # mean combined SNR is essentially certain
        prop = params(rho=1.2, L=15)
        conv = params(L=15)
        for t in np.linspace(0.12, 0.5, 10):
            lam = cfar_threshold(conv, float(t))
            assert predictor_weight(conv, lam, GBAR) >= 0.99
            assert qd_proposed_rayleigh(prop, lam) > qd_rayleigh(conv, lam)

    @pytest.mark.parametrize("kind", list(CombinerKind))
    @pytest.mark.parametrize("form", sorted(ELEMENTWISE_FORMS))
    def test_grid_call_equals_scalar_calls(self, form, kind):
        # one call over a grid gives each threshold's own value, bit for bit
        evaluate = ELEMENTWISE_FORMS[form]
        sc = Scenario(combiner=kind)
        default = np.array(sc.cfar_grid())
        if form == "cfar_threshold":  # over targets: the default ones and the pfa_grid floor
            grids = [np.array([np.finfo(float).tiny, *sc.pfa_grid])]
        elif form == "qd_proposed_rayleigh":  # a fading average pass over a dense grid too
            dense = np.linspace(0.9 * default.min(), 1.1 * default.max(), 64)
            dense[7] = 0.0
            grids = [np.array([*default, 0.0, -1.0]), dense]
        else:
            grids = [np.array([*default, 0.0, -1.0])]
        for rho, lams in itertools.product((1.0, 1.2), grids):
            p = sc.theory_params(rho=rho)
            grid = evaluate(p, lams)
            assert grid.shape == lams.shape
            assert np.array_equal(grid, [evaluate(p, lam) for lam in lams.tolist()])
            if form in ONE_AT_NONPOSITIVE_LAM:
                assert (grid[lams <= 0.0] == 1.0).all()
        assert isinstance(evaluate(p, float(lams[0])), float)
        with pytest.raises(ValueError, match="scalar or a 1-D array"):
            evaluate(p, lams.reshape(1, -1))

    def test_matches_pipeline_monte_carlo(self, monkeypatch):
        # full dual-threshold pipeline under sustained activity with the
        # uncertainty factor pinned, block fading per window
        from css_lab.harness import Scenario, derive_rng

        monkeypatch.setattr(harness, "_window_rho", lambda sig_mean: 1.2)
        scenario = Scenario(
            combiner=CombinerKind.SLC,
            uncertainty_db=0.0,
            trials=50_000,
            seed=64,
            fading_block="chain",
        )
        lam = cfar_threshold(scenario.theory_params(), 0.1)
        rate = forced_one(scenario, True, [lam], derive_rng(64, 7))[1][0]
        value = qd_proposed_rayleigh(scenario.theory_params(rho=1.2), lam)
        assert abs(rate - value) <= 3 * np.sqrt(value * (1 - value) / scenario.trials)


class TestMonotonicityAndRange:
    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_all_outputs_monotone_in_threshold(self, kind):
        p_conv = params(kind)
        p_prop = params(kind, rho=1.15)
        lams = [cfar_threshold(p_conv, t) for t in np.linspace(0.01, 0.9, 12)][::-1]
        functions = (
            lambda lam: qfa_exact(p_conv, lam),
            lambda lam: qfa_approx(p_conv, lam),
            lambda lam: qd_awgn_exact(p_conv, lam, GBAR),
            lambda lam: gaussian_pd(p_conv, lam, GBAR),
            lambda lam: qd_rayleigh(p_conv, lam),
            lambda lam: qfa_proposed(p_prop, lam),
        )
        for fn in functions:
            values = [fn(lam) for lam in lams]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


def _oracle_detection_tail(kind, K, n, lam, snr):
    """Exact detection tail at per-sensor SNR ``snr`` through scipy's noncentral CDF."""
    if kind is CombinerKind.SLS:
        return 1.0 - special.chndtr(lam, n, n * snr) ** K
    df = n * K if kind is CombinerKind.SLC else n
    return 1.0 - special.chndtr(lam, df, n * K * snr)


def _oracle_window_weight(kind, K, n, length, lam, snr):
    """Gaussian predictor weight for a window of ``length`` events all at ``snr``."""
    scale, boost = {
        CombinerKind.SLC: (n * K, 1.0 + snr),
        CombinerKind.MRC: (n, 1.0 + K * snr),
        CombinerKind.SLS: (n, 1.0 + snr),
    }[kind]
    mean, var = scale * boost, 2.0 * scale * boost * boost / length
    return 0.5 * special.erfc((lam - mean) / np.sqrt(2.0 * var))


def _oracle_upper_limit(p):
    """Mean plus 40 standard deviations of the aggregate SNR, past the analysis layer's limit."""
    if p.kind is CombinerKind.SLS:
        return p.gamma_bar * 41.0
    return p.gamma_bar * (p.K + 40.0 * np.sqrt(p.K))


def _oracle_integrand(p, lam):
    """A re-implementation of the fading integrands, elementwise over the aggregate SNR.

    Unit noise variance.  SLS averages one branch's exponential SNR (and, at
    ``rho = 1``, the branch tail alone); SLC and MRC average over the
    gamma-distributed K-sensor SNR sum.
    """
    kind, K, n, gbar, rho = p.kind, p.K, p.N, p.gamma_bar, p.rho
    if kind is CombinerKind.SLS:
        per_sensor = 1.0
        log_pdf = lambda g: -g / gbar - np.log(gbar)
    else:
        per_sensor = K
        log_pdf = lambda g: (K - 1) * np.log(g) - g / gbar - special.gammaln(K) - K * np.log(gbar)
    if rho == 1.0 and kind is CombinerKind.SLS:
        integrand = lambda g: (1.0 - special.chndtr(lam, n, n * g)) * np.exp(log_pdf(g))
    else:  # at rho = 1 both SLC/MRC mixture terms are the plain tail
        def integrand(g):
            snr = g / per_sensor
            w = _oracle_window_weight(kind, K, n, p.L, lam, snr)
            mixture = w * _oracle_detection_tail(kind, K, n, lam / rho, snr) + (
                1.0 - w
            ) * _oracle_detection_tail(kind, K, n, rho * lam, snr)
            return mixture * np.exp(log_pdf(g))

    return integrand


def fading_quad_oracle(p, lam):
    """Adaptive quadrature of :func:`_oracle_integrand` over its own wide interval.

    At ``rho = 1`` SLS applies the K-fold complement to the branch average.
    """
    integrand = _oracle_integrand(p, lam)
    value, abserr = integrate.quad(
        integrand, 0.0, _oracle_upper_limit(p), epsabs=1e-12, epsrel=0.0, limit=500
    )
    assert abserr <= 1e-10, (p, lam, abserr)
    if p.rho == 1.0 and p.kind is CombinerKind.SLS:
        return -np.expm1(p.K * np.log1p(-value))
    return value


def dense_fading_reference(p, lam):
    """Fixed 64-node Gauss-Legendre rules on 64 equal parts of each panel.

    The panels split :func:`_oracle_upper_limit`'s interval where the H1
    mean ``N (c + g)`` (``c = K`` for SLC, 1 otherwise) crosses ``lam``,
    ``lam / rho`` and ``rho * lam``.  Unit noise variance, ``rho > 1``.
    """
    offset = p.K if p.kind is CombinerKind.SLC else 1.0
    hi = _oracle_upper_limit(p)
    steps = sorted(t / p.N - offset for t in (lam / p.rho, lam, p.rho * lam))
    edges = [0.0, *(g for g in steps if 0.0 < g < hi), hi]
    x, w = np.polynomial.legendre.leggauss(64)
    integrand = _oracle_integrand(p, lam)
    total = 0.0
    for lo, up in zip(edges[:-1], edges[1:]):
        cuts = np.linspace(lo, up, 65)
        mid, half = (cuts[1:] + cuts[:-1]) / 2.0, (cuts[1:] - cuts[:-1]) / 2.0
        total += float(np.sum(half[:, None] * w * integrand(mid[:, None] + half[:, None] * x)))
    return total


class TestProposedAwgn:
    """The dual-threshold mixture at one SNR, which the Rayleigh average integrates."""

    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_matches_oracle_mixture(self, kind):
        worst = 0.0
        for K in (1, 3, 7):
            for target in (0.01, 0.1, 0.5):
                lam = cfar_threshold(TheoryParams(kind, K, 1000), target)
                for snr_db in (-25.0, -15.0, -5.0):
                    snr = 10 ** (snr_db / 10)
                    for rho in (1.1, 1.2):
                        p = TheoryParams(kind, K=K, N=1000, gamma_bar=snr, rho=rho)
                        w = _oracle_window_weight(kind, K, 1000, p.L, lam, snr)
                        favourable = _oracle_detection_tail(kind, K, 1000, lam / rho, snr)
                        guarded = _oracle_detection_tail(kind, K, 1000, rho * lam, snr)
                        oracle = w * favourable + (1.0 - w) * guarded
                        worst = max(worst, abs(qd_proposed_awgn(p, lam, snr) - oracle))
        assert worst <= 1e-12

    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_unity_rho_is_fixed_threshold_detection(self, kind):
        p = params(kind, rho=1.0)
        for lam in (6900.0, 7151.6, 7400.0):
            lam *= 2 * p.order / 7000.0  # about the statistic's null mean, 7000 for SLC
            assert qd_proposed_awgn(p, lam, GBAR) == qd_awgn_exact(p, lam, GBAR)

    def test_between_endpoint_tails(self, rng):
        p = params(rho=1.15, L=15)
        for lam in rng.uniform(6800, 7800, 25):
            value = qd_proposed_awgn(p, float(lam), GBAR)
            lo = qd_awgn_exact(p, 1.15 * float(lam), GBAR)
            hi = qd_awgn_exact(p, float(lam) / 1.15, GBAR)
            assert lo - 1e-12 <= value <= hi + 1e-12

    def test_domain(self):
        p = params(rho=1.2)
        assert qd_proposed_awgn(p, 0.0, GBAR) == 1.0
        with pytest.raises(ValueError):
            qd_proposed_awgn(p, 7000.0, -0.1)


class TestFadingAverageOracle:
    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_matches_adaptive_quadrature(self, kind):
        worst = 0.0
        for K in (1, 2, 3, 7, 16, 48):
            for target in (0.01, 0.1, 0.5):
                lam = cfar_threshold(TheoryParams(kind, K, 1000), target)
                for snr_db in (-25.0, -15.0, -5.0, 0.0):
                    for rho in (1.0, 1.1):
                        p = TheoryParams(kind, K=K, N=1000, gamma_bar=10 ** (snr_db / 10), rho=rho)
                        value = qd_proposed_rayleigh(p, lam)  # qd_rayleigh at rho = 1
                        worst = max(worst, abs(value - fading_quad_oracle(p, lam)))
        assert worst <= 1e-8


class TestDualThresholdPanels:
    """The dual-threshold average: panels split at the transition SNRs, truncated at a quantile."""

    def test_default_table_matches_dense_reference(self):
        scenario = Scenario()
        rho = expected_rho(scenario.theory_params())
        worst = 0.0
        for kind in CombinerKind:
            sub = replace(scenario, combiner=kind)
            for target in sub.pfa_grid:
                lam = cfar_threshold(sub.theory_params(), target)
                p = sub.theory_params(rho=rho)
                error = abs(qd_proposed_rayleigh(p, lam) - dense_fading_reference(p, lam))
                worst = max(worst, error)
        assert worst <= 1e-12

    def test_default_table_marcum_evaluation_count(self, monkeypatch, tmp_path):
        evaluations = []
        marcum = theory._marcum_q_vec

        def counting(order, a, b):
            evaluations.append(np.broadcast(np.asarray(a), np.asarray(b)).size)
            return marcum(order, a, b)

        monkeypatch.setattr(theory, "_marcum_q_vec", counting)
        run_command("theory-table", parse_scenario(None), tmp_path)
        # 49,248 evaluations in 458 calls with one rule over the whole 40-sigma interval
        count = sum(evaluations)
        assert count <= 20_000, f"{count} Marcum evaluations in {len(evaluations)} calls"

    def test_default_table_ncx2_sf_count(self, monkeypatch, tmp_path):
        # 17,936 with Gauss-Legendre rules, which do not nest, and both tails at every node
        evaluations = []
        ncx2_sf = theory._ufuncs._ncx2_sf

        def counting(x, df, nc):
            evaluations.append(np.broadcast(x, df, nc).size)
            return ncx2_sf(x, df, nc)

        monkeypatch.setattr(theory, "_ufuncs", SimpleNamespace(_ncx2_sf=counting))
        run_command("theory-table", parse_scenario(None), tmp_path)
        count = sum(evaluations)
        assert count <= 9_200, f"{count} noncentral chi-square tails in {len(evaluations)} calls"

    @pytest.mark.parametrize("rho", [1.1, 1.2])
    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_mixture_skips_zero_weight_tails_bit_for_bit(self, kind, rho):
        p = params(kind, rho=rho)
        targets = np.array([0.01, 0.1, 0.5])
        lams = cfar_threshold(TheoryParams(kind, 7, 1000), targets)[:, None]
        snr = theory._fading_upper_limit(p) * theory._clenshaw_curtis_rule(64)[0] / p.snr_shape
        with np.errstate(over="ignore"):
            w = theory._gaussian_tail(lams, *theory._avg_moments(p, snr))
        assert (w == 1.0).any() and ((0.0 < w) & (w < 1.0)).any()
        favourable, guarded = theory._detection_tail(p, np.array([lams / rho, rho * lams]), snr)
        full = w * favourable + (1.0 - w) * guarded
        assert np.array_equal(theory._proposed_mixture(p, lams, snr), full)


class TestConventionalSeries:
    """``qd_rayleigh`` is a negative-binomial series of gamma tails, not a quadrature."""

    @pytest.mark.parametrize("target", [0.0935, 0.286])
    def test_matches_oracle_across_sensor_counts(self, target):
        # the thresholds and counts the equivalence search evaluates
        worst = 0.0
        for K in range(1, 49):
            lam = cfar_threshold(TheoryParams(CombinerKind.SLC, K, 1000), target)
            p = params(CombinerKind.SLC, K=K)
            worst = max(worst, abs(qd_rayleigh(p, lam) - fading_quad_oracle(p, lam)))
        assert worst <= 1e-9

    @pytest.mark.parametrize("kind", list(CombinerKind))
    @pytest.mark.parametrize("snr_db, K", [(-25.0, 1), (0.0, 48)])
    def test_matches_oracle_at_grid_extremes(self, kind, snr_db, K):
        for target in (0.01, 0.1, 0.5):
            lam = cfar_threshold(TheoryParams(kind, K, 1000), target)
            p = TheoryParams(kind, K=K, N=1000, gamma_bar=10 ** (snr_db / 10))
            assert abs(qd_rayleigh(p, lam) - fading_quad_oracle(p, lam)) <= 1e-9

    def test_matches_40_digit_reference_near_certain_detection(self):
        # the adaptive-quad oracle sits 1.0e-10 off here, so it cannot check this point
        mpmath = pytest.importorskip("mpmath")
        K, N = 7, 1000
        lam = cfar_threshold(TheoryParams(CombinerKind.MRC, K, N), 0.01)
        p = TheoryParams(CombinerKind.MRC, K=K, N=N, gamma_bar=1.0)
        with mpmath.workdps(40):
            x = mpmath.mpf(lam) / 2
            success = 1 / (1 + mpmath.mpf(N) / 2)  # NB(K, N gamma_bar / 2) mixing count
            # 1 - pd = sum_j NB(j) P(u + j, x), with P the regularized lower gamma;
            # P falls in j, so the terms left out sum to less than the last P
            miss, mass, j = mpmath.mpf(0), success**K, 0
            while True:
                lower = mpmath.gammainc(p.u + j, 0, x, regularized=True)
                miss += mass * lower
                if lower < mpmath.mpf(10) ** -35:
                    break
                mass *= (K + j) * (1 - success) / (j + 1)
                j += 1
            reference = float(1 - miss)
        assert reference < 1.0 - 1e-10
        assert abs(qd_rayleigh(p, lam) - reference) <= 1e-15

    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_vanishing_snr_reads_the_false_alarm_rate(self, kind):
        # at -200 dB theta = N gamma_bar / 2 is below double epsilon: the count is 0 surely
        p = TheoryParams(kind, K=7, N=1000, gamma_bar=1e-20)
        for target in (0.01, 0.1, 0.5):
            lam = cfar_threshold(p, target)
            assert abs(qd_rayleigh(p, lam) - qfa_exact(p, lam)) <= 1e-12

    def test_makes_no_marcum_evaluations(self, monkeypatch):
        calls = []
        marcum = theory._marcum_q_vec

        def counting(order, a, b):
            calls.append(order)
            return marcum(order, a, b)

        monkeypatch.setattr(theory, "_marcum_q_vec", counting)
        for kind in CombinerKind:
            lam = cfar_threshold(TheoryParams(kind, 7, 1000), 0.1)
            qd_rayleigh(params(kind), lam)
        assert calls == []
        # the dual-threshold average still integrates the Marcum tails
        qd_proposed_rayleigh(params(rho=1.1), 7000.0)
        assert calls


class TestNumericErrorSurface:
    def test_quadrature_failure_raises(self, monkeypatch):
        # a rule cap below the 64 intervals the first panel of this average needs
        monkeypatch.setattr(theory, "_QUAD_MAX_NODES", 32)
        with pytest.raises(NumericError, match="did not converge"):
            qd_proposed_rayleigh(params(rho=1.1), 7000.0)
        # so does a grid call, naming the failing panel
        with pytest.raises(NumericError, match=r"did not converge.*interval="):
            qd_proposed_rayleigh(params(rho=1.1), np.array([0.0, 7000.0, 7300.0]))
        # a non-finite integrand fails at once
        monkeypatch.setattr(
            theory, "_marcum_q_vec", lambda order, a, b: np.full(np.broadcast(a, b).shape, np.nan)
        )
        with pytest.raises(NumericError, match="not finite"):
            qd_proposed_rayleigh(params(rho=1.1), 7000.0)
        with pytest.raises(NumericError, match=r"not finite.*interval="):
            qd_proposed_rayleigh(params(rho=1.1), np.array([7000.0, 7300.0]))

    def test_series_not_finite_raises(self, monkeypatch):
        monkeypatch.setattr(theory.special, "gammaincc", lambda s, x: np.nan)
        with pytest.raises(NumericError, match="not finite"):
            qd_rayleigh(params(), 7000.0)

    def test_series_unmet_bound_raises(self, monkeypatch):
        # a tolerance no error bound can meet widens the window past its term cap
        monkeypatch.setattr(theory, "_SERIES_TOL", -1.0)
        with pytest.raises(NumericError, match="did not converge"):
            qd_rayleigh(params(), 7000.0)
        # so does a term cap below the window the default-scenario series needs
        monkeypatch.undo()
        monkeypatch.setattr(theory, "_SERIES_MAX_TERMS", 64)
        with pytest.raises(NumericError, match="did not converge"):
            qd_rayleigh(params(), 7000.0)


class TestWithoutScipyStats:
    """The analysis layer evaluates scipy.stats' own expressions without importing it."""

    def test_ncx2_sf_and_pdfs_match_stats_bitwise(self):
        rng = np.random.default_rng(65)
        x = rng.uniform(1.0, 4000.0, 500)
        for df in (2.0, 1000.0, 7000.0, 48000.0):
            nc = rng.uniform(1e-3, 500.0, x.size)
            mine = special._ufuncs._ncx2_sf(x, df, nc)
            assert np.array_equal(mine, stats.ncx2.sf(x, df, nc))
        for kind in CombinerKind:
            for K in (1, 2, 3, 7, 16, 48):
                for gbar in (10 ** -2.5, GBAR, 1.0):
                    p = TheoryParams(kind, K=K, N=1000, gamma_bar=gbar)
                    g = theory._fading_upper_limit(p) * theory._clenshaw_curtis_rule(64)[0]
                    if kind is CombinerKind.SLS:
                        expected = stats.expon(scale=gbar).pdf(g)
                    else:
                        expected = stats.gamma(a=K, scale=gbar).pdf(g)
                    assert np.array_equal(theory._aggregate_snr_pdf(p)(g), expected)

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        import os
        import subprocess
        import sys

        import css_lab

        # the package's own parent directory first, so the child imports this copy
        src = os.path.dirname(os.path.dirname(css_lab.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        code = "import sys, css_lab.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.strip() == "False"


class TestParamsValidation:
    def test_field_constraints(self):
        with pytest.raises(ValueError):
            TheoryParams(CombinerKind.SLC, K=0, N=1000)
        with pytest.raises(ValueError):
            TheoryParams(CombinerKind.SLC, K=1, N=999)
        with pytest.raises(ValueError):
            TheoryParams(CombinerKind.SLC, K=1, N=1000, rho=0.9)
        with pytest.raises(ValueError):
            TheoryParams(CombinerKind.SLC, K=1, N=1000, L=1)
        assert TheoryParams(CombinerKind.SLC, K=1, N=1000).u == 500

    @pytest.mark.parametrize(
        "field, value",
        [
            ("channel", "fading"),
            ("uncertainty_db", -1.0),
            ("uncertainty_db", float("nan")),
            ("uncertainty_db", float("inf")),
            ("uncertainty_db", 4000.0),  # the linear half-width overflows
        ],
    )
    def test_channel_and_uncertainty(self, field, value):
        with pytest.raises(ValueError, match=field):
            TheoryParams(CombinerKind.SLC, K=1, N=1000, **{field: value})

    def test_scenario_fills_channel_and_uncertainty(self):
        p = Scenario(channel_kind="awgn", uncertainty_db=2.5).theory_params(rho=1.1)
        assert (p.channel, p.uncertainty_db, p.rho) == ("awgn", 2.5, 1.1)
        assert Scenario().theory_params().channel == "rayleigh"


class TestClosedFormRates:
    """Every curve's theory columns; at rho = 1 they are the fixed-threshold forms."""

    @pytest.mark.parametrize("channel", ["rayleigh", "awgn"])
    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_unity_rho_is_the_fixed_threshold_rule(self, kind, channel):
        scenario = Scenario(combiner=kind, channel_kind=channel)
        p = scenario.theory_params()
        lams = [*scenario.cfar_grid(), 0.0]  # the default grid and one lam <= 0
        pfa, pd = closed_form_rates(p, lams)
        assert pfa == [qfa_exact(p, lam) for lam in lams]
        if channel == "awgn":
            assert pd == [qd_awgn_exact(p, lam, p.gamma_bar) for lam in lams]
        else:
            assert pd == [qd_rayleigh(p, lam) for lam in lams]

    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_channel_picks_the_detection_form(self, kind):
        p = params(kind, rho=1.2)
        lams = [cfar_threshold(p, t) for t in (0.05, 0.1, 0.3)]
        pfa, pd = closed_form_rates(p, lams)
        assert pfa == [qfa_proposed(p, lam) for lam in lams]
        assert pd == qd_proposed_rayleigh(p, np.array(lams)).tolist()
        awgn = replace(p, channel="awgn")
        assert closed_form_rates(awgn, lams) == (pfa, [qd_proposed_awgn(p, lam, GBAR) for lam in lams])


class TestExpectedRho:
    def test_zero_uncertainty(self):
        assert expected_rho(Scenario(uncertainty_db=0.0).theory_params()) == 1.0

    @pytest.mark.parametrize("history_len", [2, 15, 100])
    @pytest.mark.parametrize("num_crs", [1, 7, 48])
    @pytest.mark.parametrize("uncertainty_db", [0.5, 1.0, 3.0, 10.0])
    def test_matches_direct_simulation(self, uncertainty_db, num_crs, history_len):
        scenario = Scenario(uncertainty_db=uncertainty_db, num_crs=num_crs, history_len=history_len)
        # about 2M variances per geometry, and at least 1000 windows
        windows = max(1000, (1 << 21) // (num_crs * history_len))
        rng = np.random.default_rng((int(uncertainty_db * 10), num_crs, history_len))
        shape = (windows, history_len, num_crs)
        rho = harness._window_rho(harness._noise_variances(rng, uncertainty_db, shape).mean(-1))
        se = rho.std(ddof=1) / np.sqrt(windows)
        assert abs(expected_rho(scenario.theory_params()) - rho.mean()) <= 4.0 * se

    def test_default_matches_finer_lattices(self, monkeypatch):
        value = expected_rho(Scenario().theory_params())
        monkeypatch.setattr(theory, "_RHO_BINS", tuple(4 * b for b in theory._RHO_BINS))
        assert abs(value - expected_rho(Scenario().theory_params())) <= 1e-7

    def test_unconverged_lattice_raises(self):
        # one sensor and L = 2 converge least: the error estimate at 20 dB is about 0.04
        with pytest.raises(NumericError, match="expected_rho did not converge"):
            expected_rho(Scenario(uncertainty_db=20.0, num_crs=1, history_len=2).theory_params())

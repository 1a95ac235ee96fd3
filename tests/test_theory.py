"""Analysis layer: special functions, exact/approximate tails, fading averages,
window predictor statistics and the dual-threshold probabilities."""

import numpy as np
import pytest
from scipy import integrate, special, stats

from css_lab.fusion import CombinerKind, FusionConfig, cfar_threshold
from css_lab.theory import (
    NumericError,
    TheoryParams,
    avg_stats,
    inv_erfc,
    marcum_q,
    predictor_prob,
    q_func,
    qd_awgn_approx,
    qd_awgn_exact,
    qd_proposed_awgn,
    qd_proposed_rayleigh,
    qd_rayleigh,
    qfa_approx,
    qfa_exact,
    qfa_proposed,
    upper_reg_gamma,
)
from css_lab import theory

GBAR = 10 ** (-1.5)


def params(kind=CombinerKind.SLC, K=7, N=1000, **kw):
    return TheoryParams(kind=kind, K=K, N=N, gamma_bar=GBAR, **kw)


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
        assert q_func(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry(self):
        for x in np.linspace(-6, 6, 25):
            assert q_func(x) + q_func(-x) == pytest.approx(1.0, abs=1e-12)

    def test_decile(self):
        # 0.9-quantile of the standard normal, root-found on the erfc series
        assert q_func(1.2815515655) == pytest.approx(0.1, abs=1e-9)


class TestInvErfc:
    def test_unit(self):
        assert inv_erfc(1.0) == 0.0

    def test_sign_structure(self):
        assert inv_erfc(0.2) > 0.0
        assert inv_erfc(1.8) < 0.0

    def test_round_trip_grid(self):
        for y in np.linspace(1e-4, 2 - 1e-4, 100):
            assert special.erfc(inv_erfc(float(y))) == pytest.approx(y, rel=1e-10)

    def test_domain(self):
        for bad in (0.0, 2.0, -1.0, 2.5):
            with pytest.raises(ValueError):
                inv_erfc(bad)


class TestUpperRegGamma:
    def test_zero_lower_tail(self):
        assert upper_reg_gamma(3.7, 0.0) == 1.0

    def test_exponential_special_case(self):
        for x in (0.1, 1.0, 4.2):
            assert upper_reg_gamma(1.0, x) == pytest.approx(np.exp(-x), rel=1e-12)

    def test_large_argument_vs_quadrature(self):
        assert upper_reg_gamma(500.0, 500.0) == pytest.approx(
            upper_gamma_quad_oracle(500.0, 500.0), abs=1e-8
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            upper_reg_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            upper_reg_gamma(1.0, -1.0)


class TestMarcumQ:
    def test_zero_second_argument(self):
        assert marcum_q(3.0, 1.7, 0.0) == 1.0

    def test_zero_noncentrality_identity(self):
        for m, b in ((1.0, 1.0), (5.0, 3.0), (500.0, 32.0)):
            assert marcum_q(m, 0.0, b) == pytest.approx(
                upper_reg_gamma(m, b * b / 2.0), rel=1e-12
            )

    def test_unit_case_vs_series(self):
        assert marcum_q(1.0, 1.0, 1.0) == pytest.approx(
            marcum_series_oracle(1.0, 1.0, 1.0), abs=1e-10
        )

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
        cfg = FusionConfig(CombinerKind.SLC, 7, 1000)
        lam = cfar_threshold(cfg, 0.1)
        assert 0.09 <= qfa_exact(params(), lam) <= 0.11

    def test_zero_snr_reduces_to_false_alarm(self):
        for kind in CombinerKind:
            lam = cfar_threshold(FusionConfig(kind, 7, 1000), 0.2)
            assert qd_awgn_exact(params(kind), lam, 0.0) == pytest.approx(
                qfa_exact(params(kind), lam), rel=1e-12
            )

    def test_slc_detection_vs_monte_carlo(self):
        # 1e6 draws of the K=3 combined statistic at equal branch SNR
        rng = np.random.default_rng(61)
        k, n, snr = 3, 1000, GBAR
        p = params(CombinerKind.SLC, K=k)
        lam = cfar_threshold(FusionConfig(CombinerKind.SLC, k, n), 0.1)
        draws = rng.noncentral_chisquare(n * k, n * k * snr, size=1_000_000)
        empirical = float((draws >= lam).mean())
        value = qd_awgn_exact(p, lam, snr)
        assert abs(empirical - value) <= 3 * np.sqrt(value * (1 - value) / 1_000_000)


class TestRayleighAverage:
    def test_tiny_threshold(self):
        assert qd_rayleigh(params(), 1e-12) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 128, 1024])
    def test_node_set_matches_scipy(self, n):
        nodes, weights = theory._legendre_rule(n)
        x, w = special.roots_legendre(n)
        assert np.max(np.abs(nodes - 0.5 * (x + 1.0))) <= 1e-15
        # the end weights are tiny; both rules lose relative digits there
        assert np.max(np.abs(weights - 0.5 * w) / w) <= 1e-7
        assert weights.sum() == pytest.approx(1.0, abs=1e-13)

    def test_k1_collapse_across_kinds(self):
        lam = cfar_threshold(FusionConfig(CombinerKind.MRC, 1, 1000), 0.1)
        values = [qd_rayleigh(params(kind, K=1), lam) for kind in CombinerKind]
        assert max(values) - min(values) <= 1e-6

    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_matches_monte_carlo(self, kind):
        rng = np.random.default_rng(62)
        k, n, trials = 7, 1000, 1_000_000
        lam = cfar_threshold(FusionConfig(kind, k, n), 0.1)
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
        cfg = FusionConfig(CombinerKind.SLC, 7, 1000)
        for t in np.logspace(np.log10(0.01), np.log10(0.9), 20):
            lam = cfar_threshold(cfg, float(t))
            assert abs(qfa_approx(p, lam) - qfa_exact(p, lam)) <= 0.01

    def test_detection_zero_snr_degeneracy(self):
        for kind in CombinerKind:
            lam = cfar_threshold(FusionConfig(kind, 7, 1000), 0.3)
            assert qd_awgn_approx(params(kind), lam, 0.0) == pytest.approx(
                qfa_approx(params(kind), lam), rel=1e-12
            )

    def test_detection_shifted_median(self):
        snr = 0.04
        lam = 7000.0 * (1.0 + snr)
        assert qd_awgn_approx(params(), lam, snr) == pytest.approx(0.5, abs=1e-12)

    def test_detection_grid_matches_exact(self):
        p = params()
        cfg = FusionConfig(CombinerKind.SLC, 7, 1000)
        for t in np.logspace(np.log10(0.01), np.log10(0.9), 20):
            lam = cfar_threshold(cfg, float(t))
            assert abs(qd_awgn_approx(p, lam, GBAR) - qd_awgn_exact(p, lam, GBAR)) <= 0.01

    def test_small_n_warns(self):
        with pytest.warns(UserWarning):
            qfa_approx(params(N=50), 350.0)


class TestAvgStats:
    def test_idle_window(self):
        p = params(L=15, M=0)
        mu, var = avg_stats(p, GBAR)
        assert mu == pytest.approx(7000.0)
        assert var == pytest.approx(2 * 1000 * 7 / 15.0)

    def test_active_window(self):
        p = params(L=15, M=15)
        mu, _ = avg_stats(p, GBAR)
        assert mu == pytest.approx(7000.0 * (1.0 + GBAR))

    def test_requires_window_composition(self):
        with pytest.raises(ValueError):
            avg_stats(params(), GBAR)

    def test_m_range_validation(self):
        with pytest.raises(ValueError):
            params(L=10, M=11)

    def test_half_active_window_matches_simulation(self):
        # 1e5 windows, M=L/2 active events at fixed per-sensor SNR
        rng = np.random.default_rng(63)
        k, n, length, m, windows = 7, 1000, 14, 7, 100_000
        p = params(L=length, M=m)
        active = rng.noncentral_chisquare(n * k, n * k * GBAR, size=(windows, m))
        idle = rng.chisquare(n * k, size=(windows, length - m))
        averages = np.hstack([active, idle]).mean(axis=1)
        mu, var = avg_stats(p, GBAR)
        mean_se = averages.std(ddof=1) / np.sqrt(windows)
        assert abs(averages.mean() - mu) <= 3 * mean_se
        sample_var = averages.var(ddof=1)
        centered = averages - averages.mean()
        var_se = np.sqrt((np.mean(centered**4) - sample_var**2) / windows)
        assert abs(sample_var - var) <= 3 * var_se


class TestPredictorProb:
    def test_median(self):
        p = params(L=15, M=15)
        mu, _ = avg_stats(p, GBAR)
        assert predictor_prob(p, mu, GBAR) == pytest.approx(0.5, abs=1e-12)

    def test_reliable_active_regime(self):
        # probe at the mean combined SNR: essentially certain prediction
        p = params(L=15, M=15)
        lam = cfar_threshold(FusionConfig(CombinerKind.SLC, 7, 1000), 0.1)
        assert predictor_prob(p, lam, 7 * GBAR) >= 0.99

    def test_idle_regime(self):
        p = params(L=15, M=0)
        lam = cfar_threshold(FusionConfig(CombinerKind.SLC, 7, 1000), 0.1)
        assert predictor_prob(p, lam, 0.0) <= 0.01
        assert predictor_prob(p, lam, 0.0) == pytest.approx(3.4629885e-07, rel=1e-5)


class TestProposedFalseAlarm:
    def test_unity_rho_collapse_is_exact(self):
        p = params(rho=1.0)
        for lam in (6900.0, 7000.0, 7151.6):
            assert qfa_proposed(p, lam) == qfa_approx(p, lam)

    def test_idle_window_regime(self):
        p = params(rho=1.2, L=15)
        lam = cfar_threshold(FusionConfig(CombinerKind.SLC, 7, 1000), 0.1)
        assert abs(qfa_proposed(p, lam) - qfa_approx(p, 1.2 * lam)) <= 1e-4

    def test_between_endpoint_rates(self, rng):
        p = params(rho=1.15, L=15)
        for lam in rng.uniform(6800, 7400, 25):
            value = qfa_proposed(p, float(lam))
            lo = qfa_approx(p, 1.15 * float(lam))
            hi = qfa_approx(p, float(lam) / 1.15)
            assert lo - 1e-12 <= value <= hi + 1e-12


class TestProposedDetection:
    def test_unity_rho_collapse(self):
        p = params(rho=1.0)
        lam = 7100.0
        assert qd_proposed_awgn(p, lam, GBAR) == qd_awgn_approx(p, lam, GBAR)

    def test_active_window_regime(self):
        p = params(rho=1.2, L=15)
        lam = cfar_threshold(FusionConfig(CombinerKind.SLC, 7, 1000), 0.1)
        strong = 7 * GBAR  # mean combined SNR as the equal-per-sensor probe
        assert abs(qd_proposed_awgn(p, lam, strong) - qd_awgn_approx(p, lam / 1.2, strong)) <= 1e-4

    def test_bracketed_by_endpoints(self, rng):
        p = params(rho=1.25, L=15)
        for lam in rng.uniform(6800, 7500, 25):
            value = qd_proposed_awgn(p, float(lam), GBAR)
            lo = qd_awgn_approx(p, 1.25 * float(lam), GBAR)
            hi = qd_awgn_approx(p, float(lam) / 1.25, GBAR)
            assert lo - 1e-12 <= value <= hi + 1e-12

    def test_ordering_when_predictor_reliable(self):
        # active window, near-certain predictor: strictly better detection;
        # idle window, near-zero predictor: strictly lower false alarm
        p_act = params(rho=1.1, L=15, M=15)
        lam = cfar_threshold(FusionConfig(CombinerKind.SLC, 7, 1000), 0.1)
        snr = 0.05
        assert predictor_prob(p_act, lam, snr) >= 0.99
        assert qd_proposed_awgn(p_act, lam, snr) > qd_awgn_approx(p_act, lam, snr)
        p_idle = params(rho=1.1, L=15, M=0)
        assert predictor_prob(p_idle, lam, 0.0) <= 0.01
        assert qfa_proposed(p_idle, lam) < qfa_approx(p_idle, lam)


class TestProposedRayleigh:
    def test_unity_rho_collapse(self):
        p = params(rho=1.0)
        lam = 7151.0
        assert qd_proposed_rayleigh(p, lam) == qd_rayleigh(p, lam)

    def test_strictly_better_in_reliable_regime(self):
        # grid restricted to targets where the active-window predictor at the
        # mean combined SNR is essentially certain
        prop = params(rho=1.2, L=15)
        conv = params(L=15)
        cfg = FusionConfig(CombinerKind.SLC, 7, 1000)
        gate = params(L=15, M=15)
        for t in np.linspace(0.12, 0.5, 10):
            lam = cfar_threshold(cfg, float(t))
            assert predictor_prob(gate, lam, GBAR) >= 0.99
            assert qd_proposed_rayleigh(prop, lam) > qd_rayleigh(conv, lam)

    def test_matches_pipeline_monte_carlo(self):
        # full dual-threshold pipeline under sustained activity with the
        # uncertainty factor pinned, block fading per window
        from css_lab.harness import Scenario, derive_rng, forced_rates

        scenario = Scenario(
            combiner=CombinerKind.SLC,
            uncertainty_db=0.0,
            trials=50_000,
            seed=64,
            pu_model="forced_h1",
            fading_block="chain",
        )
        lam = cfar_threshold(scenario.fusion_config(), 0.1)
        rates = forced_rates(scenario, True, lam, derive_rng(64, 7), rho_override=1.2)
        value = qd_proposed_rayleigh(scenario.theory_params(rho=1.2), lam)
        assert abs(rates.proposed - value) <= 3 * np.sqrt(value * (1 - value) / scenario.trials)


class TestMonotonicityAndRange:
    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_all_outputs_monotone_in_threshold(self, kind):
        p_conv = params(kind)
        p_prop = params(kind, rho=1.15)
        cfg = FusionConfig(kind, 7, 1000)
        lams = [cfar_threshold(cfg, t) for t in np.linspace(0.01, 0.9, 12)][::-1]
        functions = (
            lambda lam: qfa_exact(p_conv, lam),
            lambda lam: qfa_approx(p_conv, lam),
            lambda lam: qd_awgn_exact(p_conv, lam, GBAR),
            lambda lam: qd_awgn_approx(p_conv, lam, GBAR),
            lambda lam: qd_rayleigh(p_conv, lam),
            lambda lam: qfa_proposed(p_prop, lam),
            lambda lam: qd_proposed_awgn(p_prop, lam, GBAR),
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


def fading_quad_oracle(p, lam):
    """Adaptive quadrature of a scalar re-implementation of the fading integrands.

    Unit noise variance.  SLS averages one branch's exponential SNR (and, at
    ``rho = 1``, applies the K-fold complement to the branch average); SLC
    and MRC average over the gamma-distributed K-sensor SNR sum.
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

    hi = theory._fading_upper_limit(p)
    value, abserr = integrate.quad(integrand, 0.0, hi, epsabs=1e-12, epsrel=0.0, limit=500)
    assert abserr <= 1e-10, (p, lam, abserr)
    if rho == 1.0 and kind is CombinerKind.SLS:
        return -np.expm1(K * np.log1p(-value))
    return value


class TestFadingAverageOracle:
    @pytest.mark.parametrize("kind", list(CombinerKind))
    def test_matches_adaptive_quadrature(self, kind):
        worst = 0.0
        for K in (1, 2, 3, 7, 16, 48):
            for target in (0.01, 0.1, 0.5):
                lam = cfar_threshold(FusionConfig(kind, K, 1000), target)
                for snr_db in (-25.0, -15.0, -5.0, 0.0):
                    for rho in (1.0, 1.1):
                        p = TheoryParams(kind, K=K, N=1000, gamma_bar=10 ** (snr_db / 10), rho=rho)
                        value = qd_proposed_rayleigh(p, lam)  # qd_rayleigh at rho = 1
                        worst = max(worst, abs(value - fading_quad_oracle(p, lam)))
        assert worst <= 1e-8


class TestNumericErrorSurface:
    def test_quadrature_failure_raises(self, monkeypatch):
        # a node cap below what the default-scenario average needs
        monkeypatch.setattr(theory, "_QUAD_MAX_NODES", 32)
        with pytest.raises(NumericError, match="did not converge"):
            qd_rayleigh(params(), 7000.0)
        # a non-finite integrand fails at once
        monkeypatch.setattr(theory, "_marcum_q_vec", lambda order, a, b: np.full(np.shape(a), np.nan))
        with pytest.raises(NumericError, match="not finite"):
            qd_rayleigh(params(), 7000.0)


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

"""Closed-form false-alarm and detection analysis of the fusion statistics.

Statistic model
---------------
With ``N`` real noise degrees of freedom per sensing event and per-sample
noise variance ``sigma_sq``, one sensor's energy is
``sigma_sq * chi2(N)`` under H0 and noncentral with noncentrality
``N * snr`` under H1, where ``snr`` is that sensor's per-sample linear SNR.
From this follow, per combiner (``u = N/2``, ``K`` sensors):

* SLC: exact null ``sigma_sq * chi2(N K)``; detection via the generalized
  Marcum Q of order ``K u``.
* MRC: signal-level ratio combining is equivalent to a single detector
  whose SNR is the sum of branch SNRs, so the null is ``sigma_sq * chi2(N)``
  independent of ``K``.
* SLS: the maximum of ``K`` independent branch statistics; probabilities
  are one minus the K-th power of the branch complement.

Gaussian approximations replace each (non)central chi-square with a normal
matched to mean ``m (1 + snr)`` and variance ``2 m (1 + snr)^2 sigma_sq**2``
style moments, which is where the closed-form CFAR inversion comes from.

SNR argument convention: every function below takes the *per-sensor*
average linear SNR, assumed equal across sensors; combiner-level scaling
(``K`` sums for SLC totals and MRC coherent gain) happens internally.
Rayleigh-fading averages integrate over the combiner's aggregate SNR
density (gamma with shape ``K`` for SLC/MRC, exponential per branch for
SLS), truncated where all but ~1e-12 of its mass is covered.  Each average
is a fixed-node Gauss-Legendre rule on that interval: the integrand is
evaluated once per rule as one array over the nodes, the node count doubles
from 16 until the n- and 2n-node values agree within ``_QUAD_TOL``, and
``NumericError`` is raised if they never do.  Node sets are built on first
use and cached per n.

The dual-threshold scheme's probabilities are convex combinations of the
conventional ones at ``lambda/rho`` and ``rho*lambda`` weighted by the
probability that the window-average predictor fires, itself Gaussian with
moments determined by how many of the ``L`` window events carry signal
(``M``).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import special, stats

from .fusion import CombinerKind

GAUSSIAN_WARN_FLOOR = 100  # CLT-based formulas degrade below this many samples
_QUAD_TOL = 1e-9  # absolute agreement of the n- and 2n-node fading averages
_QUAD_MIN_NODES = 16
_QUAD_MAX_NODES = 8192
_NEWTON_STEPS = 4  # root refinement steps when a node set is built
_TAIL_SIGMAS = 40.0  # truncation point of the fading integrals, in gamma-std units


class NumericError(RuntimeError):
    """Raised when a fading average fails to converge to its requested tolerance."""


@dataclass(frozen=True)
class TheoryParams:
    """Parameter bundle for the analysis layer.

    ``M`` is the number of signal-bearing events assumed in the predictor
    window; ``None`` defers to the operation's natural regime (0 for
    false-alarm quantities, ``L`` for detection quantities).
    """

    kind: CombinerKind
    K: int
    N: int
    sigma_sq: float = 1.0
    gamma_bar: float = 1.0
    rho: float = 1.0
    L: int = 15
    M: int | None = None

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.N < 2 or self.N % 2 != 0:
            raise ValueError("N must be an even integer >= 2")
        if self.sigma_sq <= 0.0:
            raise ValueError("sigma_sq must be positive")
        if self.gamma_bar <= 0.0:
            raise ValueError("gamma_bar must be positive")
        if self.rho < 1.0:
            raise ValueError("rho must be at least 1")
        if self.L < 2:
            raise ValueError("L must be at least 2")
        if self.M is not None and not 0 <= self.M <= self.L:
            raise ValueError("M must lie in [0, L]")

    @property
    def u(self) -> int:
        return self.N // 2


def _q(x):
    """Standard normal upper-tail probability, elementwise."""
    return 0.5 * special.erfc(x / np.sqrt(2.0))


def q_func(x: float) -> float:
    """Standard normal upper-tail probability Q(x)."""
    return float(_q(x))


def inv_erfc(y: float) -> float:
    """Inverse of the complementary error function on (0, 2)."""
    if not 0.0 < y < 2.0:
        raise ValueError("inv_erfc argument must lie strictly inside (0, 2)")
    return float(special.erfcinv(y))


def upper_reg_gamma(s: float, x: float) -> float:
    """Regularized upper incomplete gamma function Gamma(s, x) / Gamma(s)."""
    if s <= 0.0:
        raise ValueError("s must be positive")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    return float(special.gammaincc(s, x))


def _marcum_q_vec(order: float, a, b) -> np.ndarray:
    """Generalized Marcum Q of one order, elementwise over broadcast ``a`` and ``b``.

    ``Q_m(a, b) = P(chi2'(2m, a^2) >= b^2)``, through the noncentral
    chi-square survival function.  ``b == 0`` gives 1 and ``a == 0`` the
    regularized upper gamma tail.  Where even the central CDF (an upper
    bound on the noncentral one) underflows to zero the value is exactly 1
    in double precision, and the boost evaluator would overflow internally.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a.shape
    a, b = a.ravel(), b.ravel()
    x = b * b
    out = np.ones(a.shape)
    central = (b != 0.0) & (a == 0.0)
    out[central] = special.gammaincc(order, x[central] / 2.0)
    rest = (b != 0.0) & (a != 0.0)
    rest[rest] = special.chdtr(2.0 * order, x[rest]) != 0.0
    out[rest] = stats.ncx2.sf(x[rest], 2.0 * order, a[rest] * a[rest])
    return out.reshape(shape)


def marcum_q(order: float, a: float, b: float) -> float:
    """Generalized Marcum Q function of the given order.

    Evaluated through the noncentral chi-square survival function:
    ``Q_m(a, b) = P(chi2'(2m, a^2) >= b^2)``.
    """
    if order < 1.0:
        raise ValueError("order must be at least 1")
    if a < 0.0 or b < 0.0:
        raise ValueError("a and b must be nonnegative")
    return float(_marcum_q_vec(order, a, b)[()])


def _sls_complement_power(branch_prob, k: int):
    """1 - (1 - p)**k computed stably for small p, elementwise; exactly 1 at p = 1."""
    p = np.clip(branch_prob, 0.0, 1.0)
    saturated = p >= 1.0
    return np.where(saturated, 1.0, -np.expm1(k * np.log1p(-np.where(saturated, 0.0, p))))


def qfa_exact(p: TheoryParams, lam: float) -> float:
    """Exact chi-square false-alarm probability of the combined statistic."""
    if lam <= 0.0:
        return 1.0
    x = lam / (2.0 * p.sigma_sq)
    if p.kind is CombinerKind.SLC:
        return upper_reg_gamma(p.K * p.u, x)
    branch = upper_reg_gamma(p.u, x)
    if p.kind is CombinerKind.MRC:
        return branch
    return float(_sls_complement_power(branch, p.K))


def _detection_tail(p: TheoryParams, lam: float, snr) -> np.ndarray:
    """Exact detection probability at threshold ``lam > 0``, elementwise over per-sensor SNRs."""
    b = np.sqrt(lam / p.sigma_sq)
    if p.kind is CombinerKind.SLS:
        return _sls_complement_power(_marcum_q_vec(p.u, np.sqrt(p.N * snr), b), p.K)
    order = p.K * p.u if p.kind is CombinerKind.SLC else p.u
    return _marcum_q_vec(order, np.sqrt(p.N * p.K * snr), b)


def qd_awgn_exact(p: TheoryParams, lam: float, snr: float) -> float:
    """Exact fixed-SNR detection probability via the Marcum Q function.

    ``snr`` is the common per-sensor per-sample SNR; zero reduces to the
    false-alarm probability.
    """
    if snr < 0.0:
        raise ValueError("snr must be nonnegative")
    if lam <= 0.0:
        return 1.0
    return float(_detection_tail(p, lam, snr)[()])


def _warn_small_n(p: TheoryParams) -> None:
    if p.N < GAUSSIAN_WARN_FLOOR:
        warnings.warn(
            f"N={p.N} is small; Gaussian approximations may be inaccurate",
            stacklevel=3,
        )


def _gaussian_tail(lam: float, mean, var):
    return _q((lam - mean) / np.sqrt(var))


def _h1_moments(p: TheoryParams, snr):
    """Mean and variance of the combined statistic with every sensor at ``snr``."""
    s2 = p.sigma_sq
    if p.kind is CombinerKind.SLC:
        scale = p.N * p.K
        boost = 1.0 + snr
    elif p.kind is CombinerKind.MRC:
        scale = p.N
        boost = 1.0 + p.K * snr
    else:  # SLS moments are per branch; the K-fold max is applied separately
        scale = p.N
        boost = 1.0 + snr
    return scale * s2 * boost, 2.0 * scale * s2 * s2 * boost * boost


def qfa_approx(p: TheoryParams, lam: float) -> float:
    """Gaussian (CLT) false-alarm probability of the combined statistic."""
    return qd_awgn_approx(p, lam, 0.0)


def qd_awgn_approx(p: TheoryParams, lam: float, snr: float) -> float:
    """Gaussian fixed-SNR detection probability of the combined statistic."""
    if snr < 0.0:
        raise ValueError("snr must be nonnegative")
    _warn_small_n(p)
    mean, var = _h1_moments(p, snr)
    tail = _gaussian_tail(lam, mean, var)
    if p.kind is CombinerKind.SLS:
        tail = _sls_complement_power(tail, p.K)
    return float(tail)


def _fading_upper_limit(p: TheoryParams) -> float:
    """Truncation point covering all but ~1e-12 of the aggregate SNR mass."""
    if p.kind is CombinerKind.SLS:
        return p.gamma_bar * (1.0 + _TAIL_SIGMAS)
    return p.gamma_bar * (p.K + _TAIL_SIGMAS * np.sqrt(p.K))


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], built on first use.

    Newton's method on ``P_n`` from the estimates ``cos(pi (k - 1/4) / (n + 1/2))``,
    which are within about ``1/(8 n^2)`` of the roots, so a few steps reach rounding
    level.  ``special.roots_legendre`` gives the same rule through a LAPACK
    eigen-solve, and its first call alone adds about 0.5 MB of resident library
    code to a run that otherwise never calls LAPACK.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))  # ascending
    for _ in range(_NEWTON_STEPS):
        pn, pm = special.eval_legendre(n, x), special.eval_legendre(n - 1, x)
        x = x - pn * (x * x - 1.0) / (n * (x * pn - pm))
    # w = 2 / ((1 - x^2) P_n'(x)^2), with P_n' = n P_{n-1} / (1 - x^2) at a root
    w = 2.0 * (1.0 - x) * (1.0 + x) / (n * special.eval_legendre(n - 1, x)) ** 2
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _fading_average(integrand, hi: float, what: str) -> float:
    """Integrate a vectorized ``integrand`` over ``[0, hi]``.

    Fixed-node Gauss-Legendre rules of ``n = 16, 32, ...`` nodes; the
    integrand is evaluated once per rule, as one array over its nodes.  The
    2n-node value is returned once it agrees with the n-node value within
    ``_QUAD_TOL``; that difference estimates the n-node error, and the
    2n-node error is far smaller for the smooth integrands used here.
    """
    previous = None
    n = _QUAD_MIN_NODES
    while n <= _QUAD_MAX_NODES:
        nodes, weights = _legendre_rule(n)
        value = hi * float(weights @ integrand(hi * nodes))
        if not np.isfinite(value):
            raise NumericError(f"quadrature for {what} is not finite with {n} nodes: {value!r}")
        if previous is not None and abs(value - previous) <= _QUAD_TOL:
            return value
        previous, n = value, 2 * n
    raise NumericError(
        f"quadrature for {what} did not converge: {previous!r} with {n // 2} nodes, "
        f"interval=(0.0, {hi!r})"
    )


def _aggregate_snr_pdf(p: TheoryParams):
    """Density of the combiner's aggregate SNR under Rayleigh branch fading."""
    if p.kind is CombinerKind.SLS:
        return stats.expon(scale=p.gamma_bar).pdf
    return stats.gamma(a=p.K, scale=p.gamma_bar).pdf


def qd_rayleigh(p: TheoryParams, lam: float) -> float:
    """Detection probability averaged over Rayleigh fading.

    SLC and MRC integrate the exact Marcum tail against the gamma density
    of the summed branch SNRs; SLS averages one branch against the
    exponential density and applies the K-fold complement (independent,
    identically faded branches).
    """
    if lam <= 0.0:
        return 1.0
    pdf = _aggregate_snr_pdf(p)
    hi = _fading_upper_limit(p)
    b = np.sqrt(lam / p.sigma_sq)
    if p.kind is CombinerKind.SLS:
        branch = _fading_average(
            lambda g: _marcum_q_vec(p.u, np.sqrt(p.N * g), b) * pdf(g),
            hi,
            "SLS branch fading average",
        )
        return float(_sls_complement_power(branch, p.K))
    order = p.K * p.u if p.kind is CombinerKind.SLC else p.u
    return _fading_average(
        lambda g: _marcum_q_vec(order, np.sqrt(p.N * g), b) * pdf(g),
        hi,
        f"{p.kind.name} fading average",
    )


def _avg_moments(p: TheoryParams, m: int, snr):
    """Window-average mean and variance with ``m`` of ``p.L`` events at ``snr``."""
    mean1, var1 = _h1_moments(p, snr)
    mean0, var0 = _h1_moments(p, 0.0)
    mu_avg = (m * mean1 + (p.L - m) * mean0) / p.L
    sigma_avg_sq = (m * var1 + (p.L - m) * var0) / (p.L * p.L)
    return mu_avg, sigma_avg_sq


def avg_stats(p: TheoryParams, snr: float) -> tuple[float, float]:
    """Mean and variance of the L-event window average of combined energies.

    ``p.M`` of the window events carry signal at the given per-sensor SNR,
    the rest are noise-only.  ``p.M`` must be set.
    """
    if p.M is None:
        raise ValueError("avg_stats requires an explicit window composition M")
    if snr < 0.0:
        raise ValueError("snr must be nonnegative")
    mu_avg, sigma_avg_sq = _avg_moments(p, p.M, snr)
    return float(mu_avg), float(sigma_avg_sq)


def predictor_prob(p: TheoryParams, lam: float, snr: float) -> float:
    """Probability that the window-average predictor declares activity."""
    mu_avg, sigma_avg_sq = avg_stats(p, snr)
    return float(_gaussian_tail(lam, mu_avg, sigma_avg_sq))


def _predictor_weight(p: TheoryParams, lam: float, snr: float, default_m: int) -> float:
    stats_params = p if p.M is not None else replace(p, M=default_m)
    return predictor_prob(stats_params, lam, snr)


def qfa_proposed(p: TheoryParams, lam: float, snr: float = 0.0) -> float:
    """Dual-threshold false-alarm probability.

    Convex combination of the Gaussian false-alarm rates at the favourable
    and guarded thresholds, weighted by the predictor; the window is
    noise-only (``M = 0``) unless ``p.M`` overrides it.
    """
    if p.rho == 1.0:  # both thresholds coincide; skip the mixture entirely
        return qfa_approx(p, lam)
    w = _predictor_weight(p, lam, snr, default_m=0)
    return w * qfa_approx(p, lam / p.rho) + (1.0 - w) * qfa_approx(p, p.rho * lam)


def qd_proposed_awgn(p: TheoryParams, lam: float, snr: float) -> float:
    """Dual-threshold fixed-SNR detection probability.

    Predictor weight defaults to a fully active window (``M = L``).
    """
    if p.rho == 1.0:
        return qd_awgn_approx(p, lam, snr)
    w = _predictor_weight(p, lam, snr, default_m=p.L)
    return (
        w * qd_awgn_approx(p, lam / p.rho, snr)
        + (1.0 - w) * qd_awgn_approx(p, p.rho * lam, snr)
    )


def qd_proposed_rayleigh(p: TheoryParams, lam: float) -> float:
    """Dual-threshold detection probability averaged over Rayleigh fading.

    The per-SNR mixture uses the exact Marcum tails at the two toggled
    thresholds (so the ``rho = 1`` case collapses to ``qd_rayleigh``
    identically), with the Gaussian predictor weight evaluated for a window
    whose events all see the integration-variable SNR.
    """
    if lam <= 0.0:
        return 1.0
    if p.rho == 1.0:
        return qd_rayleigh(p, lam)
    pdf = _aggregate_snr_pdf(p)
    m = p.L if p.M is None else p.M
    lam_lo = lam / p.rho
    lam_hi = p.rho * lam
    # SLS integrates over one branch's SNR, SLC/MRC over the K-sensor sum
    per_sensor = 1.0 if p.kind is CombinerKind.SLS else p.K

    def integrand(g: np.ndarray) -> np.ndarray:
        snr = g / per_sensor
        w = _gaussian_tail(lam, *_avg_moments(p, m, snr))
        mixture = w * _detection_tail(p, lam_lo, snr) + (1.0 - w) * _detection_tail(
            p, lam_hi, snr
        )
        return mixture * pdf(g)

    return _fading_average(
        integrand, _fading_upper_limit(p), f"{p.kind.name} dual-threshold fading average"
    )

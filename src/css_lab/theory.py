"""Closed-form false-alarm and detection analysis of the fusion statistics.

Statistic model
---------------
Energies and thresholds are in units of the nominal per-sample noise
variance.  With ``N`` real noise degrees of freedom per sensing event, one
sensor's energy is ``chi2(N)`` under H0 and noncentral with noncentrality
``N * snr`` under H1, where ``snr`` is that sensor's per-sample linear SNR.
From this follow, per combiner (``u = N/2``, ``K`` sensors):

* SLC: exact null ``chi2(N K)``; detection via the generalized Marcum Q of
  order ``K u``.
* MRC: signal-level ratio combining is equivalent to a single detector
  whose SNR is the sum of branch SNRs, so the null is ``chi2(N)``
  independent of ``K``.
* SLS: the maximum of ``K`` independent branch statistics; probabilities
  are one minus the K-th power of the branch complement.

Every closed form reads that model from one place: ``TheoryParams.order``
(the null's gamma order), ``TheoryParams.snr_shape`` (how many sensor SNRs
the statistic sums) and :func:`_combined` (the SLS complement).  The
theory columns are exact tails (:func:`_ncx2_tail`), and every false-alarm
form is its detection form at zero SNR.  Gaussian forms match a normal to
:func:`_h1_moments`: the window predictor, :func:`qfa_approx`, and the null
that :func:`cfar_threshold` inverts into every curve's thresholds.  Every
closed form is elementwise over ``lam`` (``cfar_threshold`` over its
targets): a scalar returns a float, a 1-D array an array, and anything else
raises ``ValueError``, so a curve's grid is one call per form.

SNR argument convention: every function below takes the *per-sensor* average
linear SNR, assumed equal across sensors; combiner-level scaling (``K`` sums
for SLC totals and MRC coherent gain) happens internally.  Rayleigh-fading
averages run over the combiner's aggregate SNR density (gamma with shape
``K`` for SLC/MRC, exponential per branch for SLS).  The conventional
average, :func:`qd_rayleigh`, takes no integral: over a gamma SNR the
statistic is a negative-binomial mixture of gamma laws, whose tail is a sum
over Poisson counts (:func:`_count_tail`) or, at SNR shapes and orders of 7
and more, a Fourier-cosine series of the law's characteristic function
(:func:`_cosine_tail`) in a term count that a bound on its modulus sets.  The
dual-threshold average's predictor weight depends on the SNR, so it integrates
over the density instead, up to its ``1 - _TAIL_MASS`` quantile (the integrand
is the density times a probability, so that bounds the truncation error), on
panels split where the predictor weight and the two exact tails step.
:func:`_fading_average` integrates a whole threshold grid in one pass of nested
Clenshaw-Curtis rules whose interval count doubles until each panel converges,
or raises ``NumericError``; each doubling evaluates only the new nodes.

The dual-threshold rule compares the newest energy with ``lambda/rho`` or
``rho*lambda``, so its probabilities are convex combinations of the
fixed-threshold ones there, weighted by the probability that the
window-average predictor fires, itself Gaussian with the moments of ``L``
window events at the detection SNR.  That one mixture of exact tails,
:func:`_proposed_mixture`, gives both columns: pfa is the mixture at zero
SNR, where the window is idle.  At ``rho = 1`` both thresholds are
``lambda`` and the forms return the fixed-threshold ones bit for bit, so
one function, :func:`closed_form_rates`, gives every curve's theory
columns, choosing the pd form by ``TheoryParams.channel``.
:func:`expected_rho` is the mean estimated ``rho`` of a window under the
noise uncertainty ``TheoryParams.uncertainty_db``.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.special import _ufuncs
from scipy.special._ufuncs import _igam_fac  # x^a e^(-x) / Gamma(a), by Lanczos near a = x

GAUSSIAN_WARN_FLOOR = 100  # CLT-based formulas degrade below this many samples
_QUAD_TOL = 1e-9  # absolute agreement of the n- and 2n-interval fading averages
_QUAD_MIN_NODES = 8  # intervals of a panel's first rule, which has n + 1 nodes
_QUAD_MAX_NODES = 8192  # intervals of the largest rule
_TAIL_MASS = 1e-14  # aggregate-SNR probability beyond the fading integrals' upper limit
_COS_MASS = 1e-16  # bound on a Rayleigh tail's mass past each end, and on its terms past n
# c t of the Chernoff bounds qd_rayleigh tries: a row at t < 0 for a, one at 0 < c t < 1 for b
_CHERNOFF_CT = np.array([-(2.0 ** np.arange(-12.0, 4.0, 0.5)), 2.0 ** np.arange(-16.0, 0.0, 0.5)])
_COS_MAX_TERMS = 1 << 16
_COS_MIN_SHAPE = 7  # least SNR shape and order the cosine tail takes; below, counts are summed
_TAIL_CELLS = 1 << 16  # terms a cosine tail evaluates at once, over a block of thresholds
_RHO_BINS = (128, 256, 512)  # one variance's lattice bins at expected_rho's three levels
_RHO_GROUP = 4  # merged atoms of the sensor-mean lattice per one-variance bin width
_RHO_TAIL = 1e-15  # sensor-mean mass dropped at each end of its lattice
_RHO_FLOOR = 1e-200  # least kept power B^L / B_last^L, far above the subnormals
_RHO_TRUNCATION = 1e-12  # bound on E[rho] beyond the t-integral's upper limit
_RHO_TOL = 1e-4  # bound on expected_rho's lattice error estimate

CHANNEL_KINDS = ("rayleigh", "awgn")


class NumericError(RuntimeError):
    """Raised when a fading average fails to converge to its requested tolerance."""


class CombinerKind(enum.Enum):
    SLC = "slc"
    MRC = "mrc"
    SLS = "sls"


@dataclass(frozen=True)
class TheoryParams:
    """Parameter bundle for the analysis layer.

    ``K`` sensors of ``N`` samples at per-sensor mean SNR ``gamma_bar`` on a ``channel``,
    noise variances uniform in dB within ``uncertainty_db`` of nominal, uncertainty factor
    ``rho`` and predictor window length ``L``; energies and thresholds are in nominal units.
    """

    kind: CombinerKind
    K: int
    N: int
    gamma_bar: float = 1.0
    rho: float = 1.0
    L: int = 15
    channel: str = "rayleigh"
    uncertainty_db: float = 0.0

    def __post_init__(self) -> None:
        for count in (self.K, self.N, self.L):  # refuses floats, 7.0 and nan among them
            if not isinstance(count, (int, np.integer)):
                raise ValueError("K, N and L must be integers")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.N < 2 or self.N % 2 != 0:
            raise ValueError("N must be an even integer >= 2")
        if not 0.0 < self.gamma_bar < math.inf:  # nan fails every comparison
            raise ValueError("gamma_bar must be finite and positive")
        if not self.rho >= 1.0:
            raise ValueError("rho must be at least 1")
        if self.L < 2:
            raise ValueError("L must be at least 2")
        if self.channel not in CHANNEL_KINDS:
            raise ValueError(f"channel must be one of {CHANNEL_KINDS}")
        with np.errstate(over="ignore"):
            linear = np.float64(10.0) ** (self.uncertainty_db / 10.0)
        if not (self.uncertainty_db >= 0.0 and linear < np.inf):  # nan fails the first test
            raise ValueError("uncertainty_db must be nonnegative, with a finite linear half-width")

    @property
    def u(self) -> int:
        return self.N // 2

    @property
    def order(self) -> int:  # gamma order of the null statistic, per branch for SLS
        return self.K * self.u if self.kind is CombinerKind.SLC else self.u

    @property
    def snr_shape(self) -> int:  # sensor SNRs the statistic sums: one per SLS branch
        return 1 if self.kind is CombinerKind.SLS else self.K


def _q(x):
    """Standard normal upper-tail probability, elementwise."""
    return 0.5 * special.erfc(x / np.sqrt(2.0))


def _elementwise(form):
    """The closed forms' contract on ``lam`` around a ``form(p, lams, *args)`` of 1-D ``lams``."""

    @functools.wraps(form)
    def elementwise(p: TheoryParams, lam, *args):
        lams = np.asarray(lam, dtype=float)
        if lams.ndim > 1:
            raise ValueError(f"{form.__name__} takes a scalar or a 1-D array")
        out = np.asarray(form(p, lams.reshape(-1), *args), dtype=float)
        return float(out[0]) if lams.ndim == 0 else out

    return elementwise


def _above_zero(lams: np.ndarray, tail) -> np.ndarray:
    """``tail`` of the thresholds of ``lams`` above 0, and 1 at each ``lam <= 0``."""
    out = np.ones(lams.shape)
    live = ~(lams <= 0.0)  # a nan goes on, to ``tail``
    if live.any():
        out[live] = tail(lams[live])
    return out


def _ncx2_tail(order: float, nc, x) -> np.ndarray:
    """``P(chi2'(2 order, nc) >= x)``, elementwise over broadcast ``nc`` and ``x``.

    ``x == 0`` gives 1; ``nc == 0`` and an ``x`` of inf or nan give the regularized upper
    gamma tail ``Q(order, x / 2)``, 0 at inf and nan at nan.  Where even the central CDF (an
    upper bound on the noncentral one) underflows to zero, the value is exactly 1 and the
    boost evaluator would overflow; that screen depends on ``x`` alone, so it runs first.
    """
    nc, x = np.asarray(nc, dtype=float), np.asarray(x, dtype=float)
    live = special.chdtr(2.0 * order, x) != 0.0  # also False at x == 0
    nc, x, live = np.broadcast_arrays(nc, x, live)
    shape = nc.shape
    nc, x, live = nc.ravel(), x.ravel(), live.ravel()
    out = np.ones(nc.shape)
    central = ~((nc != 0.0) & (x < np.inf))  # the gamma tail is 1 at x == 0 too
    out[central] = special.gammaincc(order, x[central] / 2.0)
    # exactly 1 from d = sqrt(nc) - sqrt(x) >= 39 on, where the evaluator is nan past nc = 1e19:
    # 1 - tail <= exp(-d^2 / 2) / 2 < 1e-330 at order >= 1 (Simon and Alouini 2000)
    rest = live & ~central  # so x < inf, and no inf - inf
    rest[rest] = np.sqrt(nc[rest]) - np.sqrt(x[rest]) < 39.0
    # the ufunc behind scipy.stats.ncx2.sf; importing scipy.stats costs more than
    # half a second of start-up
    with np.errstate(over="ignore"):
        out[rest] = _ufuncs._ncx2_sf(x[rest], 2.0 * order, nc[rest])
    return out.reshape(shape)


def marcum_q(order: float, a: float, b: float) -> float:
    """Generalized Marcum Q function of the given order.

    Evaluated through the noncentral chi-square survival function:
    ``Q_m(a, b) = P(chi2'(2m, a^2) >= b^2)``.
    """
    if not order >= 1.0:  # nan fails the comparison
        raise ValueError("order must be at least 1")
    if not (a >= 0.0 and b >= 0.0):
        raise ValueError("a and b must be nonnegative")
    return float(_ncx2_tail(order, a * a, b * b)[()])


def _combined(p: TheoryParams, rate):
    """The combiner's rate from its statistic's: SLS takes ``1 - (1 - rate)^K``, stably."""
    if p.kind is not CombinerKind.SLS:
        return rate
    branch = np.clip(rate, 0.0, 1.0)
    saturated = branch >= 1.0
    return np.where(saturated, 1.0, -np.expm1(p.K * np.log1p(-np.where(saturated, 0.0, branch))))


def _detection_tail(p: TheoryParams, lam, snr) -> np.ndarray:
    """Exact detection probability, elementwise over broadcast thresholds ``lam > 0`` and SNRs."""
    return _combined(p, _ncx2_tail(p.order, p.N * p.snr_shape * snr, lam))


@_elementwise
def qd_awgn_exact(p: TheoryParams, lams: np.ndarray, snr: float) -> np.ndarray:
    """Exact fixed-SNR detection probability: the noncentral chi-square tail at ``lam``.

    ``snr`` is the common per-sensor per-sample SNR.  At zero it is the false-alarm
    probability, the combined upper gamma tail ``Q(order, lam / 2)`` bit for bit.
    """
    if not snr >= 0.0:  # nan fails the comparison
        raise ValueError("snr must be nonnegative")
    return _above_zero(lams, lambda t: _detection_tail(p, t, snr))


def _warn_small_n(p: TheoryParams) -> None:
    """Warn below ``GAUSSIAN_WARN_FLOOR``, from the first caller outside this module."""
    if p.N < GAUSSIAN_WARN_FLOOR:
        frame, level = sys._getframe(), 1
        while frame.f_back is not None and frame.f_globals.get("__name__") == __name__:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"N={p.N} is small; Gaussian approximations may be inaccurate",
            stacklevel=level,
        )


def _gaussian_tail(lam, mean, var):
    return _q((lam - mean) / np.sqrt(var))


def _h1_moments(p: TheoryParams, snr):
    """Mean and variance of the statistic with every sensor at ``snr`` (per branch for SLS)."""
    scale = 2 * p.order
    boost = 1.0 + (p.K * snr if p.kind is CombinerKind.MRC else snr)  # MRC's coherent gain
    return scale * boost, 2.0 * scale * boost * boost


@_elementwise
def cfar_threshold(p: TheoryParams, targets: np.ndarray) -> np.ndarray:
    """Decision threshold achieving each target pfa under the Gaussian null model of ``p``.

    Inverts the null that :func:`qfa_approx` evaluates, at the per-branch
    rate for SLS; the threshold is in units of the nominal noise variance.
    """
    # in Python: numpy comparisons, first run here ahead of the draws, add 128 kB to peak RSS
    if not all(0.0 < t < 1.0 for t in targets.tolist()):
        raise ValueError("target_pfa must lie strictly between 0 and 1")
    _warn_small_n(p)
    # the statistic's rate, the inverse of _combined: only an SLS branch rate can leave (0, 1)
    rate = -np.expm1(np.log1p(-targets) / p.K) if p.kind is CombinerKind.SLS else targets
    if not all(0.0 < r < 1.0 for r in rate.tolist()):
        raise ValueError("SLS branch false-alarm rate left (0, 1); adjust target_pfa")
    mean, var = _h1_moments(p, 0.0)
    # inside (0, 1) the rate keeps erfcinv's argument inside (0, 2), where it is finite
    return mean + np.sqrt(2.0 * var) * special.erfcinv(2.0 * rate)


@_elementwise
def qfa_approx(p: TheoryParams, lams: np.ndarray) -> np.ndarray:
    """Gaussian (CLT) false-alarm probability of the combined statistic."""
    _warn_small_n(p)
    return _combined(p, _gaussian_tail(lams, *_h1_moments(p, 0.0)))


def _fading_upper_limit(p: TheoryParams) -> float:
    """The ``1 - _TAIL_MASS`` quantile of the aggregate SNR law (see :func:`_aggregate_snr_pdf`).

    A fading integrand is the density times a probability, at most 1, so
    truncating there leaves out at most ``_TAIL_MASS``.
    """
    return p.gamma_bar * float(special.gammainccinv(p.snr_shape, _TAIL_MASS))


@functools.cache
def _clenshaw_curtis_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw-Curtis nodes and weights on [0, 1] with an even number ``n`` of intervals.

    The ``n + 1`` nodes ``(1 - cos(pi k / n)) / 2`` ascend from 0 to 1; rule ``2 n``'s
    even-index nodes are rule ``n``'s bit for bit, as ``pi (2 k) / (2 n)`` rounds as
    ``pi k / n``.  The weights ``c_k / (2 n) (1 - sum_j b_j cos(2 pi j k / n) / (4 j^2 - 1))``
    over ``j = 1..n/2``, ``c`` and ``b`` 1 at the ends and 2 between (Waldvogel, BIT 2006),
    are summed term by term from a table of ``cos(2 pi m / n)`` at ``m = j k mod n``: O(n)
    memory, and 0.3 s at 8192 intervals (the defaults need 64).  An inverse FFT would take
    O(n log n), but a run that draws calls no other FFT, and the first maps 130 kB more.
    """
    k = np.arange(n + 1.0)  # float: integer arithmetic would be a numpy loop no other step runs
    nodes = (1.0 - np.cos(np.pi * k / n)) / 2.0
    cosines = np.cos(2.0 * np.pi / n * k[:-1])
    weights, m = np.ones(n + 1), np.zeros(n + 1)  # m: j k modulo n, exact in floats
    for j in range(1, n // 2 + 1):
        m += k
        m[m >= n] -= n
        weights -= (1.0 if 2 * j == n else 2.0) / (4.0 * j * j - 1.0) * cosines[m.astype(int)]
    weights /= n
    weights[0] /= 2.0
    weights[-1] /= 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _fading_average(integrand, edges, what: str) -> list:
    """Integrate a vectorized ``integrand`` over the panels of every edge list in ``edges``.

    ``edges`` holds one ascending edge list per integral, and each integral
    is the sum of its panels between consecutive edges.  Every panel takes
    Clenshaw-Curtis rules of ``n = 8, 16, ...`` intervals (``n + 1`` nodes),
    one rule size at a time over every panel still open: per size the
    integrand is called once, as ``integrand(g, rows)`` with ``g`` the
    ``(open panels, nodes)`` nodes the panels do not hold yet and ``rows``
    the integral of each panel, and returns the values at ``g``.  The rules
    nest, so the first size evaluates all ``n + 1`` nodes and each doubling
    only its ``n`` new odd-index ones, interleaved with the values the panel
    holds: no node is evaluated twice.  A panel's 2n-interval value is taken
    once it agrees with its n-interval value within ``_QUAD_TOL`` over its
    integral's number of panels; that difference estimates the n-interval
    error, and the 2n-interval error is far smaller for the smooth
    integrands used here.  Each integral sums its panel values in panel
    order.  An integrand may also return ``k`` columns on a trailing axis, a
    ``(panels, nodes, k)`` array: the columns share the nodes, a panel ends
    once every column agrees, and each integral is an array of ``k`` values.
    ``NumericError`` names ``what`` and the panel's interval when a value is
    not finite or a panel has not converged at ``_QUAD_MAX_NODES`` intervals.
    """
    rows = np.array([row for row, e in enumerate(edges) for _ in e[1:]])
    lo = np.concatenate([np.asarray(e[:-1], dtype=float) for e in edges])
    hi = np.concatenate([np.asarray(e[1:], dtype=float) for e in edges])
    tol = _QUAD_TOL / np.array([len(e) - 1 for e in edges])[rows]
    values = None  # each panel's latest value, once the first rule size has run
    live = np.arange(rows.size)  # the open panels, in panel order
    n, held = _QUAD_MIN_NODES, None  # held: the open panels' values at rule n // 2's nodes
    while live.size:
        if n > _QUAD_MAX_NODES:
            j = live[0]
            raise NumericError(
                f"quadrature for {what} did not converge: {values[j]} with {n // 2 + 1} nodes, "
                f"interval=({float(lo[j])!r}, {float(hi[j])!r})"
            )
        nodes, weights = _clenshaw_curtis_rule(n)
        width = hi[live] - lo[live]
        fresh = nodes if held is None else nodes[1::2]
        f = integrand(lo[live, None] + width[:, None] * fresh, rows[live])
        if held is not None:
            f, new = np.empty((live.size, n + 1, *f.shape[2:])), f
            f[:, 0::2], f[:, 1::2] = held, new
        # per panel: a matrix product over all panels may sum in another order
        value = np.array([weights @ panel for panel in f])
        value *= width.reshape(-1, *[1] * (value.ndim - 1))
        finite = np.isfinite(value).reshape(live.size, -1).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NumericError(
                f"quadrature for {what} is not finite with {n + 1} nodes: {value[i]}, "
                f"interval=({float(lo[live[i]])!r}, {float(hi[live[i]])!r})"
            )
        if values is None:  # the first rule size: every panel stays open
            values, still = np.empty((rows.size, *value.shape[1:])), np.arange(live.size)
        else:
            error = abs(value - values[live]).reshape(live.size, -1).max(axis=1)
            still = np.flatnonzero(~(error <= tol[live]))
        values[live] = value
        live, held, n = live[still], f[still], 2 * n
    totals = [0.0] * len(edges)
    for row, value in zip(rows.tolist(), values):
        totals[row] += value
    return totals


def _aggregate_snr_pdf(p: TheoryParams):
    """Density of the combiner's aggregate SNR under Rayleigh branch fading.

    Gamma with shape ``p.snr_shape`` and scale ``gamma_bar``, the expression
    ``scipy.stats`` evaluates for ``g > 0``; at shape 1 (an SLS branch) it is
    bit for bit the exponential, since ``xlogy(0, .)`` and ``gammaln(1)`` are 0.
    """
    scale, shape = p.gamma_bar, p.snr_shape
    return lambda g: (
        np.exp(special.xlogy(shape - 1.0, g / scale) - g / scale - special.gammaln(shape))
        / scale
    )


def _cosine_tail(shifted, a: float, b: float, xs: np.ndarray, n: int, what: str):
    """``P(Y >= x)`` at each ``x`` of ``xs``, for a law on ``[a, b]``, from its terms ``k < n``.

    Fang & Oosterlee's cosine expansion (SIAM J. Sci. Comput. 2008), integrated term by
    term: ``(b - x) / (b - a) - sum_(k >= 1) 2 shifted(u_k) sin(u_k (x - a)) / (k pi)``
    with ``u_k = k pi / (b - a)`` and ``shifted(u) = Re[phi(u) e^(-i u a)]``: a term is at
    most ``(2 / pi) |phi(u_k)| / k``, so the caller sets ``n`` from a bound on ``|phi|``.
    Every threshold sums the same terms in its own row, in blocks of at most ``_TAIL_CELLS``
    terms.  Outside ``[a, b]``, where the series extrapolates wrongly, a threshold reads
    that side's limit; a nan reads nan.  ``NumericError`` names ``what`` for a non-finite term.
    """
    out = np.where(xs <= a, 1.0, 0.0)
    live = np.flatnonzero(~(xs <= a) & ~(b <= xs))  # a nan goes on, and reads nan
    k = np.arange(1.0, n)
    u = np.pi / (b - a) * k
    weights = shifted(u) * (2.0 / np.pi) / k
    if not math.isfinite(weights.sum()):  # a nan or an inf term makes the sum one
        raise NumericError(f"cosine tail for {what} is not finite with {n} terms")
    offsets, rows = xs[live] - a, max(1, _TAIL_CELLS // n)
    for i in range(0, live.size, rows):
        terms = np.sin(np.multiply.outer(offsets[i : i + rows], u)) * weights  # a row each
        out[live[i : i + rows]] = 1.0 - offsets[i : i + rows] / (b - a) - terms.sum(axis=1)
    return out


def _count_tail(r: int, m: int, theta: float, zs: np.ndarray, top: float) -> np.ndarray:
    """``P(Y >= 2 z)`` at each ``z`` of ``zs``, ``Y`` a mixture of ``Gamma(m + J, 2)`` over ``J``.

    ``J`` is negative binomial, ``r`` successes and mean ``r theta``.  ``Y >= 2 z`` when a
    Poisson(``z``) count ``n`` falls below ``m + J``: the tail is the positive sum
    ``Q(m, z) + sum_(n >= m) Pois(n; z) P(J > n - m)``, where ``P(J > l)``, fewer than ``r``
    successes in ``l + r`` trials, is ``sum_(i < r) C(l + r, i) theta^-i q^(l + r)`` and
    ``log q = -log1p(1 / theta)``.  The counts run between Bernstein bounds that leave at
    most ``_COS_MASS`` of Poisson mass beyond each, at most ``17.2 sqrt(z) + 26`` terms at
    any SNR.  A ``z`` at or past ``top``, an upper bound of ``Y / 2``, takes ``Q(m, z)`` alone.
    """
    out, level = special.gammaincc(m, zs), -math.log(_COS_MASS)
    logq, logt = -math.log1p(1.0 / theta), math.log(theta)
    for i in np.flatnonzero(zs < top).tolist():
        z = float(zs[i])
        hi = z + level / 3.0 + math.sqrt(level * level / 9.0 + 2.0 * level * z)
        n = np.arange(max(m, math.floor(z - math.sqrt(2.0 * level * z))), math.ceil(hi) + 1.0)
        trials = n - (m - r)
        survival, binomial = np.exp(trials * logq), np.ones(n.size)
        for j in range(1, r):
            binomial *= (trials - (j - 1)) / j
            survival += binomial * np.exp(trials * logq - j * logt)
        out[i] += (_igam_fac(n, z) / n * survival).sum()
    return out


@_elementwise
def qd_rayleigh(p: TheoryParams, lams: np.ndarray) -> np.ndarray:
    """Detection probability averaged over Rayleigh fading, by an exact mixture tail.

    Over ``g ~ Gamma(r, gamma_bar)``, ``(r, m) = (p.snr_shape, p.order)``, the noncentral
    chi-square of ``2 m`` degrees of freedom and noncentrality ``N g`` is a mixture of
    ``Gamma(m + j, 2)`` over a negative binomial of ``r`` successes and mean ``r theta``,
    ``theta = N gamma_bar / 2`` (Digham, Alouini & Simon, IEEE Trans. Commun. 2007), with
    characteristic function ``(1 - 2 i w)^(r - m) (1 - i c w)^(-r)``, ``c = 2 + N gamma_bar``.
    SLS takes one branch, then the K-fold complement.  At each ``s`` of ``_CHERNOFF_CT``,
    ``(log E e^(s Y / c) - log _COS_MASS) / s`` bounds the law in units of ``c``, where no
    bound overflows, with at most ``_COS_MASS`` below (``s < 0``) or above it; the tightest
    give ``[a, b]``.  The density rises from 0 as ``y^(min(r, m) - 1)``, so below
    ``_COS_MIN_SHAPE`` a cosine series can pass its 2^16-term cap (shapes 1 to 4 at 20 to
    40 dB, orders 1 and 2 at -25 dB): there :func:`_count_tail` sums Poisson counts.
    Otherwise :func:`_cosine_tail` expands the law on ``[a, b]`` (units of ``c``) in ``n``
    terms.  With ``s1 = w^2``, ``s2 = (2 w / c)^2``, ``|phi(w)| = (1 + s2)^((r - m) / 2)
    (1 + s1)^(-r / 2)`` falls with a log-slope of at least ``q(w) = (m - r)^+ s2 / (1 + s2)
    + min(m, r) s1 / (1 + s1)`` (equal at ``m >= r``, above it otherwise as ``s2 < s1``),
    and ``q`` only steepens: the terms ``k >= n`` sum to at most ``(2 / pi) |phi(u_n)|
    (1 / n + 1 / q(u_n))``.  ``n`` is the least power of two where that is at most
    ``_COS_MASS`` (64 on the default SLC grid, 128 on MRC's, at most 4,096 from -40 to
    300 dB); past ``_COS_MAX_TERMS``, ``NumericError`` is raised before any term is summed.
    """
    r, m = p.snr_shape, p.order
    c, s = 2.0 + p.N * p.gamma_bar, _CHERNOFF_CT
    bounds = (-np.log(_COS_MASS) - (m - r) * np.log1p(-2.0 / c * s) - r * np.log1p(-s)) / s
    a, b = max(0.0, float(bounds[0].max())), float(bounds[1].min())
    if min(r, m) < _COS_MIN_SHAPE:
        theta, top = p.N * p.gamma_bar / 2.0, b * c / 2.0
        return _above_zero(lams, lambda t: _combined(p, _count_tail(r, m, theta, t / 2.0, top)))

    what = f"{p.kind.name} fading average"
    for n in (1 << j for j in range(_COS_MAX_TERMS.bit_length())):  # 1, 2, ..., the cap
        s1, s2 = (n * math.pi / (b - a)) ** 2, (2.0 * n * math.pi / (c * (b - a))) ** 2
        modulus = math.exp(-((m - r) * math.log1p(s2) + r * math.log1p(s1)) / 2.0)
        slope = max(m - r, 0) * s2 / (1.0 + s2) + min(m, r) * s1 / (1.0 + s1)
        if 2.0 / math.pi * modulus * (1.0 / n + 1.0 / slope) <= _COS_MASS:
            break
    else:
        raise NumericError(f"cosine tail for {what} did not converge within {_COS_MAX_TERMS} terms")

    def shifted(w):  # Re[phi(w / c) e^(-i w a)], from (1 - 2 i w / c)^(r - m) (1 - i w)^(-r)
        logs = np.log(1.0 - 1j * np.array([2.0 / c * w, w]))  # log-moduli, minus the phases
        phases = (m - r) * logs.imag[0] + r * logs.imag[1] + a * w
        return np.exp(-((m - r) * logs.real[0] + r * logs.real[1])) * np.cos(phases)

    return _above_zero(lams, lambda t: _combined(p, _cosine_tail(shifted, a, b, t / c, n, what)))


def _avg_moments(p: TheoryParams, snr):
    """Mean and variance of the window average of ``p.L`` events, each at ``snr``.

    At ``snr = 0`` that is the idle window, which the false-alarm probability reads.
    """
    mean, var = _h1_moments(p, snr)
    return mean, var / p.L


@_elementwise
def qfa_proposed(p: TheoryParams, lams: np.ndarray) -> np.ndarray:
    """Dual-threshold false-alarm probability: :func:`qd_proposed_awgn` at zero SNR."""
    _warn_small_n(p)
    return qd_proposed_awgn(p, lams, 0.0)


def _proposed_mixture(p: TheoryParams, lam, snr) -> np.ndarray:
    """Dual-threshold pd, elementwise over broadcast ``lam`` and ``snr``; pfa at ``snr = 0``.

    The predictor weight mixes the two exact tails.  Past ``boost = sqrt(DBL_MAX / (4 order))``
    the H1 variance ``4 order boost^2`` of :func:`_h1_moments` overflows to inf, and the
    weight reads 1/2.  There the H1 mean ``2 order boost`` exceeds 1e154, and so does the
    tails' noncentrality ``nc``, the mean less the null mean ``2 order``.  A threshold with
    ``rho * lam`` below 1e153 (CFAR thresholds sit near ``2 order``) then has ``sqrt(rho lam)
    <= sqrt(nc) / 2`` and ``sqrt(nc) >= 78``, so ``sqrt(nc) - sqrt(rho lam) >= 39``: both tails
    are exactly 1 (see :func:`_ncx2_tail`), and so is the mixture, whatever the weight.

    A tail at zero weight (the guarded one at ``w == 1``, the favourable one at ``w == 0``)
    is taken at infinite SNR, where :func:`_ncx2_tail` reads exactly 1 unevaluated (0 at
    ``lam = inf``); that changes no bit, since ``0 * 1 + x == x``.
    """
    thresholds = np.array([lam / p.rho, p.rho * lam])  # favourable, guarded
    with np.errstate(over="ignore"):
        w = _gaussian_tail(lam, *_avg_moments(p, snr))
    snrs = np.where(np.array([w == 0.0, w == 1.0]), np.inf, snr)
    favourable, guarded = _detection_tail(p, thresholds, snrs)
    return w * favourable + (1.0 - w) * guarded


@_elementwise
def qd_proposed_awgn(p: TheoryParams, lams: np.ndarray, snr: float) -> np.ndarray:
    """Dual-threshold detection probability with every sensor at the fixed ``snr``.

    1 at ``lam <= 0``; ``rho = 1`` returns :func:`qd_awgn_exact`, which also screens ``snr``.
    """
    if p.rho == 1.0 or not snr >= 0.0:
        return qd_awgn_exact(p, lams, snr)
    return _above_zero(lams, lambda t: _proposed_mixture(p, t, snr))


@_elementwise
def qd_proposed_rayleigh(p: TheoryParams, lams: np.ndarray) -> np.ndarray:
    """Dual-threshold detection probability averaged over Rayleigh fading.

    Averages :func:`_proposed_mixture` over the aggregate SNR, a whole grid in one
    :func:`_fading_average` call, so every window event sees the integration-variable
    SNR.  A threshold ``lam <= 0`` gives 1, and ``rho = 1`` returns :func:`qd_rayleigh`.
    For SLC and MRC the mixture also tends to it as ``rho -> 1``; for SLS it does not,
    as the mixture applies the K-fold complement inside the average (all branches at one
    faded SNR) and :func:`qd_rayleigh` after it (independently faded branches): at K = 7,
    N = 1000, -15 dB and a 0.1 CFAR target, ``rho = 1 + 1e-9`` gives 0.4188 against 0.5832.
    """
    if p.rho == 1.0:
        return qd_rayleigh(p, lams)
    return _above_zero(lams, lambda t: _proposed_fading_average(p, t))


def _proposed_fading_average(p: TheoryParams, lams: np.ndarray) -> list:
    """:func:`_proposed_mixture` averaged over the aggregate SNR at each threshold of ``lams``."""
    pdf = _aggregate_snr_pdf(p)

    def integrand(g: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return _proposed_mixture(p, lams[rows, None], g / p.snr_shape) * pdf(g)

    # the predictor weight and the two tails step from 0 to 1 about where the H1
    # mean, affine in g, crosses lam, lam / rho and rho * lam: a panel edge at each
    mean0 = _h1_moments(p, 0.0)[0]
    slope = _h1_moments(p, 1.0 / p.snr_shape)[0] - mean0
    hi = _fading_upper_limit(p)
    edges = []
    for lam in lams.tolist():
        steps = ((t - mean0) / slope for t in (lam / p.rho, lam, p.rho * lam))  # ascending
        edges.append([0.0, *(g for g in steps if 0.0 < g < hi), hi])
    return _fading_average(integrand, edges, f"{p.kind.name} dual-threshold fading average")


def closed_form_rates(p: TheoryParams, lams) -> tuple[list[float], list[float]]:
    """Closed-form pfa and pd lists of the dual-threshold rule at each threshold of ``lams``.

    At ``p.rho = 1`` both thresholds are ``lam``: the fixed-threshold rule, whose forms
    (:func:`qd_awgn_exact` at zero SNR, and at ``p.gamma_bar`` on an AWGN channel or
    :func:`qd_rayleigh`) these return bit for bit.  The grid is one call per form.
    """
    pfa = qfa_proposed(p, lams)
    if p.channel == "awgn":
        return pfa.tolist(), qd_proposed_awgn(p, lams, p.gamma_bar).tolist()
    return pfa.tolist(), qd_proposed_rayleigh(p, lams).tolist()


def _variance_mean_law(uncertainty_db: float, sensors: int, bins: int):
    """Lattice law of the mean of ``sensors`` noise variances: ascending support and masses.

    One variance ``10^(U/10)``, ``U`` uniform on ``[-d, d]``, takes ``bins``
    equal bins over its range, each bin's exact mass (the CDF is
    ``(10 log10 v + d) / (2 d)``) at its midpoint.  The ``sensors``-fold
    convolution, by FFT, is the mean's law on a lattice ``sensors`` times
    finer.  Runs of ``ceil(sensors / _RHO_GROUP)`` atoms merge into one at
    their mean, and the atoms holding the outer ``_RHO_TAIL`` of mass at
    either end are dropped.
    """
    d = uncertainty_db
    lo, hi = 10.0 ** (-d / 10.0), 10.0 ** (d / 10.0)
    edges = np.linspace(lo, hi, bins + 1)
    mass = np.diff(np.log(edges))  # the CDF is linear in log v
    mass /= mass.sum()
    size = sensors * (bins - 1) + 1
    fft_size = 1 << (size - 1).bit_length()
    law = np.fft.irfft(np.fft.rfft(mass, fft_size) ** sensors, fft_size)[:size]
    np.maximum(law, 0.0, out=law)  # rounding leaves the far tails slightly negative
    starts = np.arange(0, size, -(-sensors // _RHO_GROUP))
    index = np.add.reduceat(law * np.arange(size), starts)
    law = np.add.reduceat(law, starts)
    index /= np.where(law > 0.0, law, 1.0)
    cumulative = np.cumsum(law)
    keep = law > 0.0
    keep &= cumulative >= _RHO_TAIL
    keep &= cumulative - law <= cumulative[-1] - _RHO_TAIL
    return lo + (hi - lo) / bins * (index[keep] / sensors + 0.5), law[keep]


def _max_tilt(support: np.ndarray, law: np.ndarray, window: int, t: np.ndarray) -> np.ndarray:
    """``E[M exp(-t S)]`` at each ``t``, ``M`` the maximum and ``S`` the sum of ``window`` draws.

    The draws are i.i.d. from the lattice law.  With ``B_j`` the sum of
    ``law_i exp(-t support_i)`` over ``i <= j``, that is
    ``sum_j support_j (B_j^L - B_(j-1)^L)``, exact for a lattice law, ties
    included.  It is summed by parts on ``B / B_last``, whose powers are
    raised to at least ``_RHO_FLOOR``: that moves the value by at most
    ``_RHO_FLOOR`` times the support's span, and no power is subnormal.
    """
    tilted = np.exp(np.multiply.outer(-t, support))
    tilted *= law
    np.cumsum(tilted, axis=1, out=tilted)
    last = tilted[:, -1].copy()
    tilted /= last[:, None]
    np.maximum(tilted, _RHO_FLOOR ** (1.0 / window), out=tilted)
    np.power(tilted, window, out=tilted)
    return last**window * (support[-1] - tilted[:, :-1] @ np.diff(support))


def expected_rho(p: TheoryParams) -> float:
    """Mean estimated uncertainty factor ``E[rho]`` of ``p.L``-event windows of ``p.K`` sensors.

    The noise variances are uniform in dB within ``p.uncertainty_db``; the
    rule's estimate ``rho`` is the largest ``M`` of the window's ``L``
    sensor-mean variances over their mean.  So ``E[rho] = L E[M / S]``, ``S``
    their sum, and ``E[M / S]`` integrates ``E[M exp(-t S)]`` over ``t > 0``,
    exact at each ``t`` on a lattice law of the sensor-mean variance
    (:func:`_max_tilt`).  The t-panels ``[0, s, 4 s, ...]`` sit on the decay
    scale ``s = 1 / (L E[m])`` and end once the rest, at most
    ``E[exp(-t S)]``, puts at most ``_RHO_TRUNCATION`` on ``E[rho]``.
    Deterministic; exactly 1 at zero half-width.

    The lattice error is ``O(h^2)`` in the bin width, so the ``_RHO_BINS``
    lattices give two Richardson values, and the finer one is returned.
    Their difference estimates the coarser one's error, about 12 times the
    finer one's, and must be at most ``_RHO_TOL``, or ``NumericError`` is
    raised.  That holds for ``uncertainty_db`` up to 10 dB at every sensor
    count and window length; one sensor and ``L = 2`` converge least
    (7.7e-5 at 10 dB, 1.6e-4 at 10.5 dB), 48 sensors and ``L = 100`` to
    about 14 dB.  Past a geometry's range the difference stays above the
    tolerance up to the largest finite half-width, 3082 dB (checked at 70
    half-widths and 35 geometries), so there it raises instead of returning
    an unconverged number.
    """
    if p.uncertainty_db == 0.0:
        return 1.0
    window = p.L
    laws = [_variance_mean_law(p.uncertainty_db, p.K, bins) for bins in _RHO_BINS]

    def integrand(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # blocks of 8 nodes keep each (nodes, atoms) array near 100 kB
        flat = t.ravel()
        columns = [
            np.column_stack([_max_tilt(*law, window, flat[i : i + 8]) for law in laws])
            for i in range(0, flat.size, 8)
        ]
        return np.concatenate(columns).reshape(*t.shape, len(laws))

    support, law = laws[-1]
    edges = [0.0, 1.0 / (law @ support) / window]
    if not edges[1] > 0.0:  # the decay scale underflows: the panels could never grow
        raise NumericError(f"expected_rho has no decay scale at history_len={window}")
    while window * max(p @ np.exp(-edges[-1] * x) for x, p in laws) ** window > _RHO_TRUNCATION:
        edges.append(4.0 * edges[-1])
    coarse, middle, fine = window * _fading_average(integrand, [edges], "expected_rho")[0]
    low, value = (4.0 * middle - coarse) / 3.0, (4.0 * fine - middle) / 3.0
    if not abs(value - low) <= _RHO_TOL:
        raise NumericError(
            f"expected_rho did not converge at uncertainty_db={p.uncertainty_db!r}: "
            f"lattice error estimate {abs(value - low):.3g} above {_RHO_TOL}"
        )
    return float(value)

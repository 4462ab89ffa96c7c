"""Gap observables of a sampled spectrum and their limiting laws.

Counts nearest-neighbor and lag-j gap statistics in a window A (always an
open interval of normalized gaps n*(lambda_{i+j} - lambda_i)) and the
normalized k-th smallest gaps tau_k = 2^{-3/2} n t_k whose limit law has
density 2 x^{2k-1} e^{-x^2} / (k-1)!.  The same law with x^2 replaced by
x^{beta+1} is the conjectured shape for other Dyson indices beta.

The lag counts and tau_k work along the last axis: one call maps a block of
spectra, one per row, to a column per statistic.  The one-row forms
``chi_count``, ``chi_tilde_total`` and ``kth_gap_tau`` are kept only for the
benchmark's serial row recompute (``bench/workload.py``).  Goodness-of-fit
helpers (one- and two-sample Kolmogorov-Smirnov with the asymptotic p-value,
chi-square Poisson fit, falling factorials) operate on plain sample arrays so
they can be reused on any experiment output, and the limit laws evaluate
elementwise on arrays.  Every special function a fit needs has a short closed
form for the arguments it meets, written here on numpy and ``math``: the
k-th gap law is Gamma(k, 1) in y = x^{beta+1}, whose CDF is a finite Poisson
sum (Abramowitz & Stegun 6.5.13); the chi-square survival function at an
integer number of degrees of freedom climbs from e^{-x/2} or erfc(sqrt(x/2))
by one term per half-degree; the Kolmogorov survival function is a pair of
theta series (Marsaglia, Tsang & Wang, J. Stat. Softw. 8(18), 2003).  So a
fit loads no scipy module.
"""

from __future__ import annotations

import math

import numpy as np

TAU_NORMALIZATION = 2.0**-1.5

# fewest samples the one-sample KS test and the chi-square Poisson fit accept
KS_MIN_SAMPLES = 10
GOF_MIN_SAMPLES = 200

# half the float64 spacing at 1: a term below this share of a positive sum does not move it
_EPS = 2.0**-53


# ---------------------------------------------------------------------------
# counting statistics


def chi_tilde_counts(spectra, interval, j_max: int) -> np.ndarray:
    """Per-lag counts of n*(lambda_{i+j} - lambda_i) in the window, j = 1..j_max, along the
    last axis of a sorted spectrum or a block of them: shape (..., j_max), as int64.  The
    pass stops at the first lag whose smallest distance over the block reaches the window
    top, since on a sorted spectrum lag-(j+1) distances dominate lag-j ones."""
    v = np.asarray(spectra, dtype=np.float64)
    n = v.shape[-1]
    if not 1 <= j_max <= n - 1:
        raise ValueError("need 1 <= j_max <= n-1")
    lo, hi = interval
    counts = np.zeros(v.shape[:-1] + (j_max,), dtype=np.int64)
    for j in range(1, j_max + 1):
        d = (v[..., j:] - v[..., :-j]) * n
        if np.min(d) >= hi:
            break
        counts[..., j - 1] = np.count_nonzero((d > lo) & (d < hi), axis=-1)
    return counts


def chi_count(spectrum, interval) -> int:
    """Number of nearest-neighbor gaps with n*(gap) in the open interval, in one spectrum."""
    return int(chi_tilde_counts(spectrum, interval, 1)[0])


def chi_tilde_total(spectrum, interval) -> int:
    """Window count of one spectrum summed over all lags."""
    return int(chi_tilde_counts(spectrum, interval, len(spectrum) - 1).sum())


# ---------------------------------------------------------------------------
# normalized smallest gaps and their limit law


def tau_sequence(spectra, k_max: int) -> np.ndarray:
    """tau_k = 2^{-3/2} * n * (k-th smallest nearest-neighbor gap), k = 1..k_max, along
    the last axis of a sorted spectrum or a block of them: shape (..., k_max)."""
    v = np.asarray(spectra, dtype=np.float64)
    n = v.shape[-1]
    if not 1 <= k_max <= n - 1:
        raise ValueError("need 1 <= k_max <= n-1")
    gaps = np.sort(np.diff(v, axis=-1), axis=-1)
    return TAU_NORMALIZATION * n * gaps[..., :k_max]


def kth_gap_tau(spectrum, k: int) -> float:
    """tau_k of one spectrum."""
    return float(tau_sequence(spectrum, k)[k - 1])


def _law_power(x: np.ndarray, beta: float) -> np.ndarray:
    """x^{beta+1}; at beta = 1 the product x*x, which x ** 2.0 does not
    always round to.  An overflow to inf is the law's limit: CDF 1, density 0."""
    with np.errstate(over="ignore"):
        return x * x if beta == 1.0 else x ** (beta + 1.0)


def _stirling_remainder(k: int) -> float:
    """log k! - (k log k - k) for an integer k >= 1.  From k = 10 on it is the
    Stirling series, whose terms do not cancel as log k! and k log k do; its
    first omitted term is below 1e-16 there."""
    if k < 10:
        return math.lgamma(k + 1) - k * math.log(k) + k
    r2 = 1.0 / (k * k)
    tail = 1 / 1680 - r2 * (1 / 1188 - r2 * (691 / 360360 - r2 / 156))
    series = 1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * tail))
    return 0.5 * math.log(2.0 * math.pi * k) + series / k


def _gamma_p(k: int, y) -> np.ndarray:
    """The regularized lower incomplete gamma P(k, y) = 1 - e^{-y} sum_{j<k} y^j/j!
    for an integer k >= 1, elementwise on y >= 0.

    Both branches scale the Poisson probability e^{-y} y^k / k!, taken as
    exp(k log(y/k) + k - y - log k! + k log k - k), which neither overflows nor
    cancels for any k.  Below y = k, P is that times the rising series
    sum_m y^m k!/(k+m)! (A&S 6.5.29); from y = k on, P = 1 - Q with Q that times
    sum_{i=1..k} k!/((k-i)! y^i).  Every term is positive and each series falls
    from its first term; a sum stops once no term moves it."""
    y = np.asarray(y, dtype=np.float64)
    out = np.ones_like(y)  # P(k, inf) = 1
    live = y != np.inf
    yl = y[live]
    with np.errstate(divide="ignore"):  # log 0 = -inf: P(k, 0) = 0
        pmf = np.exp(k * np.log(yl / k) + (k - yl) - _stirling_remainder(k))
    p = np.empty_like(yl)
    below = yl < k
    lo = yl[below]
    term, total = np.ones_like(lo), np.ones_like(lo)
    m = k
    while np.any(term > _EPS * total):
        m += 1
        term *= lo / m
        total += term
    p[below] = pmf[below] * total
    hi = yl[~below]
    term, total = np.ones_like(hi), np.zeros_like(hi)
    for i in range(k):
        term *= (k - i) / hi
        total += term
        if not np.any(term > _EPS * total):
            break
    p[~below] = 1.0 - pmf[~below] * total
    out[live] = p
    return out[()]  # a scalar for a scalar y


def limiting_tau_cdf(k: int, x, beta: float = 1.0):
    """P(tau_k <= x) in the limit, elementwise: the regularized lower
    incomplete gamma P(k, y) at y = x^{beta+1}, i.e. 1 - e^{-y} sum_{j<k} y^j/j!,
    and 0 for x <= 0.  beta = 1 is the GOE law of the k-th smallest gap."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _gamma_p(k, _law_power(np.maximum(x, 0.0), beta))


def limiting_tau_pdf(k: int, x, beta: float = 1.0):
    """Limit density (beta+1) x^{k(beta+1)-1} e^{-x^{beta+1}} / (k-1)!, elementwise,
    which is 2 x^{2k-1} e^{-x^2} / (k-1)! for the GOE, and 0 for x <= 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x = np.maximum(x, 0.0)
    b1 = beta + 1.0
    with np.errstate(divide="ignore"):  # the power k(beta+1) - 1 is positive: log 0 = -inf gives 0
        log_power = (k * b1 - 1.0) * np.log(x)
    return np.exp(math.log(b1) + log_power - _law_power(x, beta) - math.lgamma(k))


def two_by_two_gap_cdf(s):
    """P(gap <= s) for the eigenvalue gap of a 2x2 GOE matrix: 1 - e^{-s^2/4}."""
    return 1.0 - np.exp(-s * s / 4.0)


def two_by_two_gap_pdf(s):
    """Density (s/2) e^{-s^2/4} of the 2x2 GOE eigenvalue gap."""
    return 0.5 * s * np.exp(-s * s / 4.0)


def poisson_intensity(interval) -> float:
    """Expected window count of the limiting process: (hi^2 - lo^2)/8."""
    lo, hi = interval
    if not 0 <= lo <= hi:
        raise ValueError("need 0 <= lo <= hi")
    return (hi * hi - lo * lo) / 8.0


# ---------------------------------------------------------------------------
# goodness of fit


def _kolmogorov_sf(x: float) -> float:
    """The limit of P(sqrt(n) D_n > x): up to x = 1, one minus the theta series
    sqrt(2 pi)/x sum_{j>=1} e^{-(2j-1)^2 pi^2 / (8 x^2)}; above, the alternating
    series 2 sum_{j>=1} (-1)^{j-1} e^{-2 j^2 x^2}.  Either omits terms below
    1e-20 of its first."""
    if x <= 0.04:  # the theta series is below 1e-300 here, and x * x may underflow
        return 1.0
    if x <= 1.0:
        w = math.exp(-math.pi**2 / (8.0 * x * x))
        return 1.0 - math.sqrt(2.0 * math.pi) / x * (w + w**9 + w**25 + w**49)
    v = math.exp(-2.0 * x * x)
    return 2.0 * (v - v**4 + v**9 - v**16)


def _sorted_samples(samples) -> np.ndarray:
    v = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    if v.size < 1:
        raise ValueError("need at least one sample")
    return v


def ks_test(samples, cdf) -> tuple:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value.
    ``cdf`` maps an array of sample values to the array of their CDF values."""
    v = _sorted_samples(samples)
    n = v.size
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"need at least {KS_MIN_SAMPLES} samples")
    f = cdf(v)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    d = float(max(d_plus, d_minus))
    return d, _kolmogorov_sf(math.sqrt(n) * d)


def ks_two_sample(a, b) -> tuple:
    """Two-sample Kolmogorov-Smirnov with the asymptotic p-value."""
    va, vb = _sorted_samples(a), _sorted_samples(b)
    pooled = np.concatenate([va, vb])
    pooled.sort(kind="mergesort")
    fa = np.searchsorted(va, pooled, side="right") / va.size
    fb = np.searchsorted(vb, pooled, side="right") / vb.size
    d = float(np.max(np.abs(fa - fb)))
    ne = va.size * vb.size / (va.size + vb.size)
    return d, _kolmogorov_sf(math.sqrt(ne) * d)


def falling_factorial(count_samples, k: int) -> np.ndarray:
    """Per-sample falling factorial c*(c-1)*...*(c-k+1), as floats."""
    if k < 1:
        raise ValueError("k must be >= 1")
    c = np.asarray(count_samples, dtype=np.float64)
    prod = np.ones_like(c)
    for j in range(k):
        prod = prod * (c - j)
    return prod


def _poisson_pmf(kk: np.ndarray, mu: float) -> np.ndarray:
    log_factorials = np.array([math.lgamma(k + 1.0) for k in kk])
    return np.exp(kk * math.log(mu) - mu - log_factorials)


def _chi2_sf(df: int, x: float) -> float:
    """P(chi^2_df > x) for an integer df >= 1: Q(df/2, x/2), climbing from
    Q(1/2, z) = erfc(sqrt z) or Q(1, z) = e^{-z} by Q(a+1, z) = Q(a, z) + z^a e^{-z} / Gamma(a+1).
    Every term is positive, so nothing cancels.  From x = 1417 on e^{-x/2} is
    subnormal: the result, below 1e-270 for df <= 40, loses digits there and
    reads 0 from x = 1490."""
    z = 0.5 * x
    if df % 2:
        a, q, term = 0.5, math.erfc(math.sqrt(z)), 2.0 * math.sqrt(z / math.pi) * math.exp(-z)
    else:
        a, q, term = 1.0, math.exp(-z), z * math.exp(-z)
    while a < 0.5 * df:
        q += term
        a += 1.0
        term *= z / a
    return q


def poisson_gof(count_samples, mu: float) -> float:
    """Chi-square p-value of the observed counts against Poisson(mu).

    Cells are pooled left to right until every expected count reaches 5;
    if pooling collapses everything into one cell the test is vacuous and
    the p-value is 1.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    counts = np.asarray(count_samples, dtype=np.int64)
    if counts.size < GOF_MIN_SAMPLES:
        raise ValueError(f"need at least {GOF_MIN_SAMPLES} samples")
    kmax = int(np.max(counts))
    support = np.arange(kmax + 1, dtype=np.float64)
    expected = counts.size * _poisson_pmf(support, mu)
    expected = np.append(expected, counts.size - expected.sum())  # upper tail
    observed = np.bincount(counts, minlength=kmax + 1).astype(np.float64)
    observed = np.append(observed, 0.0)

    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 or acc_o > 0:
        if pooled_exp:
            pooled_obs[-1] += acc_o
            pooled_exp[-1] += acc_e
        else:
            pooled_obs, pooled_exp = [acc_o], [acc_e]
    if len(pooled_exp) <= 1:
        return 1.0
    obs = np.array(pooled_obs)
    exp = np.array(pooled_exp)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return _chi2_sf(len(pooled_exp) - 1, stat)

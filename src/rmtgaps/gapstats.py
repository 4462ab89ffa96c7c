"""Gap observables of a sampled spectrum and their limiting laws.

Counts nearest-neighbor and lag-j gap statistics in a window A (always an
open interval of normalized gaps n*(lambda_{i+j} - lambda_i)) and the
normalized k-th smallest gaps tau_k = 2^{-3/2} n t_k whose limit law has
density 2 x^{2k-1} e^{-x^2} / (k-1)!.  The same law with x^2 replaced by
x^{beta+1} is the conjectured shape for other Dyson indices beta.

Goodness-of-fit helpers (one- and two-sample Kolmogorov-Smirnov with the
asymptotic p-value, chi-square Poisson fit, factorial moments) operate on
plain arrays so they can be reused on any experiment output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

TAU_NORMALIZATION = 2.0**-1.5


def _values(spectrum) -> np.ndarray:
    vals = getattr(spectrum, "values", spectrum)
    return np.asarray(vals, dtype=np.float64)


def _inside(x: np.ndarray, interval) -> np.ndarray:
    lo, hi = interval
    return (x > lo) & (x < hi)


# ---------------------------------------------------------------------------
# counting statistics


def chi_count(spectrum, interval) -> int:
    """Number of nearest-neighbor gaps with n*(gap) in the open interval."""
    v = _values(spectrum)
    gaps = np.diff(v) * v.size
    return int(np.count_nonzero(_inside(gaps, interval)))


def chi_tilde_counts(spectrum, interval, j_max: int) -> list:
    """Per-lag counts of n*(lambda_{i+j} - lambda_i) in the window, j = 1..j_max."""
    v = _values(spectrum)
    n = v.size
    if not 1 <= j_max <= n - 1:
        raise ValueError("need 1 <= j_max <= n-1")
    out = []
    for j in range(1, j_max + 1):
        d = (v[j:] - v[:-j]) * n
        out.append(int(np.count_nonzero(_inside(d, interval))))
    return out


def chi_tilde_total(spectrum, interval) -> int:
    """Total over all lags, stopping once every lag-j distance exceeds the window."""
    v = _values(spectrum)
    n = v.size
    _, hi = interval
    total = 0
    for j in range(1, n):
        d = (v[j:] - v[:-j]) * n
        if np.min(d) >= hi:
            break
        total += int(np.count_nonzero(_inside(d, interval)))
    return total


# ---------------------------------------------------------------------------
# normalized smallest gaps and their limit law


def tau_sequence(spectrum, k_max: int) -> np.ndarray:
    """tau_k = 2^{-3/2} * n * (k-th smallest nearest-neighbor gap), k = 1..k_max."""
    v = _values(spectrum)
    n = v.size
    if not 1 <= k_max <= n - 1:
        raise ValueError("need 1 <= k_max <= n-1")
    gaps = np.sort(np.diff(v))
    return TAU_NORMALIZATION * n * gaps[:k_max]


def kth_gap_tau(spectrum, k: int) -> float:
    return float(tau_sequence(spectrum, k)[k - 1])


def _law_power(x: float, beta: float) -> float:
    """x^{beta+1}; at beta = 1 the product x*x, which x ** 2.0 does not
    always round to."""
    return x * x if beta == 1.0 else x ** (beta + 1.0)


def limiting_tau_cdf(k: int, x: float, beta: float = 1.0) -> float:
    """P(tau_k <= x) in the limit: the regularized lower incomplete gamma
    of integer order k at y = x^{beta+1}, i.e. 1 - e^{-y} sum_{j<k} y^j/j!.
    beta = 1 is the GOE law of the k-th smallest gap."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if x <= 0:
        return 0.0
    y = _law_power(x, beta)
    tail = math.fsum(math.exp(-y + j * math.log(y) - math.lgamma(j + 1)) for j in range(k))
    return min(1.0, max(0.0, 1.0 - tail))


def limiting_tau_pdf(k: int, x: float, beta: float = 1.0) -> float:
    """Limit density (beta+1) x^{k(beta+1)-1} e^{-x^{beta+1}} / (k-1)!,
    which is 2 x^{2k-1} e^{-x^2} / (k-1)! for the GOE."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if x <= 0:
        return 0.0
    b1 = beta + 1.0
    return math.exp(
        math.log(b1) + (k * b1 - 1.0) * math.log(x) - _law_power(x, beta) - math.lgamma(k)
    )


def poisson_intensity(interval) -> float:
    """Expected window count of the limiting process: (hi^2 - lo^2)/8."""
    lo, hi = interval
    if not 0 <= lo <= hi:
        raise ValueError("need 0 <= lo <= hi")
    return (hi * hi - lo * lo) / 8.0


# ---------------------------------------------------------------------------
# goodness of fit


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted sample values."""

    values: np.ndarray

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalDistribution":
        v = np.sort(np.asarray(samples, dtype=np.float64).ravel())
        if v.size < 1:
            raise ValueError("need at least one sample")
        return cls(v)

    @property
    def size(self) -> int:
        return self.values.size


def kolmogorov_sf(x: float) -> float:
    """Complementary CDF of the Kolmogorov distribution.

    Alternating series for large x, Jacobi-theta transformed series for
    small x; terms below 1e-12 stop the summation.
    """
    if x <= 0:
        return 1.0
    if x < 1.18:
        # sum sqrt(2 pi)/x * exp(-(2j-1)^2 pi^2 / (8 x^2)) is the CDF
        acc = 0.0
        for j in range(1, 200):
            term = math.exp(-((2 * j - 1) ** 2) * math.pi**2 / (8.0 * x * x))
            acc += term
            if term < 1e-12:
                break
        return min(1.0, max(0.0, 1.0 - math.sqrt(2.0 * math.pi) / x * acc))
    acc = 0.0
    for j in range(1, 200):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * x * x)
        acc += term
        if abs(term) < 1e-12:
            break
    return min(1.0, max(0.0, acc))


def ks_test(samples: EmpiricalDistribution, cdf) -> tuple:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    v = samples.values
    n = v.size
    if n < 10:
        raise ValueError("need at least 10 samples")
    f = np.array([cdf(x) for x in v])
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    d = float(max(d_plus, d_minus))
    return d, kolmogorov_sf(math.sqrt(n) * d)


def ks_two_sample(a: EmpiricalDistribution, b: EmpiricalDistribution) -> tuple:
    """Two-sample Kolmogorov-Smirnov with the asymptotic p-value."""
    va, vb = a.values, b.values
    pooled = np.concatenate([va, vb])
    pooled.sort(kind="mergesort")
    fa = np.searchsorted(va, pooled, side="right") / va.size
    fb = np.searchsorted(vb, pooled, side="right") / vb.size
    d = float(np.max(np.abs(fa - fb)))
    ne = va.size * vb.size / (va.size + vb.size)
    return d, kolmogorov_sf(math.sqrt(ne) * d)


def falling_factorial(count_samples, k: int) -> np.ndarray:
    """Per-sample falling factorial c*(c-1)*...*(c-k+1), as floats."""
    if k < 1:
        raise ValueError("k must be >= 1")
    c = np.asarray(count_samples, dtype=np.float64)
    prod = np.ones_like(c)
    for j in range(k):
        prod = prod * (c - j)
    return prod


def factorial_moment(count_samples, k: int) -> float:
    """Mean over trials of c*(c-1)*...*(c-k+1)."""
    return float(np.mean(falling_factorial(count_samples, k)))


def _poisson_pmf(kk: np.ndarray, mu: float) -> np.ndarray:
    return np.exp(kk * math.log(mu) - mu - np.array([math.lgamma(x + 1) for x in kk]))


def poisson_gof(count_samples, mu: float) -> float:
    """Chi-square p-value of the observed counts against Poisson(mu).

    Cells are pooled left to right until every expected count reaches 5;
    if pooling collapses everything into one cell the test is vacuous and
    the p-value is 1.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    counts = np.asarray(count_samples, dtype=np.int64)
    if counts.size < 200:
        raise ValueError("need at least 200 samples")
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
    return float(chdtrc(len(pooled_exp) - 1, stat))  # the chi-square survival function

"""Gap observables of a sampled spectrum and their limiting laws.

Counts nearest-neighbor and lag-j gap statistics in a window A (always an
open interval of normalized gaps n*(lambda_{i+j} - lambda_i)) and the
normalized k-th smallest gaps tau_k = 2^{-3/2} n t_k whose limit law has
density 2 x^{2k-1} e^{-x^2} / (k-1)!.  The same law with x^2 replaced by
x^{beta+1} is the conjectured shape for other Dyson indices beta.

Goodness-of-fit helpers (one- and two-sample Kolmogorov-Smirnov with the
asymptotic p-value, chi-square Poisson fit, falling factorials) operate on
plain arrays so they can be reused on any experiment output, and the limit
laws evaluate elementwise on arrays.  The KS tests, the k-th gap law and the
chi-square fit load ``scipy.special`` on first use, not with this module: no
process that never fits a law (``rmtgaps verify``) pays for the import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TAU_NORMALIZATION = 2.0**-1.5

# fewest samples the one-sample KS test and the chi-square Poisson fit accept
KS_MIN_SAMPLES = 10
GOF_MIN_SAMPLES = 200


def _values(spectrum) -> np.ndarray:
    vals = getattr(spectrum, "values", spectrum)
    return np.asarray(vals, dtype=np.float64)


def _inside(x: np.ndarray, interval) -> np.ndarray:
    lo, hi = interval
    return (x > lo) & (x < hi)


# ---------------------------------------------------------------------------
# counting statistics


def _lag_counts(v: np.ndarray, interval, j_max: int) -> list:
    """Counts of n*(lambda_{i+j} - lambda_i) in the window for j = 1..j_max.  On a sorted
    spectrum lag-(j+1) distances dominate lag-j ones, so the pass stops at the first lag
    whose smallest distance reaches the window top and pads the later lags with zeros."""
    n = v.size
    out = []
    for j in range(1, min(j_max, n - 1) + 1):
        d = (v[j:] - v[:-j]) * n
        if np.min(d) >= interval[1]:
            break
        out.append(int(np.count_nonzero(_inside(d, interval))))
    return out + [0] * (j_max - len(out))


def chi_count(spectrum, interval) -> int:
    """Number of nearest-neighbor gaps with n*(gap) in the open interval."""
    return _lag_counts(_values(spectrum), interval, 1)[0]


def chi_tilde_counts(spectrum, interval, j_max: int) -> list:
    """Per-lag counts of n*(lambda_{i+j} - lambda_i) in the window, j = 1..j_max."""
    v = _values(spectrum)
    if not 1 <= j_max <= v.size - 1:
        raise ValueError("need 1 <= j_max <= n-1")
    return _lag_counts(v, interval, j_max)


def chi_tilde_total(spectrum, interval) -> int:
    """Window count summed over all lags."""
    v = _values(spectrum)
    return sum(_lag_counts(v, interval, v.size - 1))


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


def _law_power(x: np.ndarray, beta: float) -> np.ndarray:
    """x^{beta+1}; at beta = 1 the product x*x, which x ** 2.0 does not
    always round to.  An overflow to inf is the law's limit: CDF 1, density 0."""
    with np.errstate(over="ignore"):
        return x * x if beta == 1.0 else x ** (beta + 1.0)


def limiting_tau_cdf(k: int, x, beta: float = 1.0):
    """P(tau_k <= x) in the limit, elementwise: the regularized lower
    incomplete gamma P(k, y) at y = x^{beta+1}, i.e. 1 - e^{-y} sum_{j<k} y^j/j!,
    and 0 for x <= 0.  beta = 1 is the GOE law of the k-th smallest gap."""
    if k < 1:
        raise ValueError("k must be >= 1")
    from scipy.special import gammainc  # loaded on first use; see the module docstring

    return gammainc(k, _law_power(np.maximum(x, 0.0), beta))


def limiting_tau_pdf(k: int, x, beta: float = 1.0):
    """Limit density (beta+1) x^{k(beta+1)-1} e^{-x^{beta+1}} / (k-1)!, elementwise,
    which is 2 x^{2k-1} e^{-x^2} / (k-1)! for the GOE, and 0 for x <= 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    from scipy.special import xlogy  # a log(x), and -inf at x = 0 without a warning

    x = np.maximum(x, 0.0)
    b1 = beta + 1.0
    return np.exp(math.log(b1) + xlogy(k * b1 - 1.0, x) - _law_power(x, beta) - math.lgamma(k))


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


def ks_test(samples: EmpiricalDistribution, cdf) -> tuple:
    """One-sample Kolmogorov-Smirnov statistic and asymptotic p-value.
    ``cdf`` maps an array of sample values to the array of their CDF values."""
    v = samples.values
    n = v.size
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"need at least {KS_MIN_SAMPLES} samples")
    from scipy.special import kolmogorov  # the Kolmogorov survival function

    f = cdf(v)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    d = float(max(d_plus, d_minus))
    return d, float(kolmogorov(math.sqrt(n) * d))


def ks_two_sample(a: EmpiricalDistribution, b: EmpiricalDistribution) -> tuple:
    """Two-sample Kolmogorov-Smirnov with the asymptotic p-value."""
    from scipy.special import kolmogorov

    va, vb = a.values, b.values
    pooled = np.concatenate([va, vb])
    pooled.sort(kind="mergesort")
    fa = np.searchsorted(va, pooled, side="right") / va.size
    fb = np.searchsorted(vb, pooled, side="right") / vb.size
    d = float(np.max(np.abs(fa - fb)))
    ne = va.size * vb.size / (va.size + vb.size)
    return d, float(kolmogorov(math.sqrt(ne) * d))


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
    from scipy.special import gammaln

    return np.exp(kk * math.log(mu) - mu - gammaln(kk + 1))


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
    from scipy.special import chdtrc  # loaded on first use; see the module docstring

    obs = np.array(pooled_obs)
    exp = np.array(pooled_exp)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    return float(chdtrc(len(pooled_exp) - 1, stat))  # the chi-square survival function

"""Samplers: determinism, distribution checks against closed forms."""

import math

import numpy as np
import pytest

from rmtgaps import ensemble as ens
from rmtgaps import gapstats as gs

STREAM = ens.SeedStream(base_seed=424242)


def dense(n):
    return ens.EnsembleSpec(n, sampler=ens.SAMPLER_DENSE)


def tridiag(n, scaling=ens.SCALING_UNIT):
    return ens.EnsembleSpec(n, scaling=scaling)


def test_spec_validation():
    with pytest.raises(ValueError):
        ens.EnsembleSpec(n=10, beta=0.0)
    with pytest.raises(ValueError):
        ens.EnsembleSpec(n=10, beta=2.0, sampler=ens.SAMPLER_DENSE)
    with pytest.raises(ValueError):
        ens.EnsembleSpec(n=10, beta=2.0, scaling=ens.SCALING_UNIT)
    with pytest.raises(ValueError):
        ens.EnsembleSpec(n=10, scaling=ens.SCALING_NSCALED, sampler=ens.SAMPLER_DENSE)
    ens.EnsembleSpec(n=10, beta=2.0, scaling=ens.SCALING_NSCALED)


def test_dense_determinism_and_sorting():
    a = ens.sample(dense(30), STREAM, 5)
    b = ens.sample(dense(30), STREAM, 5)
    assert np.array_equal(a.values, b.values)
    assert np.all(np.diff(a.values) > 0)
    c = ens.sample(dense(30), STREAM, 6)
    assert not np.array_equal(a.values, c.values)


def test_tridiag_determinism_and_sorting():
    a = ens.sample(tridiag(100), STREAM, 9)
    b = ens.sample(tridiag(100), STREAM, 9)
    assert np.array_equal(a.values, b.values)
    assert np.all(np.diff(a.values) > 0)


def test_nscaled_divides_by_sqrt_n():
    n = 64
    unit = ens.sample(tridiag(n, ens.SCALING_UNIT), STREAM, 1)
    scaled = ens.sample(tridiag(n, ens.SCALING_NSCALED), STREAM, 1)
    assert np.array_equal(unit.values / math.sqrt(n), scaled.values)


def test_eigen_tridiagonal_trivial_cases():
    assert ens.eigen_tridiagonal([3.5], []) == pytest.approx([3.5])
    vals = ens.eigen_tridiagonal([0.0, 0.0], [1.0])
    assert vals == pytest.approx([-1.0, 1.0], abs=1e-14)


def test_eigen_tridiagonal_against_dense_oracle():
    rng = np.random.default_rng(12)
    d = rng.standard_normal(50)
    e = rng.standard_normal(49)
    mine = ens.eigen_tridiagonal(d, e)
    dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    assert np.max(np.abs(mine - dense)) < 1e-10


def test_eigen_tridiagonal_shape_validation():
    with pytest.raises(ValueError):
        ens.eigen_tridiagonal([1.0, 2.0], [1.0, 2.0])


def test_size_bounds():
    # checked when the spec is built, so nothing is drawn
    for spec, limit in ((dense, ens.MAX_DENSE_N), (tridiag, ens.MAX_TRIDIAG_N)):
        for n in (1, limit + 1):
            with pytest.raises(ValueError):
                spec(n)
        assert spec(2).n == 2 and spec(limit).n == limit


def test_trace_second_moment_bookkeeping():
    n, trials = 50, 1500
    tr2 = np.array(
        [np.sum(ens.sample(dense(n), STREAM, t).values ** 2) for t in range(trials)]
    )
    expect = n * (n + 1) / 2.0
    se = tr2.std(ddof=1) / math.sqrt(trials)
    assert abs(tr2.mean() - expect) < 3 * se


def test_mean_trace_is_zero():
    sums = np.array([ens.sample(dense(2), STREAM, t).values.sum() for t in range(4000)])
    se = sums.std(ddof=1) / math.sqrt(sums.size)
    assert abs(sums.mean()) < 3 * se


@pytest.mark.parametrize("sampler", ["dense", "tridiagonal"])
def test_two_by_two_gap_law(sampler):
    trials = 20_000
    gaps = np.empty(trials)
    spec = ens.EnsembleSpec(2, sampler=sampler)
    for t in range(trials):
        s = ens.sample(spec, STREAM, t)
        gaps[t] = s.values[1] - s.values[0]
    emp = gs.EmpiricalDistribution.from_samples(gaps)
    d, p = gs.ks_test(emp, gs.two_by_two_gap_cdf)
    assert p > 0.001, (d, p)


def test_lag_one_independence_of_max_eigenvalue():
    trials = 10_000
    lam_max = np.array(
        [ens.sample(tridiag(10), STREAM, t).values[-1] for t in range(trials)]
    )
    x, y = lam_max[:-1], lam_max[1:]
    r = np.corrcoef(x, y)[0, 1]
    assert abs(r) < 3.0 / math.sqrt(trials - 1)


def test_semicircle_mass_window():
    # pooled over trials; eigenvalues concentrate on [-sqrt(2n), sqrt(2n)]
    n, trials = 500, 40
    half = 0.5
    inside = np.array(
        [
            np.mean(np.abs(ens.sample(tridiag(n), STREAM, t).values) < half * math.sqrt(2 * n))
            for t in range(trials)
        ]
    )
    mass = (2 / math.pi) * (math.asin(half) + half * math.sqrt(1 - half * half))
    se = inside.std(ddof=1) / math.sqrt(trials)
    assert abs(inside.mean() - mass) < 3 * se


def test_dense_tridiag_gap_distributions_agree():
    trials = 800
    n = 100
    taus_d = np.array(
        [gs.kth_gap_tau(ens.sample(dense(n), STREAM, t).values, 1) for t in range(trials)]
    )
    taus_t = np.array(
        [
            gs.kth_gap_tau(ens.sample(tridiag(n), STREAM, t).values, 1)
            for t in range(trials)
        ]
    )
    d, p = gs.ks_two_sample(
        gs.EmpiricalDistribution.from_samples(taus_d),
        gs.EmpiricalDistribution.from_samples(taus_t),
    )
    assert p > 0.001, (d, p)

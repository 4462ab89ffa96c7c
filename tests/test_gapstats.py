"""Gap observables: counting, limit laws, GOF."""

import math
import warnings

import numpy as np
import pytest

from rmtgaps import gapstats as gs


def test_chi_count_examples():
    n = 3
    spec = np.array([0.0, 1.0 / n, 5.0 / n])
    assert gs.chi_count(spec, (0.0, 2.0)) == 1
    assert gs.chi_count(spec, (0.0, 1e9)) == n - 1
    eq = np.arange(4) * 3.0 / 4
    assert gs.chi_count(eq, (0.0, 2.0)) == 0


def test_chi_tilde_examples():
    spec = np.array([0.0, 0.4 / 3, 0.9 / 3])
    assert gs.chi_tilde_counts(spec, (0.0, 1.0), 1) == [2]
    assert gs.chi_tilde_counts(spec, (0.0, 1.0), 2) == [2, 1]
    assert gs.chi_tilde_total(spec, (0.0, 1.0)) == 3
    n = 5
    eq = np.arange(n) * 0.6 / n
    assert gs.chi_tilde_counts(eq, (0.0, 1.0), 2) == [n - 1, 0]
    assert gs.chi_tilde_total(eq, (0.0, 1.0)) == n - 1


def test_lag_one_equals_nearest_neighbor():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = np.sort(rng.uniform(0, 1, 12))
        a = (0.0, rng.uniform(0.5, 4.0))
        assert gs.chi_tilde_counts(v, a, 1)[0] == gs.chi_count(v, a)


def test_chi_le_chi_tilde_property():
    rng = np.random.default_rng(1)
    for _ in range(200):
        v = np.sort(rng.uniform(0, 1, rng.integers(3, 30)))
        a = (0.0, rng.uniform(0.2, 5.0))
        assert gs.chi_count(v, a) <= gs.chi_tilde_total(v, a)


def test_tau_values_and_monotonicity():
    assert gs.kth_gap_tau(np.array([0.0, 1.0]), 1) == pytest.approx(2**-0.5)
    eq = np.arange(5) / 5.0
    taus = gs.tau_sequence(eq, 4)
    assert np.allclose(taus, taus[0])
    rng = np.random.default_rng(4)
    v = np.sort(rng.uniform(0, 1, 10))
    taus = gs.tau_sequence(v, 9)
    assert np.all(np.diff(taus) >= 0)


def test_limit_cdf_values():
    assert gs.limiting_tau_cdf(1, 0.5) == pytest.approx(1 - math.exp(-0.25), rel=1e-12)
    assert gs.limiting_tau_cdf(2, 50.0) == pytest.approx(1.0, abs=1e-12)
    assert gs.limiting_tau_cdf(3, 0.0) == 0.0


def test_limit_cdf_where_the_law_power_underflows():
    # x^{beta+1} rounds to 0 at x = 1e-200; the CDF is 0 there, not a domain error
    for beta in (1.0, 2.0, 4.0):
        for k in (1, 2, 3):
            assert gs.limiting_tau_cdf(k, 1e-200, beta) == 0.0


def test_limit_cdf_on_arrays():
    xs = np.array([-2.0, -1e-300, 0.0, 1e-200, 0.05, 0.3, 0.8, 1.0, 1.7, 2.5, 6.0])
    for beta in (1.0, 2.0, 4.0):
        for k in (1, 2, 3):
            cdf = gs.limiting_tau_cdf(k, xs, beta)
            assert cdf.shape == xs.shape
            assert np.all(cdf[xs <= 0] == 0.0)
            scalar = np.array([gs.limiting_tau_cdf(k, x, beta) for x in xs])
            assert np.max(np.abs(cdf - scalar)) <= 1e-15
        x = np.maximum(xs, 0.0)
        y = x * x if beta == 1.0 else x ** (beta + 1.0)
        assert np.max(np.abs(gs.limiting_tau_cdf(1, xs, beta) - (1 - np.exp(-y)))) <= 1e-15
        assert np.max(np.abs(gs.limiting_tau_cdf(2, xs, beta) - (1 - np.exp(-y) * (1 + y)))) <= 1e-15


def test_limit_pdf_is_zero_at_the_origin_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for beta in (1.0, 2.0, 4.0):
            for k in (1, 2, 3):
                assert gs.limiting_tau_pdf(k, 0.0, beta) == 0.0
                assert np.all(gs.limiting_tau_pdf(k, np.array([-1.0, 0.0]), beta) == 0.0)


def test_limit_cdf_monotone_and_density_match():
    for beta in (1.0, 2.0, 4.0):
        for k in (1, 2, 3, 4):
            xs = np.linspace(0.0, 4.0, 81)
            cdf = [gs.limiting_tau_cdf(k, x, beta) for x in xs]
            assert all(b >= a for a, b in zip(cdf, cdf[1:]))
            h = 1e-5
            for x in np.linspace(0.05, 3.0, 50):
                up, down = gs.limiting_tau_cdf(k, x + h, beta), gs.limiting_tau_cdf(k, x - h, beta)
                assert abs((up - down) / (2 * h) - gs.limiting_tau_pdf(k, x, beta)) < 1e-6
        # median of the first gap: the target of the conjecture-beta scale fit
        median = math.log(2.0) ** (1.0 / (beta + 1.0))
        assert gs.limiting_tau_cdf(1, median, beta) == pytest.approx(0.5, rel=1e-12)


def test_intensity_values():
    assert gs.poisson_intensity((0.0, 1.0)) == pytest.approx(0.125)
    assert gs.poisson_intensity((0.0, 2.0)) == pytest.approx(0.5)
    assert gs.poisson_intensity((1.0, 1.0)) == 0.0


def test_ks_self_consistency():
    rng = np.random.default_rng(5)
    good = 0
    for _ in range(100):
        u = rng.uniform(0, 1, 10_000)
        emp = gs.EmpiricalDistribution.from_samples(np.sqrt(-np.log(1 - u)))
        _, p = gs.ks_test(emp, lambda x: 1 - np.exp(-x * x))
        good += p > 0.001
    assert good >= 99


def test_ks_degenerate_and_shifted():
    emp = gs.EmpiricalDistribution.from_samples(np.full(64, 0.7))
    f = 1 - math.exp(-0.49)
    d, _ = gs.ks_test(emp, lambda x: 1 - np.exp(-x * x))
    assert d == pytest.approx(max(f, 1 - f), rel=1e-12)
    shifted = gs.EmpiricalDistribution.from_samples(np.linspace(10, 11, 100))
    d, p = gs.ks_test(shifted, lambda x: 1 - np.exp(-x * x))
    assert d > 0.99
    assert p < 1e-10


def test_ks_two_sample_same_distribution():
    rng = np.random.default_rng(6)
    a = gs.EmpiricalDistribution.from_samples(rng.standard_normal(5000))
    b = gs.EmpiricalDistribution.from_samples(rng.standard_normal(5000))
    _, p = gs.ks_two_sample(a, b)
    assert p > 0.001
    c = gs.EmpiricalDistribution.from_samples(rng.standard_normal(5000) + 1.0)
    _, p2 = gs.ks_two_sample(a, c)
    assert p2 < 1e-10


def test_factorial_moment_cases():
    assert np.mean(gs.falling_factorial([0, 0, 0], 2)) == 0.0
    assert np.mean(gs.falling_factorial([2, 2], 2)) == 2.0
    rng = np.random.default_rng(7)
    mu = 0.8
    pois = rng.poisson(mu, 100_000)
    prod = pois * (pois - 1.0)
    se = prod.std(ddof=1) / math.sqrt(pois.size)
    assert abs(np.mean(gs.falling_factorial(pois, 2)) - mu * mu) < 3 * se


def test_poisson_gof_behaviour():
    rng = np.random.default_rng(8)
    good = 0
    for _ in range(40):
        p = gs.poisson_gof(rng.poisson(0.5, 3000), 0.5)
        good += p > 0.01
    assert good >= 38  # ~95 percent under the null
    assert gs.poisson_gof(np.full(500, 3), 0.5) < 1e-6
    # everything pools into one cell: vacuous test
    assert gs.poisson_gof(np.zeros(300, dtype=int), 1e-9) == 1.0
    with pytest.raises(ValueError):
        gs.poisson_gof(np.zeros(100, dtype=int), 0.5)
    with pytest.raises(ValueError):
        gs.poisson_gof(np.zeros(300, dtype=int), 0.0)


def test_summary_invariants_on_random_spectra():
    from rmtgaps import ensemble as ens

    stream = ens.SeedStream(7)
    window = (0.0, 2.0)
    for t in range(25):
        v = ens.sample(ens.EnsembleSpec(60), stream, t).values
        chi = gs.chi_count(v, window)
        lags = gs.chi_tilde_counts(v, window, 2)
        chi_tilde = gs.chi_tilde_total(v, window)
        assert chi == lags[0]
        assert chi <= sum(lags) <= chi_tilde
        assert np.all(np.diff(gs.tau_sequence(v, 3)) >= 0)

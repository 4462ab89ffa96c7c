"""Samplers: determinism, distribution checks against closed forms."""

import math

import numpy as np
import pytest

from rmtgaps import ensemble as ens
from rmtgaps import experiments, prng
from rmtgaps import gapstats as gs

STREAM = ens.SeedStream(base_seed=424242)
SEED = STREAM.base_seed


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
    tr2 = np.array([np.sum(v**2) for v in ens.sample_block(dense(n), SEED, 0, trials)])
    expect = n * (n + 1) / 2.0
    se = tr2.std(ddof=1) / math.sqrt(trials)
    assert abs(tr2.mean() - expect) < 3 * se


def test_mean_trace_is_zero():
    sums = np.array([v.sum() for v in ens.sample_block(dense(2), SEED, 0, 4000)])
    se = sums.std(ddof=1) / math.sqrt(sums.size)
    assert abs(sums.mean()) < 3 * se


@pytest.mark.parametrize("sampler", ["dense", "tridiagonal"])
def test_two_by_two_gap_law(sampler):
    trials = 20_000
    spec = ens.EnsembleSpec(2, sampler=sampler)
    block = ens.sample_block(spec, SEED, 0, trials)
    gaps = block[:, 1] - block[:, 0]
    d, p = gs.ks_test(gaps, gs.two_by_two_gap_cdf)
    assert p > 0.001, (d, p)


def test_lag_one_independence_of_max_eigenvalue():
    trials = 10_000
    lam_max = ens.sample_block(tridiag(10), SEED, 0, trials)[:, -1]
    x, y = lam_max[:-1], lam_max[1:]
    r = np.corrcoef(x, y)[0, 1]
    assert abs(r) < 3.0 / math.sqrt(trials - 1)


def test_semicircle_mass_window():
    # pooled over trials; eigenvalues concentrate on [-sqrt(2n), sqrt(2n)]
    n, trials = 500, 40
    half = 0.5
    inside = np.array(
        [
            np.mean(np.abs(v) < half * math.sqrt(2 * n))
            for v in ens.sample_block(tridiag(n), SEED, 0, trials)
        ]
    )
    mass = (2 / math.pi) * (math.asin(half) + half * math.sqrt(1 - half * half))
    se = inside.std(ddof=1) / math.sqrt(trials)
    assert abs(inside.mean() - mass) < 3 * se


def test_dense_tridiag_gap_distributions_agree():
    trials = 800
    n = 100
    taus_d = gs.tau_sequence(ens.sample_block(dense(n), SEED, 0, trials), 1)
    taus_t = gs.tau_sequence(ens.sample_block(tridiag(n), SEED, 0, trials), 1)
    d, p = gs.ks_two_sample(taus_d, taus_t)
    assert p > 0.001, (d, p)


# ---------------------------------------------------------------------------
# the block path: rows are lone draws, and a tied row alone is redrawn


NSCALED = ens.EnsembleSpec(25, 2.5, ens.SCALING_NSCALED)


@pytest.mark.parametrize("spec", [dense(2), dense(9), tridiag(2), tridiag(30), NSCALED])
def test_block_rows_are_lone_draws(monkeypatch, spec):
    block = ens.sample_block(spec, SEED, 3, 40)
    assert block.shape == (37, spec.n)
    for t in (3, 4, 17, 39):
        assert np.array_equal(block[t - 3], ens.sample(spec, STREAM, t).values)
    monkeypatch.setattr(ens, "BATCH_BYTES", 1)  # one trial per variate batch
    assert np.array_equal(ens.sample_block(spec, SEED, 3, 40), block)


def _tie_on(monkeypatch, diags):
    """Patch the eigensolver to tie the two lowest eigenvalues of each matrix whose
    diagonal is one of ``diags``; return the list of diagonals it is called with."""
    solve, calls = ens.eigen_tridiagonal, []

    def tying(diag, off):
        calls.append(np.array(diag))
        values = solve(diag, off)
        if any(np.array_equal(diag, d) for d in diags):
            values[1] = values[0]
        return values

    monkeypatch.setattr(ens, "eigen_tridiagonal", tying)
    return calls


def test_a_tied_row_alone_is_redrawn(monkeypatch):
    spec, t = tridiag(20), 5
    clean = ens.sample_block(spec, SEED, 0, 8)
    calls = _tie_on(monkeypatch, prng.normals(prng.stream_keys(SEED, [t]), 0, spec.n))
    block = ens.sample_block(spec, SEED, 0, 8)
    # every trial is solved once, and trial t once more, on the key of index t + 2^48
    assert len(calls) == 9
    assert np.array_equal(calls[-1], prng.normals(prng.stream_keys(SEED, [t + 2**48])[0], 0, spec.n))
    assert np.array_equal(np.delete(block, t, axis=0), np.delete(clean, t, axis=0))
    assert np.all(np.diff(block[t]) > 0) and not np.array_equal(block[t], clean[t])
    assert np.array_equal(block[t], ens.sample(spec, STREAM, t).values)


@pytest.mark.parametrize("workers", [1, 2])
def test_persistent_ties_name_their_trial(monkeypatch, workers):
    n, t = 20, 7
    attempts = t + np.arange(ens._MAX_RESAMPLES + 1) * 2**48
    _tie_on(monkeypatch, prng.normals(prng.stream_keys(SEED, attempts), 0, n))
    cfg = experiments.ExperimentConfig(
        kind="smallest-gap-law", n=n, trials=12, base_seed=SEED, workers=workers
    )
    experiments.spectra_memo.cache_clear()  # so the run draws
    with pytest.raises(ens.SamplingError) as err:
        experiments.run_experiment(cfg, write_files=False)
    assert err.value.trial_index == t
    assert str(err.value) == f"trial {t}: persistent eigenvalue ties"

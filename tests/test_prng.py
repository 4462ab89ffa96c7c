"""Counter-based variate streams: determinism, independence, moments."""

import numpy as np
import pytest

from rmtgaps import prng


def test_stream_keys_distinct_and_deterministic():
    keys = set(prng.stream_keys(123, np.arange(10_000)).tolist())
    assert len(keys) == 10_000
    assert prng.stream_keys(123, [77]) == prng.stream_keys(123, [77])
    assert prng.stream_keys(123, [77]) != prng.stream_keys(124, [77])


def test_stream_keys_of_a_chunk_are_those_of_its_trials():
    trials = np.array([0, 1, 2**40 + 3, 5 + 3 * 2**48])  # a resample offset included
    keys = prng.stream_keys(20240801, trials)
    assert keys.dtype == np.uint64
    assert keys.tolist() == [prng.stream_keys(20240801, [t])[0] for t in trials.tolist()]


@pytest.mark.parametrize("shape", [0.4, np.linspace(0.5, 5.0, 29)])
def test_key_arrays_draw_the_rows_of_single_keys(shape):
    # one call over a chunk's keys gives, row by row, the variates of each key alone
    keys = prng.stream_keys(31, np.arange(7))
    z, g = prng.normals(keys, 3, 29), prng.gammas(keys, 2, 29, shape)
    assert z.shape == g.shape == (7, 29)
    for row, key in enumerate(keys):
        assert np.array_equal(z[row], prng.normals(key, 3, 29))
        assert np.array_equal(g[row], prng.gammas(key, 2, 29, shape))


def test_uniforms_are_pure_functions_of_counters():
    key = prng.stream_keys(9, [4])[0]
    a = prng.uniforms(key, np.arange(1000))
    b = prng.uniforms(key, np.arange(1000))
    assert np.array_equal(a, b)
    # any order, any slicing: same values per counter
    c = prng.uniforms(key, np.arange(1000)[::-1])
    assert np.array_equal(c[::-1], a)
    assert np.all((a > 0.0) & (a < 1.0))


def test_uniform_moments():
    key = prng.stream_keys(2024, [0])[0]
    u = prng.uniforms(key, np.arange(200_000))
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_normal_moments_and_determinism():
    key = prng.stream_keys(5, [1])[0]
    z = prng.normals(key, 0, 200_000)
    assert np.array_equal(z, prng.normals(key, 0, 200_000))
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 0.02
    assert abs(np.mean(z**3)) < 0.05
    assert abs(np.mean(z**4) - 3.0) < 0.1


def test_normals_slot_offset_consistency():
    key = prng.stream_keys(5, [2])[0]
    whole = prng.normals(key, 0, 100)
    tail = prng.normals(key, 60, 40)
    assert np.array_equal(whole[60:], tail)


@pytest.mark.parametrize("shape", [0.5, 1.0, 2.5, 7.0])
def test_gamma_moments(shape):
    key = prng.stream_keys(77, [int(shape * 10)])[0]
    g = prng.gammas(key, 0, 150_000, shape)
    assert np.all(g > 0)
    se_mean = np.sqrt(shape / g.size)
    assert abs(g.mean() - shape) < 5 * se_mean
    assert abs(g.var() - shape) < 0.06 * max(shape, 1.0)


def test_gamma_vector_shapes():
    key = prng.stream_keys(8, [0])[0]
    shapes = np.linspace(0.5, 5.0, 1000)
    g = prng.gammas(key, 0, 1000, shapes)
    assert np.array_equal(g, prng.gammas(key, 0, 1000, shapes))
    assert g.shape == (1000,)


def test_gamma_rejects_bad_shape():
    with pytest.raises(ValueError):
        prng.gammas(1, 0, 4, 0.0)

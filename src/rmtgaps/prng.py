"""Counter-based random variates for reproducible parallel sampling.

Every variate is a pure function of a 64-bit stream key and a 64-bit counter:
the SplitMix64 finalizer is applied to a Weyl sequence, so any slot of any
stream can be evaluated independently, in any order, on any worker, and the
result is bit-identical.  No generator state is ever carried between calls.

Constants are the published SplitMix64 ones (Steele, Lea and Flood):

    GOLDEN = 0x9E3779B97F4A7C15   Weyl increment
    MIX1   = 0xBF58476D1CE4E5B9   first multiplier of the finalizer
    MIX2   = 0x94D049BB133111EB   second multiplier of the finalizer

``stream_keys`` derives the keys of a whole chunk of trials at once, and
``normals`` and ``gammas`` take one key or an array of keys (one row of
variates per key, bit-identical to drawing each key alone; Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC11).  The caller bounds how
many keys go into one call (``rmtgaps.ensemble.BATCH_BYTES``).

Counter layout conventions used by callers:

* normals: slot ``i`` consumes uniform counters ``2i`` and ``2i+1``
  (Box-Muller, cosine branch only).
* gammas: slot ``i`` owns the counter block
  ``GAMMA_REGION + i*SLOT_STRIDE .. + SLOT_STRIDE-1``; rejection attempt
  ``a`` uses offsets ``4a, 4a+1, 4a+2`` and the shape<1 boost uniform sits
  at offset ``SLOT_STRIDE - 1``.
"""

from __future__ import annotations

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

_U64 = np.uint64
_MASK64 = (1 << 64) - 1

# Gamma slots live far above any Box-Muller counter a sampler can reach
# (dense n=4000 uses 2*n^2 < 2^32 uniform counters).
GAMMA_REGION = 1 << 32
SLOT_STRIDE = 1024
MAX_ATTEMPTS = (SLOT_STRIDE - 4) // 4


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied elementwise to a uint64 array."""
    z = z.astype(_U64, copy=True)
    z ^= z >> _U64(30)
    z *= _U64(MIX1)
    z ^= z >> _U64(27)
    z *= _U64(MIX2)
    z ^= z >> _U64(31)
    return z


def stream_keys(base_seed: int, trial_indices) -> np.ndarray:
    """Per-trial stream keys (uint64) by avalanche-mixing the seed and each index.  For a
    fixed base_seed the map is injective (each stage is a bijection on 64-bit words), so
    distinct trials can never share a stream."""
    t = np.asarray(trial_indices, dtype=_U64)
    a = mix64(np.array([(base_seed + GOLDEN) & _MASK64], dtype=_U64))
    return mix64(a ^ mix64((t + _U64(1)) * _U64(GOLDEN)))


def uniforms(key, counters) -> np.ndarray:
    """Uniform(0,1) variates at the given counters, endpoints excluded;
    ``key`` broadcasts against ``counters``."""
    c = np.asarray(counters, dtype=_U64)
    words = mix64(np.asarray(key, dtype=_U64) + (c + _U64(1)) * _U64(GOLDEN))
    return ((words >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53


def normals(key, slot0: int, count: int) -> np.ndarray:
    """Standard normal variates for slots slot0..slot0+count-1: shape (count,)
    for one key, (keys, count) for an array of keys.

    Box-Muller on the counter stream; slot i consumes uniforms at counters
    2i and 2i+1 and keeps the cosine branch.
    """
    keys = np.asarray(key, dtype=_U64)[..., None]
    slots = np.arange(slot0, slot0 + count, dtype=np.uint64)
    u1 = uniforms(keys, slots * _U64(2))
    u2 = uniforms(keys, slots * _U64(2) + _U64(1))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def gammas(key, slot0: int, count: int, shape) -> np.ndarray:
    """Gamma(shape, 1) variates by Marsaglia-Tsang rejection: shape (count,)
    for one key, (keys, count) for an array of keys.

    ``shape`` may be a scalar or an array of per-slot shapes (all > 0).
    Shapes below 1 are boosted through Gamma(shape+1) and multiplied by
    u**(1/shape) with a dedicated boost uniform, as in the original paper.
    Each slot of each key runs its own rejection loop inside a private
    counter block, so acceptance in one slot never shifts the stream of
    another; all of them share one loop over attempts.
    """
    shape = np.broadcast_to(np.asarray(shape, dtype=np.float64), (count,))
    if np.any(shape <= 0.0):
        raise ValueError("gamma shape must be positive")
    keys = np.asarray(key, dtype=_U64)[..., None]
    out_shape = keys.shape[:-1] + (count,)
    base = _U64(GAMMA_REGION) + np.arange(slot0, slot0 + count, dtype=np.uint64) * _U64(SLOT_STRIDE)
    keys, base, shape = (np.broadcast_to(x, out_shape).ravel() for x in (keys, base, shape))

    boosted = shape < 1.0
    a = np.where(boosted, shape + 1.0, shape)
    d = a - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)

    out = np.zeros(base.size)
    pending = np.ones(base.size, dtype=bool)
    for attempt in range(MAX_ATTEMPTS):
        if not pending.any():
            break
        idx = np.nonzero(pending)[0]
        k, off = keys[idx], base[idx] + _U64(4 * attempt)
        u1 = uniforms(k, off)
        u2 = uniforms(k, off + _U64(1))
        u3 = uniforms(k, off + _U64(2))
        x = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        v = (1.0 + c[idx] * x) ** 3
        ok = v > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = ok & (
                (u3 < 1.0 - 0.0331 * x**4)
                | (np.log(u3) < 0.5 * x * x + d[idx] * (1.0 - v + np.log(np.where(ok, v, 1.0))))
            )
        acc = idx[accept]
        out[acc] = d[acc] * v[accept]
        pending[acc] = False
    if pending.any():
        raise RuntimeError("gamma rejection failed to accept within the counter block")

    if boosted.any():
        ub = uniforms(keys[boosted], base[boosted] + _U64(SLOT_STRIDE - 1))
        out[boosted] *= ub ** (1.0 / shape[boosted])
    return out.reshape(out_shape)

"""Seeded eigenvalue samplers for the Gaussian orthogonal and beta ensembles.

Two routes to the same spectral law at beta = 1:

* the dense route symmetrizes an iid Gaussian matrix, giving diagonal
  variance 1 and off-diagonal variance 1/2, the classical realization of the
  weight e^{-sum lambda_i^2 / 2} times |Vandermonde|;
* the tridiagonal route (Dumitriu-Edelman) draws a symmetric tridiagonal
  matrix with Gaussian diagonal and chi-distributed sub-diagonal, valid for
  every beta > 0 and far cheaper for large n.

Spectra are deterministic functions of (spec, base_seed, trial_index): all
randomness flows through the counter-based streams in :mod:`rmtgaps.prng`.
:func:`sample_block` draws a chunk of trials as one float64 block, one sorted
spectrum per row, each row bit-identical to a lone draw of its trial.  Its
keys come from one ``prng.stream_keys`` call, and its variates are drawn in
batches whose working set (``EnsembleSpec.draw_bytes``: n^2 floats per dense
trial, n per tridiagonal one) stays within ``BATCH_BYTES``: hundreds of small
matrices at a time, but one large one, which a bigger batch would only push
out of cache.  A dense batch goes through one stacked ``eigvalsh``, a
tridiagonal one through ``sterf`` row by row.  :func:`sample` (with
:class:`SeedStream` and :class:`Spectrum`) is the one-row call, kept only for
the benchmark's serial row recompute (``bench/workload.py``).

The tridiagonal eigensolver is LAPACK ``dsterf``, called through ctypes in
numpy's own OpenBLAS (found when the package is imported; see
:mod:`rmtgaps`), so a Monte Carlo run loads no second LAPACK wrapper for it.
Where numpy exports no ILP64 ``dsterf`` (an MKL or Accelerate build, or no
procfs), scipy's wrapper of the same routine is imported on first use, by
each pool worker too.  That fallback is the only scipy import in the
package; ``pyproject.toml`` keeps scipy as a dependency for it, and for the
tests, which hold the ctypes route to scipy's wrapper byte for byte and the
closed forms in :mod:`rmtgaps.gapstats` to ``scipy.special``.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from . import _dsterf, prng

SCALING_UNIT = "unit"  # weight e^{-sum x^2/2}: spacings of order 1/n
SCALING_NSCALED = "nscaled"  # weight e^{-n sum x^2/2} |Delta|^beta: spectrum divided by sqrt(n)

SAMPLER_DENSE = "dense"
SAMPLER_TRIDIAGONAL = "tridiagonal"

MAX_DENSE_N = 4000
MAX_TRIDIAG_N = 20000

_RESAMPLE_OFFSET = 1 << 48
_MAX_RESAMPLES = 4

# the most bytes of working set one batch of variates and eigensolves spans
BATCH_BYTES = 1 << 14


class NonConvergenceError(RuntimeError):
    """The tridiagonal eigensolver did not converge."""


class SamplingError(RuntimeError):
    """A trial failed; carries the trial index for reproduction."""

    def __init__(self, message: str, trial_index: int):
        super().__init__(message, trial_index)  # both args, so a pool worker can pickle it
        self.trial_index = trial_index

    def __str__(self) -> str:
        return f"trial {self.trial_index}: {self.args[0]}"


@dataclass(frozen=True)
class EnsembleSpec:
    """What to sample: size, Dyson index, scaling convention and route.
    Every limit of a draw, the size bound of each route included, is checked here."""

    n: int
    beta: float = 1.0
    scaling: str = SCALING_UNIT
    sampler: str = SAMPLER_TRIDIAGONAL

    def __post_init__(self):
        if not 0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if self.scaling not in (SCALING_UNIT, SCALING_NSCALED):
            raise ValueError(f"unknown scaling {self.scaling!r}")
        if self.sampler not in (SAMPLER_DENSE, SAMPLER_TRIDIAGONAL):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.sampler == SAMPLER_DENSE and self.beta != 1.0:
            raise ValueError("dense sampler realizes beta = 1 only")
        if self.sampler == SAMPLER_DENSE and self.scaling != SCALING_UNIT:
            raise ValueError("dense sampler is defined in the unit scaling")
        if self.scaling == SCALING_UNIT and self.beta != 1.0:
            raise ValueError("unit scaling is defined for beta = 1 only")
        limit = MAX_DENSE_N if self.sampler == SAMPLER_DENSE else MAX_TRIDIAG_N
        if not 2 <= self.n <= limit:
            raise ValueError(f"{self.sampler} sampler supports 2 <= n <= {limit}")

    @property
    def draw_bytes(self) -> int:
        """Bytes of one trial's working set: its n^2 dense or n tridiagonal floats."""
        return 8 * self.n * (self.n if self.sampler == SAMPLER_DENSE else 1)


@dataclass(frozen=True)
class SeedStream:
    """Base seed of a run's per-trial streams (see :func:`sample`)."""

    base_seed: int


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues of one sampled trial plus provenance metadata (see :func:`sample`).
    ``resamples`` is read by the benchmark's tracer; the block path does not count redraws."""

    values: np.ndarray
    spec: EnsembleSpec
    base_seed: int
    trial_index: int
    resamples: int = 0


def eigen_tridiagonal(diag, offdiag) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending."""
    d = np.asarray(diag, dtype=np.float64)
    e = np.asarray(offdiag, dtype=np.float64)
    if d.ndim != 1 or e.ndim != 1 or e.size != max(d.size - 1, 0):
        raise ValueError("need diagonal length n and off-diagonal length n-1")
    if d.size == 0:
        raise ValueError("empty matrix")
    # sterf returns NaN eigenvalues for an infinite entry and reports success
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("matrix entries must be finite")
    if d.size == 1:
        return d.copy()
    return _sterf(d, e)


def _sterf(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """LAPACK dsterf (implicit-shift QL/QR, eigenvalues only, the fastest route) on
    float64 d of length n >= 2 and e of length n - 1; neither is written."""
    if _dsterf is None:
        from scipy.linalg.lapack import dsterf  # numpy exports none; see the module docstring

        w, info = dsterf(d, e)
    else:
        w = np.array(d)  # dsterf overwrites d with the eigenvalues, and e with scratch
        work = np.array(e)
        n, status = ctypes.c_int64(w.size), ctypes.c_int64()
        _dsterf(ctypes.byref(n), w.ctypes.data, work.ctypes.data, ctypes.byref(status))
        info = status.value
    if info:
        raise NonConvergenceError(f"sterf did not converge (LAPACK info={info})")
    return w


def _increasing(block: np.ndarray) -> np.ndarray:
    return np.all(block[:, 1:] > block[:, :-1], axis=1)


def _draw(spec: EnsembleSpec, keys: np.ndarray) -> np.ndarray:
    """One spectrum per key, drawn by the route the spec declares, ``BATCH_BYTES`` at a time.

    Dense: the spectrum of (A + A^T)/2 with A an iid standard Gaussian matrix.

    Tridiagonal: diagonal entries are N(0,2)/sqrt(2); the i-th sub-diagonal
    entry is a chi variate with (n-i)*beta degrees of freedom divided by
    sqrt(2), realized as sqrt(Gamma((n-i)*beta/2, 1)).  Under the n-scaled
    convention the spectrum is divided by sqrt(n).
    """
    n = spec.n
    out = np.empty((keys.size, n))
    step = max(1, BATCH_BYTES // spec.draw_bytes)
    shapes = 0.5 * spec.beta * np.arange(n - 1, 0, -1, dtype=np.float64)
    for i in range(0, keys.size, step):
        batch = keys[i : i + step]
        if spec.sampler == SAMPLER_DENSE:
            a = prng.normals(batch, 0, n * n).reshape(-1, n, n)
            out[i : i + step] = np.linalg.eigvalsh(0.5 * (a + a.swapaxes(1, 2)))
        else:
            diag = prng.normals(batch, 0, n)
            off = np.sqrt(prng.gammas(batch, 0, n - 1, shapes))
            for j in range(batch.size):
                out[i + j] = eigen_tridiagonal(diag[j], off[j])
    if spec.scaling == SCALING_NSCALED:
        out /= np.sqrt(n)
    return out


def sample_block(spec: EnsembleSpec, base_seed: int, lo: int, hi: int) -> np.ndarray:
    """Sorted spectra of trials lo..hi-1, one row per trial.

    A row with an eigenvalue tie (a floating collision) is redrawn alone, up to
    ``_MAX_RESAMPLES`` times, from the key of trial index t + a * 2^48 at attempt a."""
    trials = np.arange(lo, hi)
    block = _draw(spec, prng.stream_keys(base_seed, trials))
    tied = trials[~_increasing(block)]
    for attempt in range(1, _MAX_RESAMPLES + 1):
        if not tied.size:
            return block
        keys = prng.stream_keys(base_seed, tied + attempt * _RESAMPLE_OFFSET)
        block[tied - lo] = _draw(spec, keys)
        tied = tied[~_increasing(block[tied - lo])]
    if tied.size:
        raise SamplingError("persistent eigenvalue ties", int(tied[0]))
    return block


def sample(spec: EnsembleSpec, seed_stream: SeedStream, trial_index: int) -> Spectrum:
    """One trial as a one-row block; kept for bench/workload.py's serial row recompute."""
    values = sample_block(spec, seed_stream.base_seed, trial_index, trial_index + 1)[0]
    return Spectrum(values, spec, seed_stream.base_seed, trial_index)

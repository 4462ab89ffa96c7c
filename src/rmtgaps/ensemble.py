"""Seeded eigenvalue samplers for the Gaussian orthogonal and beta ensembles.

Two routes to the same spectral law at beta = 1, both drawn by :func:`sample`:

* the dense route symmetrizes an iid Gaussian matrix, giving diagonal
  variance 1 and off-diagonal variance 1/2, the classical realization of the
  weight e^{-sum lambda_i^2 / 2} times |Vandermonde|;
* the tridiagonal route (Dumitriu-Edelman) draws a symmetric tridiagonal
  matrix with Gaussian diagonal and chi-distributed sub-diagonal, valid for
  every beta > 0 and far cheaper for large n.

Spectra are deterministic functions of (spec, base_seed, trial_index): all
randomness flows through the counter-based streams in :mod:`rmtgaps.prng`.

``scipy.linalg`` (about 0.3 s to import) is loaded on the first call of
:func:`eigen_tridiagonal`, not with this module, so that a process which never
draws a tridiagonal spectrum (``rmtgaps verify``) never loads it.  A parallel
run loads it in the parent before its pool forks (see
:func:`rmtgaps.experiments._parallel_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import prng

SCALING_UNIT = "unit"  # weight e^{-sum x^2/2}: spacings of order 1/n
SCALING_NSCALED = "nscaled"  # weight e^{-n sum x^2/2} |Delta|^beta: spectrum divided by sqrt(n)

SAMPLER_DENSE = "dense"
SAMPLER_TRIDIAGONAL = "tridiagonal"

MAX_DENSE_N = 4000
MAX_TRIDIAG_N = 20000

_RESAMPLE_OFFSET = 1 << 48
_MAX_RESAMPLES = 4


class NonConvergenceError(RuntimeError):
    """The tridiagonal eigensolver did not converge."""


class SamplingError(RuntimeError):
    """A trial failed; carries the trial index for reproduction."""

    def __init__(self, message: str, trial_index: int):
        super().__init__(f"trial {trial_index}: {message}")
        self.trial_index = trial_index


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


@dataclass(frozen=True)
class SeedStream:
    """Base seed from which per-trial streams are derived by avalanche mixing."""

    base_seed: int

    def key(self, trial_index: int) -> int:
        return prng.stream_key(self.base_seed, trial_index)


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues of one sampled matrix plus provenance metadata."""

    values: np.ndarray
    spec: EnsembleSpec
    base_seed: int
    trial_index: int
    resamples: int = 0

    def __post_init__(self):
        self.values.flags.writeable = False


def eigen_tridiagonal(diag, offdiag) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending."""
    d = np.asarray(diag, dtype=np.float64)
    e = np.asarray(offdiag, dtype=np.float64)
    if d.ndim != 1 or e.ndim != 1 or e.size != max(d.size - 1, 0):
        raise ValueError("need diagonal length n and off-diagonal length n-1")
    if d.size == 0:
        raise ValueError("empty matrix")
    if d.size == 1:
        return d.copy()
    import scipy.linalg  # loaded on first use; see the module docstring

    try:
        # sterf: implicit-shift QL/QR for eigenvalues only, the fastest route
        return scipy.linalg.eigvalsh_tridiagonal(d, e, lapack_driver="sterf", check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
        raise NonConvergenceError(str(exc)) from exc


def _strictly_increasing(values: np.ndarray) -> bool:
    return bool(np.all(np.diff(values) > 0.0))


def _with_resampling(draw, seed_stream: SeedStream, trial_index: int):
    """Re-derive the stream on exact eigenvalue ties (floating collisions)."""
    for attempt in range(_MAX_RESAMPLES + 1):
        key = seed_stream.key(trial_index + attempt * _RESAMPLE_OFFSET)
        values = draw(key)
        if _strictly_increasing(values):
            return values, attempt
    raise SamplingError("persistent eigenvalue ties", trial_index)


def sample(spec: EnsembleSpec, seed_stream: SeedStream, trial_index: int) -> Spectrum:
    """Spectrum of one trial, drawn by the route the spec declares.

    Dense: the spectrum of (A + A^T)/2 with A an iid standard Gaussian matrix.

    Tridiagonal: diagonal entries are N(0,2)/sqrt(2); the i-th sub-diagonal
    entry is a chi variate with (n-i)*beta degrees of freedom divided by
    sqrt(2), realized as sqrt(Gamma((n-i)*beta/2, 1)).  Under the n-scaled
    convention the spectrum is divided by sqrt(n).
    """
    n = spec.n
    if spec.sampler == SAMPLER_DENSE:

        def draw(key: int) -> np.ndarray:
            a = prng.normals(key, 0, n * n).reshape(n, n)
            return np.linalg.eigvalsh(0.5 * (a + a.T))

    else:
        shapes = 0.5 * spec.beta * np.arange(n - 1, 0, -1, dtype=np.float64)

        def draw(key: int) -> np.ndarray:
            diag = prng.normals(key, 0, n)
            off = np.sqrt(prng.gammas(key, 0, n - 1, shapes))
            values = eigen_tridiagonal(diag, off)
            if spec.scaling == SCALING_NSCALED:
                values = values / np.sqrt(n)
            return values

    values, resamples = _with_resampling(draw, seed_stream, trial_index)
    return Spectrum(values, spec, seed_stream.base_seed, trial_index, resamples)

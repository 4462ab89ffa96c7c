"""Pfaffians of real antisymmetric matrices.

Three evaluation routes with increasing reach:

* :func:`pfaffian_exact` enumerates perfect matchings (the defining sum),
  practical up to dimension 12 where it serves as the ground-truth oracle;
* :func:`pfaffian_numeric` runs skew-symmetric Gaussian elimination
  (Parlett-Reid) with partial pivoting and is the production path;
* :func:`pfaffian_poly` / :func:`pfaffian_bordered` recover the polynomial
  zeta -> Pf(B + zeta*A) by evaluating the numeric Pfaffian at Chebyshev
  nodes and solving the interpolation system.

All functions accept a :class:`SkewMatrix` or any square array-like, which
is canonicalized on ingest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_EXACT_DIM = 12

_TRIM_REL = 1e-12


class InterpolationError(RuntimeError):
    """Polynomial recovery gave non-finite coefficients."""


@dataclass(frozen=True)
class SkewMatrix:
    """Square real antisymmetric matrix in canonical form.

    Construction antisymmetrizes the input as (X - X^T)/2 and zeroes the
    diagonal, after checking that the input was antisymmetric to 1e-12.
    """

    entries: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.entries, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise ValueError("skew matrix must be square")
        if x.size and np.max(np.abs(x + x.T)) > 1e-12 * max(1.0, np.max(np.abs(x))):
            raise ValueError("matrix is not antisymmetric within tolerance")
        canon = 0.5 * (x - x.T)
        np.fill_diagonal(canon, 0.0)
        canon.flags.writeable = False
        object.__setattr__(self, "entries", canon)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _as_skew_array(x) -> np.ndarray:
    if isinstance(x, SkewMatrix):
        return x.entries
    return SkewMatrix(np.asarray(x, dtype=np.float64)).entries


def pfaffian_exact(x) -> float:
    """Pfaffian by summing over perfect matchings with alternating signs.

    Expansion along the first active index: pairing index i0 with the p-th
    remaining index carries sign (-1)^(p-1).  Factorial cost, so the
    dimension is capped at MAX_EXACT_DIM.
    """
    m = _as_skew_array(x)
    n = m.shape[0]
    if n % 2 != 0:
        raise ValueError("Pfaffian requires even dimension")
    if n > MAX_EXACT_DIM:
        raise ValueError(f"exact enumeration capped at dimension {MAX_EXACT_DIM}")
    if n == 0:
        return 1.0
    return _matching_sum(m, list(range(n)))


def _matching_sum(m: np.ndarray, idx: list) -> float:
    if not idx:
        return 1.0
    i0 = idx[0]
    total = 0.0
    sign = 1.0
    for pos in range(1, len(idx)):
        a = m[i0, idx[pos]]
        if a != 0.0:
            total += sign * a * _matching_sum(m, idx[1:pos] + idx[pos + 1 :])
        sign = -sign
    return total


def pfaffian_numeric(x) -> float:
    """Pfaffian via Parlett-Reid skew elimination with partial pivoting.

    Pivots on the largest absolute entry of the active column; a
    structurally zero pivot column means the matrix is singular and the
    Pfaffian is exactly 0.
    """
    m = _as_skew_array(x).copy()
    n = m.shape[0]
    if n % 2 != 0:
        raise ValueError("Pfaffian requires even dimension")
    if n == 0:
        return 1.0
    pf = 1.0
    for k in range(0, n - 1, 2):
        col = np.abs(m[k + 1 :, k])
        kp = k + 1 + int(np.argmax(col))
        if m[kp, k] == 0.0:
            return 0.0
        if kp != k + 1:
            m[[k + 1, kp], :] = m[[kp, k + 1], :]
            m[:, [k + 1, kp]] = m[:, [kp, k + 1]]
            pf = -pf
        pivot = m[k, k + 1]
        pf *= pivot
        if k + 2 < n:
            tau = m[k, k + 2 :] / pivot
            col_next = m[k + 2 :, k + 1]
            m[k + 2 :, k + 2 :] += np.outer(tau, col_next) - np.outer(col_next, tau)
    return pf


def _interpolate(values_at, degree: int, scale: float = 1.0) -> np.ndarray:
    """Solve the Vandermonde system at the Chebyshev-Gauss nodes.

    The substitution zeta = scale * w balances the extreme coefficients
    (constant and leading terms are Pfaffians of very different magnitude);
    solving in w on [-1, 1] keeps the Vandermonde well conditioned and the
    coefficients are rescaled afterwards.  The nodes are distinct, so the
    system is never singular; non-finite values give non-finite
    coefficients, which no other node set would repair.
    """
    i = np.arange(degree + 1)
    nodes = np.cos(np.pi * (2 * i + 1) / (2 * (degree + 1)))
    vals = np.array([values_at(scale * w) for w in nodes])
    coeffs = np.linalg.solve(np.vander(nodes, degree + 1, increasing=True), vals)
    if not np.all(np.isfinite(coeffs)):
        raise InterpolationError("interpolated Pfaffian coefficients are not finite")
    # trim interpolation noise while magnitudes are still balanced
    trimmed = _trim_trailing(coeffs)
    return trimmed / scale ** np.arange(trimmed.size)


def _balance_scale(end0: float, end1: float, degree: int) -> float:
    """Geometric balance |c_0/c_deg|^(1/deg), clamped; 1.0 when degenerate."""
    if degree <= 0 or end0 == 0.0 or end1 == 0.0:
        return 1.0
    s = abs(end0 / end1) ** (1.0 / degree)
    return min(max(s, 1e-6), 1e6)


def _trim_trailing(coeffs: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(coeffs)) if coeffs.size else 0.0
    if scale == 0.0:
        return coeffs[:0]
    keep = coeffs.size
    while keep > 0 and abs(coeffs[keep - 1]) <= _TRIM_REL * scale:
        keep -= 1
    return coeffs[:keep]


def pfaffian_poly(b, a, max_degree: int) -> np.ndarray:
    """Coefficients of zeta -> Pf(B + zeta*A), ascending powers.

    B and A must share an even dimension; the polynomial degree is at most
    dim/2, and the returned array is truncated to ``max_degree`` with
    trailing numerical zeros removed.
    """
    bm = _as_skew_array(b)
    am = _as_skew_array(a)
    if bm.shape != am.shape:
        raise ValueError("B and A must have the same dimension")
    n = bm.shape[0]
    if n % 2 != 0:
        raise ValueError("Pfaffian polynomial requires even dimension")
    half = n // 2
    if max_degree > half:
        raise ValueError("max_degree exceeds dim/2")
    scale = _balance_scale(pfaffian_numeric(bm), pfaffian_numeric(am), half)
    coeffs = _interpolate(lambda t: pfaffian_numeric(bm + t * am), half, scale)
    return coeffs[: max_degree + 1]


def pfaffian_bordered(b, a, v, max_degree: int) -> np.ndarray:
    """Coefficients of zeta -> Pf of the bordered matrix, ascending powers.

    For odd-dimensional B, A and a border vector v, evaluates the Pfaffian
    of ``[[B + zeta*A, v], [-v^T, 0]]`` as a polynomial in zeta.
    """
    bm = _as_skew_array(b)
    am = _as_skew_array(a)
    if bm.shape != am.shape:
        raise ValueError("B and A must have the same dimension")
    n = bm.shape[0]
    if n % 2 != 1:
        raise ValueError("bordered Pfaffian requires odd dimension")
    vec = np.asarray(v, dtype=np.float64)
    if vec.shape != (n,):
        raise ValueError("border vector length must match the dimension")
    degree = (n + 1) // 2
    if max_degree > degree:
        raise ValueError("max_degree exceeds (dim+1)/2")

    def bordered(base: np.ndarray) -> np.ndarray:
        m = np.zeros((n + 1, n + 1))
        m[:n, :n] = base
        m[:n, n] = vec
        m[n, :n] = -vec
        return m

    # the border column carries no zeta, so the ends of the polynomial are
    # the bordered Pfaffians of B alone and of A alone (degree (n-1)/2)
    scale = _balance_scale(
        pfaffian_numeric(bordered(bm)), pfaffian_numeric(bordered(am)), (n - 1) // 2
    )
    coeffs = _interpolate(lambda t: pfaffian_numeric(bordered(bm + t * am)), degree, scale)
    return coeffs[: max_degree + 1]

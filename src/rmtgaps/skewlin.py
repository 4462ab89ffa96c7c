"""Pfaffians of real antisymmetric matrices.

Three evaluation routes with increasing reach:

* :func:`pfaffian_exact` expands the defining sum over perfect matchings
  along the first index and sums each index subset once (at most n*2^n
  products), up to dimension 12 where it serves as the ground-truth oracle;
* :func:`pfaffian_numeric` runs skew-symmetric Gaussian elimination
  (Parlett-Reid) with partial pivoting and is the production path;
* :func:`pfaffian_poly` / :func:`pfaffian_bordered` give the polynomial
  zeta -> Pf(B + zeta*A) in closed form from the eigenvalues of M^{-1} N,
  where M is the better-conditioned end of the pencil: they come in equal
  pairs, and one linear factor per pair times Pf(M) is the polynomial.

All functions accept any square array-like, which is checked to be
antisymmetric and canonicalized on ingest.
"""

from __future__ import annotations

import numpy as np

MAX_EXACT_DIM = 12
# trial points s of B + s*A when both ends of a pencil are singular
PENCIL_SHIFTS = (1.0, -1.0, 0.5, -0.5, 2.0, -2.0)


def _as_skew_array(x) -> np.ndarray:
    """A new array (X - X^T)/2 with a zero diagonal, for X square and antisymmetric to 1e-12."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("skew matrix must be square")
    if x.size and np.max(np.abs(x + x.T)) > 1e-12 * max(1.0, np.max(np.abs(x))):
        raise ValueError("matrix is not antisymmetric within tolerance")
    canon = 0.5 * (x - x.T)
    np.fill_diagonal(canon, 0.0)
    return canon


def pfaffian_exact(x) -> float:
    """Pfaffian by summing over perfect matchings with alternating signs.

    Expansion along the first active index: pairing index i0 with the p-th
    remaining index carries sign (-1)^(p-1).  Each subset of remaining
    indices is expanded once per call and its sum reused, so the cost is at
    most n*2^n products instead of one per matching; the dimension stays
    capped at MAX_EXACT_DIM as the oracle's reach.
    """
    m = _as_skew_array(x)
    n = m.shape[0]
    if n % 2 != 0:
        raise ValueError("Pfaffian requires even dimension")
    if n > MAX_EXACT_DIM:
        raise ValueError(f"exact enumeration capped at dimension {MAX_EXACT_DIM}")
    rows = m.tolist()
    sums = {(): 1.0}

    def expand(idx: tuple) -> float:
        total = sums.get(idx)
        if total is None:
            row = rows[idx[0]]
            total = 0.0
            sign = 1.0
            for pos in range(1, len(idx)):
                a = row[idx[pos]]
                if a != 0.0:
                    total += sign * a * expand(idx[1:pos] + idx[pos + 1 :])
                sign = -sign
            sums[idx] = total
        return total

    return expand(tuple(range(n)))


def pfaffian_numeric(x) -> float:
    """Pfaffian via Parlett-Reid skew elimination with partial pivoting.

    Pivots on the largest absolute entry of the active column; a
    structurally zero pivot column means the matrix is singular and the
    Pfaffian is exactly 0.
    """
    m = _as_skew_array(x)
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


def _pencil_poly(b: np.ndarray, a: np.ndarray, max_degree: int) -> np.ndarray:
    """Coefficients of zeta -> Pf(B + zeta*A) for an even skew pencil.

    With M the better-conditioned end and N the other, Pf(M + zeta*N) =
    Pf(M) * prod(1 + nu*zeta), one nu from each equal pair of eigenvalues of
    M^{-1} N (the square of the product is det(I + zeta*M^{-1} N)).  Pairs
    are matched by nearest distance, which also keeps complex pairs
    together, and each factor takes the mean of its pair.  The A end gives
    the coefficients in reverse order.

    A regular pencil may still be singular at both ends (B = J+0, A = 0+J).
    Then M = B + s*A, for the best-conditioned s of PENCIL_SHIFTS, replaces
    the B end: Pf(B + zeta*A) = Pf(M + (zeta - s)*A) = Pf(M) *
    prod((1 - nu*s) + nu*zeta) with nu from M^{-1} A.  Truncated to
    ``max_degree``, with trailing exact zeros removed.
    """
    eps = np.finfo(np.float64).eps
    cond_b, cond_a = np.linalg.cond(b), np.linalg.cond(a)
    flip = cond_a < cond_b
    shift = 0.0
    if min(cond_a, cond_b) * eps >= 1.0:
        conds = [np.linalg.cond(b + s * a) for s in PENCIL_SHIFTS]
        best = int(np.argmin(conds))
        if conds[best] * eps >= 1.0:
            raise ValueError("the Pfaffian pencil is singular at both ends and at every shift")
        flip, shift = False, PENCIL_SHIFTS[best]
        b = b + shift * a
    m, n = (a, b) if flip else (b, a)
    vals = list(np.linalg.eigvals(np.linalg.solve(m, n)))
    nus = []
    while vals:
        v = vals.pop()
        j = min(range(len(vals)), key=lambda i: abs(vals[i] - v))
        nus.append(0.5 * (v + vals.pop(j)))
    # prod(1 + nu*(zeta - s)) in ascending powers of zeta, one factor at a
    # time; at s = 0 this is np.poly(-nus), convolution for convolution
    coeffs = np.ones(1)
    for nu in nus:
        coeffs = np.convolve(coeffs, [1.0 - nu * shift, nu])
    coeffs = pfaffian_numeric(m) * np.real(coeffs)
    coeffs = (coeffs[::-1] if flip else coeffs)[: max_degree + 1]
    nonzero = np.flatnonzero(coeffs)
    return coeffs[: nonzero[-1] + 1 if nonzero.size else 0]


def pfaffian_poly(b, a, max_degree: int) -> np.ndarray:
    """Coefficients of zeta -> Pf(B + zeta*A), ascending powers.

    B and A must share an even dimension; the polynomial degree is at most
    dim/2, and the returned array is truncated to ``max_degree`` with
    trailing exact zeros removed.  One end of the pencil must be nonsingular.
    """
    bm = _as_skew_array(b)
    am = _as_skew_array(a)
    if bm.shape != am.shape:
        raise ValueError("B and A must have the same dimension")
    n = bm.shape[0]
    if n % 2 != 0:
        raise ValueError("Pfaffian polynomial requires even dimension")
    if not 0 <= max_degree <= n // 2:
        raise ValueError("max_degree must be in 0..dim/2")
    return _pencil_poly(bm, am, max_degree)


def pfaffian_bordered(b, a, v, max_degree: int) -> np.ndarray:
    """Coefficients of zeta -> Pf of the bordered matrix, ascending powers.

    For odd-dimensional B, A and a border vector v, evaluates the Pfaffian
    of ``[[B + zeta*A, v], [-v^T, 0]]`` as a polynomial in zeta.  A nonzero
    v needs B bordered by v to be nonsingular (a nonzero constant term).
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
    if not 0 <= max_degree <= (n + 1) // 2:
        raise ValueError("max_degree must be in 0..(dim+1)/2")
    if not vec.any():
        # the border row is zero in every bordered matrix
        return np.zeros(0)
    # pad to an even pencil: B takes the border, A a zero border
    bb = np.zeros((n + 1, n + 1))
    bb[:n, :n] = bm
    bb[:n, n] = vec
    bb[n, :n] = -vec
    ab = np.zeros((n + 1, n + 1))
    ab[:n, :n] = am
    # the border carries no zeta, so the degree is at most (n-1)/2
    return _pencil_poly(bb, ab, min(max_degree, (n - 1) // 2))

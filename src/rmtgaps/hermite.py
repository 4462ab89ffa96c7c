"""Hermite polynomials, oscillator wave functions and their quadrature.

The oscillator functions phi_j(x) = (2^j j! sqrt(pi))^{-1/2} e^{-x^2/2} H_j(x)
form an orthonormal basis of L^2(R).  They are evaluated through the
normalized three-term recurrence

    phi_{j+1} = x*sqrt(2/(j+1))*phi_j - sqrt(j/(j+1))*phi_{j-1},

never through the raw 2^j j! formula, which overflows near j ~ 150.

Gaussian-times-polynomial functions F(x) = e^{-x^2/2} prod (x - root_i) are
carried as arrays of their coefficients in the phi basis, where
multiplication by x, differentiation and L^2 norms are exact sparse
recurrences.  The band and offset pair integrals are the exception: their
dense-grid quadrature evaluates |F| straight from the roots.
"""

from __future__ import annotations

import math

import numpy as np

MAX_DEGREE = 200
MAX_QUADRATURE = 256
MAX_WAVE_ROOTS = 60

_PI4 = math.pi ** 0.25
# sqrt(j/2) for j = 1..MAX_WAVE_ROOTS: the ladder factors of x*phi_j in roots_to_wave
_HALF_ROOTS = np.sqrt(np.arange(1, MAX_WAVE_ROOTS + 1) / 2.0)
# the 48-point Gauss-Legendre rule on [-1, 1] of both pair-integral quadratures
_GL_X, _GL_W = np.polynomial.legendre.leggauss(48)


def hermite_poly(j: int) -> tuple:
    """Exact integer coefficients of H_j, ascending powers, by the two-term
    recurrence H_{j+1} = 2x H_j - 2j H_{j-1}."""
    if not 0 <= j <= MAX_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_DEGREE}]")
    prev, cur = [], [1]  # H_{-1} = 0 and H_0
    for k in range(j):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= 2 * k * c
        prev, cur = cur, nxt
    return tuple(cur)


def hermite_coeff_closed(j: int, power: int) -> int:
    """Coefficient of x^power in H_j from the explicit binomial sum."""
    if (j - power) % 2 != 0 or power < 0 or power > j:
        return 0
    m = (j - power) // 2
    return (-1) ** m * 2 ** (j - m) * math.comb(j, 2 * m) * math.factorial(2 * m) // (2**m * math.factorial(m))


def _recurrence_rows(jmax: int, x, gaussian: bool) -> np.ndarray:
    """Rows 0..jmax of the normalized recurrence: phi_j(x) when ``gaussian``,
    otherwise the polynomial factor phi_j(x) * e^{x^2/2}.

    Every pass runs in place in the output rows and one scratch row.
    """
    xv = np.atleast_1d(np.asarray(x, dtype=np.float64))
    rows = np.empty((jmax + 1, xv.size))
    r = list(rows)  # row views made once; on short rows indexing costs as much as a pass
    if gaussian:
        np.multiply(xv, -0.5, out=r[0])
        np.multiply(r[0], xv, out=r[0])
        np.exp(r[0], out=r[0])
        np.divide(r[0], _PI4, out=r[0])
    else:
        r[0].fill(1.0 / _PI4)
    if jmax >= 1:
        np.multiply(xv, math.sqrt(2.0), out=r[1])
        np.multiply(r[1], r[0], out=r[1])
    scratch = np.empty(xv.size)
    for j in range(1, jmax):
        np.multiply(xv, math.sqrt(2.0 / (j + 1)), out=r[j + 1])
        np.multiply(r[j + 1], r[j], out=r[j + 1])
        np.multiply(r[j - 1], math.sqrt(j / (j + 1)), out=scratch)
        np.subtract(r[j + 1], scratch, out=r[j + 1])
    return rows


def phi_rows(jmax: int, x) -> np.ndarray:
    """Array of shape (jmax+1, len(x)) with rows phi_0(x)..phi_jmax(x)."""
    if not 0 <= jmax <= MAX_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_DEGREE}]")
    return _recurrence_rows(jmax, x, gaussian=True)


def gauss_hermite(m: int) -> tuple:
    """(nodes, weights) of the m-point Gauss-Hermite rule, which integrates
    e^{-x^2} * f(x) exactly for polynomials f of degree <= 2m - 1.

    Nodes are the eigenvalues of the Jacobi matrix of the recurrence, zero
    diagonal and off-diagonal sqrt(j/2), polished by two Newton steps on the
    normalized Hermite polynomial.  Weights come from the closed form
    w_i = 1 / (m * htilde_{m-1}(x_i)^2); the squared first eigenvector
    components lose all relative accuracy for edge nodes, where they sit far
    below the eigensolver's absolute error.
    """
    if not 1 <= m <= MAX_QUADRATURE:
        raise ValueError(f"node count must be in [1, {MAX_QUADRATURE}]")
    off = np.sqrt(np.arange(1, m) / 2.0)
    jac = np.diag(off, 1) + np.diag(off, -1)
    nodes = np.linalg.eigvalsh(jac)
    for _ in range(2):
        rows = _recurrence_rows(m, nodes, gaussian=False)
        # htilde_m'(x) = sqrt(2m) * htilde_{m-1}(x)
        nodes = nodes - rows[m] / (math.sqrt(2.0 * m) * rows[m - 1])
    rows = _recurrence_rows(m - 1 if m > 1 else 0, nodes, gaussian=False)
    weights = 1.0 / (m * rows[m - 1] ** 2) if m > 1 else np.full(1, math.sqrt(math.pi))
    return nodes, weights


def orthonormality_defect(jmax: int, m: int) -> float:
    """max_{j,k<=jmax} |<phi_j, phi_k>_quadrature - delta_jk|.

    With m >= jmax + 1 the rule is exact and the defect is pure round-off;
    shorter rules document the failure mode.
    """
    nodes, weights = gauss_hermite(m)
    rows = _recurrence_rows(jmax, nodes, gaussian=False)
    gram = (rows * weights) @ rows.T
    return float(np.max(np.abs(gram - np.eye(jmax + 1))))


def roots_to_wave(roots) -> np.ndarray:
    """Coefficients a_0..a_m of F(x) = e^{-x^2/2} * prod (x - root_i) in the phi basis.

    Starts from e^{-x^2/2} = pi^{1/4} phi_0 and applies multiply-by-(x-root)
    through x*phi_j = sqrt((j+1)/2) phi_{j+1} + sqrt(j/2) phi_{j-1}.
    """
    rts = np.asarray(roots, dtype=np.float64).ravel()
    if rts.size > MAX_WAVE_ROOTS:
        raise ValueError(f"at most {MAX_WAVE_ROOTS} roots supported")
    a = np.array([_PI4])
    for lam in rts:
        m = a.size
        nxt = np.zeros(m + 1)
        nxt[1:] += a * _HALF_ROOTS[:m]  # raising part of x*phi_j
        if m > 1:
            nxt[: m - 1] += a[1:] * _HALF_ROOTS[: m - 1]  # lowering part
        nxt[:m] -= lam * a
        a = nxt
    return a


def wave_derivative(a: np.ndarray) -> np.ndarray:
    """Derivative in the phi basis: b_j = (sqrt(j+1) a_{j+1} - sqrt(j) a_{j-1}) / sqrt(2)."""
    m = a.size - 1
    b = np.zeros(m + 2)
    for j in range(m + 2):
        up = math.sqrt(j + 1) * a[j + 1] if j + 1 <= m else 0.0
        down = math.sqrt(j) * a[j - 1] if 1 <= j <= m + 1 else 0.0
        b[j] = (up - down) / math.sqrt(2.0)
    return b


def wave_eval(a: np.ndarray, x) -> np.ndarray:
    """Pointwise values of the function with phi-basis coefficients ``a``."""
    rows = phi_rows(a.size - 1, x)
    out = a @ rows
    return float(out[0]) if np.isscalar(x) else out


def wave_l2_quadrature(a: np.ndarray) -> float:
    """Independent L^2 norm of the expansion via a Gauss-Hermite rule exact for its square."""
    degree = a.size - 1
    nodes, weights = gauss_hermite(min(2 * degree + 8, MAX_QUADRATURE))
    rows = _recurrence_rows(degree, nodes, gaussian=False)
    fvals = a @ rows
    return float(np.dot(weights, fvals * fvals))


def derivative_energy_pair(roots, n: int) -> tuple:
    """(integral of F'^2, 2n * integral of F^2) for the Gaussian-polynomial F.

    The number of roots must be below n; callers assert lhs <= rhs, the
    derivative-energy bound for functions in the degree-(n-1) oscillator span.
    """
    rts = np.asarray(roots, dtype=np.float64).ravel()
    if rts.size >= n:
        raise ValueError("root count must be smaller than n")
    a = roots_to_wave(rts)
    b = wave_derivative(a)
    return float(np.dot(b, b)), 2.0 * n * float(np.dot(a, a))


def _dense_grid(rts: np.ndarray, step=1.0 / 2048.0):
    spread = float(np.max(np.abs(rts))) if rts.size else 0.0
    half = spread + 12.0
    count = int(np.ceil(2 * half / step)) + 1
    return np.linspace(-half, half, count)


def _abs_wave(rts: np.ndarray, x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """|F(x)| = e^{-x^2/2} |prod (x - root_i)|, written into ``out``."""
    np.multiply(x, x, out=out)
    np.multiply(out, -0.5, out=out)
    np.exp(out, out=out)
    for r in rts:
        np.subtract(x, r, out=scratch)
        np.multiply(out, scratch, out=out)
    return np.abs(out, out=out)


def _offset_weighted_integral(roots, lo: float, hi: float) -> float:
    """2 * integral over t in (lo, hi) of t * T(t) dt with T the absolute
    autocorrelation of F; equals the pair integral over the offset window.

    T(t) is the trapezoid value of integral |F(x)| |F(x + t)| dx on a dense
    grid, at each Gauss-Legendre node t.  |F| is evaluated from the roots
    (no phi expansion), and the trapezoid weights are folded into |F(grid)|
    once, so each shift costs one |F(grid + t)| pass in reused buffers, one
    multiply and one pairwise sum.  No BLAS call touches a grid-length
    array, so the result does not depend on the BLAS thread count.
    """
    rts = np.asarray(roots, dtype=np.float64).ravel()
    if rts.size > MAX_WAVE_ROOTS:
        raise ValueError(f"at most {MAX_WAVE_ROOTS} roots supported")
    grid = _dense_grid(rts)
    d = np.diff(grid)
    weights = np.empty(grid.size)  # trapezoid: (d[i-1] + d[i]) / 2, one-sided at the ends
    weights[0], weights[-1] = d[0] / 2.0, d[-1] / 2.0
    weights[1:-1] = (d[:-1] + d[1:]) / 2.0
    xs = np.empty(grid.size)
    vals = np.empty(grid.size)
    scratch = np.empty(grid.size)
    weighted = _abs_wave(rts, grid, np.empty(grid.size), scratch)
    np.multiply(weighted, weights, out=weighted)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    ts = mid + half * _GL_X
    wts = half * _GL_W
    corr = np.empty(ts.size)
    for i, t in enumerate(ts):
        np.add(grid, t, out=xs)
        np.multiply(weighted, _abs_wave(rts, xs, vals, scratch), out=vals)
        corr[i] = vals.sum()
    return 2.0 * float(np.dot(wts, ts * corr))


def pair_integral_band(roots, c: float) -> float:
    """Double integral of |x1-x2| |F(x1)| |F(x2)| over the band |x1-x2| < c."""
    if c <= 0:
        raise ValueError("band half-width must be positive")
    return _offset_weighted_integral(roots, 0.0, c)


def pair_integral_offsets(roots, lo: float, hi: float) -> float:
    """Same integrand, x2 - x1 restricted to (lo, hi) union (-hi, -lo)."""
    if not 0 <= lo < hi:
        raise ValueError("offset interval must satisfy 0 <= lo < hi")
    return _offset_weighted_integral(roots, lo, hi)


def pair_integral_root_boxes(roots, c: float) -> float:
    """Double integral of |x1-x2| |F(x1)| |F(x2)| over the union of the
    squares (root_i, root_i + c)^2, by inclusion-exclusion over the squares
    with a Gauss-Legendre tensor rule on each intersection rectangle."""
    rts = np.asarray(roots, dtype=np.float64).ravel()
    if rts.size == 0:
        return 0.0
    if rts.size > 16:
        raise ValueError("too many boxes for subset inclusion-exclusion")
    a = roots_to_wave(rts)

    def rect_integral(lo: float, hi: float) -> float:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        pts = mid + half * _GL_X
        wts = half * _GL_W
        fa = np.abs(wave_eval(a, pts))
        kernel = np.abs(pts[:, None] - pts[None, :])
        return float((wts * fa) @ kernel @ (wts * fa))

    total = 0.0
    n = rts.size
    for mask in range(1, 1 << n):
        sel = [rts[i] for i in range(n) if mask >> i & 1]
        lo, hi = max(sel), min(sel) + c
        if hi <= lo:
            continue
        sign = -1.0 if bin(mask).count("1") % 2 == 0 else 1.0
        total += sign * rect_integral(lo, hi)
    return total

"""Partition functions of one- and two-component log-gases on the line.

The one-component gas of n unit charges in a Gaussian well has partition
function G_n with a closed-form Gamma product.  Mixing in charge-2 particles
gives the generalized partition function G_{n1,n2}, which reduces to Pfaffian
coefficient extraction over the skew pairing tables alpha (sign-kernel inner
products of oscillator functions), beta (their derivative pairings, a pure
super-diagonal) and nu (their plain integrals).  The central identity checked
throughout this package is

    G_{n-2k,k} = 4^{-k} * G_n,

whose two sides are computed through entirely different routes: Gamma
products on the right, Pfaffian polynomial coefficients on the left.

Tiny systems (up to three live coordinates) are also integrated directly by
tensor-grid quadrature with gap constraints, providing an independent oracle
for the partition values and for the gap-window sandwich inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hermite import phi_rows
from .skewlin import pfaffian_bordered, pfaffian_poly

MAX_PFAFFIAN_N = 60

_SQRT2 = math.sqrt(2.0)
_PI4 = math.pi ** 0.25


class CoefficientError(RuntimeError):
    """A required Pfaffian polynomial coefficient was not recoverable."""


class AccuracyError(RuntimeError):
    """Grid refinement failed to stabilize; carries the last two estimates."""

    def __init__(self, previous: float, latest: float):
        super().__init__(
            f"quadrature refinement did not converge: last estimates {previous!r}, {latest!r}"
        )
        self.previous = previous
        self.latest = latest


# ---------------------------------------------------------------------------
# closed forms


def gn_closed_log(n: int) -> float:
    """log of the one-component partition function G_n."""
    if not 1 <= n <= 170:
        raise ValueError("n must be in [1, 170]")
    acc = 0.5 * n * math.log(2.0 * math.pi)
    for j in range(n):
        acc += math.lgamma(1.0 + (j + 1) / 2.0) - math.lgamma(1.5)
    return acc


def gn_closed(n: int) -> float:
    """G_n itself; raises OverflowError once it leaves float range."""
    return math.exp(gn_closed_log(n))


def jn_eval(xs) -> float:
    """Gaussian-weighted Vandermonde product, log-accumulated with sign."""
    x = np.asarray(xs, dtype=np.float64).ravel()
    if x.size < 1:
        raise ValueError("need at least one coordinate")
    log_acc = -0.5 * float(np.dot(x, x))
    sign = 1.0
    for i in range(1, x.size):
        for j in range(i):
            d = x[i] - x[j]
            if d == 0.0:
                return 0.0
            sign *= math.copysign(1.0, d)
            log_acc += math.log(abs(d))
    return sign * math.exp(log_acc)


def c_n_constant_log(n: int) -> float:
    """log of c_n with J_n = c_n * det[phi_{i-1}(x_j)].

    Derived by matching leading Vandermonde coefficients:
    c_n = prod_{j<n} (j! sqrt(pi) / 2^j)^{1/2}.
    """
    if not 1 <= n <= 100:
        raise ValueError("n must be in [1, 100]")
    acc = 0.0
    for j in range(n):
        acc += 0.5 * (math.lgamma(j + 1) + 0.5 * math.log(math.pi) - j * math.log(2.0))
    return acc


def c_n_constant(n: int) -> float:
    return math.exp(c_n_constant_log(n))


# ---------------------------------------------------------------------------
# pairing coefficient tables (all indices 1-based as in the skew kernels)


def beta_coeff(j: int, k: int) -> float:
    """Derivative pairing of oscillator functions: nonzero only on |j-k|=1."""
    if j < 1 or k < 1:
        raise ValueError("indices are 1-based")
    if k == j + 1:
        return math.sqrt(2.0 * j)
    if j == k + 1:
        return -math.sqrt(2.0 * k)
    return 0.0


def nu_coeff(k: int) -> float:
    """Plain integral of the (k-1)-th oscillator function.

    Zero for even k; for odd k the two-step recurrence
    sqrt(j-1) nu_{j-1} = sqrt(j) nu_{j+1} descends from nu_1 = sqrt(2) pi^{1/4}.
    """
    if k < 1:
        raise ValueError("index is 1-based")
    if k % 2 == 0:
        return 0.0
    val = _SQRT2 * _PI4
    for l in range(1, (k - 1) // 2 + 1):
        val *= math.sqrt((2 * l - 1) / (2 * l))
    return val


def alpha_coeff(j: int, k: int) -> float:
    """Sign-kernel pairing of oscillator functions j-1 and k-1.

    For j <= k it vanishes unless k is even, in which case
    alpha_{j,k} = 2 sqrt(2) nu_j / (sqrt(k-1) nu_{k-1}); the rest follows by
    antisymmetry.
    """
    if j < 1 or k < 1:
        raise ValueError("indices are 1-based")
    if j == k:
        return 0.0
    if j > k:
        return -alpha_coeff(k, j)
    if k % 2 == 1:
        return 0.0
    return 2.0 * _SQRT2 * nu_coeff(j) / (math.sqrt(k - 1.0) * nu_coeff(k - 1))


@dataclass(frozen=True)
class CoefficientTables:
    """Dense 1-based pairing tables alpha, beta (antisymmetric) and nu."""

    size: int
    alpha: np.ndarray
    beta: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        for name in ("alpha", "beta", "nu"):
            getattr(self, name).flags.writeable = False


@lru_cache(maxsize=None)
def coefficient_tables(size: int) -> CoefficientTables:
    """The tables of beta_coeff, nu_coeff and alpha_coeff up to index size,
    bit for bit: nu is one running product, and alpha takes each entry from
    the same two factors in the same order, (2 sqrt(2) nu_j) / (sqrt(k-1) nu_{k-1})."""
    if size < 1:
        raise ValueError("table size must be positive")
    nu = np.zeros(size)
    val = _SQRT2 * _PI4
    nu[0] = val
    for l in range(1, (size - 1) // 2 + 1):
        val *= math.sqrt((2 * l - 1) / (2 * l))
        nu[2 * l] = val
    beta = np.zeros((size, size))
    i = np.arange(size - 1)
    steps = np.sqrt(2.0 * (i + 1.0))
    beta[i, i + 1] = steps
    beta[i + 1, i] = -steps
    # column k - 1 of the upper triangle is nonzero only for even k
    upper = np.zeros((size, size))
    cols = np.arange(1, size, 2)
    upper[:, cols] = (2.0 * _SQRT2 * nu)[:, None] / (np.sqrt(cols.astype(np.float64)) * nu[cols - 1])
    upper = np.triu(upper, 1)
    # the lower triangle is -upper^T, signed zeros included
    alpha = np.where(np.tri(size, k=-1, dtype=bool), -upper.T, upper)
    return CoefficientTables(size=size, alpha=alpha, beta=beta, nu=nu)


@lru_cache(maxsize=4)
def _alpha_quadrature_table(jmax: int, points: int = 80001) -> np.ndarray:
    """Oracle table of the sign-kernel pairings by dense grid quadrature.

    C_{j}(x) = integral of phi_j up to x is accumulated by trapezoid on
    [-20, 20]; the outer integral pairs phi_{k-1} against 2*C_{j-1} - total.
    Independent of alpha_coeff: only the recurrence for phi is shared.

    The working set is two jmax x points arrays (the phi rows and one buffer
    that holds the panels, then C, then the weighted outer factor in place)
    plus the grid and the weights.  Each pass keeps the operation order of
    0.5 * (a + b) * dx, cumsum, 2 * C - total, times weights, so the table
    has the bits of the earlier formula that built each stage as a new array.
    """
    x = np.linspace(-20.0, 20.0, points)
    dx = x[1] - x[0]
    rows = phi_rows(jmax - 1, x)
    inner = np.empty_like(rows)
    inner[:, 0] = 0.0
    np.add(rows[:, 1:], rows[:, :-1], out=inner[:, 1:])
    inner *= 0.5
    inner *= dx
    np.cumsum(inner, axis=1, out=inner)
    totals = inner[:, -1].copy()
    weights = np.full(x.size, dx)
    weights[0] = weights[-1] = 0.5 * dx
    inner *= 2.0
    inner -= totals[:, None]
    inner *= weights
    return inner @ rows.T


def alpha_quadrature(j: int, k: int) -> float:
    """Quadrature oracle for alpha_coeff, usable for indices up to 40.

    The first call with an index of 32 or more builds the 40-row table over
    80001 points:
    about 0.08 s on one thread of a 2-vCPU host, at a 50 MiB traced peak.
    """
    if not (1 <= j <= 40 and 1 <= k <= 40):
        raise ValueError("oracle indices limited to [1, 40]")
    jmax = 1 << max(j, k, 8).bit_length()
    table = _alpha_quadrature_table(min(jmax, 40))
    return float(table[j - 1, k - 1])


# ---------------------------------------------------------------------------
# determinant polynomial of the shifted beta table


def dn_poly(n: int) -> list:
    """Exact integer coefficients (ascending powers) of
    det(B_n + 2*lambda*I) = sum_m 2^{n-m} C(n,2m) (2m)!/(2^m m!) lambda^{n-2m}."""
    if not 0 <= n <= 60:
        raise ValueError("n must be in [0, 60]")
    coeffs = [0] * (n + 1)
    for m in range(n // 2 + 1):
        coeffs[n - 2 * m] = (
            2 ** (n - m) * math.comb(n, 2 * m) * math.factorial(2 * m) // (2**m * math.factorial(m))
        )
    return coeffs


# ---------------------------------------------------------------------------
# Pfaffian route to the generalized partition function


@lru_cache(maxsize=None)
def _pairing_poly(n: int) -> np.ndarray:
    """Coefficients in zeta of the pairing Pfaffian for system size n.

    Even n: Pf(B_n + zeta*A_n).  Odd n: the bordered Pfaffian with the nu
    vector, whose coefficient at zeta^{(n1-1)/2} carries G_{n1,n2}.
    """
    t = coefficient_tables(n)
    if n % 2 == 0:
        return pfaffian_poly(t.beta, t.alpha, n // 2)
    return pfaffian_bordered(t.beta, t.alpha, t.nu, (n - 1) // 2)


def _pairing_coeff(n1: int, n2: int) -> float:
    """The coefficient that carries G_{n1,n2}: zeta^{n1 // 2} of the size
    n1 + 2*n2 pairing polynomial, for either parity of n (odd n has odd n1)."""
    n, power = n1 + 2 * n2, n1 // 2
    poly = _pairing_poly(n)
    if power >= poly.size:
        raise CoefficientError(
            f"coefficient zeta^{power} of the size-{n} pairing polynomial is out of range"
        )
    return float(poly[power])


def partition_ratio(n: int, k: int) -> float:
    """G_{n-2k,k} / G_n computed purely through Pfaffian coefficients.

    The unknown overall constant c_n cancels in the ratio, so this is an
    exact identity check against 4^{-k} with no calibrated inputs.
    """
    if not (k >= 1 and n >= 2 * k):
        raise ValueError("need n >= 2k >= 2")
    if n > MAX_PFAFFIAN_N:
        raise ValueError(f"n limited to {MAX_PFAFFIAN_N}")
    n1 = n - 2 * k
    fact = math.factorial(n1) * math.factorial(k) / math.factorial(n)
    return fact * _pairing_coeff(n1, k) / _pairing_coeff(n, 0)


def partition_general(n1: int, n2: int) -> float:
    """Absolute generalized partition function G_{n1,n2}.

    n1 unit charges and n2 double charges; n1 + 2*n2 <= MAX_PFAFFIAN_N.
    Assembled in log space from n1! n2! c_n and the pairing coefficient.
    """
    if n1 < 0 or n2 < 0 or n1 + n2 < 1:
        raise ValueError("need nonnegative counts with at least one particle")
    n = n1 + 2 * n2
    if n > MAX_PFAFFIAN_N:
        raise ValueError(f"n1 + 2*n2 limited to {MAX_PFAFFIAN_N}")
    coeff = _pairing_coeff(n1, n2)
    if coeff == 0.0:
        return 0.0
    log_mag = (
        math.lgamma(n1 + 1)
        + math.lgamma(n2 + 1)
        + c_n_constant_log(n)
        + math.log(abs(coeff))
    )
    return math.copysign(math.exp(log_mag), coeff)


def partition_identity_report(n_max: int) -> list:
    """Rows (n, k, ratio, abs_error) for the 4^k * G_{n-2k,k}/G_n = 1 check."""
    if not 2 <= n_max <= MAX_PFAFFIAN_N:
        raise ValueError(f"n_max must be in [2, {MAX_PFAFFIAN_N}]")
    rows = []
    for n in range(2, n_max + 1):
        for k in range(1, n // 2 + 1):
            ratio = partition_ratio(n, k)
            rows.append((n, k, ratio, abs(4.0**k * ratio - 1.0)))
    return rows


# ---------------------------------------------------------------------------
# direct constrained quadrature for tiny systems


@dataclass(frozen=True)
class GapConstraint:
    """k constrained coordinate pairs, each gap confined to a window.

    ``bound`` is either a scalar c > 0 (gaps in (0, c) by absolute value,
    i.e. signed gap in (-c, c)) or an interval (a, b) with 0 < a < b
    (absolute gap inside it).
    """

    k: int
    bound: object

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if isinstance(self.bound, (tuple, list)):
            a, b = self.bound
            if not 0 < a < b:
                raise ValueError("interval bound needs 0 < a < b")
        elif not float(self.bound) > 0:
            raise ValueError("scalar bound must be positive")


_BOX_HALF = 9.0
_BASE_CELLS = 360  # even, so 0 is a grid point of [-9, 9]
_GAP_CELLS = 16


def _trapezoid_axis(lo: float, hi: float, cells: int):
    grid = np.linspace(lo, hi, cells + 1)
    w = np.full(cells + 1, (hi - lo) / cells)
    w[0] *= 0.5
    w[-1] *= 0.5
    return grid, w


def _constrained_value(n: int, constraint: GapConstraint, l: int, level: int) -> float:
    """One tensor-quadrature evaluation of E_{n,k,l} at a refinement level,
    for a shape that :func:`integrate_constrained` accepts.

    Coordinates are the m = n-l gas positions, with each constrained gap
    substituted by its own variable u (unit Jacobian).  This keeps the |u|
    kink and the window endpoints exactly on grid nodes, which a raw
    indicator on the position grid cannot do.

    At most one gap is constrained, and it pairs the last two positions
    r = m-2 and s = m-1: x_s = x_r + u.  Rows run over x_r and columns over
    a window, the base grid when every constrained pair is merged (k = l,
    then m <= 2 and x_s is the column coordinate).  Per window the slab
    product F = exp(g_r + g_s) |x_r - x_s|^(q_r q_s), with g = -q x^2 / 2,
    is formed once.  At m = 3 a gap is constrained, |x_0 - x_s| varies over
    the whole slab, and ``_gap_core_sum`` sums it against G = F w by
    moments in u.
    """
    k = constraint.k
    m = n - l
    q = [2.0] * l + [1.0] * (m - l)

    gap_cells = _GAP_CELLS * 2**level
    base_grid, base_w = _trapezoid_axis(-_BOX_HALF, _BOX_HALF, _BASE_CELLS * 2**level)
    if m == 1:
        return float(np.dot(base_w, np.exp(-0.5 * q[0] * base_grid**2)))

    if k == l:
        windows = [(base_grid, base_w)]
    elif isinstance(constraint.bound, (tuple, list)):
        g, w = _trapezoid_axis(float(constraint.bound[0]), float(constraint.bound[1]), gap_cells)
        windows = [(g, w), (-g, w)]  # gaps in (a, b) and in (-b, -a)
    else:
        c = float(constraint.bound)
        windows = [_trapezoid_axis(-c, c, 2 * gap_cells)]

    r, s = m - 2, m - 1
    x_r = base_grid[:, None]
    total = 0.0
    for grid, w in windows:
        x_s = grid[None, :] if k == l else x_r + grid[None, :]
        F = np.exp(-0.5 * q[r] * x_r**2 - 0.5 * q[s] * x_s**2)
        F *= np.abs(x_r - x_s) ** (q[r] * q[s])
        if m == 2:
            total += float(base_w @ F @ w)
        else:
            F *= w
            total += _gap_core_sum(base_grid, base_w, grid, F, q[0], q[0] * q[r], q[0] * q[s])
    return total


_X0_BLOCK = 16  # outer points per pass: bounds the (block, rows) scratch arrays


def _gap_core_sum(x, w, u, G, q0: float, p_r: float, p_s: float) -> float:
    """Sum over x_0 in x of w_0 exp(-q0 x_0^2 / 2) row @ S, where
    row_i = w_i |x_0 - x_i|^p_r and S_i = sum_j G_ij |x_0 - x_i - u_j|^p_s.

    The exponent p = p_s is 1, 2 or 4.  With d = x_0 - x_i the binomial
    expansion sum_a C(p, a) d^(p-a) (-u)^a equals |d - u|^p for every u when
    p is even, and its sign flips for u > d when p is odd.  So S is a
    polynomial in d whose coefficients are, per row i, the moments
    T_a = sum_j G_ij u_j^a (even p) or 2 L_a - T_a with L_a the moment over
    u_j < d (odd p).  The moments are prefix sums along sorted u, and L_a is
    read at the row's ``searchsorted`` position.  The cost is
    O(R U (p+1) + X R log U) against O(X R U) for summing the slab at each
    x_0, and the x_0 terms are still added one by one in grid order.
    """
    p = int(p_s)
    order = np.argsort(u, kind="stable")  # the (-b, -a) window runs downwards
    u = u[order]
    n_rows = G.shape[0]
    # moments[a, t, i]: C(p, a) (-1)^a sum_{j < t} G_ij u_j^a, over sorted u
    moments = np.zeros((p + 1, u.size + 1, n_rows))
    term = G[:, order].T  # a copy, so it can be scaled in place
    for a in range(p + 1):
        if a:
            term *= u[:, None]
        np.cumsum(term, axis=0, out=moments[a, 1:])
        moments[a] *= math.comb(p, a) * (-1.0) ** a
    del term
    if p % 2:
        totals = moments[:, -1:].copy()
        moments *= 2.0
        moments -= totals
        signed = moments.reshape(p + 1, -1)
        row_index = np.arange(n_rows)
    else:
        coeffs = moments[:, -1]
    acc = 0.0
    for start in range(0, x.size, _X0_BLOCK):
        x0s = x[start : start + _X0_BLOCK]
        d = x0s[:, None] - x[None, :]
        if p % 2:
            coeffs = signed.take(np.searchsorted(u, d) * n_rows + row_index, axis=1)
        core = coeffs[0] * d
        for a in range(1, p + 1):  # Horner in d
            core += coeffs[a]
            if a < p:
                core *= d
        pair = np.abs(d)
        if p_r != 1.0:  # |d| ** 1.0 == |d|; skip the pass
            pair **= p_r
        pair *= w
        for x0, w0, row, s in zip(x0s, w[start : start + _X0_BLOCK], pair, core):
            acc += w0 * np.exp(-0.5 * q0 * x0**2) * float(row @ s)
    return acc


def integrate_constrained(
    n: int,
    constraint: GapConstraint,
    l: int,
    *,
    stop_rel: float = 1e-5,
    max_levels: int = 4,
) -> float:
    """Direct tensor quadrature of the constrained two-component integral.

    Integrates the log-gas density of n particles with the first l merged
    into double charges, over the set where the remaining k-l designated
    gaps fall in the constraint window.  Grid doubling continues until the
    relative change drops below ``stop_rel``.

    The live coordinates number m = n - l <= 3.  At m = 3 with a gap, one
    level sums the X x R outer grid against per-row moments in u rather than
    the whole R x U slab at each of the X outer points, so it costs about
    X R log U and each refinement level about 4 times the one before.  At
    m = 4 two coordinates would be summed point by point outside the grid
    slab, and one level alone takes seconds; every refinement level costs
    16 times more.  No suite reaches m = 3 with every pair merged (k = l),
    nor a missing constraint, so both are refused too.
    """
    if not isinstance(constraint, GapConstraint):
        raise ValueError("need a GapConstraint")
    k = constraint.k
    m = n - l
    if m > 3:
        raise ValueError("direct quadrature limited to n - l <= 3 live coordinates")
    if not 0 <= l <= k:
        raise ValueError("need 0 <= l <= k")
    if m < 2 * (k - l):
        raise ValueError("not enough coordinates for the requested pairs")
    if m == 3 and k == l:
        raise ValueError("with every pair merged, direct quadrature is limited to n - l <= 2")
    prev = None
    for level in range(max_levels):
        val = _constrained_value(n, constraint, l, level)
        if prev is not None and abs(val - prev) <= stop_rel * max(abs(val), 1e-300):
            return val
        prev = val
    raise AccuracyError(prev, val)

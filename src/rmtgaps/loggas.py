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

Tiny systems (up to four live coordinates) are also integrated directly by
tensor-grid quadrature with gap constraints, providing an independent oracle
for the partition values and for the gap-window sandwich inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .hermite import phi_rows
from .skewlin import pfaffian_bordered, pfaffian_poly

MAX_PFAFFIAN_N = 40

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
    if size < 1:
        raise ValueError("table size must be positive")
    nu = np.array([nu_coeff(k) for k in range(1, size + 1)])
    beta = np.zeros((size, size))
    for j in range(1, size):
        beta[j - 1, j] = math.sqrt(2.0 * j)
        beta[j, j - 1] = -beta[j - 1, j]
    alpha = np.zeros((size, size))
    for j in range(1, size + 1):
        for k in range(j + 1, size + 1):
            a = alpha_coeff(j, k)
            alpha[j - 1, k - 1] = a
            alpha[k - 1, j - 1] = -a
    return CoefficientTables(size=size, alpha=alpha, beta=beta, nu=nu)


@lru_cache(maxsize=4)
def _alpha_quadrature_table(jmax: int, points: int = 80001) -> np.ndarray:
    """Oracle table of the sign-kernel pairings by dense grid quadrature.

    C_{j}(x) = integral of phi_j up to x is accumulated by trapezoid on
    [-20, 20]; the outer integral pairs phi_{k-1} against 2*C_{j-1} - total.
    Independent of alpha_coeff: only the recurrence for phi is shared.
    """
    x = np.linspace(-20.0, 20.0, points)
    dx = x[1] - x[0]
    rows = phi_rows(jmax - 1, x)
    mids = 0.5 * (rows[:, 1:] + rows[:, :-1]) * dx
    cum = np.concatenate([np.zeros((jmax, 1)), np.cumsum(mids, axis=1)], axis=1)
    totals = cum[:, -1]
    weights = np.full(x.size, dx)
    weights[0] = weights[-1] = 0.5 * dx
    inner = 2.0 * cum - totals[:, None]
    return (inner * weights) @ rows.T


def alpha_quadrature(j: int, k: int) -> float:
    """Quadrature oracle for alpha_coeff, usable for indices up to 40."""
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


def _pairing_coeff(n: int, power: int) -> float:
    poly = _pairing_poly(n)
    if power < 0 or power >= poly.size:
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
    if n % 2 == 0:
        num = _pairing_coeff(n, n1 // 2)
        den = _pairing_coeff(n, n // 2)
    else:
        num = _pairing_coeff(n, (n1 - 1) // 2)
        den = _pairing_coeff(n, (n - 1) // 2)
    fact = math.factorial(n1) * math.factorial(k) / math.factorial(n)
    return fact * num / den


def partition_general(n1: int, n2: int) -> float:
    """Absolute generalized partition function G_{n1,n2}.

    n1 unit charges and n2 double charges; n1 + 2*n2 <= 40.  Assembled in
    log space from n1! n2! c_n and the pairing coefficient.
    """
    if n1 < 0 or n2 < 0 or n1 + n2 < 1:
        raise ValueError("need nonnegative counts with at least one particle")
    n = n1 + 2 * n2
    if n > MAX_PFAFFIAN_N:
        raise ValueError(f"n1 + 2*n2 limited to {MAX_PFAFFIAN_N}")
    power = n1 // 2 if n % 2 == 0 else (n1 - 1) // 2
    coeff = _pairing_coeff(n, power)
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


def _constrained_value(n: int, constraint, l: int, level: int) -> float:
    """One tensor-quadrature evaluation of E_{n,k,l} at a refinement level.

    Coordinates are the m = n-l gas positions, with each constrained gap
    substituted by its own variable u (unit Jacobian).  This keeps the |u|
    kink and the window endpoints exactly on grid nodes, which a raw
    indicator on the position grid cannot do.

    The integrand is a product of factors, exp(-q_s x_s^2 / 2) for each
    position and |x_s - x_t|^(q_s q_t) for each pair.  A base position
    depends on its own axis, a gap position on its partner's axis and its
    own gap axis, and a factor on the axes of its positions.  The last two
    axes form a slab (rows i, columns j); the other axes are outer and are
    summed point by point.  Each factor is evaluated only where its axes
    vary:

    - slab axes only: once per sign pattern, into the slab product F;
    - outer axes only: a scalar folded into the outer weight;
    - outer axes and one slab axis: a row or column vector;
    - outer axes and both slab axes (the core): at every outer point, in
      place in one reused buffer, then summed against G = F w_j.

    Without a core, each outer point adds row @ F @ col instead.  The row
    vector carries the weights w_i, and the column weights w_j go into G or
    into the column vector.

    The discrete sum is that of the full tensor grid; only the order of the
    floating-point products and sums differs.
    """
    k = constraint.k if constraint is not None else l
    m = n - l
    kappa = k - l
    q = [2.0] * l + [1.0] * (m - l)

    base_cells = _BASE_CELLS * 2**level
    gap_cells = _GAP_CELLS * 2**level
    base_grid, base_w = _trapezoid_axis(-_BOX_HALF, _BOX_HALF, base_cells)
    if m == 1:
        return float(np.dot(base_w, np.exp(-0.5 * q[0] * base_grid**2)))

    if kappa == 0:
        gap_axes = []
        patterns = [()]
    elif isinstance(constraint.bound, (tuple, list)):
        a, b = float(constraint.bound[0]), float(constraint.bound[1])
        gap_axes = [_trapezoid_axis(a, b, gap_cells)] * kappa
        patterns = product((1.0, -1.0), repeat=kappa)  # -1 flips (a,b) to (-b,-a)
    else:
        c = float(constraint.bound)
        gap_axes = [_trapezoid_axis(-c, c, 2 * gap_cells)] * kappa
        patterns = [(1.0,) * kappa]

    nbase = m - kappa
    pos_axes = [(s,) for s in range(nbase)]
    pos_axes += [(nbase - kappa + t, nbase + t) for t in range(kappa)]
    slab = {m - 2, m - 1}
    parts = {"slab": [], "outer": [], "row": [], "col": [], "core": []}
    # (s, None) is the Gaussian factor of position s, (s, t) the pair factor
    pairs = [(s, t) for s in range(m) for t in range(s + 1, m)]
    for s, t in [(s, None) for s in range(m)] + pairs:
        axes = set(pos_axes[s]) | set(pos_axes[t] if t is not None else ())
        if axes <= slab:
            part = "slab"
        elif not axes & slab:
            part = "outer"
        elif slab <= axes:
            part = "core"  # always a pair: one position spans two axes at most
        else:
            part = "row" if m - 2 in axes else "col"
        parts[part].append((s, t))
    slab_pos = [s for s in range(m) if set(pos_axes[s]) <= slab]
    outer_pos = [s for s in range(m) if s not in slab_pos]

    def positions(coords, which):
        # a gap position is its partner's coordinate plus its own gap
        return {s: coords[s] if s < nbase else coords[pos_axes[s][0]] + coords[s] for s in which}

    def product_of(factors, lam):
        quad = [s for s, t in factors if t is None]
        val = np.exp(sum(-0.5 * q[s] * lam[s] ** 2 for s in quad)) if quad else 1.0
        for s, t in factors:
            if t is not None:
                d = np.abs(lam[s] - lam[t])
                val = val * (d if q[s] * q[t] == 1.0 else d ** (q[s] * q[t]))
        return val

    def accumulate(signs):
        grids = [base_grid] * nbase + [sg * g for sg, (g, _) in zip(signs, gap_axes)]
        weights = [base_w] * nbase + [w for _, w in gap_axes]
        wi, wj = weights[-2:]
        coords = grids[:-2] + [grids[-2][:, None], grids[-1][None, :]]
        lam = positions(coords, slab_pos)
        shape = (wi.size, wj.size)
        F = np.broadcast_to(product_of(parts["slab"], lam), shape)
        # the row weights ride in the row vector; the column weights go into G
        # once when a core is summed against it, else into the column vector
        G = F * wj if parts["core"] else None
        core = np.empty(shape) if parts["core"] else None
        spare = np.empty(shape) if len(parts["core"]) > 1 else None
        total = 0.0
        for idx in product(*[range(g.size) for g in grids[:-2]]):
            wout = 1.0
            for ax, i in enumerate(idx):
                coords[ax] = grids[ax][i]
                wout *= weights[ax][i]
            lam.update(positions(coords, outer_pos))
            wout *= product_of(parts["outer"], lam)
            row = wi * np.ravel(product_of(parts["row"], lam)) if parts["row"] else wi
            col = np.ravel(product_of(parts["col"], lam)) if parts["col"] else None
            if not parts["core"]:
                total += wout * float(row @ F @ (wj if col is None else wj * col))
                continue
            for f, (s, t) in enumerate(parts["core"]):
                buf = spare if f else core
                np.subtract(lam[s], lam[t], out=buf)
                np.abs(buf, out=buf)
                if q[s] * q[t] != 1.0:
                    buf **= q[s] * q[t]
                if f:
                    core *= buf
            if col is None:
                per_row = np.einsum("ij,ij->i", G, core)
            else:
                per_row = np.einsum("ij,ij,j->i", G, core, col)
            total += wout * float(row @ per_row)
        return total

    total = 0.0
    for signs in patterns:
        total += accumulate(signs)
    return total


def integrate_constrained(
    n: int,
    constraint,
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
    """
    k = constraint.k if constraint is not None else l
    m = n - l
    if m > 4:
        raise ValueError("direct quadrature limited to n - l <= 4")
    if not 0 <= l <= k:
        raise ValueError("need 0 <= l <= k")
    if m < 2 * (k - l):
        raise ValueError("not enough coordinates for the requested pairs")
    prev = None
    for level in range(max_levels):
        val = _constrained_value(n, constraint, l, level)
        if prev is not None and abs(val - prev) <= stop_rel * max(abs(val), 1e-300):
            return val
        prev = val
    raise AccuracyError(prev, val)

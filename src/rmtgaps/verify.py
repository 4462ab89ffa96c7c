"""Deterministic verification suites behind the `verify` CLI command.

Each suite re-checks one block of the exact machinery against independent
oracles (closed forms, brute-force enumeration, direct quadrature) and
returns per-check rows for the CSV report; its verdict is the one that
``reports.RunReport`` derives from the rows.  Random sweeps are seeded, so a
suite is a pure function of its options.

A suite is declared once, as a function ``_suite_<name>`` marked ``@_suite``:
the first line of its docstring is its help, and its keyword parameters are
the options it reads, with their defaults.  ``SUITES`` collects them, and
``OPTION_BOUNDS`` holds the one range of each option.  A run's artifacts echo
the suite and each option it reads, its defaults filled in
(:func:`suite_options`).
"""

from __future__ import annotations

import inspect
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import hermite, loggas, reports, skewlin

CHECK_HEADER = ("check", "value", "threshold", "passed")


@dataclass
class SuiteResult:
    """Check rows (check, value, threshold, passed) and the CSV table of a run."""

    rows: list
    header: tuple = CHECK_HEADER
    table: list = None  # rows under ``header``; the check rows unless a suite sets its own

    def __post_init__(self):
        self.rows = [(c, float(v), float(t), bool(ok)) for c, v, t, ok in self.rows]
        if self.table is None:
            self.table = self.rows

    def report(self, suite: str, config: dict, wall_clock_seconds) -> reports.RunReport:
        """The run's report: each check row is one gate of its verdict."""
        checks = [dict(zip(CHECK_HEADER, row)) for row in self.rows]
        results = {"checks": checks, "max_error": max((r[1] for r in self.rows), default=0.0)}
        return reports.RunReport("verify", suite, config, results, wall_clock_seconds)


@dataclass(frozen=True)
class Suite:
    """A suite's function, its one-line help and the options it reads, with their defaults."""

    run: Callable
    help: str
    options: dict


SUITES = {}  # name -> Suite, in the order the suites are declared below


def _suite(func):
    """Declare ``_suite_<name>``: the first line of its docstring is the help,
    and its keyword parameters are the options it reads."""
    options = {p.name: p.default for p in inspect.signature(func).parameters.values()}
    name = func.__name__.removeprefix("_suite_")
    SUITES[name] = Suite(func, inspect.getdoc(func).splitlines()[0], options)
    return func


# the integer range of every option a suite may read, lowest and highest value
OPTION_BOUNDS = {"base_seed": (0, math.inf), "cases": (1, math.inf), "n_max": (2, loggas.MAX_PFAFFIAN_N)}


def _below(check: str, value: float, threshold: float) -> tuple:
    """Check row for a value that must stay below its threshold."""
    return (check, value, threshold, value < threshold)


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def _random_skew(rng, n: int) -> np.ndarray:
    x = rng.uniform(-1.0, 1.0, (n, n))
    return x - x.T


@_suite
def _suite_pfaffian(base_seed=0, cases=100) -> SuiteResult:
    """Pfaffian algebraic identities on random skew matrices"""
    rng = np.random.default_rng(base_seed)
    pf = skewlin.pfaffian_numeric

    def skews(top: int):
        """``cases`` random skew matrices of even dimensions 2..2*(top-1)."""
        return (_random_skew(rng, 2 * rng.integers(1, top)) for _ in range(cases))

    def congruence(x):
        b = rng.uniform(-1.0, 1.0, x.shape)
        return _rel(pf(b.T @ x @ b), np.linalg.det(b) * pf(x))

    def scaling(x):
        base = pf(x)
        n = x.shape[0]
        return max(_rel(pf(lam * x), lam ** (n // 2) * base) for lam in (-2.0, 0.5, 3.0))

    checks = (  # name, threshold, dimension bound, error of one matrix
        ("square_equals_det", 1e-9, 6, lambda x: _rel(pf(x) ** 2, np.linalg.det(x))),
        ("congruence_transform", 1e-8, 5, congruence),
        ("scaling_identity", 1e-10, 6, scaling),
        ("exact_vs_numeric", 1e-10, 7, lambda x: _rel(skewlin.pfaffian_exact(x), pf(x))),
    )
    rows = [
        _below(name, max(map(error, skews(top)), default=0.0), thr) for name, thr, top, error in checks
    ]

    err = 0.0
    for n in range(4, 13, 2):
        t = loggas.coefficient_tables(n)
        full = skewlin.pfaffian_poly(t.beta, t.alpha, n // 2)
        small = skewlin.pfaffian_poly(t.beta[: n - 2, : n - 2], t.alpha[: n - 2, : n - 2], n // 2 - 1)
        rhs = _zero_corner_poly(n) + loggas.beta_coeff(n - 1, n) * _pad(small, n // 2 + 1)
        err = max(err, float(np.max(np.abs(_pad(full, n // 2 + 1) - rhs)) / np.max(np.abs(full))))
    rows.append(_below("pairing_table_expansion", err, 1e-9))

    return SuiteResult(rows)


def _pad(coeffs: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[: coeffs.size] = coeffs
    return out


def _zero_corner_poly(n: int) -> np.ndarray:
    """Coefficients of Pf(C + zeta*A_n), padded to n//2 + 1, where the corner
    C holds B_{n-1} and a zero last row and column."""
    corner = np.zeros((n, n))
    corner[: n - 1, : n - 1] = loggas.coefficient_tables(n - 1).beta
    poly = skewlin.pfaffian_poly(corner, loggas.coefficient_tables(n).alpha, n // 2)
    return _pad(poly, n // 2 + 1)


@_suite
def _suite_hermite(base_seed=0) -> SuiteResult:
    """wave-function orthonormality, closed forms, Parseval"""
    rng = np.random.default_rng(base_seed)
    rows = []

    defect = hermite.orthonormality_defect(30, 64)
    rows.append(_below("orthonormality_defect_30_64", defect, 1e-10))

    exact = all(
        hermite.hermite_poly(j) == tuple(hermite.hermite_coeff_closed(j, p) for p in range(j + 1))
        for j in range(41)
    )
    rows.append(("recurrence_matches_closed_form_40", 0.0, 0.0, exact))

    grid = np.linspace(-20.0, 20.0, 4001)
    phis = hermite.phi_rows(200, grid)
    bound = float(np.max(np.abs(phis, out=phis)))
    rows.append(("wave_function_bound", bound, 0.8, bound <= 0.8))

    waves = (hermite.roots_to_wave(rng.uniform(-3.0, 3.0, rng.integers(0, 11))) for _ in range(50))
    err = max(_rel(float(np.dot(a, a)), hermite.wave_l2_quadrature(a)) for a in waves)
    rows.append(_below("parseval_vs_quadrature", err, 1e-9))

    return SuiteResult(rows)


def _ratio_tolerance(n: int) -> float:
    if n <= 4:
        return 1e-10
    if n <= 14:
        return 1e-8
    if n <= 30:
        return 1e-6
    return 1e-5


@_suite
def _suite_lemma9(n_max=14) -> SuiteResult:
    """partition-ratio identity 4^k G_{n-2k,k} / G_n = 1"""
    table = loggas.partition_identity_report(n_max)
    rows = [_below(f"ratio_n{n}_k{k}", err, _ratio_tolerance(n)) for n, k, _ratio, err in table]
    return SuiteResult(rows, ("n", "k", "ratio", "abs_error"), table)


@_suite
def _suite_lemma10(base_seed=0, cases=1000) -> SuiteResult:
    """derivative-energy and pair-integral inequalities"""
    rng = np.random.default_rng(base_seed)
    rows = []

    violations = 0
    min_slack = math.inf
    for _ in range(cases):
        m = int(rng.integers(0, 11))
        roots = rng.uniform(-3.0, 3.0, m)
        lhs, rhs = hermite.derivative_energy_pair(roots, m + 1)
        min_slack = min(min_slack, rhs - lhs)
        if lhs > rhs:
            violations += 1
    rows.append(("derivative_energy_violations", float(violations), 0.0, violations == 0))
    rows.append(("derivative_energy_min_slack", min_slack, 0.0, min_slack >= 0.0))

    # band and offset pair integrals against their closed-window bounds
    for trial in range(5):
        m = int(rng.integers(1, 7))
        roots = rng.uniform(-2.0, 2.0, m)
        n = m + 1
        c = float(rng.uniform(0.05, 1.0 / math.sqrt(2.0 * n)))  # keeps 2nc^2 < 1
        coeffs = hermite.roots_to_wave(roots)
        norm = float(np.dot(coeffs, coeffs))
        band = hermite.pair_integral_band(roots, c)
        hi_ok = band <= c * c * norm * (1.0 + 1e-6)
        lo_ok = band >= (1.0 - n * c * c) * c * c * norm * (1.0 - 1e-6)
        rows.append((f"band_pair_bounds_{trial}", band, c * c * norm, hi_ok and lo_ok))

        a = float(rng.uniform(0.0, c / 2.0))
        b = float(a + rng.uniform(c / 4.0, c / 2.0))
        off = hermite.pair_integral_offsets(roots, a, b)
        phi_a = b * b - a * a  # twice the window mass integral of u du
        hi_ok = off <= phi_a * norm * (1.0 + 1e-6)
        lo_ok = off >= (1.0 - n * c * c) * phi_a * norm * (1.0 - 1e-6)
        rows.append((f"offset_pair_bounds_{trial}", off, phi_a * norm, hi_ok and lo_ok))

        boxes = hermite.pair_integral_root_boxes(roots, c)
        box_ok = boxes <= n * c**4 * norm * (1.0 + 1e-6)
        rows.append((f"root_box_bound_{trial}", boxes, n * c**4 * norm, box_ok))

    return SuiteResult(rows)


LEMMA12_TOLERANCE = 1e-3  # relative slack on every quadrature bound of the lemma12 suite


@_suite
def _suite_lemma12() -> SuiteResult:
    """gap-window sandwich bounds by direct quadrature"""
    rows = []
    for n, k, l in ((2, 1, 0), (3, 1, 0)):
        upper = loggas.integrate_constrained(n, loggas.GapConstraint(k, 1.0), l + 1)
        for c in (0.05, 0.1):
            val = loggas.integrate_constrained(n, loggas.GapConstraint(k, c), l)
            ratio = val / upper
            lo_bound = (1.0 - n * c * c) * c * c
            hi_bound = c * c
            ok = lo_bound * (1.0 - LEMMA12_TOLERANCE) <= ratio <= hi_bound * (1.0 + LEMMA12_TOLERANCE)
            rows.append((f"gap_sandwich_n{n}_c{c}", ratio, hi_bound, ok))

    # interval-window variant at (2,1,0), window (0.05, 0.1)
    a, b = 0.05, 0.1
    g01 = loggas.partition_general(0, 1)
    val = loggas.integrate_constrained(2, loggas.GapConstraint(1, (a, b)), 0)
    mass = 2.0 * (b * b - a * a) / 2.0  # twice the integral of u over (a,b)
    lo_bound = (1.0 - 2.0 * b * b) * mass * g01
    hi_bound = mass * g01
    ok = lo_bound * (1.0 - LEMMA12_TOLERANCE) <= val <= hi_bound * (1.0 + LEMMA12_TOLERANCE)
    rows.append(("interval_sandwich_n2", val, hi_bound, ok))

    # merged-pair integral equals the two-charge partition value; with its one
    # constrained pair merged (k = l) the window is never read, so it is the
    # (3, 1, 0) upper integral of the loop above
    err = _rel(upper, loggas.partition_general(1, 1))
    rows.append(_below("merged_pair_equals_partition", err, LEMMA12_TOLERANCE))

    return SuiteResult(rows)


@_suite
def _suite_dpoly() -> SuiteResult:
    """shifted determinant polynomial identities"""
    rows = []

    recurrence_exact = True
    for n in range(1, 40):
        lhs = loggas.dn_poly(n + 1)
        rhs = [0] + [2 * c for c in loggas.dn_poly(n)]
        for i, c in enumerate(loggas.dn_poly(n - 1)):
            rhs[i] += 2 * n * c
        recurrence_exact &= lhs == rhs
    rows.append(("determinant_recurrence_exact_40", 0.0, 0.0, recurrence_exact))

    err = 0.0
    for n in range(1, 9):
        t = loggas.coefficient_tables(n)
        for lam in (-1.5, -0.3, 0.4, 2.0):
            det = float(np.linalg.det(t.beta + 2.0 * lam * np.eye(n)))
            val = 0.0
            for c in reversed(loggas.dn_poly(n)):
                val = val * lam + float(c)
            err = max(err, _rel(det, val))
    rows.append(_below("determinant_closed_form", err, 1e-10))

    err53 = 0.0
    err909 = 0.0
    for n in range(2, loggas.MAX_PFAFFIAN_N + 1, 2):
        t = loggas.coefficient_tables(n)
        pfb = skewlin.pfaffian_numeric(t.beta)
        p = _pad(skewlin.pfaffian_poly(t.beta, t.alpha, n // 2), n // 2 + 1)
        dn = np.array([float(c) for c in loggas.dn_poly(n)])
        lhs = np.zeros(n + 1)
        lhs[::2] = p * pfb
        err53 = max(err53, float(np.max(np.abs(lhs - dn)) / np.max(np.abs(dn))))

        rhs = np.zeros(n + 1)
        rhs[1:] = 2.0 * np.array([float(c) for c in loggas.dn_poly(n - 1)])
        lhs2 = np.zeros(n + 1)
        lhs2[::2] = _zero_corner_poly(n) * pfb
        err909 = max(err909, float(np.max(np.abs(lhs2 - rhs)) / np.max(np.abs(rhs))))
    rows.append(_below("pairing_det_identity", err53, 1e-8))
    rows.append(_below("pairing_det_identity_zero_corner", err909, 1e-8))

    return SuiteResult(rows)


@_suite
def _suite_coefficients(base_seed=0) -> SuiteResult:
    """pairing coefficient tables against quadrature oracles"""
    rng = np.random.default_rng(base_seed)
    rows = []

    err = max(
        abs(loggas.alpha_coeff(j, k) - loggas.alpha_quadrature(j, k))
        for j in range(1, 13)
        for k in range(1, 13)
    )
    rows.append(_below("alpha_recurrence_vs_quadrature", err, 1e-6))

    tables = (loggas.coefficient_tables(n) for n in range(2, 21, 2))
    err = max(float(np.max(np.abs(t.beta @ t.alpha + 4.0 * np.eye(t.size)))) for t in tables)
    rows.append(_below("pairing_inverse_identity", err, 1e-10))

    parity_ok = all(loggas.nu_coeff(k) == 0.0 for k in range(2, 41, 2)) and all(
        loggas.nu_coeff(k) > 0.0 for k in range(1, 41, 2)
    )
    rows.append(("nu_parity", 0.0, 0.0, parity_ok))

    err = 0.0
    for n in (3, 5):
        c_n = loggas.c_n_constant(n)
        for _ in range(20):
            xs = rng.uniform(-2.5, 2.5, n)
            det = float(np.linalg.det(hermite.phi_rows(n - 1, xs)))
            err = max(err, _rel(loggas.jn_eval(xs), c_n * det))
    rows.append(_below("gaussian_vandermonde_constant", err, 1e-8))

    err = max(_rel(loggas.partition_general(n, 0), loggas.gn_closed(n)) for n in range(1, 15))
    rows.append(_below("partition_matches_closed_form", err, 1e-8))

    return SuiteResult(rows)


def suite_options(name: str, options: dict | None = None) -> dict:
    """Every option suite ``name`` reads, ``options`` over its defaults: every suite
    accepts a base seed (one that draws nothing ignores it); any other option it does
    not read, or a value not an integer within ``OPTION_BOUNDS``, is a ValueError."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
    options = options or {}
    reads = SUITES[name].options
    unknown = sorted(set(options) - set(reads) - {"base_seed"})
    if unknown:
        raise ValueError(f"suite {name} reads no option {', '.join(unknown)}")
    for key, value in {**reads, **options}.items():
        lo, hi = OPTION_BOUNDS[key]
        if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
            raise ValueError(f"{key} must be an integer in [{lo}, {hi}]")
    return {key: options.get(key, default) for key, default in reads.items()}


def run_suite(name: str, options: dict | None = None) -> SuiteResult:
    """Run one suite with the options that :func:`suite_options` accepts."""
    return SUITES[name].run(**suite_options(name, options))

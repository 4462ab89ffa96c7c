"""Deterministic verification suites behind the `verify` CLI command.

Each suite re-checks one block of the exact machinery against independent
oracles (closed forms, brute-force enumeration, direct quadrature) and
returns per-check rows for the CSV report plus an overall verdict.  Random
sweeps are seeded, so a suite is a pure function of its options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hermite, loggas, skewlin

SUITES = ("pfaffian", "hermite", "lemma9", "lemma10", "lemma12", "dpoly", "coefficients")
# options each suite reads besides the seed; the CLI rejects any other
SUITE_OPTIONS = {"pfaffian": ("cases",), "lemma9": ("n_max",), "lemma10": ("cases",)}


@dataclass
class SuiteResult:
    suite: str
    rows: list  # (check, value, threshold, passed)
    passed: bool

    def max_error(self) -> float:
        vals = [r[1] for r in self.rows if isinstance(r[1], float)]
        return max(vals) if vals else 0.0


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def _random_skew(rng, n: int) -> np.ndarray:
    x = rng.uniform(-1.0, 1.0, (n, n))
    return x - x.T


def _suite_pfaffian(options) -> SuiteResult:
    rng = np.random.default_rng(options.get("seed", 0))
    cases = options.get("cases", 100)
    rows = []

    err = 0.0
    for _ in range(cases):
        n = 2 * rng.integers(1, 6)  # dims 2..10
        x = _random_skew(rng, n)
        err = max(err, _rel(skewlin.pfaffian_numeric(x) ** 2, np.linalg.det(x)))
    rows.append(("square_equals_det", err, 1e-9, err < 1e-9))

    err = 0.0
    for _ in range(cases):
        n = 2 * rng.integers(1, 5)  # dims 2..8
        x = _random_skew(rng, n)
        b = rng.uniform(-1.0, 1.0, (n, n))
        lhs = skewlin.pfaffian_numeric(b.T @ x @ b)
        rhs = np.linalg.det(b) * skewlin.pfaffian_numeric(x)
        err = max(err, _rel(lhs, rhs))
    rows.append(("congruence_transform", err, 1e-8, err < 1e-8))

    err = 0.0
    for _ in range(cases):
        n = 2 * rng.integers(1, 6)
        x = _random_skew(rng, n)
        base = skewlin.pfaffian_numeric(x)
        for lam in (-2.0, 0.5, 3.0):
            err = max(err, _rel(skewlin.pfaffian_numeric(lam * x), lam ** (n // 2) * base))
    rows.append(("scaling_identity", err, 1e-10, err < 1e-10))

    err = 0.0
    for _ in range(cases):
        n = 2 * rng.integers(1, 7)  # dims 2..12
        x = _random_skew(rng, n)
        err = max(err, _rel(skewlin.pfaffian_exact(x), skewlin.pfaffian_numeric(x)))
    rows.append(("exact_vs_numeric", err, 1e-10, err < 1e-10))

    err = 0.0
    for n in range(4, 13, 2):
        t = loggas.coefficient_tables(n)
        full = skewlin.pfaffian_poly(t.beta, t.alpha, n // 2)
        corner = np.zeros((n, n))
        corner[: n - 1, : n - 1] = loggas.coefficient_tables(n - 1).beta
        reduced = skewlin.pfaffian_poly(corner, t.alpha, n // 2)
        small = skewlin.pfaffian_poly(t.beta[: n - 2, : n - 2], t.alpha[: n - 2, : n - 2], n // 2 - 1)
        rhs = _pad(reduced, n // 2 + 1) + loggas.beta_coeff(n - 1, n) * _pad(small, n // 2 + 1)
        err = max(err, float(np.max(np.abs(_pad(full, n // 2 + 1) - rhs)) / np.max(np.abs(full))))
    rows.append(("pairing_table_expansion", err, 1e-9, err < 1e-9))

    return SuiteResult("pfaffian", rows, all(r[3] for r in rows))


def _pad(coeffs: np.ndarray, size: int) -> np.ndarray:
    out = np.zeros(size)
    out[: coeffs.size] = coeffs
    return out


def _suite_hermite(options) -> SuiteResult:
    rng = np.random.default_rng(options.get("seed", 0))
    rows = []

    defect = hermite.orthonormality_defect(30, 64)
    rows.append(("orthonormality_defect_30_64", defect, 1e-10, defect < 1e-10))

    exact = all(
        hermite.hermite_poly(j).coefficients[p] == hermite.hermite_coeff_closed(j, p)
        for j in range(41)
        for p in range(j + 1)
    )
    rows.append(("recurrence_matches_closed_form_40", 0.0, 0.0, exact))

    grid = np.linspace(-20.0, 20.0, 4001)
    bound = float(np.max(np.abs(hermite.phi_rows(200, grid))))
    rows.append(("wave_function_bound", bound, 0.8, bound <= 0.8))

    err = 0.0
    for _ in range(50):
        m = rng.integers(0, 11)
        roots = rng.uniform(-3.0, 3.0, m)
        w = hermite.roots_to_wave(roots)
        err = max(err, _rel(w.l2_norm_sq(), hermite.wave_l2_quadrature(w)))
    rows.append(("parseval_vs_quadrature", err, 1e-9, err < 1e-9))

    return SuiteResult("hermite", rows, all(r[3] for r in rows))


def _ratio_tolerance(n: int) -> float:
    if n <= 4:
        return 1e-10
    if n <= 14:
        return 1e-8
    if n <= 30:
        return 1e-6
    return 1e-5


def _suite_lemma9(options) -> SuiteResult:
    n_max = options.get("n_max", 14)
    if not isinstance(n_max, int) or not 2 <= n_max <= loggas.MAX_PFAFFIAN_N:
        raise ValueError(f"n_max must be an integer in [2, {loggas.MAX_PFAFFIAN_N}]")
    table = loggas.partition_identity_report(n_max)
    rows = [
        (f"ratio_n{n}_k{k}", err, _ratio_tolerance(n), err < _ratio_tolerance(n))
        for (n, k, _ratio, err) in table
    ]
    result = SuiteResult("lemma9", rows, all(r[3] for r in rows))
    result.table = table
    return result


def _suite_lemma10(options) -> SuiteResult:
    rng = np.random.default_rng(options.get("seed", 0))
    sweeps = options.get("cases", 1000)
    rows = []

    violations = 0
    min_slack = math.inf
    for _ in range(sweeps):
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
        w = hermite.roots_to_wave(roots)
        norm = w.l2_norm_sq()
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

    return SuiteResult("lemma10", rows, all(r[3] for r in rows))


def _suite_lemma12(options) -> SuiteResult:
    tol = options.get("tolerance", 1e-3)
    rows = []
    for n, k, l in ((2, 1, 0), (3, 1, 0)):
        upper = loggas.integrate_constrained(n, loggas.GapConstraint(k, 1.0), l + 1)
        for c in (0.05, 0.1):
            val = loggas.integrate_constrained(n, loggas.GapConstraint(k, c), l)
            ratio = val / upper
            lo_bound = (1.0 - n * c * c) * c * c
            hi_bound = c * c
            ok = (ratio >= lo_bound * (1.0 - tol)) and (ratio <= hi_bound * (1.0 + tol))
            rows.append((f"gap_sandwich_n{n}_c{c}", ratio, hi_bound, ok))

    # interval-window variant at (2,1,0), window (0.05, 0.1)
    a, b = 0.05, 0.1
    g01 = loggas.partition_general(0, 1)
    val = loggas.integrate_constrained(2, loggas.GapConstraint(1, (a, b)), 0)
    mass = 2.0 * (b * b - a * a) / 2.0  # twice the integral of u over (a,b)
    lo_bound = (1.0 - 2.0 * b * b) * mass * g01
    hi_bound = mass * g01
    ok = (val >= lo_bound * (1.0 - tol)) and (val <= hi_bound * (1.0 + tol))
    rows.append(("interval_sandwich_n2", val, hi_bound, ok))

    # merged-pair integral equals the two-charge partition value
    direct = loggas.integrate_constrained(3, loggas.GapConstraint(1, 0.1), 1)
    exact = loggas.partition_general(1, 1)
    err = _rel(direct, exact)
    rows.append(("merged_pair_equals_partition", err, tol, err < tol))

    return SuiteResult("lemma12", rows, all(r[3] for r in rows))


def _suite_dpoly(options) -> SuiteResult:
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
    rows.append(("determinant_closed_form", err, 1e-10, err < 1e-10))

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

        corner = np.zeros((n, n))
        corner[: n - 1, : n - 1] = loggas.coefficient_tables(n - 1).beta
        p2 = _pad(skewlin.pfaffian_poly(corner, t.alpha, n // 2), n // 2 + 1)
        rhs = np.zeros(n + 1)
        rhs[1:] = 2.0 * np.array([float(c) for c in loggas.dn_poly(n - 1)])
        lhs2 = np.zeros(n + 1)
        lhs2[::2] = p2 * pfb
        err909 = max(err909, float(np.max(np.abs(lhs2 - rhs)) / np.max(np.abs(rhs))))
    rows.append(("pairing_det_identity", err53, 1e-8, err53 < 1e-8))
    rows.append(("pairing_det_identity_zero_corner", err909, 1e-8, err909 < 1e-8))

    return SuiteResult("dpoly", rows, all(r[3] for r in rows))


def _suite_coefficients(options) -> SuiteResult:
    rng = np.random.default_rng(options.get("seed", 0))
    rows = []

    err = 0.0
    for j in range(1, 13):
        for k in range(1, 13):
            err = max(err, abs(loggas.alpha_coeff(j, k) - loggas.alpha_quadrature(j, k)))
    rows.append(("alpha_recurrence_vs_quadrature", err, 1e-6, err < 1e-6))

    err = 0.0
    for n in range(2, 21, 2):
        t = loggas.coefficient_tables(n)
        err = max(err, float(np.max(np.abs(t.beta @ t.alpha + 4.0 * np.eye(n)))))
    rows.append(("pairing_inverse_identity", err, 1e-10, err < 1e-10))

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
    rows.append(("gaussian_vandermonde_constant", err, 1e-8, err < 1e-8))

    err = 0.0
    for n in range(1, 15):
        err = max(err, _rel(loggas.partition_general(n, 0), loggas.gn_closed(n)))
    rows.append(("partition_matches_closed_form", err, 1e-8, err < 1e-8))

    return SuiteResult("coefficients", rows, all(r[3] for r in rows))


_SUITES = {
    "pfaffian": _suite_pfaffian,
    "hermite": _suite_hermite,
    "lemma9": _suite_lemma9,
    "lemma10": _suite_lemma10,
    "lemma12": _suite_lemma12,
    "dpoly": _suite_dpoly,
    "coefficients": _suite_coefficients,
}


def run_suite(name: str, options: dict | None = None) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    result = _SUITES[name](options or {})
    result.rows = [(c, float(v), float(t), bool(ok)) for c, v, t, ok in result.rows]
    return result

"""Partition functions: closed forms, coefficient tables, Pfaffian route,
and the direct constrained quadrature oracle."""

import math
import time
from functools import reduce
from itertools import product

import numpy as np
import pytest

from rmtgaps import hermite, loggas, skewlin
from rmtgaps.loggas import (
    AccuracyError,
    GapConstraint,
    alpha_coeff,
    alpha_quadrature,
    beta_coeff,
    c_n_constant,
    coefficient_tables,
    dn_poly,
    gn_closed,
    gn_closed_log,
    integrate_constrained,
    jn_eval,
    nu_coeff,
    partition_general,
    partition_identity_report,
    partition_ratio,
)

SQ2 = math.sqrt(2.0)


def test_closed_form_spot_values():
    assert gn_closed(1) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-14)
    assert gn_closed(2) == pytest.approx(4 * math.sqrt(math.pi), rel=1e-13)
    assert gn_closed(3) == pytest.approx(3 * 2**1.5 * math.pi, rel=1e-13)


def test_closed_form_log_variant_reaches_large_n():
    assert gn_closed_log(170) > 700  # far beyond float range when exponentiated
    with pytest.raises(OverflowError):
        gn_closed(170)
    with pytest.raises(ValueError):
        gn_closed(0)


def test_gaussian_vandermonde_values():
    assert jn_eval([0.0]) == 1.0
    assert jn_eval([1.0, 0.0]) == pytest.approx(-math.exp(-0.5), rel=1e-14)
    assert jn_eval([0.0, 1.0, 2.0]) == pytest.approx(2 * math.exp(-2.5), rel=1e-14)


def test_normalizing_constant_values_and_identity():
    assert c_n_constant(1) == pytest.approx(math.pi**0.25, rel=1e-14)
    assert c_n_constant(2) == pytest.approx(math.pi**0.25 * (math.sqrt(math.pi) / 2) ** 0.5, rel=1e-14)
    rng = np.random.default_rng(0)
    c5 = c_n_constant(5)
    for _ in range(20):
        xs = rng.uniform(-2.5, 2.5, 5)
        det = float(np.linalg.det(hermite.phi_rows(4, xs)))
        assert jn_eval(xs) == pytest.approx(c5 * det, rel=1e-8)


def test_beta_table_values():
    assert beta_coeff(1, 2) == pytest.approx(SQ2, rel=1e-15)
    assert beta_coeff(2, 1) == pytest.approx(-SQ2, rel=1e-15)
    assert beta_coeff(3, 7) == 0.0


def test_nu_values_and_parity():
    nu1 = SQ2 * math.pi**0.25
    assert nu_coeff(1) == pytest.approx(nu1, rel=1e-14)
    assert nu_coeff(2) == 0.0
    assert nu_coeff(3) == pytest.approx(nu1 / SQ2, rel=1e-14)
    assert all(nu_coeff(k) == 0.0 for k in range(2, 41, 2))
    assert all(nu_coeff(k) > 0.0 for k in range(1, 41, 2))


def test_alpha_values():
    assert alpha_coeff(1, 3) == 0.0
    assert alpha_coeff(2, 2) == 0.0
    assert alpha_coeff(1, 2) == pytest.approx(2 * SQ2, rel=1e-14)
    assert alpha_coeff(3, 4) == pytest.approx(2 * SQ2 / math.sqrt(3), rel=1e-14)
    assert alpha_coeff(4, 3) == -alpha_coeff(3, 4)


def test_alpha_against_quadrature_oracle():
    assert abs(alpha_quadrature(2, 2)) < 1e-10
    assert alpha_quadrature(1, 2) == pytest.approx(2 * SQ2, abs=1e-6)
    for j in range(1, 13):
        for k in range(1, 13):
            assert abs(alpha_coeff(j, k) - alpha_quadrature(j, k)) < 1e-6


def test_pairing_inverse_identity():
    for n in range(2, 21, 2):
        t = coefficient_tables(n)
        assert np.max(np.abs(t.beta @ t.alpha + 4.0 * np.eye(n))) < 1e-10


def test_determinant_polynomial_values():
    assert dn_poly(0) == [1]
    assert dn_poly(1) == [0, 2]
    assert dn_poly(2) == [2, 0, 4]


def test_determinant_polynomial_recurrence_exact():
    for n in range(1, 40):
        lhs = dn_poly(n + 1)
        rhs = [0] + [2 * c for c in dn_poly(n)]
        for i, c in enumerate(dn_poly(n - 1)):
            rhs[i] += 2 * n * c
        assert lhs == rhs


def test_determinant_polynomial_matches_numeric_determinant():
    for n in range(1, 9):
        t = coefficient_tables(n)
        for lam in (-1.5, 0.4, 2.0):
            det = float(np.linalg.det(t.beta + 2 * lam * np.eye(n)))
            val = 0.0
            for c in reversed(dn_poly(n)):
                val = val * lam + float(c)
            assert det == pytest.approx(val, rel=1e-10)


def test_pairing_determinant_identities_coefficientwise():
    for n in range(2, 13, 2):
        t = coefficient_tables(n)
        pfb = skewlin.pfaffian_numeric(t.beta)
        p = skewlin.pfaffian_poly(t.beta, t.alpha, n // 2)
        dn = np.array([float(c) for c in dn_poly(n)])
        lhs = np.zeros(n + 1)
        lhs[::2] = p * pfb
        assert np.max(np.abs(lhs - dn)) <= 1e-8 * np.max(np.abs(dn))

        corner = np.zeros((n, n))
        corner[: n - 1, : n - 1] = coefficient_tables(n - 1).beta
        p2 = skewlin.pfaffian_poly(corner, t.alpha, n // 2)
        rhs = np.zeros(n + 1)
        rhs[1:] = 2.0 * np.array([float(c) for c in dn_poly(n - 1)])
        lhs2 = np.zeros(n + 1)
        lhs2[: 2 * p2.size : 2] = p2 * pfb
        assert np.max(np.abs(lhs2 - rhs)) <= 1e-8 * np.max(np.abs(rhs))


def test_partition_ratio_spot_values():
    assert partition_ratio(2, 1) == pytest.approx(0.25, rel=1e-10)
    assert partition_ratio(3, 1) == pytest.approx(0.25, rel=1e-10)
    assert partition_ratio(7, 3) == pytest.approx(1.0 / 64.0, rel=1e-10)


def test_partition_ratio_direct_small_integral():
    # two coordinates, one unit charge and one double charge
    exact = 1.5 * SQ2 * math.pi
    assert partition_general(1, 1) == pytest.approx(exact, rel=1e-10)
    assert exact == pytest.approx(gn_closed(3) / 4, rel=1e-14)


def test_identity_report_small_exact():
    rows = partition_identity_report(4)
    assert max(r[3] for r in rows) < 1e-10


def test_identity_report_to_14_within_tolerance_and_time():
    t0 = time.perf_counter()
    rows = partition_identity_report(14)
    elapsed = time.perf_counter() - t0
    assert max(r[3] for r in rows) < 1e-8
    assert elapsed < 5.0


def test_identity_report_larger_sizes():
    rows = [r for r in partition_identity_report(22) if r[0] > 14]
    assert max(r[3] for r in rows) < 1e-6


def test_partition_general_spot_values():
    assert partition_general(1, 0) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-12)
    assert partition_general(0, 1) == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_partition_general_matches_closed_form():
    for n in range(1, 15):
        assert partition_general(n, 0) == pytest.approx(gn_closed(n), rel=1e-8)


def test_partition_preconditions():
    with pytest.raises(ValueError):
        partition_ratio(3, 2)
    with pytest.raises(ValueError):
        partition_ratio(44, 1)
    with pytest.raises(ValueError):
        partition_general(0, 0)


def test_constraint_validation():
    with pytest.raises(ValueError):
        GapConstraint(0, 0.1)
    with pytest.raises(ValueError):
        GapConstraint(1, -0.5)
    with pytest.raises(ValueError):
        GapConstraint(1, (0.2, 0.1))


def test_constrained_quadrature_matches_exact_band_integral():
    for c in (0.05, 0.1):
        exact = 4 * math.sqrt(math.pi) * (1 - math.exp(-c * c / 4))
        val = integrate_constrained(2, GapConstraint(1, c), 0)
        assert val == pytest.approx(exact, rel=1e-4)


def test_constrained_quadrature_interval_window():
    a, b = 0.05, 0.1
    exact = 4 * math.sqrt(math.pi) * (math.exp(-a * a / 4) - math.exp(-b * b / 4))
    val = integrate_constrained(2, GapConstraint(1, (a, b)), 0)
    assert val == pytest.approx(exact, rel=1e-4)


def test_merged_integral_equals_partition_value():
    # all pairs merged: the bound no longer matters
    v1 = integrate_constrained(3, GapConstraint(1, 0.05), 1)
    v2 = integrate_constrained(3, GapConstraint(1, 0.7), 1)
    exact = 1.5 * SQ2 * math.pi
    assert v1 == pytest.approx(exact, rel=1e-3)
    assert v2 == pytest.approx(exact, rel=1e-3)


def test_gap_sandwich_two_and_three_coordinates():
    for n, l in ((2, 0), (3, 0)):
        upper = integrate_constrained(n, GapConstraint(1, 1.0), l + 1)
        for c in (0.05, 0.1):
            val = integrate_constrained(n, GapConstraint(1, c), l)
            ratio = val / upper
            assert ratio <= c * c * (1 + 1e-3)
            assert ratio >= (1 - n * c * c) * c * c * (1 - 1e-3)


def test_interval_window_sandwich():
    a, b = 0.05, 0.1
    g01 = partition_general(0, 1)
    val = integrate_constrained(2, GapConstraint(1, (a, b)), 0)
    mass = b * b - a * a
    assert val <= mass * g01 * (1 + 1e-3)
    assert val >= (1 - 2 * b * b) * mass * g01 * (1 - 1e-3)


def test_constrained_quadrature_refinement_failure():
    with pytest.raises(AccuracyError):
        integrate_constrained(2, GapConstraint(1, 0.1), 0, stop_rel=1e-16, max_levels=2)


def test_constrained_quadrature_dimension_cap():
    with pytest.raises(ValueError):
        integrate_constrained(5, GapConstraint(1, 0.1), 0)


def _full_tensor_value(n, constraint, l, level):
    """The constrained integrand evaluated on the whole tensor grid at once."""
    k = constraint.k if constraint is not None else l
    m, kappa = n - l, k - l
    q = [2.0] * l + [1.0] * (m - l)
    box = loggas._BOX_HALF
    base_grid, base_w = loggas._trapezoid_axis(-box, box, loggas._BASE_CELLS * 2**level)
    gap_cells = loggas._GAP_CELLS * 2**level
    if kappa == 0:
        gap, patterns = (None, None), [()]
    elif isinstance(constraint.bound, tuple):
        gap = loggas._trapezoid_axis(*constraint.bound, gap_cells)
        patterns = product((1.0, -1.0), repeat=kappa)
    else:
        gap = loggas._trapezoid_axis(-constraint.bound, constraint.bound, 2 * gap_cells)
        patterns = [(1.0,) * kappa]
    nbase = m - kappa
    total = 0.0
    for signs in patterns:
        grids = [base_grid] * nbase + [sg * gap[0] for sg in signs]
        weights = reduce(np.multiply.outer, [base_w] * nbase + [gap[1]] * kappa)
        mesh = list(np.meshgrid(*grids, indexing="ij"))
        lams = mesh[:nbase] + [mesh[nbase - kappa + t] + mesh[nbase + t] for t in range(kappa)]
        f = np.exp(sum(-0.5 * q[s] * lams[s] ** 2 for s in range(m)))
        for s in range(m):
            for t in range(s + 1, m):
                f = f * np.abs(lams[s] - lams[t]) ** (q[s] * q[t])
        total += float(np.sum(weights * f))
    return total


# (n, k, l) over m = n - l = 1..4 and kappa = k - l = 0, 1, 2 with m >= 2 kappa;
# k = 0 stands for constraint=None.  (5, 2, 1) and (6, 2, 2) put double
# charges inside m = 4.
_SHAPES = [
    (1, 0, 0), (2, 1, 1), (2, 0, 0), (3, 1, 1), (2, 1, 0), (3, 0, 0),
    (4, 2, 2), (3, 1, 0), (4, 2, 1), (4, 0, 0), (4, 1, 0), (4, 2, 0),
    (5, 2, 1), (5, 3, 1), (6, 2, 2), (6, 3, 2), (5, 2, 2),
]


@pytest.mark.parametrize("n,k,l", _SHAPES)
def test_constrained_value_matches_full_tensor(monkeypatch, n, k, l):
    monkeypatch.setattr(loggas, "_BASE_CELLS", 6)
    monkeypatch.setattr(loggas, "_GAP_CELLS", 2)
    bounds = [None] if k == 0 else [0.3, (0.2, 0.7)]
    for bound, level in product(bounds, (0, 1)):
        constraint = None if bound is None else GapConstraint(k, bound)
        fast = loggas._constrained_value(n, constraint, l, level)
        assert fast == pytest.approx(_full_tensor_value(n, constraint, l, level), rel=1e-12)

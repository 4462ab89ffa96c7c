"""Partition functions: closed forms, coefficient tables, Pfaffian route,
and the direct constrained quadrature oracle."""

import hashlib
import math
import tracemalloc
from functools import reduce
from itertools import product

import numpy as np
import pytest

from rmtgaps import hermite, loggas, skewlin, verify
from rmtgaps.loggas import (
    AccuracyError,
    GapConstraint,
    alpha_coeff,
    alpha_quadrature,
    beta_coeff,
    c_n_constant,
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
    # nu_k = 0 for even k <= 40 and > 0 for odd k, as the coefficients suite checks it
    assert _coefficient_checks()["nu_parity"][3]


def test_alpha_values():
    assert alpha_coeff(1, 3) == 0.0
    assert alpha_coeff(2, 2) == 0.0
    assert alpha_coeff(1, 2) == pytest.approx(2 * SQ2, rel=1e-14)
    assert alpha_coeff(3, 4) == pytest.approx(2 * SQ2 / math.sqrt(3), rel=1e-14)
    assert alpha_coeff(4, 3) == -alpha_coeff(3, 4)


def _table_bytes(t) -> bytes:
    return t.alpha.tobytes() + t.beta.tobytes() + t.nu.tobytes()


def test_coefficient_table_bits_are_pinned():
    # sha256 of the alpha, beta and nu bytes of every size up to MAX_PFAFFIAN_N,
    # recorded from the tables built entry by entry from the scalar functions
    digest = hashlib.sha256()
    for size in range(1, loggas.MAX_PFAFFIAN_N + 1):
        digest.update(_table_bytes(loggas.coefficient_tables(size)))
    assert digest.hexdigest() == "dade65ab5883b629d4361ee4e78b1241d96de612ca49b2f4765a78f22b00464a"


@pytest.mark.parametrize("size", [1, 2, 3, 8, 21])
def test_coefficient_tables_match_scalar_functions_bitwise(size):
    alpha = np.array([[alpha_coeff(j, k) for k in range(1, size + 1)] for j in range(1, size + 1)])
    beta = np.array([[beta_coeff(j, k) for k in range(1, size + 1)] for j in range(1, size + 1)])
    nu = np.array([nu_coeff(k) for k in range(1, size + 1)])
    want = loggas.CoefficientTables(size, alpha, beta, nu)
    assert _table_bytes(loggas.coefficient_tables(size)) == _table_bytes(want)


def _coefficient_checks() -> dict:
    """The coefficients suite's rows (check, value, threshold, passed) by check."""
    return {row[0]: row for row in verify.run_suite("coefficients").rows}


def test_alpha_against_quadrature_oracle():
    assert abs(alpha_quadrature(2, 2)) < 1e-10
    assert alpha_quadrature(1, 2) == pytest.approx(2 * SQ2, abs=1e-6)
    # the whole alpha table against the oracle, beta alpha = -4 I, nu parity and more
    result = verify.run_suite("coefficients")
    assert result.report("coefficients", {}, None).passed, [row for row in result.rows if not row[3]]


# sha256 of the oracle tables' bytes, recorded when each stage of the trapezoid
# built a new array; the in-place build must keep every bit
_ALPHA_QUADRATURE_SHA256 = {
    16: "6911f6e03789d31590f49b90a24f6da9c95cd7cd2c31fee15f70f4eb52dc06ac",
    32: "184d1b65b143ec4ba2ae124f4226d4e93a255fa724699de4dda2b0667efa04c1",
    40: "e4cb769b8bd8ab6f0e3675ba9c35a04cff5776a5ad5f272c448fa2b7eb3683e2",
}


@pytest.mark.parametrize("jmax", sorted(_ALPHA_QUADRATURE_SHA256))
def test_alpha_quadrature_table_keeps_its_bits(jmax):
    table = loggas._alpha_quadrature_table.__wrapped__(jmax)  # built afresh, not read from the cache
    assert hashlib.sha256(table.tobytes()).hexdigest() == _ALPHA_QUADRATURE_SHA256[jmax]


def test_alpha_quadrature_holds_at_its_limit():
    err = max(abs(alpha_coeff(j, k) - alpha_quadrature(j, k)) for j in range(1, 41) for k in range(1, 41))
    assert err < 1e-6
    for j, k in ((0, 1), (1, 0), (41, 1), (1, 41)):
        with pytest.raises(ValueError):
            alpha_quadrature(j, k)


def test_determinant_polynomial_values():
    assert dn_poly(0) == [1]
    assert dn_poly(1) == [0, 2]
    assert dn_poly(2) == [2, 0, 4]


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


def test_identity_report_larger_sizes():
    rows = [r for r in partition_identity_report(22) if r[0] > 14]
    assert max(r[3] for r in rows) < 1e-6


def test_partition_general_spot_values():
    assert partition_general(1, 0) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-12)
    assert partition_general(0, 1) == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_partition_general_matches_closed_form():
    # G_n by quadrature against the closed form for n <= 14, to 1e-8 relative
    assert _coefficient_checks()["partition_matches_closed_form"][3]


def test_partition_preconditions():
    with pytest.raises(ValueError):
        partition_ratio(3, 2)
    with pytest.raises(ValueError):
        partition_ratio(loggas.MAX_PFAFFIAN_N + 1, 1)
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


@pytest.fixture(scope="module")
def lemma12_passed():
    # each row checks its sandwich at relative tolerance 1e-3 on both bounds
    return {check: ok for check, _, _, ok in verify.run_suite("lemma12").rows}


def test_gap_sandwich_two_and_three_coordinates(lemma12_passed):
    for n in (2, 3):
        for c in (0.05, 0.1):
            assert lemma12_passed[f"gap_sandwich_n{n}_c{c}"]


def test_interval_window_sandwich(lemma12_passed):
    assert lemma12_passed["interval_sandwich_n2"]


def test_constrained_quadrature_refinement_failure():
    with pytest.raises(AccuracyError):
        integrate_constrained(2, GapConstraint(1, 0.1), 0, stop_rel=1e-16, max_levels=2)


def test_constrained_quadrature_dimension_cap():
    # m = n - l > 3; m = 3 with every pair merged; no constraint at all
    shapes = [(5, 1, 0), (4, 1, 0), (5, 2, 1), (5, 2, 2), (4, 1, 1)]
    cases = [(n, GapConstraint(k, 0.1), l) for n, k, l in shapes]
    cases += [(n, None, 0) for n in (1, 2, 3)]
    for n, constraint, l in cases:
        with pytest.raises(ValueError):
            integrate_constrained(n, constraint, l)


def _full_tensor_value(n, constraint, l, level):
    """The constrained integrand evaluated on the whole tensor grid at once."""
    k = constraint.k
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


# (n, k, l) over m = n - l = 1..3 and kappa = k - l = 0, 1 with m >= 2 kappa,
# and kappa = 1 at m = 3: the shapes integrate_constrained accepts.  (4, 2, 1)
# puts double charges inside m = 3; with a constrained gap, (3, 1, 0),
# (4, 2, 1), (5, 3, 2) and (6, 4, 3) give the x_0 pair exponents 1, 2, 2 and 4.
_SHAPES = [
    (2, 1, 1), (3, 1, 1), (2, 1, 0), (4, 2, 2),
    (3, 1, 0), (4, 2, 1), (5, 3, 2), (6, 4, 3),
]


@pytest.mark.parametrize("n,k,l", _SHAPES)
def test_constrained_value_matches_full_tensor(monkeypatch, n, k, l):
    monkeypatch.setattr(loggas, "_BASE_CELLS", 6)
    monkeypatch.setattr(loggas, "_GAP_CELLS", 2)
    levels = (0, 1, 2) if n - l == 3 else (0, 1)
    for bound, level in product([0.3, (0.2, 0.7)], levels):
        constraint = GapConstraint(k, bound)
        fast = loggas._constrained_value(n, constraint, l, level)
        assert fast == pytest.approx(_full_tensor_value(n, constraint, l, level), rel=1e-12)


@pytest.mark.parametrize("p_r,p_s", [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (4.0, 4.0)])
@pytest.mark.parametrize("u", [np.linspace(-0.6, 0.6, 13), -np.linspace(0.05, 0.6, 12)])
def test_gap_core_sum_matches_slab_sum(p_r, p_s, u):
    # grid spacing 0.1 puts many x_0 - x_i inside the window, and 41 outer
    # points are not a whole number of blocks
    rng = np.random.default_rng(3)
    x, w = loggas._trapezoid_axis(-2.0, 2.0, 40)
    G = rng.uniform(0.5, 1.5, (x.size, u.size))
    expect = 0.0
    for x0, w0 in zip(x, w):
        row = w * np.abs(x0 - x) ** p_r
        core = (G * np.abs(x0 - x[:, None] - u) ** p_s).sum(axis=1)
        expect += w0 * math.exp(-x0**2) * float(row @ core)
    got = loggas._gap_core_sum(x, w, u, G, 2.0, p_r, p_s)
    assert got == pytest.approx(expect, rel=1e-12)


# float.hex of the eight integrate_constrained values behind the lemma12
# suite, recorded with the direct sum of the slab at each x_0, so the
# lemma12 artifacts stay byte for byte.  (3, 0.1, 0) stops at level 2 and
# the others at level 1, so equal bits also pin the stopping level.
_LEMMA12_BITS = [
    ((2, 1.0, 1), "0x1.c5bf891b4ef6ap+0"),
    ((2, 0.05, 0), "0x1.224eda5fba66ap-8"),
    ((2, 0.1, 0), "0x1.22092976c7ff5p-6"),
    ((3, 1.0, 1), "0x1.aa844a84c1456p+2"),
    ((3, 0.05, 0), "0x1.10d4486f58256p-6"),
    ((3, 0.1, 0), "0x1.10690cb8c699ep-4"),
    ((2, (0.05, 0.1), 0), "0x1.b2eb088431003p-7"),
    ((3, 0.1, 1), "0x1.aa844a84c1456p+2"),
]


def test_lemma12_quadrature_values_keep_their_bits():
    got = [
        (shape, float(integrate_constrained(shape[0], GapConstraint(1, shape[1]), shape[2])).hex())
        for shape, _ in _LEMMA12_BITS
    ]
    assert got == _LEMMA12_BITS


def test_three_coordinate_gap_core_memory():
    # the x_0 blocks bound the scratch arrays of the largest lemma12 level
    tracemalloc.start()
    try:
        loggas._constrained_value(3, GapConstraint(1, 0.1), 0, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_verify_suite_memory(suite):
    # each suite run cold, as the benchmark runs it, stays within a fixed traced peak
    for module in (hermite, loggas, skewlin):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info"):
                obj.cache_clear()
    tracemalloc.start()
    try:
        verify.run_suite(suite, {"n_max": 40} if suite == "lemma9" else {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20

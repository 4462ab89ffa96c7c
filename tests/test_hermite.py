"""Oscillator functions: closed forms, quadrature exactness, wave algebra."""

import hashlib
import math

import numpy as np
import pytest

from rmtgaps import verify
from rmtgaps.hermite import (
    MAX_WAVE_ROOTS,
    _GL_W,
    _GL_X,
    _dense_grid,
    derivative_energy_pair,
    gauss_hermite,
    hermite_coeff_closed,
    hermite_poly,
    orthonormality_defect,
    pair_integral_band,
    pair_integral_offsets,
    phi_rows,
    roots_to_wave,
    wave_derivative,
    wave_eval,
    wave_l2_quadrature,
)

PI4 = math.pi**0.25


def test_low_degree_polynomials():
    assert hermite_poly(2) == (-2, 0, 4)
    assert hermite_poly(3) == (0, -12, 0, 8)
    assert hermite_poly(0) == (1,)
    assert hermite_poly(1) == (0, 2)


def test_closed_form_coefficient_example():
    # degree 6, power 2: 2^4 * C(6,4) * 4!/(2^2 2!) = 720
    assert hermite_poly(6)[2] == 720
    assert hermite_coeff_closed(6, 2) == 720


def _hermite_checks() -> dict:
    """The hermite suite's rows (check, value, threshold, passed) by check."""
    return {row[0]: row for row in verify.run_suite("hermite").rows}


def test_recurrence_matches_closed_form_exactly():
    # H_0..H_40 from the recurrence against the binomial sum, coefficient for coefficient
    assert _hermite_checks()["recurrence_matches_closed_form_40"][3]


def test_leading_coefficient_and_parity():
    for j in (5, 17, 40, 120):
        coeffs = hermite_poly(j)
        assert coeffs[j] == 2**j
        assert all(coeffs[p] == 0 for p in range(j + 1) if (j - p) % 2 == 1)


def test_degree_bounds():
    with pytest.raises(ValueError):
        hermite_poly(-1)
    with pytest.raises(ValueError):
        hermite_poly(201)


def test_phi_values():
    assert phi_rows(0, 0.0)[0] == pytest.approx(math.pi**-0.25, abs=1e-15)
    assert phi_rows(1, 0.0)[1] == 0.0
    direct = (2**5 * math.factorial(5) * math.sqrt(math.pi)) ** -0.5 * math.exp(
        -0.845
    ) * np.polyval(hermite_poly(5)[::-1], 1.3)
    assert phi_rows(5, 1.3)[5] == pytest.approx(direct, abs=1e-12)


def test_phi_uniform_bound_high_degree():
    # max |phi_j| for j <= 200 on [-20, 20], as the hermite suite checks it
    assert _hermite_checks()["wave_function_bound"][2:] == (0.8, True)


def test_quadrature_small_rules():
    nodes, weights = gauss_hermite(1)
    assert nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    nodes, weights = gauss_hermite(2)
    assert sorted(nodes) == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], rel=1e-14)
    assert weights == pytest.approx([math.sqrt(math.pi) / 2] * 2, rel=1e-14)


def test_quadrature_sixth_moment():
    nodes, weights = gauss_hermite(4)
    val = float(np.dot(weights, nodes**6))
    assert val == pytest.approx(15 * math.sqrt(math.pi) / 8, rel=1e-12)


def test_quadrature_bounds():
    with pytest.raises(ValueError):
        gauss_hermite(0)
    with pytest.raises(ValueError):
        gauss_hermite(257)


def test_orthonormality_defect_regimes():
    assert orthonormality_defect(0, 1) < 1e-14
    assert orthonormality_defect(30, 64) < 1e-10
    # rule shorter than the basis: wildly wrong, documents m >= jmax+1
    assert orthonormality_defect(30, 16) > 1e-6


def test_wave_from_no_roots():
    assert roots_to_wave([]) == pytest.approx([PI4], rel=1e-15)


def test_wave_from_single_zero_root():
    w = roots_to_wave([0.0])
    assert w[0] == 0.0
    assert w[1] == pytest.approx(PI4 / math.sqrt(2), rel=1e-14)


def test_wave_pointwise_matches_product():
    rng = np.random.default_rng(1)
    roots = rng.uniform(-2.0, 2.0, 5)
    w = roots_to_wave(roots)
    xs = rng.uniform(-3.0, 3.0, 20)
    direct = np.exp(-xs * xs / 2.0) * np.prod(xs[:, None] - roots[None, :], axis=1)
    assert np.max(np.abs(wave_eval(w, xs) - direct)) < 1e-10


def test_wave_parseval_sweep():
    # 50 random root sets: coefficient norm against quadrature to 1e-9, among other checks
    result = verify.run_suite("hermite", {"base_seed": 2})
    assert result.report("hermite", {"base_seed": 2}, None).passed, result.rows


def test_wave_root_cap():
    with pytest.raises(ValueError):
        roots_to_wave(np.zeros(61))


def test_pair_integrals_keep_the_root_cap():
    # the dense-grid quadrature evaluates |F| from the roots, not through roots_to_wave
    too_many = np.zeros(MAX_WAVE_ROOTS + 1)
    with pytest.raises(ValueError, match=f"at most {MAX_WAVE_ROOTS} roots"):
        pair_integral_band(too_many, 0.2)
    with pytest.raises(ValueError, match=f"at most {MAX_WAVE_ROOTS} roots"):
        pair_integral_offsets(too_many, 0.05, 0.15)


def test_derivative_of_ground_state():
    d = wave_derivative(np.array([1.0]))
    assert d == pytest.approx([0.0, -1 / math.sqrt(2)], abs=1e-15)


def test_derivative_of_first_state():
    d = wave_derivative(np.array([0.0, 1.0]))
    assert d == pytest.approx([1 / math.sqrt(2), 0.0, -1.0], abs=1e-15)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(3)
    w = roots_to_wave([0.4, -1.1])
    d = wave_derivative(w)
    h = 1e-6
    for x in rng.uniform(-2.0, 2.0, 10):
        num = (wave_eval(w, x + h) - wave_eval(w, x - h)) / (2 * h)
        assert wave_eval(d, x) == pytest.approx(num, abs=1e-6)


def test_derivative_l2_matches_quadrature():
    w = roots_to_wave([0.3, -0.7])
    d = wave_derivative(w)
    assert float(np.dot(d, d)) == pytest.approx(wave_l2_quadrature(d), rel=1e-8)


def test_energy_pair_no_roots():
    lhs, rhs = derivative_energy_pair([], 1)
    assert lhs == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-14)
    assert rhs == pytest.approx(2 * math.sqrt(math.pi), rel=1e-14)


def test_energy_pair_single_zero_root():
    lhs, rhs = derivative_energy_pair([0.0], 2)
    w = roots_to_wave([0.0])
    norm = float(np.dot(w, w))
    assert lhs / norm == pytest.approx(1.5, rel=1e-12)
    assert rhs / norm == pytest.approx(4.0, rel=1e-12)


def test_energy_inequality_sweep():
    # 1000 random root sets with no energy violation, and the pair-integral bounds
    options = {"base_seed": 4, "cases": 1000}
    result = verify.run_suite("lemma10", options)
    assert result.report("lemma10", options, None).passed, [row for row in result.rows if not row[3]]


def test_energy_pair_rejects_large_root_count():
    with pytest.raises(ValueError):
        derivative_energy_pair([0.0, 1.0], 2)


def test_band_integral_matches_gaussian_closed_form():
    # no roots: F = e^{-x^2/2}, autocorrelation sqrt(pi) e^{-t^2/4}
    for c in (0.05, 0.3):
        val = pair_integral_band([], c)
        exact = 4 * math.sqrt(math.pi) * (1 - math.exp(-c * c / 4))
        assert val == pytest.approx(exact, rel=1e-8)


def test_offsets_integral_matches_gaussian_closed_form():
    a, b = 0.1, 0.25
    val = pair_integral_offsets([], a, b)
    exact = 4 * math.sqrt(math.pi) * (math.exp(-a * a / 4) - math.exp(-b * b / 4))
    assert val == pytest.approx(exact, rel=1e-8)


def _lemma10_checks(seed: int, prefix: str) -> list:
    """(value, passed) of the lemma10 suite's five rows named ``prefix``_<trial>."""
    rows = verify.run_suite("lemma10", {"base_seed": seed, "cases": 1}).rows
    return [(value, ok) for check, value, _, ok in rows if check.startswith(prefix)]


def test_pair_integral_window_bounds():
    # five random root sets: the band integral within its closed-window bounds
    checks = _lemma10_checks(5, "band_pair_bounds_")
    assert len(checks) == 5 and all(ok for _, ok in checks)


def test_root_box_integral_bound():
    checks = _lemma10_checks(6, "root_box_bound_")
    assert len(checks) == 5 and all(ok and value >= 0.0 for value, ok in checks)


def _trapezoid_pair_integral(roots, lo, hi):
    # reference: plain trapezoid of |F(x)| |F(x + t)| with F from its phi expansion,
    # on the same grid and Gauss-Legendre rule as the quadrature under test
    w = roots_to_wave(roots)
    grid = _dense_grid(np.asarray(roots, dtype=np.float64))
    ts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _GL_X
    fabs = np.abs(wave_eval(w, grid))
    corr = [np.trapezoid(fabs * np.abs(wave_eval(w, grid + t)), grid) for t in ts]
    return 2.0 * float(np.sum(0.5 * (hi - lo) * _GL_W * ts * corr))


def test_pair_integrals_match_trapezoid_reference():
    rng = np.random.default_rng(8)
    for _ in range(3):
        roots = rng.uniform(-2.0, 2.0, int(rng.integers(1, 7)))
        assert pair_integral_band(roots, 0.2) == pytest.approx(_trapezoid_pair_integral(roots, 0.0, 0.2), rel=1e-13)
        assert pair_integral_offsets(roots, 0.05, 0.15) == pytest.approx(
            _trapezoid_pair_integral(roots, 0.05, 0.15), rel=1e-13
        )


# bits of |F| evaluated from the roots with the trapezoid weights folded in;
# the values stay for a given numpy build
PAIR_INTEGRAL_BITS = {
    (-1.25, 0.5, 1.75): ("0x1.df4427138e313p-4", "0x1.e42cb4fc2289ep-5"),
    (-0.8, -0.1, 0.3, 1.1, 1.9): ("0x1.e23350bc87196p+1", "0x1.e4571d77bda7ap+0"),
}
# bits of the earlier route (phi expansion through the recurrence, np.trapezoid's passes)
RECURRENCE_PAIR_INTEGRAL_BITS = {
    (-1.25, 0.5, 1.75): ("0x1.df4427138e314p-4", "0x1.e42cb4fc228a0p-5"),
    (-0.8, -0.1, 0.3, 1.1, 1.9): ("0x1.e23350bc8719ep+1", "0x1.e4571d77bda81p+0"),
}


def test_pair_integrals_bits_pinned():
    for roots, (band, offsets) in PAIR_INTEGRAL_BITS.items():
        assert pair_integral_band(list(roots), 0.2).hex() == band
        assert pair_integral_offsets(list(roots), 0.05, 0.15).hex() == offsets
        for new, old in zip((band, offsets), RECURRENCE_PAIR_INTEGRAL_BITS[roots]):
            assert float.fromhex(new) == pytest.approx(float.fromhex(old), rel=1e-14, abs=0.0)


def test_recurrence_bytes_pinned():
    def sha(a):
        return hashlib.sha256(a.tobytes()).hexdigest()

    rows = phi_rows(200, np.linspace(-20.0, 20.0, 4001))
    assert sha(rows) == "8337a41ec85209513da258955d5413abe95f9b390d137e2aaa5bb62a3ffb24c8"
    nodes, weights = gauss_hermite(64)
    assert sha(nodes) == "a2a81f3031005e61b5b8fc2765403d481b6f731b7eb7ddd96281fee9fe67858a"
    assert sha(weights) == "8a8989e00d6f03b59138ea40001424491e51b7a3785e07b85d27cf10d71beae4"

"""Pfaffian machinery against enumeration, determinants and closed forms."""

import math

import numpy as np
import pytest

from rmtgaps import loggas
from rmtgaps.skewlin import (
    _as_skew_array,
    pfaffian_bordered,
    pfaffian_exact,
    pfaffian_numeric,
    pfaffian_poly,
)


def random_skew(rng, n):
    x = rng.uniform(-1.0, 1.0, (n, n))
    return x - x.T


def test_two_by_two():
    assert pfaffian_exact([[0.0, 2.5], [-2.5, 0.0]]) == 2.5
    assert pfaffian_numeric([[0.0, 2.5], [-2.5, 0.0]]) == 2.5


def test_four_by_four_closed_form():
    a12, a13, a14, a23, a24, a34 = 1.0, -2.0, 3.0, 0.5, -1.5, 2.0
    m = np.array(
        [
            [0, a12, a13, a14],
            [-a12, 0, a23, a24],
            [-a13, -a23, 0, a34],
            [-a14, -a24, -a34, 0],
        ]
    )
    expect = a12 * a34 - a13 * a24 + a14 * a23
    assert pfaffian_exact(m) == pytest.approx(expect, rel=1e-14)


def test_square_is_determinant_random_6x6():
    rng = np.random.default_rng(3)
    x = random_skew(rng, 6)
    pf = pfaffian_exact(x)
    assert pf * pf == pytest.approx(np.linalg.det(x), rel=1e-10)


def test_canonical_block_pfaffian_is_one():
    blocks = np.zeros((8, 8))
    for k in range(0, 8, 2):
        blocks[k, k + 1] = 1.0
        blocks[k + 1, k] = -1.0
    assert pfaffian_numeric(blocks) == pytest.approx(1.0, rel=1e-14)


def test_pairing_table_pfaffian_is_superdiagonal_product():
    t = loggas.coefficient_tables(4)
    assert pfaffian_numeric(t.beta) == pytest.approx(math.sqrt(2.0) * math.sqrt(6.0), rel=1e-12)


# float.hex of pfaffian_exact, recorded from the leaf-by-leaf expansion; the
# per-call subset sums keep its summation order, so they keep every bit
EXACT_BITS = {
    2: "-0x1.080e5d789be88p+0",
    4: "0x1.74ec3427f125cp-4",
    6: "0x1.8cb164248b8fap+0",
    8: "-0x1.d4aa52846a668p+1",
    10: "0x1.5225a0a8424dbp+2",
    12: "-0x1.1eb6419dddaaap+4",
}


def seeded_skew(seed, n):
    return random_skew(np.random.default_rng(seed), n)


def test_exact_bits_pinned():
    for n, bits in EXACT_BITS.items():
        assert pfaffian_exact(seeded_skew(n, n)).hex() == bits
    # exact zeros, including a row whose only partner is index 4
    x = seeded_skew(99, 8)
    x[0, 3] = x[3, 0] = x[2, 5] = x[5, 2] = 0.0
    x[1, :] = x[:, 1] = 0.0
    x[1, 4], x[4, 1] = 0.75, -0.75
    assert pfaffian_exact(x).hex() == "-0x1.48c439261483ep+1"


def test_exact_subset_sums_do_not_outlive_a_call():
    x1, x2 = seeded_skew(1, 10), seeded_skew(2, 10)
    first = pfaffian_exact(x1)
    assert pfaffian_exact(x2) != first
    assert pfaffian_exact(x1) == first


def test_exact_matches_numeric_dim_10():
    rng = np.random.default_rng(11)
    x = random_skew(rng, 10)
    assert pfaffian_numeric(x) == pytest.approx(pfaffian_exact(x), rel=1e-10)


def test_singular_skew_returns_zero():
    # last row and column identically zero
    x = np.zeros((4, 4))
    x[0, 1] = 1.0
    x[1, 0] = -1.0
    assert pfaffian_numeric(x) == 0.0


def test_odd_dimension_rejected():
    x = np.zeros((3, 3))
    with pytest.raises(ValueError):
        pfaffian_exact(x)
    with pytest.raises(ValueError):
        pfaffian_numeric(x)


def test_exact_dimension_cap():
    x = np.zeros((14, 14))
    with pytest.raises(ValueError):
        pfaffian_exact(x)


def test_skew_matrix_canonicalization():
    m = _as_skew_array(np.array([[1e-13, 1.0], [-1.0, -1e-13]]))
    assert m[0, 0] == 0.0
    assert m[0, 1] == -m[1, 0]
    with pytest.raises(ValueError):
        _as_skew_array(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_poly_constant_when_direction_zero():
    rng = np.random.default_rng(6)
    b = random_skew(rng, 6)
    coeffs = pfaffian_poly(b, np.zeros((6, 6)), 3)
    assert coeffs.size == 1
    assert coeffs[0] == pytest.approx(pfaffian_numeric(b), rel=1e-10)


def test_poly_monomial_when_base_zero():
    rng = np.random.default_rng(7)
    a = random_skew(rng, 6)
    coeffs = pfaffian_poly(np.zeros((6, 6)), a, 3)
    assert coeffs.size == 4
    assert coeffs[3] == pytest.approx(pfaffian_numeric(a), rel=1e-10)
    assert np.max(np.abs(coeffs[:3])) < 1e-10 * abs(coeffs[3])


def test_poly_matches_determinant_identity_tables():
    t = loggas.coefficient_tables(4)
    p = pfaffian_poly(t.beta, t.alpha, 2)
    pfb = pfaffian_numeric(t.beta)
    dn = [float(c) for c in loggas.dn_poly(4)]
    # even slots of D_4 against the zeta coefficients times Pf(B)
    assert p[0] * pfb == pytest.approx(dn[0], rel=1e-10)
    assert p[1] * pfb == pytest.approx(dn[2], rel=1e-10)
    assert p[2] * pfb == pytest.approx(dn[4], rel=1e-10)


def test_poly_rejects_mismatched_or_odd():
    with pytest.raises(ValueError):
        pfaffian_poly(np.zeros((4, 4)), np.zeros((6, 6)), 2)
    with pytest.raises(ValueError):
        pfaffian_poly(np.zeros((3, 3)), np.zeros((3, 3)), 1)
    with pytest.raises(ValueError):
        pfaffian_poly(np.zeros((4, 4)), np.zeros((4, 4)), 3)
    # a negative max_degree would slice off the top coefficients
    x = random_skew(np.random.default_rng(7), 4)
    for max_degree in (-1, -2):
        with pytest.raises(ValueError):
            pfaffian_poly(x, x, max_degree)
    with pytest.raises(ValueError):
        pfaffian_bordered(np.zeros((3, 3)), random_skew(np.random.default_rng(7), 3), [1.0, 2.0, 3.0], -1)


def test_bordered_minimal_case():
    coeffs = pfaffian_bordered(np.zeros((1, 1)), np.zeros((1, 1)), [3.0], 1)
    assert coeffs.size == 1
    assert coeffs[0] == pytest.approx(3.0, rel=1e-14)


def test_bordered_zero_vector_gives_zero_polynomial():
    rng = np.random.default_rng(8)
    b = random_skew(rng, 5)
    a = random_skew(rng, 5)
    coeffs = pfaffian_bordered(b, a, np.zeros(5), 3)
    assert coeffs.size == 0


def test_bordered_matches_direct_construction():
    rng = np.random.default_rng(9)
    b = random_skew(rng, 5)
    a = random_skew(rng, 5)
    v = rng.uniform(-1.0, 1.0, 5)
    coeffs = pfaffian_bordered(b, a, v, 3)
    for t in (-0.7, 0.2, 1.3):
        m = np.zeros((6, 6))
        m[:5, :5] = b + t * a
        m[:5, 5] = v
        m[5, :5] = -v
        direct = pfaffian_exact(m)
        val = float(np.polyval(coeffs[::-1], t))
        assert val == pytest.approx(direct, rel=1e-9)


def pencil_matches_exact(coeffs, b, a):
    for t in (-0.7, 0.2, 1.3):
        scale = np.polyval(np.abs(coeffs[::-1]), abs(t))
        assert abs(np.polyval(coeffs[::-1], t) - pfaffian_exact(b + t * a)) < 1e-10 * scale


def test_poly_matches_exact_on_generic_pencils():
    rng = np.random.default_rng(10)
    pencils = []
    for n in range(2, 13, 2):
        for _ in range(5):
            pencils.append((random_skew(rng, n), random_skew(rng, n)))
    singular = random_skew(rng, 6)
    singular[5, :] = singular[:, 5] = 0.0
    pencils.append((singular, random_skew(rng, 6)))
    # the pairing must keep complex eigenvalue pairs of B^{-1} A together
    imag = [np.abs(np.linalg.eigvals(np.linalg.solve(b, a)).imag).max() for b, a in pencils[:-1]]
    assert max(imag) > 1e-3
    for b, a in pencils:
        pencil_matches_exact(pfaffian_poly(b, a, b.shape[0] // 2), b, a)


def test_poly_with_both_ends_singular():
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    b = np.zeros((4, 4))
    b[:2, :2] = j
    a = np.zeros((4, 4))
    a[2:, 2:] = j
    # Pf(J+0 + zeta*(0+J)) = zeta
    coeffs = pfaffian_poly(b, a, 2)
    assert coeffs == pytest.approx([0.0, 1.0], abs=1e-14)
    pencil_matches_exact(coeffs, b, a)

    rng = np.random.default_rng(12)
    b, a = random_skew(rng, 6), random_skew(rng, 6)
    b[5, :] = b[:, 5] = 0.0
    a[0, :] = a[:, 0] = 0.0
    assert np.linalg.matrix_rank(b) < 6 and np.linalg.matrix_rank(a) < 6
    pencil_matches_exact(pfaffian_poly(b, a, 3), b, a)

    with pytest.raises(ValueError):
        pfaffian_poly(np.zeros((4, 4)), np.zeros((4, 4)), 2)


def test_bordered_with_zero_base():
    rng = np.random.default_rng(13)
    a = random_skew(rng, 3)
    v = np.array([1.0, 2.0, 3.0])
    coeffs = pfaffian_bordered(np.zeros((3, 3)), a, v, 2)
    border = np.zeros((4, 4))
    border[:3, 3] = v
    border[3, :3] = -v
    lift = np.zeros((4, 4))
    lift[:3, :3] = a
    pencil_matches_exact(coeffs, border, lift)

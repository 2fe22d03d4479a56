"""Recursion polynomials: monomial limits, Hermite values, gradient identity."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hagedorn.errors import AsymmetricM, DimensionMismatch
from hagedorn.polynomials import (
    ALPHA_MAX,
    TABLE_MAX,
    MultiPoly,
    poly_recursion,
    validate_multi_index,
    validate_recursion_index,
)
from hagedorn.oracles import differentiate, poly_gradient


def random_symmetric(rng, n):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (M + M.T)


def test_validate_multi_index():
    assert validate_multi_index((1, 2)) == (1, 2)
    assert validate_multi_index(3) == (3,)
    assert validate_multi_index([0, 0, 4], n=3) == (0, 0, 4)
    with pytest.raises(DimensionMismatch):
        validate_multi_index((-1,))
    with pytest.raises(DimensionMismatch):
        validate_multi_index((1, 2), n=3)
    # integral values of any integer type pass; nothing is truncated
    assert validate_multi_index(np.array([2, 1], dtype=np.int64)) == (2, 1)
    assert validate_multi_index([np.int32(3)], n=1) == (3,)
    assert validate_multi_index([2.0]) == (2,)
    assert all(type(a) is int for a in validate_multi_index(np.arange(3)))
    for bad in ([1.7], [True], True, [np.bool_(True)], ["3"], [math.nan], [math.inf], [1j]):
        with pytest.raises(DimensionMismatch):
            validate_multi_index(bad)
    # one |α| cap for every caller
    assert validate_multi_index((ALPHA_MAX - 1, 1)) == (ALPHA_MAX - 1, 1)
    with pytest.raises(DimensionMismatch):
        validate_multi_index((ALPHA_MAX, 1))
    with pytest.raises(DimensionMismatch):
        validate_multi_index([40], n=1)


def test_multipoly_canonical_form():
    p = MultiPoly(np.array([1.0, 0.0, 0.0]))  # 1 + 0x + 0x²
    assert (2,) not in p.coeffs
    assert p.degree == 0
    assert p[(0,)] == 1.0
    assert p[(5,)] == 0j


def test_multipoly_arithmetic():
    p = MultiPoly(np.array([-1.0, 0.0, 1.0]))  # x² − 1
    assert p.coeffs == {(2,): 1.0, (0,): -1.0}
    assert MultiPoly(np.array([-1.0, 0.0, 1.0, 0.0])).coeffs == p.coeffs
    assert differentiate(p, 0).coeffs == {(1,): 2.0}
    pts = np.array([[0.5], [2.0], [-1.0]])
    assert np.allclose(p.evaluate(pts), [-0.75, 3.0, 0.0])
    # a constant fills a new, writeable array of the point shape
    x = np.zeros((4, 3, 2), dtype=complex)
    values = MultiPoly(np.array([[2.5]])).evaluate(x)
    assert values.shape == (4, 3) and values.flags.writeable
    assert np.array_equal(values, np.full((4, 3), 2.5)) and not np.shares_memory(values, x)
    for poly in (p, MultiPoly(np.array([[0.0, 1.0]]))):
        values = poly.evaluate(x[..., :poly.n])
        assert values.shape == (4, 3) and not np.shares_memory(values, x)


def test_multipoly_evaluate_shape_check():
    p = MultiPoly(np.array([[0.0], [1.0]]))  # x_1
    with pytest.raises(DimensionMismatch):
        p.evaluate(np.zeros((4, 3)))


def test_monomials_for_zero_matrix():
    assert poly_recursion(np.zeros((1, 1)), (3,)).coeffs == {(3,): 1.0}
    assert poly_recursion(np.zeros((2, 2)), (2, 1)).coeffs == {(2, 1): 1.0}


def test_probabilists_hermite_values():
    M = np.eye(1)
    assert poly_recursion(M, (2,)).coeffs == {(2,): 1.0, (0,): -1.0}
    assert poly_recursion(M, (3,)).coeffs == {(3,): 1.0, (1,): -3.0}


def test_cross_coupling_two_modes():
    m = 0.7
    M = np.array([[0.0, m], [m, 0.0]])
    assert poly_recursion(M, (1, 1)).coeffs == {(1, 1): 1.0, (0, 0): -m}


def test_recursion_rejects_oversized_table_before_allocating():
    # |α| = 32 is within ALPHA_MAX, but Π(α_j+1)² = 9⁸ entries would take 690 MB
    alpha = (8, 8, 8, 8)
    assert math.prod(a + 1 for a in alpha) ** 2 > TABLE_MAX
    assert validate_multi_index(alpha) == alpha
    # r_α for α = (1,)*8 has 256 coefficients, but composing it with x → Ax
    # would build a 9⁸-entry accumulator (657 MiB)
    small = poly_recursion(np.eye(8), (1,) * 8)
    for build, message in [
        (lambda: poly_recursion(np.eye(len(alpha)), alpha), "recursion table"),
        (lambda: small.compose_linear(np.eye(8)), "accumulator"),
    ]:
        tracemalloc.start()
        try:
            with pytest.raises(DimensionMismatch, match=message):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    # the largest table any caller builds today (n = 4, |α| = 12) still passes
    assert validate_recursion_index((3, 3, 3, 3), n=4) == (3, 3, 3, 3)


def test_recursion_rejects_oversized_ladder_table_before_allocating():
    # Π(α_j+1)² = 289, but the ladder over |k| ≤ 16 in 8 modes has
    # C(24, 8) = 735471 slots of 41 entries each
    alpha = (16,) + (0,) * 7
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatch, match="ladder table"):
            validate_recursion_index(alpha, n=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_recursion_rejects_asymmetric():
    with pytest.raises(AsymmetricM):
        poly_recursion(np.array([[0.0, 1.0], [0.0, 0.0]]), (1, 1))


def test_gradient_of_constant_is_zero():
    r0 = poly_recursion(np.eye(2), (0, 0))
    assert all(g.coeffs == {} for g in poly_gradient(r0))


def test_gradient_hermite_example():
    r3 = poly_recursion(np.eye(1), (3,))
    r2 = poly_recursion(np.eye(1), (2,))
    (grad,) = poly_gradient(r3, alpha=(3,))
    assert grad.coeffs == {k: 3.0 * v for k, v in r2.coeffs.items()}


@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3]))
def test_gradient_identity_random(seed, n):
    rng = np.random.default_rng(seed)
    M = random_symmetric(rng, n)
    alpha = tuple(int(a) for a in rng.integers(0, 3, size=n))
    if sum(alpha) == 0:
        alpha = (1,) * n
    p = poly_recursion(M, alpha)
    grads = poly_gradient(p, alpha=alpha)
    scale = max(abs(c) for c in p.coeffs.values())
    for j in range(n):
        if alpha[j] == 0:
            assert grads[j].coeffs == {}
            continue
        lower = tuple(a - int(i == j) for i, a in enumerate(alpha))
        expected = poly_recursion(M, lower)
        keys = set(grads[j].coeffs) | set(expected.coeffs)
        for key in keys:
            assert abs(grads[j][key] - alpha[j] * expected[key]) < 1e-12 * max(1.0, scale)


@given(st.integers(0, 10_000), st.sampled_from([1, 2]))
def test_degree_parity_structure(seed, n):
    # each recursion step changes total degree by ±1, so r_α only contains
    # monomials of degree |α|, |α|−2, |α|−4, ...
    rng = np.random.default_rng(seed)
    M = random_symmetric(rng, n)
    alpha = tuple(int(a) for a in rng.integers(0, 4, size=n))
    p = poly_recursion(M, alpha)
    assert p[alpha] == 1.0  # unit leading coefficient
    for key in p.coeffs:
        assert sum(key) <= sum(alpha)
        assert (sum(alpha) - sum(key)) % 2 == 0


@given(st.integers(0, 10_000), st.sampled_from([1, 2, 3, 4]), st.integers(0, 8))
def test_compose_linear_matches_pointwise(seed, n, order):
    rng = np.random.default_rng(seed)
    alpha = tuple(int(a) for a in rng.multinomial(order, [1 / n] * n))
    p = poly_recursion(random_symmetric(rng, n), alpha)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    composed = p.compose_linear(A)
    pts = rng.standard_normal((7, n))
    direct = p.evaluate(pts @ A.T)
    assert np.allclose(composed.evaluate(pts), direct, atol=1e-9)


def test_compose_linear_shape_check():
    p = MultiPoly(np.array([[0.0, 0.0], [0.0, 1.0]]))  # x_1 x_2
    with pytest.raises(DimensionMismatch):
        p.compose_linear(np.eye(3))


# -- dense-array MultiPoly against dict references ------------------------------------


def seeded_poly(seed):
    """A seeded recursion polynomial with n = 1…4 variables and degree ≤ 8."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 4
    alpha = tuple(int(a) for a in rng.multinomial(seed % 9, [1 / n] * n))
    return rng, poly_recursion(random_symmetric(rng, n), alpha)


def dict_product(p: dict, q: dict) -> dict:
    out: dict = {}
    for kp, vp in p.items():
        for kq, vq in q.items():
            key = tuple(a + b for a, b in zip(kp, kq))
            out[key] = out.get(key, 0) + vp * vq
    return out


def dict_compose(coeffs: dict, A: np.ndarray) -> dict:
    """p(Ax) by expanding Π_i (Σ_j A_ij x_j)^{k_i} one monomial at a time."""
    n = A.shape[0]
    rows = [{tuple(int(i == j) for i in range(n)): complex(A[r, j]) for j in range(n)}
            for r in range(n)]
    out: dict = {}
    for key, c in coeffs.items():
        term = {(0,) * n: c}
        for r, power in enumerate(key):
            for _ in range(power):
                term = dict_product(term, rows[r])
        for k, v in term.items():
            out[k] = out.get(k, 0) + v
    return out


@pytest.mark.parametrize("seed", range(32))
def test_horner_evaluate_matches_term_sum(seed):
    rng, p = seeded_poly(seed)
    pts = rng.standard_normal((3, 5, p.n)) + 1j * rng.standard_normal((3, 5, p.n))
    direct = sum(c * np.prod(pts ** np.array(k), axis=-1) for k, c in p.coeffs.items())
    values = p.evaluate(pts)
    assert values.shape == (3, 5)
    assert np.max(np.abs(values - direct)) <= 1e-12 * max(1.0, np.max(np.abs(direct)))
    # a single point gives a 0-d result
    assert p.evaluate(pts[0, 0]).shape == ()
    assert abs(p.evaluate(pts[0, 0]) - direct[0, 0]) <= 1e-12 * max(1.0, abs(direct[0, 0]))


@pytest.mark.parametrize("seed", range(32))
def test_compose_and_differentiate_match_dict_references(seed):
    rng, p = seeded_poly(seed)
    A = rng.standard_normal((p.n, p.n)) + 1j * rng.standard_normal((p.n, p.n))
    expected = dict_compose(p.coeffs, A)
    composed = p.compose_linear(A)
    scale = max(abs(v) for v in expected.values())
    keys = set(composed.coeffs) | {k for k, v in expected.items() if abs(v) > 1e-13 * scale}
    for key in keys:
        assert abs(composed[key] - expected.get(key, 0)) <= 1e-12 * scale, key
    for j in range(p.n):
        derivative = {}
        for key, c in p.coeffs.items():
            if key[j]:
                lower = key[:j] + (key[j] - 1,) + key[j + 1:]
                derivative[lower] = c * key[j]
        assert differentiate(p, j).coeffs == derivative


def test_coeffs_view_is_read_only_and_array_is_copied():
    source = np.array([[1.0, 0.0], [0.0, 2.0j]])
    p = MultiPoly(source)
    source[0, 0] = 5.0
    assert p.coeffs == {(0, 0): 1.0, (1, 1): 2.0j}
    with pytest.raises(TypeError):
        p.coeffs[(0, 1)] = 1.0
    with pytest.raises(ValueError):
        p.array[0, 1] = 1.0
    assert p.n == 2 and p.degree == 2
    assert p[(1, 1)] == 2.0j and p[(3, 0)] == 0j
    # the recursion hands out a copy of its table's slice, not a view
    r = poly_recursion(np.eye(2), (2, 1))
    assert r.array.base is None and r.array.shape == (3, 2)
    with pytest.raises(DimensionMismatch):
        MultiPoly(np.array(1.0))

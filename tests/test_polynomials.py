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
    poly_gradient,
    poly_recursion,
    validate_multi_index,
    validate_recursion_index,
)


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
    p = MultiPoly(1, {(0,): 1.0, (2,): 0.0})
    assert (2,) not in p.coeffs
    assert p.degree == 0
    assert p[(0,)] == 1.0
    assert p[(5,)] == 0j


def test_multipoly_arithmetic():
    p = MultiPoly.from_dense(np.array([-1.0, 0.0, 1.0]))  # x² − 1
    assert p.coeffs == {(2,): 1.0, (0,): -1.0}
    assert MultiPoly(1, {(2,): 1.0, (0,): -1.0, (1,): 0.0}).coeffs == p.coeffs
    assert p.differentiate(0).coeffs == {(1,): 2.0}
    pts = np.array([[0.5], [2.0], [-1.0]])
    assert np.allclose(p.evaluate(pts), [-0.75, 3.0, 0.0])


def test_multipoly_evaluate_shape_check():
    p = MultiPoly(2, {(1, 0): 1.0})
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
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatch, match="recursion table"):
            poly_recursion(np.eye(4), alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the largest table any caller builds today (n = 4, |α| = 12) still passes
    assert validate_recursion_index((3, 3, 3, 3), n=4) == (3, 3, 3, 3)


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
    p = MultiPoly(2, {(1, 1): 1.0})
    with pytest.raises(DimensionMismatch):
        p.compose_linear(np.eye(3))

"""Multivariate Appell-type polynomial recursion on dense coefficient arrays.

A MultiPoly holds {multi-index tuple: complex coefficient} with no explicit
zeros; the recursion and the substitution x → Ax run on dense arrays, where
x_j shifts the coefficients one place along axis j.  r_α(x; M) is given by

    r_{γ+e_j} = x_j r_γ − Σ_k M_{jk} γ_k r_{γ−e_k},    r_0 = 1,

for a symmetric matrix M; its members satisfy ∂_j r_α = α_j r_{α−e_j}
exactly at coefficient level, and contain only the degrees |α|, |α|−2, ….
M = 0 gives monomials, M = Id tensor products of probabilists' Hermite
polynomials.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AsymmetricM, DimensionMismatch

ALPHA_MAX = 32  # cap on |α| for every multi-index the package accepts
# cap on the Π(α_j+1)² complex entries of poly_recursion's table (64 MiB); the
# largest table the tests, bench/run.py and the presets build has 65536
TABLE_MAX = 1 << 22


def validate_multi_index(alpha, n: int | None = None) -> tuple[int, ...]:
    """Return alpha as n non-negative ints with |α| ≤ ALPHA_MAX; bools and
    non-integral values raise DimensionMismatch instead of being truncated."""
    try:
        idx = tuple(alpha)
    except TypeError:
        idx = (alpha,)
    if not all(type(a) is int for a in idx):
        try:
            exact = tuple(int(a) for a in idx)
        except (TypeError, ValueError, OverflowError):
            exact = None
        if exact != idx or any(isinstance(a, (bool, np.bool_)) for a in idx):
            raise DimensionMismatch(f"multi-index entries must be integers, got {idx!r}")
        idx = exact
    if idx and min(idx) < 0:
        raise DimensionMismatch(f"multi-index must be non-negative, got {idx}")
    if n is not None and len(idx) != n:
        raise DimensionMismatch(f"multi-index {idx} does not have {n} components")
    if sum(idx) > ALPHA_MAX:
        raise DimensionMismatch(f"|alpha| exceeds the cap {ALPHA_MAX}")
    return idx


def validate_recursion_index(alpha, n: int | None = None) -> tuple[int, ...]:
    """validate_multi_index for an α that seeds the recursion; also raises
    DimensionMismatch, before anything is allocated, when its table would
    exceed TABLE_MAX entries."""
    idx = validate_multi_index(alpha, n)
    entries = math.prod(a + 1 for a in idx) ** 2
    if entries > TABLE_MAX:
        raise DimensionMismatch(
            f"multi-index {idx} needs a recursion table of {entries} entries (cap {TABLE_MAX})"
        )
    return idx


@functools.cache
def _shift(j: int, n: int) -> tuple[tuple, tuple]:
    """Index pair (target, source) multiplying trailing-n-axis coefficients by x_j."""
    target = [slice(None)] * n
    source = [slice(None)] * n
    target[j] = slice(1, None)
    source[j] = slice(None, -1)
    return (Ellipsis, *target), (Ellipsis, *source)


@dataclass(frozen=True)
class MultiPoly:
    """Sparse multivariate polynomial with complex coefficients."""

    n: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for key, value in self.coeffs.items():
            key = validate_multi_index(key, self.n)
            value = complex(value)
            if value != 0:
                clean[key] = clean.get(key, 0) + value
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "MultiPoly":
        """Polynomial whose coefficient of x^k is array[k]."""
        nonzero = np.nonzero(array)
        keys = zip(*(axis.tolist() for axis in nonzero))
        return cls(array.ndim, dict(zip(keys, array[nonzero].tolist())))

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(k) for k in self.coeffs)

    def __getitem__(self, key) -> complex:
        return self.coeffs.get(validate_multi_index(key, self.n), 0j)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (..., n); returns shape (...)."""
        x = np.asarray(x, dtype=complex)
        if x.shape[-1] != self.n:
            raise DimensionMismatch(
                f"points have {x.shape[-1]} components, polynomial has {self.n}"
            )
        out = np.zeros(x.shape[:-1], dtype=complex)
        for key, value in self.coeffs.items():
            term = np.full(x.shape[:-1], value, dtype=complex)
            for j, power in enumerate(key):
                if power:
                    term = term * x[..., j] ** power
            out += term
        return out

    def differentiate(self, j: int) -> "MultiPoly":
        """Partial derivative in variable j."""
        out: dict = {}
        for key, value in self.coeffs.items():
            if key[j] == 0:
                continue
            new = list(key)
            new[j] -= 1
            out[tuple(new)] = out.get(tuple(new), 0) + value * key[j]
        return MultiPoly(self.n, out)

    def compose_linear(self, A: np.ndarray) -> "MultiPoly":
        """Return p(Ax) for a square matrix A (same variable count) by nested Horner
        in y = Ax, last variable first, on dense arrays; y_i·acc is n shifts of acc."""
        n = self.n
        A = np.asarray(A, dtype=complex)
        if A.shape != (n, n):
            raise DimensionMismatch(f"linear map must be {n}×{n}")
        dense = np.zeros(np.max([*self.coeffs, (0,) * n], axis=0) + 1, dtype=complex)
        for key, value in self.coeffs.items():
            dense[key] = value
        shifts = [_shift(j, n) for j in range(n)]
        top = self.degree + 1  # no partial sum exceeds the degree: higher x-powers stay 0
        block = dense.reshape(dense.shape + (1,) * n)  # y-exponents + x-coefficients
        for i in reversed(range(n)):
            if dense.shape[i] == 1:
                block = block[(slice(None),) * i + (0,)]
                continue
            size = min(block.shape[-1] + dense.shape[i] - 1, top)
            acc = np.zeros(dense.shape[:i] + (size,) * n, dtype=complex)
            old = (Ellipsis,) + (slice(block.shape[-1]),) * n
            for k in reversed(range(dense.shape[i])):  # acc ← y_i·acc + p_k
                if k < dense.shape[i] - 1:
                    product = np.zeros_like(acc)
                    for a, (target, source) in zip(A[i], shifts):
                        product[target] += a * acc[source]
                    acc = product
                acc[old] += block[(slice(None),) * i + (k,)]
            block = acc
        return MultiPoly.from_dense(block)


def poly_recursion(M: np.ndarray, alpha) -> MultiPoly:
    """r_α(x; M) with unit leading coefficient on x^α.

    r_γ has degree ≤ γ_j in x_j, so table[γ], γ ≤ α, holds it in shape α+1.
    Lexicographic order fills each γ − e_k before γ; the first nonzero
    component is stepped (the gradient identity makes the order irrelevant).
    """
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    n = M.shape[0]
    if M.shape != (n, n):
        raise DimensionMismatch("recursion matrix must be square")
    if np.max(np.abs(M - M.T)) > 1e-10 * max(1.0, float(np.max(np.abs(M)))):
        raise AsymmetricM("recursion matrix is not symmetric")
    M = 0.5 * (M + M.T)
    alpha = validate_recursion_index(alpha, n)

    shape = tuple(a + 1 for a in alpha)
    table = np.zeros(shape + shape, dtype=complex)
    table[(0,) * (2 * n)] = 1.0
    for gamma in list(itertools.product(*map(range, shape)))[1:]:
        j = next(i for i, g in enumerate(gamma) if g)
        prev = gamma[:j] + (gamma[j] - 1,) + gamma[j + 1 :]
        result = table[gamma]
        target, source = _shift(j, n)
        result[target] = table[prev][source]
        for k in range(j, n):  # prev has no nonzero component before j
            if prev[k] == 0 or M[j, k] == 0:
                continue
            lower = prev[:k] + (prev[k] - 1,) + prev[k + 1 :]
            result -= M[j, k] * prev[k] * table[lower]
    return MultiPoly.from_dense(table[alpha])


def poly_gradient(p: MultiPoly, alpha=None):
    """Analytic gradients (∂_1 p, …, ∂_n p).

    For p = poly_recursion(M, α) these equal α_j · r_{α−e_j}; the identity is
    what the property tests assert.
    """
    if alpha is not None:
        alpha = validate_multi_index(alpha, p.n)
        if p.degree > sum(alpha):
            raise DimensionMismatch("polynomial degree exceeds |alpha|")
    return tuple(p.differentiate(j) for j in range(p.n))

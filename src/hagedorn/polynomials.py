"""Multivariate Appell-type polynomial recursion on dense coefficient arrays.

A MultiPoly holds a dense array whose entry k is the coefficient of x^k;
.coeffs is a read-only {multi-index: coefficient} view of its nonzeros.  The
recursion, the substitution x → Ax and nested-Horner evaluation all run on
the array, where x_j shifts the coefficients one place along axis j.
r_α(x; M) is given by

    r_{γ+e_j} = x_j r_γ − Σ_k M_{jk} γ_k r_{γ−e_k},    r_0 = 1,

for a symmetric matrix M; its members satisfy ∂_j r_α = α_j r_{α−e_j}
exactly at coefficient level, and contain only the degrees |α|, |α|−2, ….
M = 0 gives monomials, M = Id tensor products of probabilists' Hermite
polynomials.

Grid fields evaluate r_α directly.  compose_linear, the substitution x → Ax,
serves as the reference route: r_α(N_tx; M_t) scaled by √(k!)/√(α!) is the
paper's formula for the activation coefficients, which tests compare the
ladder recursion of hagedorn_coefficients against.  Derivatives, which only
tests take, are in hagedorn.oracles.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import AsymmetricM, DimensionMismatch
from .symplectic import symmetric_part

ALPHA_MAX = 32  # cap on |α| for every multi-index the package accepts
# cap on the entries of poly_recursion's table, Π(α_j+1)², of the ladder
# table of hagedorn_coefficients, and of each accumulator compose_linear
# builds (64 MiB of complex); the largest the tests, bench/run.py and the
# presets build has 65536
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
    """validate_multi_index for an α that seeds a recursion; also raises
    DimensionMismatch, before anything is allocated, when poly_recursion's
    table or the ladder table of hagedorn_coefficients would exceed TABLE_MAX
    entries.  The ladder table holds C(|α|+n, n) slots, each with a
    coefficient and per mode a key, two weights and two neighbour indices."""
    idx = validate_multi_index(alpha, n)
    table = math.prod(a + 1 for a in idx) ** 2
    ladder = math.comb(sum(idx) + len(idx), len(idx)) * (5 * len(idx) + 1)
    if max(table, ladder) > TABLE_MAX:
        raise DimensionMismatch(
            f"multi-index {idx} needs a recursion table of {table} entries and a "
            f"ladder table of {ladder} (cap {TABLE_MAX} each)"
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


@dataclass(frozen=True, eq=False)
class MultiPoly:
    """Multivariate polynomial with complex coefficients: the coefficient of
    x^k is array[k], so array.ndim is the number of variables.  The array is
    a read-only copy of the one passed in."""

    array: np.ndarray

    def __post_init__(self):
        array = np.array(self.array, dtype=complex)
        if array.ndim == 0:
            raise DimensionMismatch("a polynomial needs at least one variable")
        array.flags.writeable = False
        object.__setattr__(self, "array", array)

    @property
    def n(self) -> int:
        return self.array.ndim

    @functools.cached_property
    def coeffs(self) -> MappingProxyType:
        """Read-only {multi-index: coefficient} view of the nonzero entries."""
        nonzero = np.nonzero(self.array)
        keys = zip(*(axis.tolist() for axis in nonzero))
        return MappingProxyType(dict(zip(keys, self.array[nonzero].tolist())))

    @property
    def degree(self) -> int:
        nonzero = np.nonzero(self.array)
        return int(sum(nonzero).max()) if nonzero[0].size else 0

    def __getitem__(self, key) -> complex:
        key = validate_multi_index(key, self.n)
        if any(k >= size for k, size in zip(key, self.array.shape)):
            return 0j
        return complex(self.array[key])

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at points of shape (..., n); returns shape (...)."""
        x = np.asarray(x, dtype=complex)
        if x.shape[-1] != self.n:
            raise DimensionMismatch(
                f"points have {x.shape[-1]} components, polynomial has {self.n}"
            )
        value = _horner(self.array, [x[..., j] for j in range(self.n)])
        # a new array of the point shape unless the polynomial is constant
        return value if isinstance(value, np.ndarray) else np.full(x.shape[:-1], value, dtype=complex)

    def compose_linear(self, A: np.ndarray) -> "MultiPoly":
        """Return p(Ax) for a square matrix A (same variable count) by nested Horner
        in y = Ax, last variable first, on dense arrays; y_i·acc is n shifts of acc.

        The accumulator for variable i has shape shape[:i] + (size,)*n; raises
        DimensionMismatch, before allocating any, when one would exceed
        TABLE_MAX entries."""
        n = self.n
        A = np.asarray(A, dtype=complex)
        if A.shape != (n, n):
            raise DimensionMismatch(f"linear map must be {n}×{n}")
        dense = self.array
        top = self.degree + 1  # no partial sum exceeds the degree: higher x-powers stay 0
        plan, size = [], 1  # (i, accumulator size), last variable first
        for i in reversed(range(n)):
            if dense.shape[i] == 1:
                plan.append((i, None))  # no accumulator: the axis is dropped
                continue
            size = min(size + dense.shape[i] - 1, top)
            plan.append((i, size))
        largest = max(
            (math.prod(dense.shape[:i]) * size**n for i, size in plan if size), default=0
        )
        if largest > TABLE_MAX:
            raise DimensionMismatch(
                f"composing a polynomial of shape {dense.shape} needs an accumulator of "
                f"{largest} entries (cap {TABLE_MAX})"
            )
        shifts = [_shift(j, n) for j in range(n)]
        block = dense.reshape(dense.shape + (1,) * n)  # y-exponents + x-coefficients
        for i, size in plan:
            if size is None:
                block = block[(slice(None),) * i + (0,)]
                continue
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
        return MultiPoly(block)


def _horner(array: np.ndarray, xs: list):
    """Σ_k array[k] Π_j xs[j]^{k_j} by nested Horner, xs[0] outermost; a
    scalar when array is 0-d.  Zero sub-arrays add nothing and are skipped."""
    if array.ndim == 0:
        return array[()]
    acc = _horner(array[-1], xs[1:])
    for k in reversed(range(array.shape[0] - 1)):
        if k == array.shape[0] - 2:
            acc = acc * xs[0]  # from here on acc is a full-shape array of its own
        else:
            acc *= xs[0]
        if array[k].any():
            acc += _horner(array[k], xs[1:])
    return acc


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
    M = symmetric_part(M, AsymmetricM, "recursion matrix")
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
    return MultiPoly(table[alpha])

"""Hagedorn basis functions on dense grids and inter-basis expansion overlaps.

The ground state is

    φ₀(Z, z; x) = (πε)^{−n/4} (det Q)^{−1/2}
                  · exp((i/2ε)(x−q)·PQ⁻¹(x−q) + (i/ε) p·(x−q)),

excited states multiply in p_α(√(2/ε) Q⁻¹(x−q); Q⁻¹Q̄)/√α!.  The branch of
(det Q)^{−1/2} is the principal one unless the caller supplies a continuously
tracked log det Q (the propagation module does).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    GridMismatch,
    NonDecayingGaussian,
    SingularC,
)
from .polynomials import poly_recursion, validate_multi_index, validate_recursion_index
from .symplectic import COND_MAX, NormalisedFrame, omega, siegel_matrix


@dataclass(frozen=True)
class Grid:
    """Dense uniform tensor grid, n ≤ 2 dimensions."""

    bounds: tuple
    counts: tuple

    def __post_init__(self):
        bounds = tuple((float(lo), float(hi)) for lo, hi in np.atleast_2d(self.bounds))
        counts = tuple(int(c) for c in np.atleast_1d(self.counts))
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "counts", counts)
        if len(bounds) != len(counts) or not 1 <= len(bounds) <= 2:
            raise DimensionMismatch("grid supports 1 or 2 dimensions")
        for (lo, hi), c in zip(bounds, counts):
            if c < 2 or not np.isfinite([lo, hi]).all() or hi <= lo:
                raise DimensionMismatch("grid needs finite bounds, hi > lo, count ≥ 2")

    @property
    def n(self) -> int:
        return len(self.counts)

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, c) for (lo, hi), c in zip(self.bounds, self.counts)]

    def spacings(self) -> list[float]:
        return [(hi - lo) / (c - 1) for (lo, hi), c in zip(self.bounds, self.counts)]

    def points(self) -> np.ndarray:
        """All nodes, shape counts + (n,)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1)

    def weights(self) -> np.ndarray:
        """Tensor trapezoid quadrature weights, shape counts."""
        out = None
        for (lo, hi), c in zip(self.bounds, self.counts):
            dx = (hi - lo) / (c - 1)
            w = np.full(c, dx)
            w[0] = w[-1] = dx / 2
            out = w if out is None else np.multiply.outer(out, w)
        return out


def grid_inner(f: np.ndarray, g: np.ndarray, grid: Grid) -> complex:
    """Trapezoidal ⟨f, g⟩ = ∫ f̄ g, conjugate-linear in the first argument."""
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != tuple(grid.counts) or g.shape != tuple(grid.counts):
        raise GridMismatch(
            f"fields of shape {f.shape}, {g.shape} do not live on grid {grid.counts}"
        )
    return complex(np.sum(np.conj(f) * g * grid.weights()))


def grid_norm(f: np.ndarray, grid: Grid) -> float:
    return float(math.sqrt(max(grid_inner(f, f, grid).real, 0.0)))


@dataclass(frozen=True)
class WavepacketParams:
    """Frame, center, semiclassical parameter and phase policy of a packet.

    phase is a complex log-prefactor: the evaluated field carries e^{phase}.
    log_det_q overrides the branch of (det Q)^{−1/2}; None means the principal
    logarithm at evaluation time.
    """

    frame: NormalisedFrame
    center: np.ndarray
    eps: float
    phase: complex = 0.0
    log_det_q: complex | None = None

    def __post_init__(self):
        frame = self.frame
        if not isinstance(frame, NormalisedFrame):
            from .symplectic import LagrangianFrame

            frame = NormalisedFrame(LagrangianFrame(np.asarray(frame)))
            object.__setattr__(self, "frame", frame)
        center = np.asarray(self.center, dtype=float).reshape(-1)
        if center.size != 2 * frame.n:
            raise DimensionMismatch(
                f"center must have 2n = {2 * frame.n} real components"
            )
        object.__setattr__(self, "center", center)
        if not self.eps > 0:
            raise DimensionMismatch("eps must be positive")

    @property
    def n(self) -> int:
        return self.frame.n

    @property
    def p(self) -> np.ndarray:
        return self.center[: self.n]

    @property
    def q(self) -> np.ndarray:
        return self.center[self.n :]


def _siegel_and_logdet(params: WavepacketParams):
    siegel = siegel_matrix(params.frame)
    if siegel.im_min_eig <= 0:
        raise NonDecayingGaussian("Im(PQ⁻¹) is not positive definite")
    if params.log_det_q is None:
        log_det_q = complex(np.log(complex(np.linalg.det(params.frame.Q))))
    else:
        log_det_q = complex(params.log_det_q)
    return siegel.B, log_det_q


def eval_ground(params: WavepacketParams, grid: Grid) -> np.ndarray:
    """Sample φ₀ at the grid nodes (times e^{params.phase})."""
    n = params.n
    if grid.n != n:
        raise DimensionMismatch(f"grid dimension {grid.n} does not match n = {n}")
    B, log_det_q = _siegel_and_logdet(params)
    x = grid.points()
    dx = x - params.q
    quad = np.einsum("...i,ij,...j->...", dx, B, dx)
    plane = np.tensordot(dx, params.p, axes=([-1], [0]))
    amp = (np.pi * params.eps) ** (-n / 4) * np.exp(-0.5 * log_det_q + params.phase)
    return amp * np.exp(0.5j / params.eps * quad + 1j / params.eps * plane)


def eval_excited(params: WavepacketParams, alpha, grid: Grid) -> np.ndarray:
    """Sample φ_α = p_α(√(2/ε) Q⁻¹(x−q); Q⁻¹Q̄) φ₀ / √α!."""
    n = params.n
    alpha = validate_recursion_index(alpha, n)
    ground = eval_ground(params, grid)
    if sum(alpha) == 0:
        return ground
    Q = params.frame.Q
    Qinv = np.linalg.inv(Q)
    M = Qinv @ np.conj(Q)
    M = 0.5 * (M + M.T)
    poly = poly_recursion(M, alpha)
    x = grid.points()
    y = np.sqrt(2.0 / params.eps) * np.einsum("ij,...j->...i", Qinv, x - params.q)
    values = poly.evaluate(y)
    norm = math.sqrt(math.prod(math.factorial(a) for a in alpha))
    return values / norm * ground


def apply_lowering(params: WavepacketParams, f: np.ndarray, grid: Grid, col: int = 0):
    """Apply the discretized lowering operator A(l_col) to a grid field.

    A(l) = (i/√(2ε)) l·Ω(ẑ − z) with p̂ realized by second-order central
    differences (np.gradient), so the residual on the exact ground state is
    limited by the finite-difference order.
    """
    n = params.n
    if grid.n != n:
        raise DimensionMismatch("grid dimension mismatch")
    l = params.frame.entries[:, col]
    w = omega(n).T @ l  # A(l) = (i/√(2ε)) (Ωᵀl)·(ẑ − z)
    axes = grid.axes()
    eps = params.eps
    out = np.zeros_like(np.asarray(f, dtype=complex))
    for j in range(n):
        # momentum component: p̂_j f = −iε ∂_j f, shifted by the center p_j
        grad = np.gradient(f, axes[j], axis=j, edge_order=2)
        out += w[j] * (-1j * eps * grad - params.p[j] * f)
    x = grid.points()
    for j in range(n):
        out += w[n + j] * (x[..., j] - params.q[j]) * f
    return 1j / math.sqrt(2 * eps) * out


def _transport_matrices(alpha, beta, n):
    """Non-negative integer n×n matrices with row sums alpha and column sums beta."""
    results = []
    flat = [0] * (n * n)

    def fill(pos, row_left, col_left):
        if pos == n * n:
            results.append(tuple(flat))
            return
        i, j = divmod(pos, n)
        remaining_rows = sum(row_left) - row_left[i]
        hi = min(row_left[i], col_left[j])
        # the rest of column j must be fillable by the rows below
        for v in range(hi + 1):
            if col_left[j] - v > remaining_rows:
                continue
            flat[pos] = v
            row_left[i] -= v
            col_left[j] -= v
            if j == n - 1 and row_left[i] != 0:
                pass  # row i is finished but not exhausted: prune
            else:
                fill(pos + 1, row_left, col_left)
            row_left[i] += v
            col_left[j] += v
            flat[pos] = 0

    fill(0, list(alpha), list(beta))
    return results


def expansion_overlap(Z: NormalisedFrame, C: np.ndarray, alpha, beta) -> complex:
    """⟨φ_β(ZC), φ_α(Z)⟩ = √(α!β!) (det C̄)^{−1/2} Σ_{Λ∈m(α,β)} C^Λ/Λ!.

    The sum runs over matrices with row sums α and column sums β; it is empty
    (value 0) when |α| ≠ |β|.  Principal branch of (det C̄)^{1/2}, matching
    eval_ground's branch policy.
    """
    if not isinstance(Z, NormalisedFrame):
        from .symplectic import LagrangianFrame

        Z = NormalisedFrame(LagrangianFrame(np.asarray(Z)))
    n = Z.n
    C = np.atleast_2d(np.asarray(C, dtype=complex))
    if C.shape != (n, n):
        raise DimensionMismatch(f"C must be {n}×{n}")
    if abs(np.linalg.det(C)) < 1e-300 or np.linalg.cond(C) > COND_MAX:
        raise SingularC("C is singular")
    alpha = validate_multi_index(alpha, n)
    beta = validate_multi_index(beta, n)
    if sum(alpha) != sum(beta):
        return 0j
    total = 0j
    for lam in _transport_matrices(alpha, beta, n):
        term = 1.0 + 0j
        for pos, power in enumerate(lam):
            if power:
                i, j = divmod(pos, n)
                term *= C[i, j] ** power / math.factorial(power)
        total += term
    fact = math.sqrt(
        math.prod(math.factorial(a) for a in alpha)
        * math.prod(math.factorial(b) for b in beta)
    )
    det_cbar = np.linalg.det(np.conj(C))
    return fact * total / np.exp(0.5 * np.log(complex(det_cbar)))


def write_field_csv(f: np.ndarray, grid: Grid, path) -> None:
    """Snapshot CSV: columns x (or x1,x2), re, im; 17 significant digits."""
    f = np.asarray(f)
    if f.shape != tuple(grid.counts):
        raise GridMismatch("field does not live on the given grid")
    points = grid.points().reshape(-1, grid.n)
    values = f.reshape(-1)
    header = ("x" if grid.n == 1 else "x1,x2") + ",re,im"
    with open(path, "w", newline="") as handle:
        handle.write(header + "\n")
        for row, val in zip(points, values):
            coords = ",".join("%.17g" % c for c in row)
            handle.write(f"{coords},{'%.17g' % val.real},{'%.17g' % val.imag}\n")

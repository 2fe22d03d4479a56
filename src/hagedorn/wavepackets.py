"""Hagedorn basis functions on dense grids.

The ground state is

    φ₀(Z, z; x) = (πε)^{−n/4} (det Q)^{−1/2}
                  · exp((i/2ε)(x−q)·PQ⁻¹(x−q) + (i/ε) p·(x−q)),

excited states multiply in p_α(√(2/ε) Q⁻¹(x−q); Q⁻¹Q̄)/√α!.  The branch of
(det Q)^{−1/2} is the principal one unless the caller supplies a continuously
tracked log det Q (the propagation module does).  Fields are built from the
1-D grid axes by broadcasting, never from a mesh of all nodes (grid
evaluation in the Hagedorn basis as in Faou, Gradinaru & Lubich, SIAM J. Sci.
Comput. 31 (2009)).  Every field of one packet shares φ₀ and the polynomial
argument; one builder makes both, and only p_α changes from field to field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GridMismatch, NonDecayingGaussian
from .polynomials import poly_recursion, validate_recursion_index
from .symplectic import NormalisedFrame, siegel_matrix
from .symplectic import omega  # noqa: F401  perfbench/tracing.py counts it


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
        """Tensor trapezoid quadrature weights, shape counts: built on the first
        call, then the same read-only array."""
        out = self.__dict__.get("_weights")
        if out is not None:
            return out
        for (lo, hi), c in zip(self.bounds, self.counts):
            dx = (hi - lo) / (c - 1)
            w = np.full(c, dx)
            w[0] = w[-1] = dx / 2
            out = w if out is None else np.multiply.outer(out, w)
        out.flags.writeable = False
        object.__setattr__(self, "_weights", out)
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


@dataclass(frozen=True, eq=False)
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
            frame = NormalisedFrame(frame)
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


def _offsets(params: WavepacketParams, grid: Grid) -> list[np.ndarray]:
    """d_j = x_j − q_j on grid axis j, shaped to broadcast against the others."""
    n = params.n
    if grid.n != n:
        raise DimensionMismatch(f"grid dimension {grid.n} does not match n = {n}")
    return [
        (axis - q).reshape((-1,) + (1,) * (n - 1 - j))
        for j, (axis, q) in enumerate(zip(grid.axes(), params.q))
    ]


def _ground_and_argument(params: WavepacketParams, grid: Grid, L=None, shift=None):
    """(e^{phase} φ₀(x), y) at the grid nodes, y = √(2/ε) L(x−q) + shift.

    Built from the 1-D offsets d_j = x_j − q_j by broadcasting: the exponent
    Σ_i ((i/2ε)B_ii d_i + (i/ε)p_i) d_i + Σ_{i<j} (i/ε)B_ij d_i d_j plus the
    log of the prefactor takes one exp, and y_i = √(2/ε) Σ_j L_ij d_j + shift_i,
    with shift_i joining the first 1-D term, has shape counts + (n,) with each
    y_i contiguous for the polynomial's nested Horner.  y is None when L is
    None; shift None means no shift.  Every field p_α(y; M)/√α! · φ₀ of one
    packet shares both (_excite).
    """
    n = params.n
    d = _offsets(params, grid)
    siegel = siegel_matrix(params.frame)
    if siegel.im_min_eig <= 0:
        raise NonDecayingGaussian("Im(PQ⁻¹) is not positive definite")
    B = siegel.B
    if params.log_det_q is None:
        log_det_q = complex(np.log(complex(np.linalg.det(params.frame.Q))))
    else:
        log_det_q = complex(params.log_det_q)
    eps = params.eps
    log_amp = -0.25 * n * math.log(math.pi * eps) - 0.5 * log_det_q + params.phase
    exponent = log_amp + sum(
        ((0.5j / eps) * B[i, i] * d[i] + (1j / eps) * params.p[i]) * d[i] for i in range(n)
    )
    for i in range(n):
        for j in range(i + 1, n):
            exponent = exponent + (1j / eps) * B[i, j] * d[i] * d[j]
    psi = np.exp(exponent)
    if L is None:
        return psi, None
    y = np.empty((n, *grid.counts), dtype=complex)
    scale = math.sqrt(2.0 / eps)
    for i in range(n):
        terms = [(scale * L[i, j]) * d[j] for j in range(n)]
        if shift is not None:
            terms[0] = terms[0] + shift[i]
        y[i] = sum(terms)
    return psi, np.moveaxis(y, 0, -1)


def _excite(ground: np.ndarray, y: np.ndarray, poly, alpha) -> np.ndarray:
    """ground · p(y)/√α! as a new array, p = p_α(·; M) from poly_recursion."""
    # ground stays the first operand: the complex product (p(y), ground) rounds
    # differently, and that is what `ground * p(y)` computes when numpy reuses
    # the temporary p(y)
    psi = poly.evaluate(y)
    np.multiply(ground, psi, out=psi)
    psi /= math.sqrt(math.prod(math.factorial(a) for a in alpha))
    return psi


def eval_ground(params: WavepacketParams, grid: Grid) -> np.ndarray:
    """Sample φ₀ at the grid nodes (times e^{params.phase})."""
    return _ground_and_argument(params, grid)[0]


def eval_excited(params: WavepacketParams, alpha, grid: Grid) -> np.ndarray:
    """Sample φ_α = p_α(√(2/ε) Q⁻¹(x−q); Q⁻¹Q̄) φ₀ / √α!."""
    alpha = validate_recursion_index(alpha, params.n)
    if not any(alpha):
        return _ground_and_argument(params, grid)[0]
    Q = params.frame.Q
    Qinv = np.linalg.inv(Q)
    M = Qinv @ np.conj(Q)
    ground, y = _ground_and_argument(params, grid, Qinv)
    return _excite(ground, y, poly_recursion(0.5 * (M + M.T), alpha), alpha)


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

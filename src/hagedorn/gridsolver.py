"""Brute-force grid verification of the wavepacket pipeline (1-D).

The quadratic Weyl operator Op[½z·Hz] = ½H_pp p̂² + ½H_qq q̂² + ½H_pq(p̂q̂+q̂p̂)
is discretized with a spectral (discrete-Fourier) momentum matrix and a
diagonal position matrix, and propagated by Crank–Nicolson steps

    ψ ← (Id + (i dt/2ε) Ĥ)⁻¹ (Id − (i dt/2ε) Ĥ) ψ

with a step-doubling (dt/2 re-run) Richardson error estimate.

Stability note: for strongly non-normal operators (complex symmetric H) the
discretization grows spurious eigenvalues with large positive imaginary part
in the unresolved phase-space corners (|x| and |k| both large), and bare
Crank–Nicolson amplifies roundoff through them by many orders of magnitude.
propagate_grid therefore augments its step operator with a static damping
term −i(σ(q̂) + σ(p̂)) supported strictly outside the resolved window
(|x|, |p| > 7.5 by default, where Gaussian-class states carry ≤ 1e-14 mass).
The damping is part of the stepping scheme, not of the returned operator;
discretize_hamiltonian always returns the pure Weyl discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    GridMismatch,
    NonSymmetricH,
    UnsupportedDimension,
)
from .polynomials import validate_multi_index
from .symplectic import SymplecticMetricPair, frame_from_metric
from .wavepackets import Grid, WavepacketParams, eval_excited, grid_norm

DT_DEFAULT = 1e-3
GRID_TOL_DEFAULT = 1e-8  # Richardson estimate per unit time
MAX_HALVINGS = 8

# damping profile for the corner stabilizer (see module docstring)
DAMP_ONSET_X = 7.5
DAMP_ONSET_P = 7.5
DAMP_AMPLITUDE = 2000.0
DAMP_POWER = 3


@dataclass(frozen=True)
class DiscretizedOperator:
    """Dense N×N discretization of a quadratic Weyl operator on a 1-D grid."""

    matrix: np.ndarray
    grid: Grid
    eps: float


@dataclass(frozen=True)
class GridPropagation:
    """Propagated field plus the step-doubling error estimate."""

    field: np.ndarray
    richardson_error: float
    dt_used: float
    halvings: int


def _require_1d(grid: Grid) -> None:
    if grid.n != 1:
        raise UnsupportedDimension("the grid oracle supports 1-D grids only")


def _momentum_matrix(grid: Grid, eps: float) -> np.ndarray:
    """Spectral p̂ = −iε∂_x as a dense matrix (periodic extension)."""
    (count,) = grid.counts
    dx = grid.spacings()[0]
    k = 2 * np.pi * np.fft.fftfreq(count, d=dx)
    forward = np.fft.fft(np.eye(count), axis=0)
    return np.fft.ifft(forward * (eps * k)[:, None], axis=0)


def discretize_hamiltonian(H, eps: float, grid: Grid) -> DiscretizedOperator:
    """Dense Op[½z·Hz] for constant complex symmetric 2×2 H (n = 1)."""
    H = np.asarray(H, dtype=complex)
    if H.shape != (2, 2):
        raise UnsupportedDimension("only n = 1 (2×2 coefficient matrices) is supported")
    if abs(H[0, 1] - H[1, 0]) > 1e-12 * max(1.0, float(np.max(np.abs(H)))):
        raise NonSymmetricH("coefficient matrix is not symmetric")
    _require_1d(grid)
    if not eps > 0:
        raise DimensionMismatch("eps must be positive")
    P = _momentum_matrix(grid, eps)
    x = grid.axes()[0]
    X = np.diag(x.astype(complex))
    cross = H[0, 1]
    matrix = 0.5 * H[0, 0] * (P @ P) + 0.5 * H[1, 1] * (X @ X)
    if cross != 0:
        matrix = matrix + 0.5 * cross * (P @ X + X @ P)
    return DiscretizedOperator(matrix=matrix, grid=grid, eps=float(eps))


def _damping_matrix(grid: Grid, eps: float) -> np.ndarray:
    """σ(q̂) + σ(p̂) with σ zero inside the resolved phase-space window."""

    def profile(u, onset, top):
        if top <= onset:
            return np.zeros_like(u)
        ramp = np.clip((np.abs(u) - onset) / (top - onset), 0.0, None)
        return DAMP_AMPLITUDE * ramp**DAMP_POWER

    (count,) = grid.counts
    x = grid.axes()[0]
    dx = grid.spacings()[0]
    p = eps * 2 * np.pi * np.fft.fftfreq(count, d=dx)
    sigma_x = profile(x, DAMP_ONSET_X, float(np.max(np.abs(x))))
    sigma_p = profile(p, DAMP_ONSET_P, float(np.max(np.abs(p))))
    forward = np.fft.fft(np.eye(count), axis=0)
    sigma_p_matrix = np.fft.ifft(forward * sigma_p[:, None], axis=0)
    return np.diag(sigma_x.astype(complex)) + sigma_p_matrix


def propagate_grid(
    psi0: np.ndarray,
    operator: DiscretizedOperator,
    t: float,
    dt: float = DT_DEFAULT,
    grid_tol: float = GRID_TOL_DEFAULT,
    max_halvings: int = MAX_HALVINGS,
    stabilize: bool = True,
) -> GridPropagation:
    """Crank–Nicolson propagation to time t with step-doubling error control.

    The step count is rounded so one uniform step size divides t exactly; the
    returned field is the dt/2 (finer) run and richardson_error its second-
    order estimate ‖ψ_dt − ψ_{dt/2}‖/3.  grid_tol is per unit time.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    grid = operator.grid
    _require_1d(grid)
    if psi0.shape != tuple(grid.counts):
        raise GridMismatch("initial field does not live on the operator's grid")
    if t < 0 or dt <= 0:
        raise DimensionMismatch("need t ≥ 0 and dt > 0")
    if t == 0:
        return GridPropagation(psi0.copy(), 0.0, dt, 0)

    eps = operator.eps
    stepping = operator.matrix
    if stabilize:
        stepping = stepping - 1j * _damping_matrix(grid, eps)
    ident = np.eye(grid.counts[0], dtype=complex)

    def run(steps: int) -> np.ndarray:
        step = t / steps
        factor = 1j * step / (2 * eps)
        lu = lu_factor(ident + factor * stepping)
        explicit = ident - factor * stepping
        psi = psi0
        for _ in range(steps):
            psi = lu_solve(lu, explicit @ psi)
        return psi

    steps = max(1, math.ceil(t / dt - 1e-12))
    coarse = run(steps)
    for halvings in range(max_halvings + 1):
        fine = run(2 * steps)
        estimate = grid_norm(coarse - fine, grid) / 3.0
        if estimate / t <= grid_tol:
            return GridPropagation(fine, estimate, t / (2 * steps), halvings)
        steps *= 2
        coarse = fine
    raise ConvergenceFailure(
        f"Richardson estimate {estimate:.3e} still above {grid_tol:.3e}/unit time "
        f"after {max_halvings} halvings",
        estimate=estimate,
    )


def number_operator_check(G, eps: float, grid: Grid, alpha) -> float:
    """Residual ‖Op[ν]φ_α − (|α|+n)φ_α‖/‖φ_α‖ for ν(z) = (z·Gz + nε)/(2ε).

    The frame is reconstructed from the metric, so the eigenvalue |α|+n comes
    from the per-mode ladder algebra.
    """
    _require_1d(grid)
    if isinstance(G, SymplecticMetricPair):
        G_mat = G.G
    else:
        G_mat = np.asarray(G, dtype=float)
    if G_mat.shape != (2, 2):
        raise UnsupportedDimension("only n = 1 metrics are supported here")
    alpha = validate_multi_index(alpha, 1)
    frame = frame_from_metric(G_mat)
    params = WavepacketParams(frame=frame, center=np.zeros(2), eps=eps)
    phi = eval_excited(params, alpha, grid)
    op = discretize_hamiltonian(G_mat / eps, eps, grid)
    nu_phi = op.matrix @ phi + 0.5 * phi  # + nε/(2ε) with n = 1
    target = (sum(alpha) + 1) * phi
    return grid_norm(nu_phi - target, grid) / grid_norm(phi, grid)

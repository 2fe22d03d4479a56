"""Brute-force grid verification of the wavepacket pipeline (1-D).

The quadratic Weyl operator Op[½z·Hz] = ½H_pp p̂² + ½H_qq q̂² + ½H_pq(p̂q̂+q̂p̂)
is discretized spectrally: p̂ and p̂² are discrete-Fourier multipliers (ε k and
ε²k², built from one FFT of the identity), q̂² is diagonal, and p̂q̂ + q̂p̂ is p̂
scaled by x over its columns plus over its rows, so no dense product is
formed.  Crank–Nicolson steps

    ψ ← C ψ,    C = (Id + (iτ/2ε) F)⁻¹ (Id − (iτ/2ε) F)

advance the field by one matrix-vector product each, where F is the stepping
matrix (Ĥ plus the damping below) and C its Cayley transform (Lasser &
Lubich, Acta Numerica 29 (2020), §3).  A step-doubling (τ/2 re-run) gives the
Richardson error estimate.

C is built once per (step size τ, stabilize) for each DiscretizedOperator,
from one LU factorisation of Id + (iτ/2ε) F and one multi-column solve, and
kept in a private cache on that operator: every field and time propagated
with the same operator and step size reuses it, and so do the step-doubling
re-runs.  Each cached step size holds one N² complex matrix (16 MB at
N = 1024) for as long as the operator lives.

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
from dataclasses import dataclass, field

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
    """Dense N×N discretization of a quadratic Weyl operator on a 1-D grid.

    `matrix` is read-only: the Cayley matrices cached on the operator are
    built from it.
    """

    matrix: np.ndarray
    grid: Grid
    eps: float
    # (step size, stabilize) -> Cayley matrix; filled by _cayley_matrix
    _cayley: dict = field(default_factory=dict, init=False, repr=False, compare=False)


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


def _momenta(grid: Grid, eps: float) -> np.ndarray:
    """Discrete-Fourier momenta ε k in numpy's FFT order."""
    (count,) = grid.counts
    return eps * 2 * np.pi * np.fft.fftfreq(count, d=grid.spacings()[0])


def _fourier_multipliers(grid: Grid, *symbols: np.ndarray) -> list[np.ndarray]:
    """Dense matrices of the Fourier multipliers `symbols` (periodic extension).

    All of them share one FFT of the identity.
    """
    (count,) = grid.counts
    forward = np.fft.fft(np.eye(count), axis=0)
    return [np.fft.ifft(forward * symbol[:, None], axis=0) for symbol in symbols]


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
    p = _momenta(grid, eps)
    x = grid.axes()[0]
    cross = H[0, 1]
    if cross != 0:
        P2, P = _fourier_multipliers(grid, p**2, p)
    else:
        (P2,) = _fourier_multipliers(grid, p**2)
    matrix = 0.5 * H[0, 0] * P2
    matrix[np.diag_indices_from(matrix)] += 0.5 * H[1, 1] * x**2
    if cross != 0:
        # P X + X P: P with its columns and with its rows scaled by x
        matrix += 0.5 * cross * (P * x[None, :] + x[:, None] * P)
    matrix.flags.writeable = False
    return DiscretizedOperator(matrix=matrix, grid=grid, eps=float(eps))


def _damping_matrix(grid: Grid, eps: float) -> np.ndarray:
    """σ(q̂) + σ(p̂) with σ zero inside the resolved phase-space window."""

    def profile(u, onset, top):
        if top <= onset:
            return np.zeros_like(u)
        ramp = np.clip((np.abs(u) - onset) / (top - onset), 0.0, None)
        return DAMP_AMPLITUDE * ramp**DAMP_POWER

    x = grid.axes()[0]
    p = _momenta(grid, eps)
    sigma_x = profile(x, DAMP_ONSET_X, float(np.max(np.abs(x))))
    sigma_p = profile(p, DAMP_ONSET_P, float(np.max(np.abs(p))))
    (damping,) = _fourier_multipliers(grid, sigma_p)
    damping[np.diag_indices_from(damping)] += sigma_x
    return damping


def _cayley_matrix(operator: DiscretizedOperator, step: float, stabilize: bool) -> np.ndarray:
    """The Crank–Nicolson step (Id + iτ/2ε F)⁻¹(Id − iτ/2ε F), cached per operator."""
    key = (step, stabilize)
    cayley = operator._cayley.get(key)
    if cayley is None:
        stepping = operator.matrix
        if stabilize:
            stepping = stepping - 1j * _damping_matrix(operator.grid, operator.eps)
        # Fortran order lets the LU and the solve overwrite their inputs
        half = np.multiply(1j * step / (2 * operator.eps), stepping, order="F")
        diagonal = np.diag_indices_from(half)
        explicit = -half
        explicit[diagonal] += 1.0
        half[diagonal] += 1.0
        lu = lu_factor(half, overwrite_a=True)
        cayley = lu_solve(lu, explicit, overwrite_b=True)
        operator._cayley[key] = cayley
    return cayley


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

    def run(steps: int) -> np.ndarray:
        cayley = _cayley_matrix(operator, t / steps, stabilize)
        psi = psi0
        for _ in range(steps):
            psi = cayley @ psi
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

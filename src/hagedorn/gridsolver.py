"""Brute-force grid verification of the wavepacket pipeline (1-D).

The quadratic Weyl operator Op[½z·Hz] = ½H_pp p̂² + ½H_qq q̂² + ½H_pq(p̂q̂+q̂p̂)
is discretized spectrally: p̂ and p̂² are discrete-Fourier multipliers (ε k and
ε²k², each the circulant of the inverse FFT of its symbol), q̂² is diagonal,
and p̂q̂ + q̂p̂ is p̂ scaled by x over its columns plus over its rows, so no
dense product is formed.  Crank–Nicolson steps

    ψ ← C ψ,    C = (Id + (iτ/2ε) F)⁻¹ (Id − (iτ/2ε) F)

advance the field, where F is the stepping matrix (Ĥ plus the damping below)
and C its Cayley transform (Lasser & Lubich, Acta Numerica 29 (2020), §3).
Each run advances by its own one-step map E and marches m steps of E as
⌊m/2⌋ matrix-vector products with E² and one with E when m is odd.
propagate_grid marches through a sorted list of output times in one call: a
coarse run (E = C(τ)) and a fine run at half its step (E = C(τ/2)², two half
steps) advance together from t = 0, so per increment both take the same
number of map steps, and the Richardson error estimate ‖ψ_coarse − ψ_fine‖/3
at each output time covers the whole of [0, t]; no time recomputes the
interval before the previous one.

C is built once per step size τ and map for each DiscretizedOperator as
C = 2(Id + A)⁻¹ − Id with A = (iτ/2ε) F: one LU factorisation of Id + A
(lu_factor), inverted in place (LAPACK zgetri), so the build needs no
second N² matrix for Id − A and no multi-column solve.  The coarse map keeps
C and C² (one zgemm product); the fine map keeps C² and C⁴ (two products,
C⁴ written into C's buffer, which is then no longer needed).  Each pair is
kept, in Fortran order, in a private cache on that operator: every field,
time and refinement propagated with the same operator, step size and map
reuses it.  Each cached pair holds two N² complex matrices (32 MB at
N = 1024) for as long as the operator lives, and every halving adds another.
One N³ product costs about as much as 150 to 190 matrix-vector products at
N = 1024.  So the coarse map's squaring pays for itself after about 300 to
400 steps of C, and the fine map's second product, which halves the fine
run's products, after about 300 to 400 steps of C² (twice as many half
steps); three fields marched to t = 0.5 at dt = 1e-3 take 1500 steps of
C².  Either build holds at most two N² matrices of
its own, so the peak memory of a march stays where one cached C per step
size put it.

All N×N dense work (the LU, the inversion, the squaring with zgemm and every
march product with zgemv) runs in scipy's BLAS and LAPACK.  numpy and scipy
each load their own OpenBLAS with its own thread pool, and a pool left idle
after a product keeps its threads spinning for a while, taking the cores from
the other; keeping the oracle in one pool avoids that contention.  The
matrices stay in Fortran order so that zgemv reads them without a copy.

Stability note: for strongly non-normal operators (complex symmetric H) the
discretization grows spurious eigenvalues with large positive imaginary part
in the unresolved phase-space corners (|x| and |k| both large), and bare
Crank–Nicolson amplifies roundoff through them by many orders of magnitude.
propagate_grid therefore always augments its step operator with a static
damping term −i(σ(q̂) + σ(p̂)) supported strictly outside the window
|x| ≤ DAMP_ONSET_X, |p| ≤ DAMP_ONSET_P (7.5 each).  That window is not always
resolved: an evolved non-Hermitian state can carry real content beyond it,
where the damping then acts (outside_window measures how much; the excited
states of the swanson-fig1 preset carry up to 7.9e-4 of their norm at
|p| > 7.5 at t = π/2ω).  The damping is part of the stepping scheme, not of
the returned operator; discretize_hamiltonian always returns the pure Weyl
discretization.

The number-operator residual of an excited state is in hagedorn.oracles.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import circulant, lu_factor
from scipy.linalg import lu_solve  # noqa: F401  perfbench/tracing.py wraps it
from scipy.linalg.blas import zgemm, zgemv
from scipy.linalg.lapack import zgetri, zgetri_lwork

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    GridMismatch,
    NonSymmetricH,
    UnsupportedDimension,
)
from .propagation import _check_times
from .wavepackets import Grid, grid_norm

DT_DEFAULT = 1e-3
GRID_TOL_DEFAULT = 1e-8  # Richardson estimate per unit time
MAX_HALVINGS = 8

# damping profile for the corner stabilizer (see module docstring)
DAMP_ONSET_X = 7.5
DAMP_ONSET_P = 7.5
DAMP_AMPLITUDE = 2000.0
DAMP_POWER = 3


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """Dense N×N discretization of a quadratic Weyl operator on a 1-D grid.

    `matrix` is read-only: the Cayley matrices cached on the operator are
    built from it.
    """

    matrix: np.ndarray
    grid: Grid
    eps: float
    # (step size, substeps) -> (E, E²) with E = C^substeps; filled by _cayley_matrix
    _cayley: dict = field(default_factory=dict, init=False, repr=False)


@dataclass(frozen=True, eq=False)
class GridPropagation:
    """Propagated field plus the step-doubling error estimate."""

    field: np.ndarray
    richardson_error: float
    dt_used: float
    halvings: int


class GridMarch(tuple):
    """The GridPropagation of each output time of one march, in time order."""

    @property
    def halvings(self) -> int:
        """Step halvings over all the times."""
        return sum(result.halvings for result in self)


def _require_1d(grid: Grid) -> None:
    if grid.n != 1:
        raise UnsupportedDimension("the grid oracle supports 1-D grids only")


def _momenta(grid: Grid, eps: float) -> np.ndarray:
    """Discrete-Fourier momenta ε k in numpy's FFT order."""
    (count,) = grid.counts
    return eps * 2 * np.pi * np.fft.fftfreq(count, d=grid.spacings()[0])


def _fourier_multipliers(*symbols: np.ndarray) -> list[np.ndarray]:
    """Dense matrices of the Fourier multipliers `symbols` (periodic extension).

    F⁻¹ diag(s) F is the circulant of c = F⁻¹ s: entry (j, k) is c[(j − k) mod N].
    """
    return [circulant(np.fft.ifft(symbol)) for symbol in symbols]


def discretize_hamiltonian(H, eps: float, grid: Grid) -> DiscretizedOperator:
    """Dense Op[½z·Hz] for constant complex symmetric 2×2 H (n = 1)."""
    H = np.asarray(H, dtype=complex)
    if H.shape != (2, 2):
        raise UnsupportedDimension("only n = 1 (2×2 coefficient matrices) is supported")
    if not np.isfinite(H).all():
        raise NonSymmetricH("coefficient matrix must be finite")
    if abs(H[0, 1] - H[1, 0]) > 1e-12 * max(1.0, float(np.max(np.abs(H)))):
        raise NonSymmetricH("coefficient matrix is not symmetric")
    _require_1d(grid)
    if not (math.isfinite(eps) and eps > 0):
        raise DimensionMismatch("eps must be finite and positive")
    p = _momenta(grid, eps)
    x = grid.axes()[0]
    cross = H[0, 1]
    if cross != 0:
        P2, P = _fourier_multipliers(p**2, p)
    else:
        (P2,) = _fourier_multipliers(p**2)
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
    (damping,) = _fourier_multipliers(sigma_p)
    damping[np.diag_indices_from(damping)] += sigma_x
    return damping


def _cayley_matrix(
    operator: DiscretizedOperator, step: float, substeps: int
) -> tuple[np.ndarray, np.ndarray]:
    """The one-step map E = C^substeps of a run and E², cached on operator.

    C = 2(Id + A)⁻¹ − Id is the Crank–Nicolson step of size `step`, with
    A = iτ/2ε F; C equals (Id + A)⁻¹(Id − A) because Id − A = 2 Id − (Id + A).
    A coarse run takes substeps = 1 (E = C, E² = C²), a fine run
    substeps = 2 (E = C², E² = C⁴).  Id + A is factored by lu_factor
    (finiteness checked) and inverted in place by zgetri, and the powers are
    formed by zgemm, C⁴ into C's buffer, so E and E² are Fortran-ordered and
    built in scipy's BLAS pool only (see the module docstring).  A singular
    factor (zgetri info ≠ 0) raises ConvergenceFailure and caches nothing.
    """
    key = (step, substeps)
    cached = operator._cayley.get(key)
    if cached is None:
        # Id + iτ/2ε Ĥ + τ/2ε σ, built in place in Fortran order, so the LU
        # and the inversion overwrite it
        scale = step / (2 * operator.eps)
        cayley = np.multiply(1j * scale, operator.matrix, order="F")
        damping = _damping_matrix(operator.grid, operator.eps)
        damping *= scale
        cayley += damping
        del damping
        diagonal = np.diag_indices_from(cayley)
        cayley[diagonal] += 1.0
        lu, pivots = lu_factor(cayley, overwrite_a=True)
        work, _ = zgetri_lwork(len(cayley))
        cayley, info = zgetri(lu, pivots, lwork=int(work.real), overwrite_lu=True)
        if info != 0:
            raise ConvergenceFailure(
                f"Id + (iτ/2ε) F is singular at step {step:.6g} (zgetri info {info})"
            )
        cayley *= 2.0
        cayley[diagonal] -= 1.0
        squared = zgemm(1.0, cayley, cayley)
        if substeps == 1:
            cached = (cayley, squared)
        else:
            # C is no longer needed: C⁴ overwrites it, so the build holds
            # two N² matrices at most
            cached = (squared, zgemm(1.0, squared, squared, c=cayley, overwrite_c=True))
        operator._cayley[key] = cached
    return cached


def propagate_grid(
    psi0: np.ndarray,
    operator: DiscretizedOperator,
    t: float | Sequence[float],
    dt: float = DT_DEFAULT,
    grid_tol: float = GRID_TOL_DEFAULT,
) -> GridPropagation | GridMarch:
    """Crank–Nicolson march through the output times t with step-doubling error control.

    t is one time or a strictly increasing sequence of times ≥ 0.  A coarse
    run and a fine run at half its step march together from t = 0: the
    increment t_k − t_{k−1} takes the fewest uniform steps of at most dt (the
    fine run twice as many), so increments of one step size share one cached
    pair E, E².  The coarse run's map E is one step C, the fine run's two
    half steps C²; m steps of E apply E² ⌊m/2⌋ times and E once if m is odd.
    At each t_k the returned field is the fine run, and
    richardson_error = ‖ψ_coarse(t_k) − ψ_fine(t_k)‖/3 is the second-order
    estimate of the error accumulated over the whole of [0, t_k].  grid_tol is
    per unit time.  A time whose estimate fails is refined as a restart from
    ψ0 would be: the marched fine field becomes the coarse one, and a uniform
    run over [0, t_k] at step t_k/(2^{h+1}·ceil(t_k/dt)) the fine one, for
    h = 1, 2, … up to MAX_HALVINGS; that run marches the fine map.  The march
    goes on at its own steps.  A NaN dt, time or grid_tol raises
    DimensionMismatch; grid_tol = inf accepts every estimate.

    One time gives one GridPropagation, a sequence a GridMarch with one per
    time.  A ConvergenceFailure at t_k, from an estimate that fails after
    MAX_HALVINGS or from a singular Cayley build, carries the earlier times'
    results.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    grid = operator.grid
    _require_1d(grid)
    if psi0.shape != tuple(grid.counts):
        raise GridMismatch("initial field does not live on the operator's grid")
    times = _check_times(np.atleast_1d(t))
    if not dt > 0:
        raise DimensionMismatch("need dt > 0")
    if math.isnan(grid_tol):
        raise DimensionMismatch("grid_tol must be a number, not NaN")

    def advance(psi: np.ndarray, step: float, substeps: int, maps: int) -> np.ndarray:
        # `maps` steps of the map E = C(step)^substeps: ⌊maps/2⌋ products
        # with E² and one with E when maps is odd
        try:
            one, two = _cayley_matrix(operator, step, substeps)
        except ConvergenceFailure as exc:
            exc.results = GridMarch(results)
            raise
        for _ in range(maps // 2):
            psi = zgemv(1.0, two, psi)
        if maps % 2:
            psi = zgemv(1.0, one, psi)
        return psi

    results = []
    coarse = fine = psi0
    start = 0.0
    for t_k in times.tolist():
        if t_k == 0:
            results.append(GridPropagation(psi0.copy(), 0.0, dt, 0))
            continue
        span = t_k - start
        steps = max(1, math.ceil(span / dt - 1e-12))
        coarse = advance(coarse, span / steps, 1, steps)
        fine = advance(fine, span / (2 * steps), 2, steps)
        start = t_k
        result = GridPropagation(fine, grid_norm(coarse - fine, grid) / 3.0, span / (2 * steps), 0)
        restart_steps = max(1, math.ceil(t_k / dt - 1e-12))
        while result.richardson_error / t_k > grid_tol:
            if result.halvings == MAX_HALVINGS:
                raise ConvergenceFailure(
                    f"Richardson estimate {result.richardson_error:.3e} at t = {t_k:.6g} still "
                    f"above {grid_tol:.3e}/unit time after {MAX_HALVINGS} halvings",
                    estimate=result.richardson_error,
                    results=GridMarch(results),
                )
            halvings = result.halvings + 1
            maps = 2**halvings * restart_steps
            step = t_k / (2 * maps)
            refined = advance(psi0, step, 2, maps)
            estimate = grid_norm(result.field - refined, grid) / 3.0
            result = GridPropagation(refined, estimate, step, halvings)
        results.append(result)
    return results[0] if np.ndim(t) == 0 else GridMarch(results)


def outside_window(field: np.ndarray, grid: Grid, eps: float) -> tuple[float, float]:
    """Relative L² norms of field where |x| > DAMP_ONSET_X and of its DFT where |p| > DAMP_ONSET_P.

    The damping acts only there, so content there is not resolved: growth
    there that the coarse and fine runs share escapes the Richardson estimate.
    """
    _require_1d(grid)

    def share(values: np.ndarray, outside: np.ndarray) -> float:
        return float(np.linalg.norm(values[outside]) / np.linalg.norm(values))

    spectrum = np.fft.fft(field)
    return (
        share(field, np.abs(grid.axes()[0]) > DAMP_ONSET_X),
        share(spectrum, np.abs(_momenta(grid, eps)) > DAMP_ONSET_P),
    )

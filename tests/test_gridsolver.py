"""Brute-force grid verifier: Weyl discretization, Crank-Nicolson stepping."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.blas import zgemv

from hagedorn import gridsolver
from hagedorn.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    GridMismatch,
    NonSymmetricH,
    UnsupportedDimension,
)
from hagedorn.gridsolver import (
    GridMarch,
    GridPropagation,
    _damping_matrix,
    discretize_hamiltonian,
    propagate_grid,
)
from hagedorn.oracles import number_operator_check
from hagedorn.propagation import QuadraticHamiltonian, propagate
from hagedorn.swanson import L0, SwansonParams
from hagedorn.symplectic import (
    LagrangianFrame,
    NormalisedFrame,
    SymplecticMetricPair,
    omega,
    siegel_matrix,
)
from hagedorn.wavepackets import Grid, WavepacketParams, eval_excited, eval_ground, grid_inner

GRID = Grid(bounds=[(-12.0, 12.0)], counts=[1024])
GRID_SMALL = Grid(bounds=[(-12.0, 12.0)], counts=[512])
L0_FRAME = NormalisedFrame(LagrangianFrame(L0.reshape(2, 1)))
DS = SwansonParams(omega0=1.0, delta=0.5)


def packet(alpha, grid):
    params = WavepacketParams(frame=L0_FRAME, center=np.zeros(2), eps=1.0)
    if sum(alpha) == 0:
        return eval_ground(params, grid)
    return eval_excited(params, alpha, grid)


def norm(f, grid):
    return math.sqrt(grid_inner(f, f, grid).real)


# -- discretization ------------------------------------------------------------


def test_harmonic_spectrum():
    op = discretize_hamiltonian(np.eye(2), 1.0, GRID)
    assert np.max(np.abs(op.matrix - op.matrix.conj().T)) < 1e-10
    lowest = np.linalg.eigvalsh(op.matrix)[:6]
    assert np.max(np.abs(lowest - (np.arange(6) + 0.5))) < 1e-8


def test_matrix_assembly_against_spectral_oracle():
    # rebuild p̂ and q̂ from scratch and reassemble the three quadratic blocks
    (count,) = GRID_SMALL.counts
    dx = GRID_SMALL.spacings()[0]
    k = 2 * np.pi * np.fft.fftfreq(count, d=dx)
    P = np.fft.ifft(np.fft.fft(np.eye(count), axis=0) * k[:, None], axis=0)
    X = np.diag(GRID_SMALL.axes()[0].astype(complex))
    decoupled = discretize_hamiltonian(np.diag([0.7, 1.3]), 1.0, GRID_SMALL)
    assert np.max(np.abs(decoupled.matrix - (0.35 * P @ P + 0.65 * X @ X))) < 1e-10
    cross = discretize_hamiltonian(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0, GRID_SMALL)
    assert np.max(np.abs(cross.matrix - 0.5 * (P @ X + X @ P))) < 1e-10


def test_oscillator_action_matches_analytic_form():
    # Ĥφ₀ = (ω0/2 − δ/2 + δx²)φ₀ for the standard-frame ground state, so the
    # dense non-normal matrix is checked against a hand-derived closed form
    op = discretize_hamiltonian(DS.matrix(), 1.0, GRID)
    phi0 = packet([0], GRID)
    x = GRID.axes()[0]
    analytic = (0.5 * DS.omega0 - 0.5 * DS.delta + DS.delta * x**2) * phi0
    assert norm(op.matrix @ phi0 - analytic, GRID) / norm(phi0, GRID) < 1e-6


def test_discretize_validates_input():
    with pytest.raises(UnsupportedDimension):
        discretize_hamiltonian(np.eye(4), 1.0, GRID)
    with pytest.raises(NonSymmetricH):
        discretize_hamiltonian(np.array([[1.0, 0.2], [0.3, 1.0]]), 1.0, GRID)
    with pytest.raises(UnsupportedDimension):
        discretize_hamiltonian(
            np.eye(2), 1.0, Grid(bounds=[(-6, 6), (-6, 6)], counts=[16, 16])
        )
    with pytest.raises(DimensionMismatch):
        discretize_hamiltonian(np.eye(2), 0.0, GRID)


# -- propagation ----------------------------------------------------------------


def test_propagate_time_zero_returns_copy():
    op = discretize_hamiltonian(np.eye(2), 1.0, GRID_SMALL)
    psi0 = packet([0], GRID_SMALL)
    res = propagate_grid(psi0, op, 0.0)
    assert np.array_equal(res.field, psi0)
    assert res.richardson_error == 0.0
    res.field[0] = 123.0
    assert psi0[0] != 123.0


def test_propagate_validates_input():
    op = discretize_hamiltonian(np.eye(2), 1.0, GRID_SMALL)
    with pytest.raises(GridMismatch):
        propagate_grid(packet([0], GRID), op, 0.1)
    with pytest.raises(DimensionMismatch):
        propagate_grid(packet([0], GRID_SMALL), op, -0.1)
    with pytest.raises(DimensionMismatch):
        propagate_grid(packet([0], GRID_SMALL), op, 0.1, dt=0.0)


def test_hermitian_norm_conserved_over_period():
    op = discretize_hamiltonian(np.eye(2), 1.0, GRID_SMALL)
    psi0 = packet([0], GRID_SMALL)
    res = propagate_grid(psi0, op, 2 * math.pi, dt=1e-3, grid_tol=1e-5)
    assert abs(norm(res.field, GRID_SMALL) - norm(psi0, GRID_SMALL)) < 1e-9


def test_oscillator_first_excited_norm_growth():
    # ‖U(t)φ₁‖ = e^β n_t = n_t^{3/2}, and n_t = 0.6^{−1/2} at the quarter period
    t_star = math.pi / (2 * DS.omega)
    op = discretize_hamiltonian(DS.matrix(), 1.0, GRID)
    res = propagate_grid(packet([1], GRID), op, t_star, dt=1e-3, grid_tol=1e-5)
    assert abs(norm(res.field, GRID) - 0.6**-0.75) < 1e-6


def test_step_doubling_is_second_order():
    op = discretize_hamiltonian(DS.matrix(), 1.0, GRID_SMALL)
    psi0 = packet([0], GRID_SMALL)
    coarse = propagate_grid(psi0, op, 0.25, dt=2e-3, grid_tol=np.inf)
    fine = propagate_grid(psi0, op, 0.25, dt=1e-3, grid_tol=np.inf)
    assert coarse.richardson_error / fine.richardson_error > 3.5


def test_convergence_failure_carries_estimate(monkeypatch):
    monkeypatch.setattr(gridsolver, "MAX_HALVINGS", 0)
    op = discretize_hamiltonian(np.eye(2), 1.0, GRID_SMALL)
    with pytest.raises(ConvergenceFailure) as info:
        propagate_grid(packet([0], GRID_SMALL), op, 0.05, grid_tol=1e-16)
    assert info.value.estimate is not None and info.value.estimate > 0


def test_damping_leaves_resolved_window_alone():
    op = discretize_hamiltonian(np.eye(2), 1.0, GRID_SMALL)
    psi0 = packet([0], GRID_SMALL)
    damped = propagate_grid(psi0, op, 0.1, grid_tol=1e-5)
    plain = lu_stepping(op, psi0, 0.1, round(0.1 / damped.dt_used), damped=False)
    assert np.max(np.abs(damped.field - plain)) < 1e-12


def lu_stepping(op, psi0, t, steps, damped=True):
    """Crank–Nicolson as two triangular solves per step, independent of the
    cached Cayley matrices: one LU of Id + iτ/2ε F, then lu_solve per step.
    F is Ĥ plus the damping, or Ĥ alone when not damped."""
    stepping = op.matrix - 1j * _damping_matrix(op.grid, op.eps) if damped else op.matrix
    ident = np.eye(op.grid.counts[0])
    factor = 1j * (t / steps) / (2 * op.eps)
    lu = lu_factor(ident + factor * stepping)
    explicit = ident - factor * stepping
    psi = psi0
    for _ in range(steps):
        psi = lu_solve(lu, explicit @ psi)
    return psi


def test_cayley_step_matches_lu_solve_reference():
    op = discretize_hamiltonian(DS.matrix(), 1.0, GRID_SMALL)
    psi0 = packet([1], GRID_SMALL)
    t, steps = 0.25, 500  # the fine run of dt = 1e-3
    psi = lu_stepping(op, psi0, t, steps)
    res = propagate_grid(psi0, op, t, dt=1e-3, grid_tol=np.inf)
    assert np.max(np.abs(res.field - psi)) / np.max(np.abs(psi)) < 1e-12


def test_odd_coarse_run_matches_lu_solve_reference():
    # 251 coarse steps: 125 products with C² and one with C; the returned
    # field is the even fine run, so only the estimate sees the odd step
    op = discretize_hamiltonian(DS.matrix(), 1.0, GRID_SMALL)
    psi0 = packet([1], GRID_SMALL)
    psi0 = psi0 / norm(psi0, GRID_SMALL)
    t = 0.251
    coarse, fine = lu_stepping(op, psi0, t, 251), lu_stepping(op, psi0, t, 502)
    res = propagate_grid(psi0, op, t, dt=1e-3, grid_tol=np.inf)
    assert abs(res.richardson_error - norm(coarse - fine, GRID_SMALL) / 3) <= 1e-12


def test_march_memory_holds_four_matrices():
    # the build keeps at most two N² matrices of its own alive, so with C and
    # C² cached for the coarse and the fine step the peak stays near 4 N²
    op = discretize_hamiltonian(DS.matrix(), 1.0, GRID_SMALL)
    psi0 = packet([1], GRID_SMALL)
    matrix_bytes = op.matrix.nbytes
    tracemalloc.start()
    try:
        propagate_grid(psi0, op, (0.25, 0.5), dt=1e-3, grid_tol=np.inf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * matrix_bytes
    cached = [matrix for pair in op._cayley.values() for matrix in pair]
    assert len(op._cayley) == 2 and len(cached) == 4
    assert all(matrix.shape == op.matrix.shape and matrix.flags.owndata for matrix in cached)
    # zgemv reads a Fortran-ordered matrix without copying it
    assert all(matrix.flags.f_contiguous for matrix in cached)


def test_march_product_counts(monkeypatch):
    # a run of m steps applies C² ⌊m/2⌋ times and C once when m is odd:
    # 251 coarse steps are 125 products with C² and one with C, 502 fine
    # steps 251 products with C²
    products = []

    def counting_zgemv(alpha, matrix, x, *args, **kwargs):
        products.append(matrix)
        return zgemv(alpha, matrix, x, *args, **kwargs)

    monkeypatch.setattr(gridsolver, "zgemv", counting_zgemv)
    op = discretize_hamiltonian(DS.matrix(), 1.0, GRID_SMALL)
    t, steps = 0.251, 251
    propagate_grid(packet([1], GRID_SMALL), op, t, dt=1e-3, grid_tol=np.inf)
    coarse, fine = op._cayley[t / steps], op._cayley[t / (2 * steps)]

    def count(matrix):
        return sum(product is matrix for product in products)

    assert [count(matrix) for matrix in (*coarse, *fine)] == [1, 125, 0, 251]
    assert len(products) == 377


def test_singular_cayley_factor_raises_and_caches_nothing(monkeypatch):
    def singular_zgetri(lu, pivots, **kwargs):
        return lu, 1

    monkeypatch.setattr(gridsolver, "zgetri", singular_zgetri)
    op = discretize_hamiltonian(DS.matrix(), 1.0, GRID_SMALL)
    psi0 = packet([0], GRID_SMALL)
    with pytest.raises(ConvergenceFailure, match="singular") as info:
        propagate_grid(psi0, op, (0.0, 0.25), dt=1e-3)
    assert op._cayley == {}
    # the earlier time's result travels with the error, as for a failed estimate
    (first,) = info.value.results
    assert np.array_equal(first.field, psi0)


def test_one_factorisation_per_step_size(monkeypatch):
    calls = []

    def counting_lu_factor(*args, **kwargs):
        calls.append(1)
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(gridsolver, "lu_factor", counting_lu_factor)
    op = discretize_hamiltonian(DS.matrix(), 1.0, GRID_SMALL)
    for alpha in ([0], [1], [2]):
        for t in (0.25, 0.5, (0.25, 0.5)):
            propagate_grid(packet(alpha, GRID_SMALL), op, t, dt=1e-3, grid_tol=np.inf)
    # step sizes 1e-3 (coarse runs) and 5e-4 (fine runs) for every case,
    # the march's second increment included
    assert len(calls) == 2
    fresh = discretize_hamiltonian(DS.matrix(), 1.0, GRID_SMALL)
    propagate_grid(packet([0], GRID_SMALL), fresh, 0.25, dt=1e-3, grid_tol=np.inf)
    assert len(calls) == 4


@pytest.mark.parametrize("halvings", [0, 1])
def test_march_equals_single_time_calls(halvings):
    # the second increment runs the same step size as a restart over [0, 0.5],
    # so the marched fields and estimates are the restarts' bit for bit; a
    # time whose estimate fails is refined as the restart refines it
    op = discretize_hamiltonian(DS.matrix(), 1.0, GRID_SMALL)
    psi0 = packet([1], GRID_SMALL)
    times = (0.25, 0.5)
    grid_tol = 1e-5
    if halvings:
        free = propagate_grid(psi0, op, times, dt=1e-3, grid_tol=np.inf)
        per_unit = [r.richardson_error / t for r, t in zip(free, times)]
        # both fail; one halving, about a quarter of each estimate, passes
        assert per_unit[0] < per_unit[1] < 2 * per_unit[0]
        grid_tol = per_unit[0] / 2
    march = propagate_grid(psi0, op, times, dt=1e-3, grid_tol=grid_tol)
    assert isinstance(march, GridMarch) and len(march) == 2
    for t, marched in zip(times, march):
        single = propagate_grid(psi0, op, t, dt=1e-3, grid_tol=grid_tol)
        assert isinstance(single, GridPropagation)
        assert np.array_equal(marched.field, single.field)
        assert marched.richardson_error == single.richardson_error
        assert (marched.dt_used, marched.halvings) == (single.dt_used, halvings)
    assert march.halvings == 2 * halvings


def test_march_validates_times():
    op = discretize_hamiltonian(np.eye(2), 1.0, GRID_SMALL)
    for times in ((0.5, 0.25), (0.25, 0.25), (-0.1, 0.25), (), [[0.25]]):
        with pytest.raises(DimensionMismatch):
            propagate_grid(packet([0], GRID_SMALL), op, times)


def test_convergence_failure_carries_earlier_times(monkeypatch):
    monkeypatch.setattr(gridsolver, "MAX_HALVINGS", 0)
    op = discretize_hamiltonian(DS.matrix(), 1.0, GRID_SMALL)
    psi0 = packet([0], GRID_SMALL)
    times = (0.25, 0.5)
    free = propagate_grid(psi0, op, times, dt=1e-3, grid_tol=np.inf)
    per_unit = [r.richardson_error / t for r, t in zip(free, times)]
    assert per_unit[0] < per_unit[1]
    with pytest.raises(ConvergenceFailure) as info:
        propagate_grid(psi0, op, times, dt=1e-3, grid_tol=math.sqrt(per_unit[0] * per_unit[1]))
    assert info.value.estimate == free[1].richardson_error
    (first,) = info.value.results
    assert np.array_equal(first.field, free[0].field)
    assert first.richardson_error == free[0].richardson_error


@pytest.mark.parametrize(
    "make",
    [
        lambda: LagrangianFrame(L0.reshape(2, 1)),
        lambda: NormalisedFrame(L0.reshape(2, 1)),
        lambda: SymplecticMetricPair(np.eye(2), -omega(1)),
        lambda: siegel_matrix(L0_FRAME),
        lambda: WavepacketParams(frame=L0_FRAME, center=np.zeros(2), eps=1.0),
        lambda: QuadraticHamiltonian.constant(DS.matrix()),
        lambda: propagate(
            L0_FRAME, np.zeros(2), QuadraticHamiltonian.constant(np.eye(2)), [1.0]
        )[0],
        lambda: discretize_hamiltonian(np.eye(2), 1.0, Grid(bounds=[(-6.0, 6.0)], counts=[16])),
        lambda: GridPropagation(np.zeros(16, dtype=complex), 0.0, 1e-3, 0),
    ],
    ids=[
        "LagrangianFrame",
        "NormalisedFrame",
        "SymplecticMetricPair",
        "SiegelMatrix",
        "WavepacketParams",
        "QuadraticHamiltonian",
        "PropagatedState",
        "DiscretizedOperator",
        "GridPropagation",
    ],
)
def test_array_holding_values_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


def test_outside_window_of_gaussians():
    # |e^{−x²/2s²}|² puts erfc(a/s) of its mass at |x| > a, and its transform
    # is a Gaussian of width ε/s in p = εk; the grid sum cuts off within dx
    x = GRID_SMALL.axes()[0]
    tail = math.sqrt(math.erfc(gridsolver.DAMP_ONSET_X / 2.0))
    wide_x, narrow_p = gridsolver.outside_window(np.exp(-(x**2) / 8), GRID_SMALL, 1.0)
    narrow_x, wide_p = gridsolver.outside_window(np.exp(-8 * x**2), GRID_SMALL, 0.5)
    assert wide_x == pytest.approx(tail, rel=5e-2) and narrow_p < 1e-8
    assert wide_p == pytest.approx(tail, rel=5e-2) and narrow_x < 1e-8


# -- overlaps and the number operator ---------------------------------------------


def test_overlap_orthonormality():
    phi0, phi1 = packet([0], GRID), packet([1], GRID)
    assert abs(grid_inner(phi0, phi0, GRID) - 1.0) < 1e-8
    assert abs(grid_inner(phi0, phi1, GRID)) < 1e-8
    # conjugate-linear in the first slot, linear in the second
    assert abs(grid_inner(2j * phi0, phi1, GRID) + 2j * grid_inner(phi0, phi1, GRID)) < 1e-12
    assert abs(grid_inner(phi0, 2j * phi1, GRID) - 2j * grid_inner(phi0, phi1, GRID)) < 1e-12
    with pytest.raises(GridMismatch):
        grid_inner(phi0, packet([0], GRID_SMALL), GRID)


def test_number_operator_standard_metric():
    assert number_operator_check(np.eye(2), 1.0, GRID, [0]) < 1e-8
    assert number_operator_check(np.eye(2), 1.0, GRID, [3]) < 1e-8


def test_number_operator_squeezed_metric():
    grid = Grid(bounds=[(-16.0, 16.0)], counts=[1024])
    assert number_operator_check(np.diag([4.0, 0.25]), 1.0, grid, [1]) < 1e-6

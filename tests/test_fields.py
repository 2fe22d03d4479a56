"""Grid fields against a mesh reference: the full node array, the three-operand
quadratic form and a term-by-term polynomial sum; and evolved_state_on_grid's
one-slot reuse of a state's ground field and polynomial argument against the
builder called afresh."""

import dataclasses
import gc
import math
import weakref
from itertools import combinations

import numpy as np
import pytest

from hagedorn import propagation
from hagedorn.errors import DimensionMismatch, NonDecayingGaussian
from hagedorn.polynomials import poly_recursion
from hagedorn.propagation import QuadraticHamiltonian, evolved_state_on_grid, propagate
from hagedorn.symplectic import NormalisedFrame, siegel_b
from hagedorn.wavepackets import (
    Grid,
    WavepacketParams,
    _excite,
    _ground_and_argument,
    eval_excited,
    eval_ground,
)

GRIDS = {
    1: [Grid(bounds=[(-10.0, 10.0)], counts=[1024])],
    2: [
        Grid(bounds=[(-8.0, 8.0), (-7.0, 9.0)], counts=[64, 64]),
        Grid(bounds=[(-8.0, 8.0), (-7.0, 9.0)], counts=[256, 256]),
    ],
}
CASES = [(n, g) for n in GRIDS for g in range(len(GRIDS[n]))]
TOL = 1e-12


def alphas(n, top=8):
    """Every α with n components and |α| ≤ top."""
    for order in range(top + 1):
        for bars in combinations(range(order + n - 1), n - 1):
            edges = (-1,) + bars + (order + n - 1,)
            yield tuple(edges[i + 1] - edges[i] - 1 for i in range(n))


def seeded_state(n, seed, t=0.9, eps=1.0):
    """A displaced packet propagated under a seeded mode-mixed, non-Hermitian H."""
    rng = np.random.default_rng(seed)
    X, Y = rng.normal(size=(2 * n, 2 * n)), rng.normal(size=(2 * n, 2 * n))
    H = X @ X.T / (2 * n) + 0.5 * np.eye(2 * n) + 0.05j * (Y + Y.T)
    frame = np.vstack([1j * np.eye(n), np.eye(n)])
    centre = rng.uniform(-1.0, 1.0, 2 * n)
    return propagate(frame, centre, QuadraticHamiltonian.constant(H), [0.0, t], eps)[-1]


class MeshReference:
    """φ₀ and y = √(2/ε) L(x − q) + σ on the node mesh, then p_α(y; M)/√α! · φ₀
    by summing monomials one at a time."""

    def __init__(self, params, L, grid, sigma=0.0):
        x = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
        dx = x - params.q
        B = siegel_b(params.frame.P, params.frame.Q)
        quad = np.einsum("...i,ij,...j->...", dx, B, dx)
        plane = np.tensordot(dx, params.p, axes=([-1], [0]))
        log_det_q = params.log_det_q
        if log_det_q is None:
            log_det_q = np.log(complex(np.linalg.det(params.frame.Q)))
        amp = (np.pi * params.eps) ** (-params.n / 4) * np.exp(-0.5 * log_det_q + params.phase)
        self.ground = amp * np.exp(0.5j / params.eps * quad + 1j / params.eps * plane)
        self.y = math.sqrt(2.0 / params.eps) * np.einsum("ij,...j->...i", L, dx) + sigma

    def field(self, M, alpha):
        total = np.zeros(self.ground.shape, dtype=complex)
        for key, c in poly_recursion(M, alpha).coeffs.items():
            term = np.full(self.ground.shape, c, dtype=complex)
            for j, power in enumerate(key):
                term = term * self.y[..., j] ** power
            total += term
        norm = math.sqrt(math.prod(math.factorial(a) for a in alpha))
        return total / norm * self.ground


def max_rel(field, reference):
    return np.max(np.abs(field - reference)) / np.max(np.abs(reference))


def excited_inputs(params):
    Qinv = np.linalg.inv(params.frame.Q)
    M = Qinv @ np.conj(params.frame.Q)
    return 0.5 * (M + M.T), Qinv


@pytest.mark.parametrize("n, g", CASES)
def test_eval_excited_matches_mesh_reference(n, g):
    state = seeded_state(n, 20 + n)
    grid = GRIDS[n][g]
    # a log det Q one turn off the principal branch flips the square root's sign
    params = WavepacketParams(
        frame=state.Z, center=state.z, eps=0.7, phase=0.3 + 0.2j,
        log_det_q=np.log(complex(np.linalg.det(state.Z.Q))) + 2j * np.pi,
    )
    M, Qinv = excited_inputs(params)
    ref = MeshReference(params, Qinv, grid)
    for alpha in alphas(n):
        assert max_rel(eval_excited(params, alpha, grid), ref.field(M, alpha)) < TOL, alpha
    principal = dataclasses.replace(params, log_det_q=None)
    assert max_rel(eval_ground(principal, grid), -ref.ground) < TOL


@pytest.mark.parametrize("n, g", CASES)
def test_evolved_state_matches_mesh_reference(n, g):
    state = seeded_state(n, 30 + n, eps=0.7)
    assert np.min(np.abs(state.sigma)) > 0.01
    grid = GRIDS[n][g]
    params = WavepacketParams(
        frame=state.Z, center=state.z, eps=0.7, phase=state.log_prefactor,
        log_det_q=state.logdetQ,
    )
    ref = MeshReference(params, state.N @ np.linalg.inv(state.Z.Q), grid, state.sigma)
    for alpha in alphas(n):
        field = evolved_state_on_grid(state, alpha, 0.7, grid)
        assert max_rel(field, ref.field(state.Mtilde, alpha)) < TOL, alpha


def test_evolved_state_keeps_the_tracked_branch():
    # the harmonic oscillator turns Q_t = e^{-it}: at t = 4 the tracked
    # log det Q is −4i, one turn below the principal value
    state = propagate(
        np.array([[1j], [1.0]]), np.array([0.3, -0.2]),
        QuadraticHamiltonian.constant(np.eye(2)), [0.0, 4.0],
    )[-1]
    principal = np.log(complex(np.linalg.det(state.Z.Q)))
    assert abs(state.logdetQ - principal - 2j * np.pi) < 1e-9
    grid = GRIDS[1][0]
    params = WavepacketParams(
        frame=state.Z, center=state.z, eps=1.0, phase=state.log_prefactor,
        log_det_q=state.logdetQ,
    )
    # a Hermitian H keeps the complex centre real, so σ = 0
    assert not state.sigma.any()
    ref = MeshReference(params, state.N @ np.linalg.inv(state.Z.Q), grid)
    for alpha in [(0,), (1,), (4,)]:
        field = evolved_state_on_grid(state, alpha, 1.0, grid)
        assert max_rel(field, ref.field(state.Mtilde, alpha)) < TOL


def test_evolved_state_rejects_an_eps_other_than_its_own():
    # σ and the phase are built from the state's ε; another one would mix two
    state = seeded_state(1, 23, eps=0.7)
    with pytest.raises(DimensionMismatch, match="eps"):
        evolved_state_on_grid(state, (1,), 1.0, GRIDS[1][0])


def test_fields_reject_a_non_decaying_gaussian():
    # (P; Q) = (−i; 1) gives Im PQ⁻¹ = −1; checked() skips the normalisation
    # check that would reject it at construction
    frame = NormalisedFrame.checked(np.array([[-1j], [1.0]]))
    params = WavepacketParams(frame=frame, center=np.zeros(2), eps=1.0)
    grid = GRIDS[1][0]
    with pytest.raises(NonDecayingGaussian):
        eval_ground(params, grid)
    with pytest.raises(NonDecayingGaussian):
        eval_excited(params, (2,), grid)
    state = dataclasses.replace(seeded_state(1, 21), Z=frame)
    with pytest.raises(NonDecayingGaussian):
        evolved_state_on_grid(state, (2,), 1.0, grid)


def test_fields_reject_a_grid_of_the_wrong_dimension():
    state = seeded_state(2, 22)
    params = WavepacketParams(frame=state.Z, center=state.z, eps=1.0)
    grid = GRIDS[1][0]
    with pytest.raises(DimensionMismatch, match="grid dimension"):
        eval_ground(params, grid)
    with pytest.raises(DimensionMismatch, match="grid dimension"):
        eval_excited(params, (1, 1), grid)
    with pytest.raises(DimensionMismatch, match="grid dimension"):
        evolved_state_on_grid(state, (1, 1), 1.0, grid)


# -- reuse of the ground field and argument ----------------------------------------

REUSE_GRIDS = {
    1: [GRIDS[1][0], Grid(bounds=[(-9.0, 11.0)], counts=[300])],
    2: GRIDS[2],
}


def uncached(state, alpha, grid):
    """evolved_state_on_grid from a fresh call of the builder, no slot involved."""
    params = WavepacketParams(
        frame=state.Z, center=state.z, eps=state.eps, phase=state.log_prefactor,
        log_det_q=state.logdetQ,
    )
    L = state.N @ np.linalg.inv(state.Z.Q)
    ground, y = _ground_and_argument(params, grid, L, state.sigma)
    if not any(alpha):
        return ground
    return _excite(ground, y, poly_recursion(state.Mtilde, alpha), alpha)


def displaced_trajectory(n, seed, eps=0.7):
    """A displaced packet under a seeded non-Hermitian H at three times, σ ≠ 0."""
    rng = np.random.default_rng(seed)
    X, Y = rng.normal(size=(2 * n, 2 * n)), rng.normal(size=(2 * n, 2 * n))
    H = X @ X.T / (2 * n) + 0.5 * np.eye(2 * n) + 0.05j * (Y + Y.T)
    frame = np.vstack([1j * np.eye(n), np.eye(n)])
    centre = rng.uniform(-1.0, 1.0, 2 * n)
    times = [0.4, 0.9, 1.3]
    return propagate(frame, centre, QuadraticHamiltonian.constant(H), times, eps)


@pytest.mark.parametrize("n", [1, 2])
def test_reused_fields_equal_the_builder_bit_for_bit(n):
    states = displaced_trajectory(n, 40 + n)
    for state in states:
        assert np.min(np.abs(state.sigma)) > 1e-3
        for grid in REUSE_GRIDS[n]:
            for alpha in alphas(n, 4):
                field = evolved_state_on_grid(state, alpha, 0.7, grid)
                assert np.array_equal(field, uncached(state, alpha, grid)), (state.t, alpha)


@pytest.mark.parametrize("n", [1, 2])
def test_fields_do_not_depend_on_call_order(n):
    states = displaced_trajectory(n, 50 + n)
    twin = displaced_trajectory(n, 50 + n)  # equal values, other objects
    grids = REUSE_GRIDS[n]
    equal_grid = Grid(bounds=grids[0].bounds, counts=grids[0].counts)
    top = list(alphas(n, 3))
    expected = {
        (i, g, alpha): uncached(states[i], alpha, grids[g])
        for i in range(len(states)) for g in range(len(grids)) for alpha in top
    }
    # hits (same pair twice in a row) alternate with misses (state, grid or
    # the twin state changes); an equal grid object counts as the same grid
    calls = []
    for k, alpha in enumerate(top):
        i, g = k % len(states), (k // 2) % len(grids)
        calls += [(states, i, g, alpha), (states, i, g, top[-1 - k]),
                  (twin, i, g, alpha), (states, (i + 1) % len(states), g, alpha)]
    calls += [(states, 0, 0, alpha) for alpha in top]
    calls += [(states, 0, "equal", alpha) for alpha in top]
    for source, i, g, alpha in calls:
        grid = equal_grid if g == "equal" else grids[g]
        field = evolved_state_on_grid(source[i], alpha, 0.7, grid)
        assert np.array_equal(field, expected[i, 0 if g == "equal" else g, alpha]), (i, g, alpha)


def test_a_returned_field_can_be_changed_freely():
    state = displaced_trajectory(2, 61)[1]
    grid = REUSE_GRIDS[2][0]
    for alpha in [(0, 0), (2, 1)]:
        field = evolved_state_on_grid(state, alpha, 0.7, grid)
        assert field.flags.writeable
        field *= 3.0
        field[0, 0] = 1e6
        again = evolved_state_on_grid(state, alpha, 0.7, grid)
        assert again is not field
        assert np.array_equal(again, uncached(state, alpha, grid))


def test_a_state_built_by_hand_is_not_kept():
    # a writable centre could change between calls, so such a state never
    # enters the slot
    state = displaced_trajectory(1, 62)[0]
    grid = REUSE_GRIDS[1][1]
    own = dataclasses.replace(state, z=state.z.copy())
    before = evolved_state_on_grid(own, (2,), 0.7, grid)
    own.z[1] += 0.5
    after = evolved_state_on_grid(own, (2,), 0.7, grid)
    assert not np.array_equal(before, after)
    assert np.array_equal(after, uncached(own, (2,), grid))


def test_a_run_of_alpha_builds_the_ground_field_once(monkeypatch):
    builds = []

    def counted(*args, **kwargs):
        builds.append(args[1])
        return _ground_and_argument(*args, **kwargs)

    monkeypatch.setattr(propagation, "_ground_and_argument", counted)
    state = displaced_trajectory(2, 63)[2]
    grid = GRIDS[2][0]
    run = list(alphas(2, 8))
    assert len(run) == 45
    for alpha in run:
        evolved_state_on_grid(state, alpha, 0.7, grid)
    assert builds == [grid]
    for alpha in run:
        evolved_state_on_grid(state, alpha, 0.7, GRIDS[2][1])
    assert builds == [grid, GRIDS[2][1]]


def test_the_slot_does_not_keep_a_trajectory_alive():
    states = displaced_trajectory(1, 64)
    view = states[1]
    field = evolved_state_on_grid(view, (3,), 0.7, REUSE_GRIDS[1][0])
    assert np.array_equal(field, uncached(view, (3,), REUSE_GRIDS[1][0]))
    dropped_states, dropped_view = weakref.ref(states), weakref.ref(view)
    del states, view
    gc.collect()
    assert dropped_states() is None
    assert dropped_view() is None

"""The stacked trajectory: parity with a per-state reference, and its stacked checks."""

import math

import numpy as np
import pytest

from hagedorn.cli import standard_frame
from hagedorn.errors import (
    DimensionMismatch,
    NotHermitian,
    NotPositiveDefinite,
    NotPositiveLagrangian,
    NotSymplecticMetric,
    SingularQ,
)
from hagedorn.propagation import (
    PropagatedState,
    QuadraticHamiltonian,
    Trajectory,
    propagate,
    symplectic_defect,
)
from hagedorn.symplectic import (
    LagrangianFrame,
    NormalisedFrame,
    SymplecticMetricPair,
    check_lagrangian,
    check_metric_pair,
    check_normalised,
    check_positive_gram,
    gram_matrix,
    hermitian_inv_sqrt,
    metric_and_structure,
    normalise_frame,
    omega,
    siegel_b,
    siegel_matrix,
)

RTOL = 1e-13


def seeded_matrix(seed, n):
    """R + iI with R = XXᵀ/2n + ½Id and I = 0.05(Y + Yᵀ) for Gaussian X, Y."""
    rng = np.random.default_rng(seed)
    X, Y = rng.normal(size=(2 * n, 2 * n)), rng.normal(size=(2 * n, 2 * n))
    return X @ X.T / (2 * n) + 0.5 * np.eye(2 * n) + 0.05j * (Y + Y.T)


def hamiltonian(kind, n):
    if kind == "constant":
        return QuadraticHamiltonian.constant(seeded_matrix(10 + n, n))
    if kind == "polynomial":
        return QuadraticHamiltonian.polynomial([seeded_matrix(20 + n, n), 0.2 * seeded_matrix(30 + n, n)])
    knots = np.linspace(0.0, 2.0, 5)
    return QuadraticHamiltonian.sampled(knots, [seeded_matrix(40 + k, n) for k in range(5)])


def reference_state(S, Z0, z0):
    """Every field at one time from the flow S, through the per-state public API."""
    n = Z0.shape[1]
    W = S @ Z0
    frame, N = normalise_frame(W)
    pair = metric_and_structure(frame)
    W_bar_flow = S @ Z0.conj()
    M = 0.25 * (W_bar_flow.T @ pair.G @ W_bar_flow)
    M = 0.5 * (M + M.T)
    Q = frame.Q
    Mtilde = M + N @ np.linalg.solve(Q, Q.conj()) @ N.conj()
    B = siegel_matrix(frame).B
    w = S @ z0
    pi, xi = w[:n], w[n:]
    c = pi - B @ xi
    q = -np.linalg.solve(B.imag, c.imag)
    p = c.real + B.real @ q
    d = q - xi
    return {
        "Z": frame.entries,
        "N": N,
        "beta": 0.5 * np.linalg.slogdet(N)[1],
        "z": np.concatenate([p, q]),
        "action": 0.5 * (pi @ xi - z0[:n] @ z0[n:]) + 0.5 * (d @ B @ d) + pi @ d,
        "M": M,
        "Mtilde": 0.5 * (Mtilde + Mtilde.T),
        "G": pair.G,
        "J": pair.J,
        "min_positivity": np.linalg.eigvalsh(gram_matrix(W))[0],
        "log_abs_det_q": math.log(abs(np.linalg.det(Q))),
        "arg_det_q": np.angle(np.linalg.det(Q)),
    }


def relative(value, ref) -> float:
    scale = np.max(np.abs(ref))
    return float(np.max(np.abs(np.asarray(value) - ref)) / scale) if scale else float(np.max(np.abs(value)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["constant", "polynomial", "sampled"])
def test_stacked_assembly_matches_per_state_reference(kind, n):
    rng = np.random.default_rng(7 * n)
    Z0, z0 = standard_frame(n), rng.uniform(-1.0, 1.0, 2 * n)
    times = np.linspace(0.0, 2.0, 25)
    trajectory = propagate(Z0, z0, hamiltonian(kind, n), times)
    assert isinstance(trajectory, Trajectory) and len(trajectory) == len(times)
    for t, state in zip(times, trajectory):
        assert isinstance(state, PropagatedState) and state.t == t
        ref = reference_state(state.S, Z0.entries, z0)
        assert state.Z.n == n
        assert relative(state.Z.entries, ref["Z"]) <= RTOL
        for name in ("N", "beta", "z", "action", "M", "Mtilde", "G", "J", "min_positivity"):
            assert relative(getattr(state, name), ref[name]) <= RTOL, name
        assert abs(state.symplectic_defect - symplectic_defect(state.S)) <= RTOL
        # the tracked branch of log det Q: the principal one up to a multiple of 2πi
        assert abs(state.logdetQ.real - ref["log_abs_det_q"]) <= RTOL * max(1.0, abs(ref["log_abs_det_q"]))
        turns = (state.logdetQ.imag - ref["arg_det_q"]) / (2 * math.pi)
        assert abs(turns - round(turns)) <= 1e-12
        assert state.eps == 1.0
        assert state.log_prefactor == 1j * state.action + state.beta


def test_trajectory_views_are_read_only_slices():
    trajectory = propagate(standard_frame(2), np.zeros(4), hamiltonian("constant", 2), [0.0, 0.5, 1.0])
    state = trajectory[-1]
    assert trajectory[2] is state
    assert np.shares_memory(state.G, trajectory.G)
    with pytest.raises(ValueError):
        state.G[0, 0] = 0.0
    with pytest.raises(IndexError):
        trajectory[3]


# -- one test per stacked check: a corrupted member of a stack raises the same
# typed error as the per-state constructor does on it alone


def _standard(n):
    return standard_frame(n).entries


def _stack(good, bad):
    return np.stack([good, bad, good])


def _singular_q_frame():
    Z = _standard(2).copy()
    Z[2:] = np.diag([1.0, 1e-14])
    return Z


J_OFF = (-1.0 + 0.9e-10) * omega(1)  # within 1e-10 of −ΩG for G = Id, but J² + Id ≈ 1.8e-10

STACKED_CHECKS = [
    # (id, good member, corrupted member, stacked check, per-state constructor, error, message)
    ("isotropy", _standard(2), np.vstack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]),
     check_lagrangian, LagrangianFrame, DimensionMismatch, "isotropic"),
    ("full-rank", _standard(2), np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
     check_lagrangian, LagrangianFrame, DimensionMismatch, "rank"),
    ("normalisation", _standard(1), 2 * _standard(1),
     check_normalised, NormalisedFrame, DimensionMismatch, "normalised"),
    ("gram-positivity", _standard(1), _standard(1).conj(),
     lambda Z: check_positive_gram(gram_matrix(Z)), normalise_frame, NotPositiveLagrangian,
     "not positive definite"),
    ("hermitian", np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]),
     hermitian_inv_sqrt, hermitian_inv_sqrt, NotHermitian, "Hermitian"),
    ("inv-sqrt-positive", np.eye(2), np.diag([1.0, -1.0]),
     hermitian_inv_sqrt, hermitian_inv_sqrt, NotPositiveDefinite, "below floor"),
    ("G-symmetric", np.eye(2), np.array([[1.0, 0.1], [0.0, 1.0]]),
     lambda G: check_metric_pair(G, -omega(1) @ G),
     lambda G: SymplecticMetricPair(G, -omega(1) @ G), NotSymplecticMetric, "symmetric"),
    ("G-symplectic", np.eye(2), 2 * np.eye(2),
     lambda G: check_metric_pair(G, -omega(1) @ G),
     lambda G: SymplecticMetricPair(G, -omega(1) @ G), NotSymplecticMetric, "GᵀΩG"),
    ("G-positive", np.eye(2), -np.eye(2),
     lambda G: check_metric_pair(G, -omega(1) @ G),
     lambda G: SymplecticMetricPair(G, -omega(1) @ G), NotSymplecticMetric, "positive definite"),
    ("J-structure", -omega(1), -omega(1) + 1e-3,
     lambda J: check_metric_pair(np.broadcast_to(np.eye(2), J.shape), J),
     lambda J: SymplecticMetricPair(np.eye(2), J), NotSymplecticMetric, "J ≠ −ΩG"),
    ("J-squared", -omega(1), J_OFF,
     lambda J: check_metric_pair(np.broadcast_to(np.eye(2), J.shape), J),
     lambda J: SymplecticMetricPair(np.eye(2), J), NotSymplecticMetric, "J²"),
    ("cond-Q", _standard(2), _singular_q_frame(),
     lambda Z: siegel_b(Z[:, :2], Z[:, 2:]), siegel_matrix, SingularQ, "singular"),
]


@pytest.mark.parametrize(
    "good, bad, stacked, single, error, message",
    [case[1:] for case in STACKED_CHECKS],
    ids=[case[0] for case in STACKED_CHECKS],
)
def test_stacked_check_raises_like_the_constructor(good, bad, stacked, single, error, message):
    stacked(np.stack([good, good]))
    single(good)
    with pytest.raises(error, match=message):
        single(bad)
    with pytest.raises(error, match=message) as info:
        stacked(_stack(good, bad))
    assert "stack index 1" in str(info.value)

"""Frame propagation, Riccati metric flow, centers, coefficients, ladder maps."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import expm

from hagedorn import polynomials, propagation
from hagedorn.cli import standard_frame
from hagedorn.errors import (
    DimensionMismatch,
    NonSymmetricH,
    PositivityLost,
    StepSizeUnderflow,
)
from hagedorn.gridsolver import discretize_hamiltonian, propagate_grid
from hagedorn.oracles import center_dynamics, evolve_metric_riccati
from hagedorn.polynomials import poly_recursion
from hagedorn.propagation import (
    HagedornExpansion,
    QuadraticHamiltonian,
    evolved_state_on_grid,
    flow,
    hagedorn_coefficients,
    positivity_horizon,
    propagate,
)
from hagedorn.swanson import L0, SwansonParams, ds_flow, ds_norm, ds_scalars
from hagedorn.symplectic import LagrangianFrame, NormalisedFrame, frame_metric, omega
from hagedorn.wavepackets import Grid, WavepacketParams, eval_excited, grid_inner, grid_norm

DS = SwansonParams(omega0=1.0, delta=0.5)
DS_HAM = QuadraticHamiltonian.constant(DS.matrix())
L0_FRAME = NormalisedFrame(LagrangianFrame(L0.reshape(2, 1)))
PERIOD = 2 * math.pi / DS.omega
T_STAR = math.pi / (2 * DS.omega)
ORIGIN = np.zeros(2)
GRID_1D = Grid(bounds=[(-12.0, 12.0)], counts=[1024])


def harmonic(n=1):
    return QuadraticHamiltonian.constant(np.eye(2 * n))


def seeded_matrix(seed, n):
    """R + iI with R = XXᵀ/2n + ½Id and I = 0.05(Y + Yᵀ) for Gaussian X, Y."""
    rng = np.random.default_rng(seed)
    X, Y = rng.normal(size=(2 * n, 2 * n)), rng.normal(size=(2 * n, 2 * n))
    return X @ X.T / (2 * n) + 0.5 * np.eye(2 * n) + 0.05j * (Y + Y.T)


# -- Hamiltonian containers and flow maps -------------------------------------


def test_hamiltonian_kinds_evaluate():
    H = DS.matrix()
    assert np.array_equal(QuadraticHamiltonian.constant(H)(3.0), H)
    A, B = np.diag([1.0, 0.5]), np.array([[0.0, 0.2], [0.2, 0.0]])
    poly = QuadraticHamiltonian.polynomial([A, B])
    assert np.allclose(poly(0.7), A + 0.7 * B, atol=0)
    samp = QuadraticHamiltonian.sampled([0.0, 1.0], [A, B])
    assert np.allclose(samp(0.25), 0.75 * A + 0.25 * B, atol=1e-15)
    # clamped outside the sample window
    assert np.allclose(samp(2.0), B, atol=0)
    # a constant H is the polynomial with one coefficient: one piece of degree 0
    ((end, origin, C),) = QuadraticHamiltonian.constant(H).pieces
    assert (end, origin) == (math.inf, 0.0) and np.array_equal(C, H[None])
    assert QuadraticHamiltonian.constant(H).is_constant
    assert QuadraticHamiltonian.polynomial([H]).is_constant
    assert not poly.is_constant and not samp.is_constant


def test_hamiltonian_rejects_bad_input():
    with pytest.raises(NonSymmetricH):
        QuadraticHamiltonian.constant(np.array([[1.0, 0.3], [0.2, 1.0]]))
    # bad sample times are a shape fault, not an asymmetric matrix
    with pytest.raises(DimensionMismatch):
        QuadraticHamiltonian.sampled([0.0], [np.eye(2)])
    with pytest.raises(DimensionMismatch):
        QuadraticHamiltonian.sampled([0.0, 0.0], [np.eye(2), np.eye(2)])
    with pytest.raises(NonSymmetricH):
        QuadraticHamiltonian.constant(np.eye(3))
    # an empty or mixed-shape stack is a shape fault
    with pytest.raises(DimensionMismatch):
        QuadraticHamiltonian.polynomial([])
    with pytest.raises(DimensionMismatch):
        QuadraticHamiltonian.sampled([0.0, 1.0], [])
    with pytest.raises(DimensionMismatch):
        QuadraticHamiltonian.polynomial([np.eye(2), np.eye(4)])
    with pytest.raises(DimensionMismatch):
        QuadraticHamiltonian.sampled([0.0, 1.0], [np.eye(2), np.eye(4)])
    # every kind rejects non-finite entries
    for bad in (np.nan, np.inf):
        matrix = np.array([[1.0, bad], [bad, 1.0]])
        with pytest.raises(NonSymmetricH):
            QuadraticHamiltonian.constant(matrix)
        with pytest.raises(NonSymmetricH):
            QuadraticHamiltonian.polynomial([np.eye(2), matrix])
        with pytest.raises(NonSymmetricH):
            QuadraticHamiltonian.sampled([0.0, 1.0], [np.eye(2), matrix])


@pytest.mark.parametrize("kind", ["constant", "sampled", "polynomial"])
def test_hamiltonian_near_the_float_limit_is_stored_finite_or_rejected(kind):
    # no sum or difference of entries may overflow: a symmetric H with entries
    # at the largest float is stored as given, and a huge antisymmetric part
    # raises NonSymmetricH, both without a RuntimeWarning
    make = {
        "constant": QuadraticHamiltonian.constant,
        "sampled": lambda m: QuadraticHamiltonian.sampled([0.0, 1.0], [m, m]),
        "polynomial": lambda m: QuadraticHamiltonian.polynomial([np.eye(2), m]),
    }[kind]
    big = np.finfo(float).max
    real = big * np.array([[1.0, 1.0], [1.0, -1.0]])
    symmetric = real + 1j * big * np.array([[1.0, -1.0], [-1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stored = make(symmetric).pieces[-1][2][-1]
        assert np.array_equal(stored, symmetric)
        for antisymmetric in ([[0.0, big], [-big, 0.0]], [[1.0, 1e308], [-1e308, 1.0]]):
            for phase in (1.0, 1.0 + 1.0j):
                with pytest.raises(NonSymmetricH, match="not symmetric"):
                    make(phase * np.array(antisymmetric))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hamiltonian_is_the_polynomial_the_flow_integrates(monkeypatch, n):
    # Ω·H(t) is, bit for bit, the G₀ that a flow started at t hands to its
    # first Taylor series, before, at, between and past the knots; at a knot
    # a sampled H is its stored matrix
    first = []
    series = propagation._series

    def kept(G, h, t):
        first.append(G[0].copy())
        return series(G, h, t)

    monkeypatch.setattr(propagation, "_series", kept)
    knots = np.linspace(0.0, 3.0, 7)
    sampled = QuadraticHamiltonian.sampled(knots, [seeded_matrix(40 + k, n) for k in range(7)])
    polynomial = QuadraticHamiltonian.polynomial(
        [scale * seeded_matrix(50 + k, n) for k, scale in enumerate((1.0, 0.2, 0.05))])
    times = np.concatenate([knots, np.random.default_rng(n).uniform(-1.0, 4.0, 300)])
    for H in (sampled, polynomial):
        differ = 0
        for t in times:
            first.clear()
            flow(H, t, t + 1e-3)
            differ += not np.array_equal(first[0], omega(n) @ H(t))
        assert differ == 0
    stored = [C[0] for _, _, C in sampled.pieces[1:]]
    assert all(np.array_equal(sampled(t), matrix) for t, matrix in zip(knots, stored, strict=True))


@pytest.mark.parametrize("knots", [[0.0, np.nan], [-np.inf, 1.0], [0.0, np.inf]])
def test_sampled_rejects_non_finite_knots(knots):
    with pytest.raises(DimensionMismatch, match="finite"):
        QuadraticHamiltonian.sampled(knots, [DS.matrix(), DS.matrix()])


def test_flow_identity_at_equal_times():
    assert np.array_equal(flow(DS_HAM, 0.7, 0.7), np.eye(2))
    samp = QuadraticHamiltonian.sampled([0.0, 2.0], [DS.matrix(), DS.matrix()])
    assert np.array_equal(flow(samp, 0.5, 0.5), np.eye(2))
    with pytest.raises(DimensionMismatch):
        flow(DS_HAM, 1.0, 0.5)


@pytest.mark.parametrize("t0, t1", [(0.0, np.nan), (0.0, np.inf), (np.nan, 1.0), (-np.inf, 1.0)])
def test_flow_rejects_non_finite_times(t0, t1):
    with pytest.raises(DimensionMismatch, match="finite"):
        flow(DS_HAM, t0, t1)


def test_flow_matches_closed_form_both_routes():
    # the constant H and the same H sampled on two knots
    samp = QuadraticHamiltonian.sampled([0.0, 2.0], [DS.matrix(), DS.matrix()])
    for t in (0.3, 0.9, 1.3):
        S_exact = ds_flow(DS, t)
        assert np.max(np.abs(flow(DS_HAM, 0.0, t) - S_exact)) < 1e-12
        assert np.max(np.abs(flow(samp, 0.0, t) - S_exact)) < 1e-8


def test_flow_harmonic_is_real_rotation():
    t = 1.1
    S = flow(harmonic(), 0.0, t)
    R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    assert np.max(np.abs(S.imag)) < 1e-12
    assert np.max(np.abs(S.real - R)) < 1e-12


# -- propagation along the non-Hermitian oscillator ---------------------------


@pytest.fixture(scope="module")
def ds_trajectory():
    times = np.linspace(0.0, PERIOD, 50, endpoint=False)
    states = propagate(L0_FRAME, ORIGIN, DS_HAM, times)
    return times, states


def test_propagate_validates_input():
    with pytest.raises(DimensionMismatch):
        propagate(L0_FRAME, ORIGIN, DS_HAM, [0.5, 0.5])
    with pytest.raises(DimensionMismatch):
        propagate(L0_FRAME, ORIGIN, DS_HAM, [-0.5, 0.5])
    with pytest.raises(DimensionMismatch):
        propagate(L0_FRAME, [0.0, 0.0, 0.0], DS_HAM, [0.0])
    with pytest.raises(DimensionMismatch):
        propagate(L0_FRAME, ORIGIN, harmonic(2), [0.0])


@pytest.mark.parametrize("times", [[0.0, np.nan], [0.0, np.inf], [np.nan]])
def test_propagate_rejects_non_finite_times(times):
    with pytest.raises(DimensionMismatch, match="finite"):
        propagate(L0_FRAME, ORIGIN, DS_HAM, times)


@pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf])
def test_propagate_rejects_bad_eps(eps):
    with pytest.raises(DimensionMismatch, match="eps"):
        propagate(L0_FRAME, ORIGIN, DS_HAM, [0.0, 0.5], eps)


def test_propagate_tracked_invariants(ds_trajectory):
    times, states = ds_trajectory
    assert [s.t for s in states] == list(times)
    assert max(s.symplectic_defect for s in states) < 1e-9
    assert min(s.min_positivity for s in states) > 0.5


def test_propagate_matches_closed_form(ds_trajectory):
    # same start frame as the closed form, so gauges agree exactly
    times, states = ds_trajectory
    for t, s in zip(times, states):
        sc = ds_scalars(DS, t)
        assert np.max(np.abs(s.S - ds_flow(DS, t))) < 1e-8
        assert abs(s.N[0, 0] - sc.n) < 1e-8
        assert abs(s.beta - sc.beta) < 1e-8
        assert abs(s.M[0, 0] - sc.m) < 1e-8
        assert np.max(np.abs(s.Z.entries - sc.l.entries)) < 1e-8


def test_propagate_spot_values_at_quarter_period():
    state = propagate(L0_FRAME, ORIGIN, DS_HAM, np.array([T_STAR]))[-1]
    assert abs(math.exp(state.beta) - 0.6**-0.25) < 1e-9
    assert abs(state.N[0, 0] - 0.6**-0.5) < 1e-9
    assert abs(state.M[0, 0] - 4.0 / 3.0) < 1e-9


def test_propagate_hermitian_degeneration():
    # real H: unitary dynamics, no norm gain, no lower-state activation
    times = np.linspace(0.0, 2 * math.pi, 40)
    z0 = np.array([0.3, -0.2])
    states = propagate(L0_FRAME, z0, harmonic(), times)
    for t, s in zip(times, states):
        R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        assert abs(s.beta) < 1e-12
        assert np.max(np.abs(s.N - np.eye(1))) < 1e-9
        assert np.max(np.abs(s.M)) < 1e-9
        assert np.max(np.abs(s.z - R @ z0)) < 1e-8
        assert abs(s.action.imag) < 1e-10
    exp = hagedorn_coefficients(states[-1], [3])
    assert abs(exp.coefficients[(3,)] - 1.0) < 1e-9
    assert all(abs(c) < 1e-9 for k, c in exp.coefficients.items() if k != (3,))


def test_propagate_zero_center_stays_centered(ds_trajectory):
    _, states = ds_trajectory
    assert max(np.max(np.abs(s.z)) for s in states) == 0.0
    assert max(abs(s.action) for s in states) == 0.0


def test_propagate_raises_positivity_lost_with_partial_states():
    params = SwansonParams(omega0=0.5, delta=1.0)
    ham = QuadraticHamiltonian.constant(params.matrix())
    t_exact = math.acos(-0.25) / (2 * params.omega)
    with pytest.raises(PositivityLost) as info:
        propagate(L0_FRAME, ORIGIN, ham, np.linspace(0.0, 2.0, 41))
    assert abs(info.value.t_star - t_exact) < 1e-6
    states = info.value.states
    assert 0 < len(states) < 41
    assert states[-1].t < t_exact


# H = diag(1, −1) + 0.5i·Id, [[1, 0.5i], [0.5i, −1]] and (1 + i)·Id lose
# positivity at t = 0.8608, 0.7603 and 13.82; their flows overflow long after
PAST_THE_HORIZON = [
    (np.diag([1.0, -1.0]) + 0.5j * np.eye(2), 5.0, 0.8608),
    (np.array([[1.0, 0.5j], [0.5j, -1.0]]), 5.0, 0.7603),
    ((1.0 + 1.0j) * np.eye(2), 50.0, 13.8155),
]


@pytest.mark.parametrize("matrix, short, t_star", PAST_THE_HORIZON)
def test_a_window_past_the_overflow_stops_at_the_horizon(matrix, short, t_star):
    # the flow stops at the first sample that loses positivity, so a window
    # whose S would overflow gives the short window's horizon, bit for bit
    H = QuadraticHamiltonian.constant(matrix)
    found = []
    for last in (short, 1000.0, 1e6):
        with pytest.raises(PositivityLost) as info:
            propagate(standard_frame(1), np.zeros(2), H, [last])
        found.append(info.value.t_star)
        assert len(info.value.states) == 0
    assert found == [found[0]] * 3
    assert abs(found[0] - t_star) < 1e-4
    assert positivity_horizon(standard_frame(1), H, 1e6) == found[0]


def test_the_flow_stops_soon_after_the_horizon(monkeypatch):
    samples = propagation._LinearFlow.samples
    ends = []

    def counted(self, times):
        for step in samples(self, times):
            ends.append(float(step[0][-1]))
            yield step

    monkeypatch.setattr(propagation._LinearFlow, "samples", counted)
    H = QuadraticHamiltonian.constant(PAST_THE_HORIZON[0][0])
    with pytest.raises(PositivityLost) as info:
        propagate(standard_frame(1), np.zeros(2), H, np.linspace(0.0, 1000.0, 50))
    reached = next(k for k, end in enumerate(ends) if end >= info.value.t_star)
    assert len(ends) <= max(16, 2 * (reached + 1)) and ends[-1] < 20.0  # not on to t = 1000


@pytest.mark.parametrize(
    "seed, n, t_max, t_star",
    [(2, 2, 5.0, 3.67120236), (5, 3, 5.0, 4.61969283), (1, 3, 10.0, None), (4, 2, 10.0, None)],
)
def test_seeded_generic_hamiltonian(seed, n, t_max, t_star):
    # the flow is regular in every case: either the positivity horizon is
    # reported, or the whole window propagates with a symplectic flow
    H = QuadraticHamiltonian.constant(seeded_matrix(seed, n))
    args = (standard_frame(n), np.zeros(2 * n), H, np.linspace(0.0, t_max, 11))
    if t_star is None:
        states = propagate(*args)
        assert max(s.symplectic_defect for s in states) <= 1e-9
    else:
        with pytest.raises(PositivityLost) as info:
            propagate(*args)
        assert abs(info.value.t_star - t_star) <= 1e-6


def test_constant_is_the_one_coefficient_polynomial():
    # both build the same H, so every stack and the horizon are the same bits
    n = 3
    matrix = seeded_matrix(1, n)
    args = (standard_frame(n), np.linspace(-0.5, 0.5, 2 * n))
    times = np.linspace(0.0, 3.0, 40)
    constant = propagate(*args, QuadraticHamiltonian.constant(matrix), times)
    polynomial = propagate(*args, QuadraticHamiltonian.polynomial([matrix]), times)
    for name in ("t", "S", "Z", "N", "beta", "z", "action", "sigma", "M", "Mtilde", "G",
                 "logdetQ", "symplectic_defect", "min_positivity"):
        assert np.array_equal(getattr(constant, name), getattr(polynomial, name)), name
    crossing = SwansonParams(omega0=0.5, delta=1.0).matrix()
    assert positivity_horizon(L0_FRAME, QuadraticHamiltonian.constant(crossing), 2.0) == (
        positivity_horizon(L0_FRAME, QuadraticHamiltonian.polynomial([crossing]), 2.0)
    )


@pytest.mark.parametrize("n, t", [(1, 20.0), (3, 37.0)])
def test_logdetq_branch_follows_one_far_time(n, t):
    # harmonic flow of the standard frame: Q_t = e^{it}·Id, so log det Q_t = int;
    # harmonic(n) is the same H as the polynomial
    for H in (harmonic(n), QuadraticHamiltonian.polynomial([np.eye(2 * n)])):
        state = propagate(standard_frame(n), np.zeros(2 * n), H, [t])[0]
        assert abs(state.logdetQ - 1j * n * t) < 1e-9


def test_sampled_hamiltonian_flow_matches_piecewise_reference():
    # the knots of a sampled H fall inside output intervals; the reference
    # integrates each smooth piece separately at 1e-13
    n = 2
    knots = np.linspace(0.0, 3.0, 5)
    H = QuadraticHamiltonian.sampled(knots, [seeded_matrix(seed, n) for seed in range(5)])
    times = np.linspace(0.0, 3.0, 8)
    om = omega(n)
    S = np.eye(2 * n, dtype=complex).reshape(-1)
    ref = [S]
    for lo, hi in zip(knots[:-1], knots[1:]):
        wanted = [t for t in times if lo < t < hi] + [hi]
        sol = solve_ivp(lambda t, y: (om @ H(t) @ y.reshape(2 * n, 2 * n)).reshape(-1),
                        (lo, hi), S, method="DOP853", rtol=1e-13, atol=1e-13, t_eval=wanted)
        S = sol.y[:, -1]
        ref += list(sol.y.T[: len(wanted) - 1])
    ref.append(S)
    states = propagate(standard_frame(n), np.zeros(2 * n), H, times)
    assert max(np.max(np.abs(s.S.reshape(-1) - r)) for s, r in zip(states, ref)) < 1.5e-9


def seeded_hamiltonians(n=2):
    """A constant H, a sampled H on 5 knots of [0, 3] and a polynomial H of degree 2."""
    knots = np.linspace(0.0, 3.0, 5)
    sampled = QuadraticHamiltonian.sampled(knots, [seeded_matrix(seed, n) for seed in range(5)])
    polynomial = QuadraticHamiltonian.polynomial(
        [seeded_matrix(1, n), 0.2 * seeded_matrix(3, n), 0.05 * seeded_matrix(4, n)]
    )
    constant = QuadraticHamiltonian.constant(seeded_matrix(1, n))
    return {"constant": constant, "sampled": sampled, "polynomial": polynomial}


def swanson_as(kind, params=DS):
    """The constant Swanson H given as the named kind."""
    matrix = params.matrix()
    if kind == "constant":
        return QuadraticHamiltonian.constant(matrix)
    if kind == "sampled":
        return QuadraticHamiltonian.sampled(np.linspace(0.0, 5.0, 5), [matrix] * 5)
    return QuadraticHamiltonian.polynomial([matrix])


@pytest.mark.parametrize("kind", ["constant", "sampled", "polynomial"])
def test_flow_does_not_depend_on_the_output_times(kind):
    # the Taylor steps follow H alone, so S at t = 3 is the same bits
    # whether 2 or 150 output times are asked for
    n = 2
    args = (standard_frame(n), np.zeros(2 * n), seeded_hamiltonians(n)[kind])
    sparse = propagate(*args, [0.0, 3.0])[-1].S
    dense = propagate(*args, np.linspace(0.0, 3.0, 150))[-1].S
    assert np.array_equal(sparse, dense)


@pytest.mark.parametrize("kind", ["constant", "sampled", "polynomial"])
def test_hamiltonians_call_no_ode_solver(monkeypatch, kind):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"solve_ivp called for a {kind} Hamiltonian")

    monkeypatch.setattr(propagation, "solve_ivp", forbidden)
    # the Swanson H as this kind: a displaced run, a positivity crossing, one flow
    H = swanson_as(kind)
    propagate(L0_FRAME, np.array([0.3, -0.2]), H, np.linspace(0.0, 5.0, 21))
    with pytest.raises(PositivityLost):
        propagate(L0_FRAME, ORIGIN, swanson_as(kind, SwansonParams(omega0=0.5, delta=1.0)), [0.0, 2.0])
    assert flow(H, 0.0, 1.0).shape == (2, 2)
    # a seeded n = 2 H of this kind
    n = 2
    H = seeded_hamiltonians(n)[kind]
    propagate(standard_frame(n), np.zeros(2 * n), H, np.linspace(0.0, 3.0, 11))
    assert flow(H, 0.5, 2.0).shape == (2 * n, 2 * n)


@pytest.mark.parametrize("low", [0.0, 1e-20])
def test_polynomial_with_vanishing_leading_coefficients(low):
    # H = low·Id + t²H₂ from t = 0: the series' first terms vanish (or nearly),
    # and only D_3 = h³G_2S/3 sees H₂.  ΩH₂t² commutes with itself, so
    # S_t = expm((t³/3)ΩH₂), which low = 1e-20 moves by about 1e-20·t
    n = 2
    H2 = seeded_matrix(2, n).real
    zero = np.zeros((2 * n, 2 * n))
    H = QuadraticHamiltonian.polynomial([low * np.eye(2 * n), zero, H2])

    def exact(t):
        return expm(t**3 / 3 * omega(n) @ H2)

    for state in propagate(standard_frame(n), np.zeros(2 * n), H, [0.0, 0.5, 1.0, 1.7, 2.5]):
        assert np.max(np.abs(state.S - exact(state.t))) < 1e-13
    # at(), on which brentq runs, takes one Taylor step from a sample
    identity = np.eye(2 * n, dtype=complex)
    at = propagation._LinearFlow(H, 0.0).at(0.8, 0.0, identity)
    assert np.max(np.abs(at - exact(0.8))) < 1e-14
    # the Swanson H as H₂: S_t is its closed-form flow at time t³/3
    swanson = QuadraticHamiltonian.polynomial([low * np.eye(2), np.zeros((2, 2)), DS.matrix()])
    for t in (0.4, 1.1, 1.6):
        assert np.max(np.abs(flow(swanson, 0.0, t) - ds_flow(DS, t**3 / 3))) < 1e-13


@pytest.mark.parametrize("kind", ["constant", "sampled", "polynomial"])
def test_driven_route_matches_the_swanson_flow(kind):
    # the constant Swanson H, given as any kind, takes the Taylor route,
    # which reproduces the closed-form flow to rounding
    H = swanson_as(kind)
    states = propagate(L0_FRAME, ORIGIN, H, [0.0, 0.3, 0.9, 1.3, 1.9])
    assert max(np.max(np.abs(s.S - ds_flow(DS, s.t))) for s in states) < 1e-14


@pytest.mark.parametrize("scale", [1e200, 4e307])
def test_driven_flow_too_fast_for_the_time_axis_raises(scale):
    # ‖ΩH‖₂ ~ scale asks for steps of 1/scale, below the spacing of t on [0, 1]
    H = QuadraticHamiltonian.polynomial([np.full((2, 2), scale)])
    with pytest.raises(StepSizeUnderflow):
        propagate(L0_FRAME, ORIGIN, H, [0.0, 1.0])


def test_driven_route_keeps_the_logdetq_branch_to_rounding():
    # harmonic H as a polynomial: Q_t = e^{it}·Id after 37 time units
    n, t = 3, 37.0
    H = QuadraticHamiltonian.polynomial([np.eye(2 * n)])
    state = propagate(standard_frame(n), np.zeros(2 * n), H, [t])[0]
    assert abs(state.logdetQ - 1j * n * t) < 1e-12


def test_constant_hamiltonian_sums_one_series_per_step_length(monkeypatch):
    # every full step of a constant H has the same G_j; its length h can
    # differ from the last step's only by the rounding of t + h, so the 37
    # steps to t = 37 share a few series, and S_t stays the rotation e^{ΩHt}
    calls = []

    def counted(G, h, t):
        calls.append(h)
        return series(G, h, t)

    series = propagation._series
    monkeypatch.setattr(propagation, "_series", counted)
    n = 3
    times = np.linspace(0.0, 37.0, 150)
    states = propagate(standard_frame(n), np.zeros(2 * n), harmonic(n), times)
    assert 1 <= len(calls) == len(set(calls)) <= 8
    c, s = np.cos(times)[:, None, None], np.sin(times)[:, None, None]
    eye = np.eye(n)
    exact = np.block([[c * eye, -s * eye], [s * eye, c * eye]])
    assert np.max(np.abs(states.S - exact)) < 1e-14


def test_polynomial_hamiltonian_matches_riccati_and_centre_oracles():
    # β_t = ¼∫tr(G⁻¹Im H)dτ over the independent Riccati metric (Simpson on a
    # dense grid), and z_t, α_t from the centre ODE on a spline of that metric
    n = 2
    H = QuadraticHamiltonian.polynomial(
        [seeded_matrix(1, n), 0.2 * seeded_matrix(3, n), 0.05 * seeded_matrix(4, n)]
    )
    Z0, z0 = standard_frame(n), np.array([0.4, -0.3, 0.2, 0.5])
    times = np.linspace(0.0, 2.0, 401)
    states = propagate(Z0, z0, H, times)
    Gs = evolve_metric_riccati(frame_metric(Z0.entries), H, times)
    rate = [0.25 * np.trace(np.linalg.solve(G, H(t).imag)) for t, G in zip(times, Gs)]
    beta = cumulative_simpson(rate, x=times, initial=0.0)
    assert max(abs(s.beta - b) for s, b in zip(states, beta)) < 5e-10
    assert max(np.max(np.abs(s.G - G)) for s, G in zip(states, Gs)) < 1e-12
    zs, actions = center_dynamics(z0, H, CubicSpline(times, Gs, axis=0), times)
    assert max(np.max(np.abs(z - s.z)) for z, s in zip(zs, states)) < 1e-10
    assert max(abs(a - s.action) for a, s in zip(actions, states)) < 1e-10


def test_positivity_horizon_values():
    assert positivity_horizon(L0_FRAME, DS_HAM, 20.0) == math.inf
    assert positivity_horizon(L0_FRAME, harmonic(), 20.0) == math.inf
    params = SwansonParams(omega0=0.5, delta=1.0)
    ham = QuadraticHamiltonian.constant(params.matrix())
    t_exact = math.acos(-0.25) / (2 * params.omega)
    assert abs(positivity_horizon(L0_FRAME, ham, 2.0) - t_exact) < 1e-8
    # the same matrix as polynomial or sampled H takes the integrated route
    for ham in (
        QuadraticHamiltonian.polynomial([params.matrix()]),
        QuadraticHamiltonian.sampled([0.0, 0.3, 0.9, 3.0], [params.matrix()] * 4),
    ):
        assert abs(positivity_horizon(L0_FRAME, ham, 2.0) - t_exact) < 1e-8


@pytest.mark.parametrize("t_max", [np.nan, np.inf, -1.0])
def test_positivity_horizon_rejects_bad_t_max(t_max):
    with pytest.raises(DimensionMismatch):
        positivity_horizon(L0_FRAME, DS_HAM, t_max)


# -- metric flow (independent Riccati route) -----------------------------------


def test_riccati_matches_frame_route_over_a_period(ds_trajectory):
    times, states = ds_trajectory
    Gs = evolve_metric_riccati(np.eye(2), DS_HAM, times)
    om = omega(1)
    for G, state in zip(Gs, states):
        J = -om @ G
        assert np.max(np.abs(G - state.G)) < 1e-8
        assert np.max(np.abs(J @ J + np.eye(2))) < 1e-8
        assert np.max(np.abs(G.T @ om @ G - om)) < 1e-9


def test_riccati_harmonic_fixed_point():
    Gs = evolve_metric_riccati(np.eye(2), harmonic(), np.linspace(0.0, 5.0, 20))
    assert max(np.max(np.abs(G - np.eye(2))) for G in Gs) < 1e-10


def test_riccati_validates_input():
    with pytest.raises(DimensionMismatch):
        evolve_metric_riccati(np.eye(2), harmonic(2), [0.0, 1.0])
    for times in ([1.0, 0.5], [], [-0.5, 1.0]):
        with pytest.raises(DimensionMismatch):
            evolve_metric_riccati(np.eye(2), DS_HAM, times)


# -- center dynamics ------------------------------------------------------------


def test_center_callable_metric_matches_propagate():
    times = np.linspace(0.0, 2.0, 21)
    states = propagate(L0_FRAME, np.array([0.0, 1.0]), DS_HAM, times)
    zs, actions = center_dynamics([0.0, 1.0], DS_HAM, lambda t: ds_scalars(DS, t).metric, times)
    for z, a, s in zip(zs, actions, states):
        assert np.max(np.abs(z - s.z)) < 1e-8
        assert abs(a - s.action) < 1e-8


def test_center_validates_input():
    with pytest.raises(DimensionMismatch):
        center_dynamics([0.0, 1.0, 2.0], DS_HAM, lambda t: np.eye(2), [0.0, 1.0])
    # the metric comes only as a callable
    with pytest.raises(DimensionMismatch):
        center_dynamics([0.0, 1.0], DS_HAM, [np.eye(2), np.eye(2)], [0.0, 1.0])
    # an earlier centre must not come back labelled with a later time
    for times in ([1.0, 0.5], [], [-0.5, 1.0]):
        with pytest.raises(DimensionMismatch):
            center_dynamics([0.0, 1.0], DS_HAM, lambda t: np.eye(2), times)


# -- lower-state activation coefficients ----------------------------------------


@pytest.fixture(scope="module")
def ds_quarter_state():
    return propagate(L0_FRAME, ORIGIN, DS_HAM, np.array([T_STAR]))[-1]


def test_coefficients_low_orders(ds_quarter_state):
    state = ds_quarter_state
    sc = ds_scalars(DS, T_STAR)
    exp0 = hagedorn_coefficients(state, [0])
    assert set(exp0.coefficients) == {(0,)}
    assert abs(exp0.coefficients[(0,)] - 1.0) < 1e-12
    exp1 = hagedorn_coefficients(state, [1])
    assert set(exp1.coefficients) == {(1,)}
    assert abs(exp1.coefficients[(1,)] - sc.n) < 1e-9
    exp2 = hagedorn_coefficients(state, [2])
    assert set(exp2.coefficients) == {(2,), (0,)}
    assert abs(exp2.coefficients[(2,)] - sc.n**2) < 1e-9
    assert abs(exp2.coefficients[(0,)] + sc.m / math.sqrt(2)) < 1e-9


def test_coefficients_support_and_parity(ds_quarter_state):
    for order in range(7):
        exp = hagedorn_coefficients(ds_quarter_state, [order])
        assert abs(exp.coefficients[(order,)]) > 0
        for (k,) in exp.coefficients:
            assert k <= order
            assert (order - k) % 2 == 0


def test_coefficients_norm_matches_closed_form(ds_quarter_state):
    for k in (0, 1, 2, 5):
        exp = hagedorn_coefficients(ds_quarter_state, [k])
        assert abs(exp.norm() - ds_norm(DS, k, T_STAR)) < 1e-8


def test_coefficients_reject_deep_index(ds_quarter_state):
    with pytest.raises(DimensionMismatch):
        hagedorn_coefficients(ds_quarter_state, [40])


def multi_indices(n, top):
    """Every α with n components and |α| ≤ top."""
    return [a for a in itertools.product(range(top + 1), repeat=n) if sum(a) <= top]


def paper_route(state, alpha):
    """The paper's formula: the coefficients c_k of r_α(N_tx; M_t), times √(k!)/√(α!)."""
    composed = poly_recursion(state.M, alpha).compose_linear(state.N).coeffs
    fact = math.prod(map(math.factorial, alpha))
    return {
        k: c * math.sqrt(math.prod(map(math.factorial, k)) / fact) for k, c in composed.items()
    }


@pytest.mark.parametrize("n, top", [(1, 8), (2, 8), (3, 8), (4, 6)])
def test_ladder_matches_paper_route_at_zero_centre(n, top):
    H = QuadraticHamiltonian.constant(seeded_matrix(n, n))
    state = propagate(standard_frame(n), np.zeros(2 * n), H, [0.0, 1.5])[-1]
    assert not state.sigma.any()
    if n > 1:
        assert np.max(np.abs(state.N - np.diag(np.diag(state.N)))) > 0.05
    for alpha in multi_indices(n, top):
        ladder = hagedorn_coefficients(state, alpha).coefficients
        reference = paper_route(state, alpha)
        assert ladder.keys() == reference.keys(), alpha
        scale = max(map(abs, reference.values()))
        assert max(abs(ladder[k] - reference[k]) for k in reference) <= 1e-13 * scale, alpha


def test_coefficients_see_eps_only_through_the_scaled_centre():
    # x → x/√ε maps the packet at ε with centre z₀ onto the packet at ε = 1
    # with centre z₀/√ε, and the coefficients over φ_k(Z_t, z_t) do not move
    H = QuadraticHamiltonian.constant(seeded_matrix(5, 2))
    center = np.array([0.3, -0.2, 0.1, 0.4])
    for eps in (0.5, 0.1):
        state = propagate(standard_frame(2), center, H, [0.0, 1.0], eps)[-1]
        scaled = propagate(standard_frame(2), center / math.sqrt(eps), H, [0.0, 1.0])[-1]
        assert np.min(np.abs(scaled.sigma)) > 0.01
        for alpha in multi_indices(2, 3):
            got = hagedorn_coefficients(state, alpha).coefficients
            want = hagedorn_coefficients(scaled, alpha).coefficients
            assert got.keys() == want.keys()
            assert max(abs(got[k] - want[k]) for k in want) < 1e-12, (eps, alpha)


def test_coefficients_use_neither_polynomial_route(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("hagedorn_coefficients built a polynomial")

    monkeypatch.setattr(propagation, "poly_recursion", forbidden)
    monkeypatch.setattr(polynomials, "poly_recursion", forbidden)
    monkeypatch.setattr(polynomials.MultiPoly, "compose_linear", forbidden)
    H = QuadraticHamiltonian.constant(seeded_matrix(3, 2))
    state = propagate(standard_frame(2), [0.3, -0.2, 0.1, 0.4], H, [0.0, 1.0])[-1]
    for alpha in multi_indices(2, 4):
        assert hagedorn_coefficients(state, alpha).coefficients


# -- direct grid evaluation of the evolved state ---------------------------------


def test_evolved_grid_at_time_zero_is_plain_packet():
    state = propagate(L0_FRAME, ORIGIN, DS_HAM, np.array([0.0]))[0]
    direct = evolved_state_on_grid(state, [2], 1.0, GRID_1D)
    ref = eval_excited(WavepacketParams(frame=L0_FRAME, center=ORIGIN, eps=1.0), [2], GRID_1D)
    assert np.max(np.abs(direct - ref)) < 1e-12


def test_evolved_grid_hermitian_is_phase_times_packet():
    state = propagate(L0_FRAME, np.array([0.3, -0.2]), harmonic(), np.array([0.7]))[0]
    direct = evolved_state_on_grid(state, [1], 1.0, GRID_1D)
    ref = np.exp(1j * state.action) * eval_excited(
        WavepacketParams(frame=state.Z, center=state.z, eps=1.0, log_det_q=state.logdetQ),
        [1],
        GRID_1D,
    )
    assert np.max(np.abs(direct - ref)) < 1e-9


def test_evolved_grid_norm_and_expansion_consistency(ds_quarter_state):
    state = ds_quarter_state
    field = evolved_state_on_grid(state, [2], 1.0, GRID_1D)
    norm = math.sqrt(grid_inner(field, field, GRID_1D).real)
    assert abs(norm - 2.175694443627433) < 1e-6
    exp = hagedorn_coefficients(state, [2])
    assert abs(norm - exp.norm()) < 1e-8
    # pointwise: prefactor times the expansion over evolved basis packets
    acc = np.zeros(GRID_1D.counts, dtype=complex)
    for k, a in exp.coefficients.items():
        acc += a * eval_excited(
            WavepacketParams(
                frame=state.Z, center=state.z, eps=1.0, phase=0.0, log_det_q=state.logdetQ
            ),
            list(k),
            GRID_1D,
        )
    acc *= np.exp(state.log_prefactor)
    assert np.max(np.abs(acc - field)) < 1e-8


def test_evolved_grid_matches_expansion_mode_mixed_2d():
    # non-Hermitian H that couples both modes, so M_t and N_t are full and the
    # coefficients mix the two indices; the prefactor route never composes.
    # Both centres are displaced, so σ shifts both routes, by different sizes.
    H = QuadraticHamiltonian.constant(seeded_matrix(2, 2))
    grid = Grid(bounds=[(-8.0, 8.0), (-8.0, 8.0)], counts=[96, 96])
    worst = 0.0
    for center in ([0.3, -0.2, 0.1, 0.4], [-0.9, 0.6, 0.8, -0.5]):
        state = propagate(standard_frame(2), center, H, np.array([0.0, 2.5]))[-1]
        for coupling in (state.M, state.N, state.N - state.N.T):
            assert np.max(np.abs(coupling - np.diag(np.diag(coupling)))) > 0.3
        assert np.min(np.abs(state.sigma)) > 0.01
        basis = WavepacketParams(
            frame=state.Z, center=state.z, eps=1.0, phase=state.log_prefactor,
            log_det_q=state.logdetQ,
        )
        for alpha in [(a, order - a) for order in range(5) for a in range(order + 1)]:
            field = evolved_state_on_grid(state, alpha, 1.0, grid)
            exp = hagedorn_coefficients(state, alpha)
            acc = sum(a * eval_excited(basis, list(k), grid) for k, a in exp.coefficients.items())
            worst = max(worst, np.max(np.abs(acc - field)) / np.max(np.abs(field)))
    assert worst < 1e-10


def test_displaced_packet_matches_grid_oracle():
    # z₀ ≠ 0 under Swanson's non-Hermitian H: the complex centre S_tz₀ leaves
    # real phase space, and σ adds lower states of both parities.  Both routes
    # must agree with one Crank–Nicolson march per α.
    center, times = np.array([0.4, 0.6]), [0.25, 0.5]
    states = propagate(L0_FRAME, center, DS_HAM, times)
    assert np.min(np.abs(states.sigma)) > 0.05
    operator = discretize_hamiltonian(DS.matrix(), 1.0, GRID_1D)
    for k in range(4):
        start = eval_excited(WavepacketParams(frame=L0_FRAME, center=center, eps=1.0), [k], GRID_1D)
        marched = propagate_grid(start, operator, times, dt=1e-3, grid_tol=1e-5)
        for result, state in zip(marched, states):
            exp = hagedorn_coefficients(state, [k])
            if k:
                assert (k - 1,) in exp.coefficients
            basis = WavepacketParams(
                frame=state.Z, center=state.z, eps=1.0, phase=state.log_prefactor,
                log_det_q=state.logdetQ,
            )
            ladder = sum(
                a * eval_excited(basis, list(j), GRID_1D) for j, a in exp.coefficients.items()
            )
            prefactor = evolved_state_on_grid(state, [k], 1.0, GRID_1D)
            norm_grid = grid_norm(result.field, GRID_1D)
            for field, norm in ((ladder, exp.norm()), (prefactor, grid_norm(prefactor, GRID_1D))):
                overlap = abs(grid_inner(result.field, field, GRID_1D))
                assert overlap / (norm_grid * grid_norm(field, GRID_1D)) >= 1 - 1e-10, (k, state.t)
                assert abs(norm_grid - norm) <= 1e-5, (k, state.t)


# -- ladder recombination ---------------------------------------------------------


def test_ladder_identities_along_trajectory(ds_trajectory):
    # the conjugate-flown frame decomposes over the evolved frame pair; the
    # lowering block equals the normalizer and reassembles the quarter form
    _, states = ds_trajectory
    om = omega(1)
    Z0 = L0_FRAME.entries
    for s in states:
        Zt = s.Z.entries
        conj_flow = s.S.conj() @ Z0
        flow_conj = s.S @ Z0.conj()
        C = 0.5j * Zt.conj().T @ om.T @ conj_flow
        D = 0.5j * Zt.conj().T @ om.T @ flow_conj
        assert np.max(np.abs(C - s.N)) < 1e-8
        assert np.max(np.abs(Zt @ C + Zt.conj() @ D.conj() - conj_flow)) < 1e-8
        assert np.max(np.abs(D.T @ C.conj() - s.M)) < 1e-8


def test_expansion_norm_formula():
    exp = HagedornExpansion(coefficients={(0,): 0.6, (2,): 0.8j}, log_prefactor=0.25j)
    assert abs(exp.norm() - 1.0) < 1e-14

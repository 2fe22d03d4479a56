"""The coefficient sweep: one ladder recursion over a whole trajectory.

Each row must equal the per-state call bit for bit, and the CLI must write
the same coefficient tables and norms from the stacked arrays that it wrote
from one HagedornExpansion per state.
"""

import itertools
import math

import numpy as np
import pytest

from hagedorn import cli, propagation
from hagedorn.cli import PRESETS, load_config, run_scenario, standard_frame
from hagedorn.errors import PositivityLost
from hagedorn.propagation import (
    QuadraticHamiltonian,
    amplitude,
    coefficient_sweep,
    hagedorn_coefficients,
    propagate,
)
from hagedorn.swanson import SwansonParams


def seeded_matrix(seed, n, imag=0.05):
    """R + i·imag·(Y + Yᵀ) with R = XXᵀ/2n + ½Id for Gaussian X, Y."""
    rng = np.random.default_rng(seed)
    X, Y = rng.normal(size=(2 * n, 2 * n)), rng.normal(size=(2 * n, 2 * n))
    return X @ X.T / (2 * n) + 0.5 * np.eye(2 * n) + 1j * imag * (Y + Y.T)


def multi_indices(n, top):
    """Every α with n components and |α| ≤ top."""
    return [a for a in itertools.product(range(top + 1), repeat=n) if sum(a) <= top]


def bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64).tolist()


def assert_rows_match(states, alphas):
    """Each row of the sweep is the per-state call: the same keys in the same
    order, the same values bit for bit (signs of zero included), and an exact
    0 in every slot the per-state call drops."""
    for alpha in alphas:
        keys, a = coefficient_sweep(states, alpha)
        assert a.shape == (len(states), len(keys))
        labels = list(map(tuple, keys.tolist()))
        for i, state in enumerate(states):
            expected = hagedorn_coefficients(state, alpha).coefficients
            kept = np.flatnonzero(a[i])
            assert [labels[r] for r in kept] == list(expected), (alpha, i)
            assert bits(a[i, kept]) == bits(list(expected.values())), (alpha, i)
            assert not a[i, np.setdiff1d(np.arange(len(keys)), kept)].any()


@pytest.mark.parametrize("n, top", [(1, 6), (2, 5), (3, 4)])
def test_sweep_rows_equal_the_per_state_call_for_a_displaced_packet(n, top):
    H = QuadraticHamiltonian.constant(seeded_matrix(n, n))
    center = np.random.default_rng(n).uniform(-1.0, 1.0, 2 * n)
    states = propagate(standard_frame(n), center, H, np.linspace(0.0, 2.0, 25))
    assert np.min(np.abs(states.sigma[1:])) > 1e-3  # σ ≠ 0: every slot can be reached
    assert_rows_match(states, multi_indices(n, top))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_centred_hermitian_sweep_leaves_the_odd_slots_exactly_zero(n):
    # σ is exactly 0 only for z₀ = 0: a displaced packet under real H has
    # z_t = S_tz₀ up to rounding, so its σ is ~1e-16, not 0
    H = QuadraticHamiltonian.constant(seeded_matrix(n, n, imag=0.0))
    states = propagate(standard_frame(n), np.zeros(2 * n), H, np.linspace(0.0, 2.0, 25))
    assert not states.sigma.any()
    alphas = multi_indices(n, 4)
    assert_rows_match(states, alphas)
    for alpha in alphas:
        keys, a = coefficient_sweep(states, alpha)
        odd = (sum(alpha) - keys.sum(axis=1)) % 2 == 1
        assert not a[:, odd].any(), alpha


def test_sweep_over_a_trajectory_cut_short_by_positivity_loss():
    H = QuadraticHamiltonian.constant(SwansonParams(0.5, 1.0).matrix())
    frame = np.array([[1.0], [-1.0j]])
    with pytest.raises(PositivityLost) as info:
        propagate(frame, np.zeros(2), H, np.linspace(0.0, 2.0, 40))
    states = info.value.states
    assert 0 < len(states) < 40
    assert_rows_match(states, [(k,) for k in range(6)])


def test_sweep_over_one_state_and_no_state():
    H = QuadraticHamiltonian.constant(seeded_matrix(7, 2))
    one = propagate(standard_frame(2), [0.3, -0.2, 0.1, 0.4], H, [0.7])
    assert len(one) == 1
    assert_rows_match(one, multi_indices(2, 4))
    # every requested time lies past the horizon (≈ 0.815)
    H = QuadraticHamiltonian.constant(SwansonParams(0.5, 1.0).matrix())
    with pytest.raises(PositivityLost) as info:
        propagate(np.array([[1.0], [-1.0j]]), np.zeros(2), H, [1.0, 1.5])
    empty = info.value.states
    assert len(empty) == 0
    keys, a = coefficient_sweep(empty, (3,))
    assert a.shape == (0, len(keys))


def test_sweep_at_alpha_zero_is_e0():
    H = QuadraticHamiltonian.constant(seeded_matrix(4, 3))
    states = propagate(standard_frame(3), np.full(6, 0.2), H, np.linspace(0.0, 1.0, 9))
    keys, a = coefficient_sweep(states, (0, 0, 0))
    assert keys.tolist() == [[0, 0, 0]]
    assert bits(a) == bits(np.ones((9, 1)))
    assert_rows_match(states, [(0, 0, 0)])


def test_compute_sweeps_once_per_alpha_and_never_per_state(monkeypatch, tmp_path):
    calls = []

    def counted(states, alpha):
        calls.append(alpha)
        return coefficient_sweep(states, alpha)

    def forbidden(*args, **kwargs):
        raise AssertionError("the CLI called the per-state coefficients")

    monkeypatch.setattr(cli, "coefficient_sweep", counted)
    monkeypatch.setattr(cli, "hagedorn_coefficients", forbidden)
    monkeypatch.setattr(propagation, "hagedorn_coefficients", forbidden)
    raw = {**PRESETS["swanson-fig1"], "oracle": {"enabled": False}}
    assert run_scenario(load_config(raw), tmp_path) == 0
    assert calls == [(0,), (1,), (2,)]


def per_state_table(run, alpha) -> str:
    """coefficients_<α>.csv as the writer built it from one HagedornExpansion
    per state: nonzero coefficients in sorted order of k."""
    lines = ["t,multi_index,re_a,im_a"]
    for i in run.on_grid:
        state = run.all_states[i]
        coefficients = hagedorn_coefficients(state, alpha).coefficients
        for k in sorted(coefficients):
            a = coefficients[k]
            label = "-".join(map(str, k))
            lines.append(f"{'%.17g' % state.t},{label},{'%.17g' % a.real},{'%.17g' % a.imag}")
    return "\n".join(lines) + "\n"


def displaced_two_mode_config():
    """A displaced packet under a non-Hermitian constant H with n = 2 at ε = 0.7:
    its action has an imaginary part, so the gain divides a nonzero Im α_t by ε.
    Dividing the complex stack by ε instead moves three of its 40 prefactors."""
    matrix = [[[v.real, v.imag] for v in row] for row in seeded_matrix(13, 2).tolist()]
    return {
        "name": "displaced-2-mode", "eps": 0.7,
        "hamiltonian": {"type": "constant", "matrix": matrix}, "initial": "standard",
        "center": [0.8, -0.6, 1.0, 0.4], "times": {"start": 0.0, "stop": 1.5, "count": 40},
        "alphas": [[0, 0], [2, 1], [1, 3]],
    }


# the presets all run at ε = 1, where dividing by ε cannot round
SWEEP_CONFIGS = {
    **PRESETS,
    "swanson-fig1-eps-0.7": {**PRESETS["swanson-fig1"], "eps": 0.7},
    "displaced-2-mode-eps-0.7": displaced_two_mode_config(),
}


@pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
def test_preset_tables_and_norms_equal_the_per_state_expansions(name, tmp_path):
    config = load_config({**SWEEP_CONFIGS[name], "oracle": {"enabled": False}})
    assert run_scenario(config, tmp_path) == 0
    run = cli._compute(config)
    for alpha in config.alphas:
        text = (tmp_path / f"coefficients_{cli._alpha_label(alpha)}.csv").read_text()
        assert text == per_state_table(run, alpha), alpha
        for i, state in enumerate(run.all_states):
            expansion = hagedorn_coefficients(state, alpha)
            # one state in Python scalars, as the prefactor and norm were first defined
            gain = (1j * state.action / state.eps + state.beta).real
            total = math.fsum(abs(a) ** 2 for a in expansion.coefficients.values())
            assert run.prefactor[i] == amplitude(state.log_prefactor) == math.exp(gain), i
            assert run.norms[alpha][i] == expansion.norm() == math.exp(gain) * math.sqrt(total), (
                alpha, i)

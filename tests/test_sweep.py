"""The coefficient sweep: one ladder recursion over a whole trajectory.

Each row must equal the per-state call bit for bit, and the CLI must write
the same coefficient tables and norms from the stacked arrays that it wrote
from one HagedornExpansion per state.
"""

import dataclasses
import gc
import itertools
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from hagedorn import cli, propagation
from hagedorn.cli import PRESETS, load_config, run_scenario, standard_frame
from hagedorn.errors import PositivityLost
from hagedorn.propagation import (
    QuadraticHamiltonian,
    amplitude,
    coefficient_sweep,
    evolved_state_on_grid,
    hagedorn_coefficients,
    propagate,
)
from hagedorn.swanson import SwansonParams
from hagedorn.wavepackets import Grid


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


# -- the one slot of the per-state calls ----------------------------------------


def displaced_states(n, seed=5, count=6):
    H = QuadraticHamiltonian.constant(seeded_matrix(seed, n))
    center = np.random.default_rng(seed).uniform(-1.0, 1.0, 2 * n)
    return propagate(standard_frame(n), center, H, np.linspace(0.0, 1.5, count))


def by_hand(state):
    """A copy of state with writeable N, M and σ, which the slot never holds."""
    return dataclasses.replace(state, N=state.N.copy(), M=state.M.copy(), sigma=state.sigma.copy())


def cold(state, alpha) -> dict:
    """The coefficients raised from e₀, with no held prefix."""
    return hagedorn_coefficients(by_hand(state), alpha).coefficients


def assert_same(got: dict, want: dict):
    assert list(got) == list(want)
    assert bits(list(got.values())) == bits(list(want.values()))


def slot_states() -> list:
    """The states the slot holds: at most one."""
    return list(propagation._slot)


def held():
    """The _Held of the one state in the slot."""
    (entry,) = propagation._slot.values()
    return entry


def held_entries(rows) -> int:
    """The entries of the held rows, counted afresh (the zero α holds e₀ as 1.0)."""
    return sum(row.size for alpha, row in rows.rows.items() if any(alpha))


@pytest.mark.parametrize("n, top", [(2, 6), (3, 5)])
@pytest.mark.parametrize("order", ["graded", "reverse", "random"])
def test_memo_rows_equal_cold_calls_in_any_order(n, top, order):
    alphas = sorted(multi_indices(n, top), key=sum)
    if order == "reverse":
        alphas.reverse()
    elif order == "random":
        np.random.default_rng(17).shuffle(alphas)
    states = displaced_states(n)
    for state in (states[2], states[-1]):
        want = {alpha: cold(state, alpha) for alpha in alphas}  # before the slot's calls
        for alpha in alphas:
            assert_same(hagedorn_coefficients(state, alpha).coefficients, want[alpha])
        assert slot_states() == [state]
        assert len(held().rows) == len(alphas)
    assert_rows_match(states, alphas)
    assert_rows_match(displaced_states(n), alphas)


def test_memo_gives_a_changed_hand_built_state_the_fresh_answer():
    kept = displaced_states(2)[1]
    hagedorn_coefficients(kept, (1, 0))
    state = by_hand(displaced_states(2)[3])
    before = hagedorn_coefficients(state, (1, 1)).coefficients
    state.sigma[:] = 0.5 - 0.25j
    state.M[:] = 2.0 * state.M
    for alpha in [(1, 1), (1, 2), (2, 2)]:
        assert_same(hagedorn_coefficients(state, alpha).coefficients, cold(state, alpha))
    assert bits(list(hagedorn_coefficients(state, (1, 1)).coefficients.values())) != bits(
        list(before.values()))
    assert slot_states() == [kept]  # a state built by hand neither enters nor empties it


def test_changing_a_returned_array_or_dict_changes_no_later_call():
    states = displaced_states(2)
    want = {alpha: coefficient_sweep(states, alpha)[1].copy()
            for alpha in [(1, 0), (1, 1), (1, 2)]}
    for alpha in want:
        keys, a = coefficient_sweep(states, alpha)
        assert bits(a) == bits(want[alpha])
        a[:] = 7.0
        with pytest.raises(ValueError):
            keys[0, 0] = 3
    for alpha in want:
        assert bits(coefficient_sweep(states, alpha)[1]) == bits(want[alpha])
    state = states[4]
    want = {alpha: cold(state, alpha) for alpha in [(1, 1), (1, 2)]}
    first = hagedorn_coefficients(state, (1, 1))
    first.coefficients[(0, 0)] = 7.0
    first.coefficients.clear()
    for alpha in [(1, 1), (1, 2), (1, 1)]:
        assert_same(hagedorn_coefficients(state, alpha).coefficients, want[alpha])


def test_sweep_leaves_the_slot_untouched_and_returns_a_writeable_array():
    states = displaced_states(2)
    hagedorn_coefficients(states[1], (1, 1))
    rows = dict(held().rows)
    other = displaced_states(2, seed=6)
    for alpha in [(0, 0), (1, 0), (2, 1), (2, 2)]:
        keys, a = coefficient_sweep(other, alpha)
        assert a.flags.writeable
        a[:] = 0.0
        assert slot_states() == [states[1]]
        assert held().rows == rows
    for view in other:  # the views the sweep's callers may build: none enters
        assert view not in propagation._slot


def test_a_field_call_at_another_state_drops_the_held_rows():
    states = displaced_states(2)
    for alpha in [(1, 0), (1, 1), (2, 1)]:
        hagedorn_coefficients(states[1], alpha)
    rows = weakref.ref(held().rows[(2, 1)])
    assert held().on_grid is None
    grid = Grid(bounds=[(-5.0, 5.0), (-5.0, 5.0)], counts=[32, 32])
    evolved_state_on_grid(states[2], (1, 1), states.eps, grid)
    assert slot_states() == [states[2]]
    assert list(held().rows) == [(0, 0)] and held().on_grid[0] == grid
    gc.collect()
    assert rows() is None
    # and a coefficient call at the state of the field keeps its field
    hagedorn_coefficients(states[2], (1, 0))
    assert held().on_grid[0] == grid and list(held().rows) == [(0, 0), (1, 0)]


@pytest.mark.parametrize("cap", [40, 400])
def test_held_rows_stay_within_the_bound(monkeypatch, cap):
    monkeypatch.setattr(propagation, "TABLE_MAX", cap)
    alphas = sorted(multi_indices(3, 5), key=sum)
    state = displaced_states(3, count=4)[1]
    want = {alpha: cold(state, alpha) for alpha in alphas}
    for alpha in alphas:
        assert_same(hagedorn_coefficients(state, alpha).coefficients, want[alpha])
        rows = held()
        assert rows.entries == held_entries(rows) <= cap
    assert sum(math.comb(sum(alpha) + 3, 3) for alpha in alphas) > 2 * cap  # the set exceeds it


def test_slot_releases_a_dead_owner():
    states = displaced_states(2)
    hagedorn_coefficients(states[1], (2, 1))
    owners = weakref.ref(states), weakref.ref(states[1])
    assert slot_states() == [states[1]]
    del states
    gc.collect()
    assert owners[0]() is None and owners[1]() is None
    assert not propagation._slot


def test_memo_under_concurrent_callers(monkeypatch):
    # a shortened switch interval interleaves the threads' calls on one state;
    # a lost update to the held rows would break their count or an answer
    monkeypatch.setattr(propagation, "TABLE_MAX", 300)
    state = displaced_states(3)[2]
    alphas = sorted(multi_indices(3, 4), key=sum)
    want = {alpha: cold(state, alpha) for alpha in alphas}
    failures = []

    def worker(seed):
        order = list(alphas)
        np.random.default_rng(seed).shuffle(order)
        for alpha in order * 3:
            got = hagedorn_coefficients(state, alpha).coefficients
            if list(got) != list(want[alpha]) or bits(list(got.values())) != bits(
                    list(want[alpha].values())):
                failures.append(alpha)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
    assert slot_states() == [state]
    rows = held()
    assert rows.entries == held_entries(rows) <= 300


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


def per_state_trajectory(run) -> str:
    """trajectory.csv as the writer built it from the per-state values, one
    '%.17g' per value."""
    n = run.all_states.z.shape[1] // 2
    centre = ["p", "q"] if n == 1 else [f"{c}{i + 1}" for c in "pq" for i in range(n)]
    header = ["t", "beta", "norm_predicted", "re_action", "im_action", *centre,
              "det_defect_symplectic", "min_eig_positivity"]
    lines = [",".join(header)]
    for i in run.on_grid:
        state = run.all_states[i]
        values = [state.t, state.beta, amplitude(state.log_prefactor), state.action.real,
                  state.action.imag, *state.z.tolist(), state.symplectic_defect,
                  state.min_positivity]
        lines.append(",".join("%.17g" % v for v in values))
    return "\n".join(lines) + "\n"


def per_state_norms(config, run) -> str:
    """norms.csv of a run without oracle from the per-state expansions."""
    lines = ["t,k,norm_closed_form,norm_general_pipeline,norm_grid_oracle"]
    for alpha in config.alphas:
        for i, state in enumerate(run.all_states):
            closed = run.closed_norms[alpha][i]
            pipeline = hagedorn_coefficients(state, alpha).norm()
            lines.append(f"{'%.17g' % state.t},{alpha[0]},{'%.17g' % closed},{'%.17g' % pipeline},")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
def test_preset_trajectory_and_norm_tables_equal_the_per_state_values(name, tmp_path):
    config = load_config({**SWEEP_CONFIGS[name], "oracle": {"enabled": False}})
    assert run_scenario(config, tmp_path) == 0
    run = cli._compute(config)
    assert (tmp_path / "trajectory.csv").read_text() == per_state_trajectory(run)
    norms = tmp_path / "norms.csv"
    assert norms.exists() == (run.closed_norms is not None)
    if run.closed_norms is not None:
        assert norms.read_text() == per_state_norms(config, run)


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

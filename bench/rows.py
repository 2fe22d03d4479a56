"""Every bench row: a name, what it times, and a builder.  One run of a row:

    PYTHONPATH=<tree>/src python3 bench/rows.py ROW

builds ROW against whichever `hagedorn` is on the path, makes one untimed
call, then prints the wall time of one timed call in ms, divided by the
row's divisor.  A row that needs an untimed step just before each call (a
march before `propagate`, a state copy that the per-state slot has not
seen, a fresh output directory) gets it from its `before`.  A tree that
lacks a name a row calls makes the run exit non-zero.  Each builder's
docstring says what its rows time; the seeded inputs are drawn the same way
in every tree.
"""

import copy
import dataclasses
import itertools
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.blas import zgemm, zgemv

import hagedorn
from hagedorn.cli import OUT_DIR_ENV, PRESETS, load_config, run_scenario, standard_frame
from hagedorn.gridsolver import discretize_hamiltonian, propagate_grid
from hagedorn.propagation import (
    QuadraticHamiltonian,
    coefficient_sweep,
    evolved_state_on_grid,
    flow,
    hagedorn_coefficients,
    propagate,
)
from hagedorn.swanson import SwansonParams
from hagedorn.symplectic import NormalisedFrame
from hagedorn.wavepackets import Grid, WavepacketParams, eval_excited, grid_norm

ROOT = Path(__file__).resolve().parent.parent
ORACLE = PRESETS["swanson-fig1"]["oracle"]
SEED = 2
SWANSON_H = SwansonParams(1.0, 0.5).matrix()
GRID_2 = Grid(bounds=[(-8.0, 8.0), (-8.0, 8.0)], counts=[256, 256])
ORACLE_GRID = Grid(bounds=[(-12.0, 12.0)], counts=[1024])
# calls one run of a propagate-* or flow-* row times in a row: a single call
# of 2-15 ms spreads too widely for a 5-10 % change to show
CALLS = 20


class Timed(NamedTuple):
    """The call to time, what to divide its time by, and an untimed step run
    just before each call whose result is the call's arguments."""

    call: Callable
    divisor: int = 1
    before: Callable[[], tuple] = tuple


@dataclasses.dataclass(frozen=True)
class Row:
    """What a row times, on which case, per what unit, and how to build it."""

    what: str
    case: str
    per: str
    build: Callable[[], Timed]


def multi_indices(n: int, order: int):
    """Every α with n components and |α| = order (stars and bars)."""
    for bars in itertools.combinations(range(order + n - 1), n - 1):
        edges = (-1,) + bars + (order + n - 1,)
        yield tuple(edges[i + 1] - edges[i] - 1 for i in range(n))


def mode_mixed(rng, n: int) -> np.ndarray:
    """R + iI with R = XXᵀ/2n + ½Id and I = 0.05(Y + Yᵀ) for Gaussian X, Y."""
    X, Y = rng.normal(size=(2 * n, 2 * n)), rng.normal(size=(2 * n, 2 * n))
    return X @ X.T / (2 * n) + 0.5 * np.eye(2 * n) + 0.05j * (Y + Y.T)


def mode_mixed_state(n: int, t: float):
    """The standard frame at t under the constant mode_mixed H of seed 2."""
    H = QuadraticHamiltonian.constant(mode_mixed(np.random.default_rng(SEED), n))
    return propagate(standard_frame(n), np.zeros(2 * n), H, [0.0, t])[-1]


def swanson_hamiltonian() -> QuadraticHamiltonian:
    return QuadraticHamiltonian.constant(SWANSON_H)


def swanson_state(t: float):
    """The Swanson oscillator (ω0 = 1, δ = 0.5) from the frame (1; −i) at t."""
    return propagate(np.array([[1.0], [-1.0j]]), np.zeros(2), swanson_hamiltonian(), [0.0, t])[-1]


def fig1_args() -> tuple:
    fig1 = load_config({**PRESETS["swanson-fig1"], "oracle": {"enabled": False}})
    return fig1.frame, fig1.center, fig1.hamiltonian, fig1.times


def seeded(kind: str, n: int) -> tuple:
    """propagate's arguments for the standard frame from a seeded centre, 150
    times on [0, 3], under a seeded constant H, an H sampled on 7 knots of
    [0, 3] or the polynomial H₀ + tH₁ + t²H₂ (H₁ scaled by 0.2, H₂ by 0.05),
    each matrix mode_mixed.  No case loses positivity on [0, 3]."""
    rng = np.random.default_rng(SEED)
    knots = np.linspace(0.0, 3.0, 7)
    sampled = QuadraticHamiltonian.sampled(knots, [mode_mixed(rng, n) for _ in knots])
    polynomial = QuadraticHamiltonian.polynomial(
        [scale * mode_mixed(rng, n) for scale in (1.0, 0.2, 0.05)]
    )
    centre = rng.uniform(-1.0, 1.0, 2 * n)
    # drawn last, so that the sampled and polynomial rows keep their inputs
    constant = QuadraticHamiltonian.constant(mode_mixed(rng, n))
    H = {"constant": constant, "sampled": sampled, "polynomial": polynomial}[kind]
    return standard_frame(n), centre, H, np.linspace(0.0, 3.0, 150)


def looped(call) -> Timed:
    """call, CALLS times in a row, per call."""

    def calls():
        for _ in range(CALLS):
            call()

    return Timed(calls, CALLS)


def propagate_row(*args) -> Timed:
    """propagate(*args), looped: the rows `propagate-<kind>-n<n>` of
    `seeded`, the Swanson oscillator from (1; −i) at 200 times on [0, 10],
    the sampled n = 2 case at the times [0, 3] alone, and the n = 3 standard
    frame under the harmonic H = Id at 150 times on [0, 37], where
    t·‖ΩH‖₂ = 37 against at most 2π for the presets and 20 for the seeded
    cases."""
    return looped(lambda: propagate(*args))


def sampled_ends() -> Timed:
    frame, centre, H, _ = seeded("sampled", 2)
    return propagate_row(frame, centre, H, np.array([0.0, 3.0]))


def flow_row(H, t: float) -> Timed:
    """The flow S_t alone, flow(H, 0, t), looped: the Swanson H to t = 10 and
    the seeded n = 3 polynomial H to t = 3."""
    return looped(lambda: flow(H, 0.0, t))


def cold_coefficients(n: int, order: int) -> Timed:
    """hagedorn_coefficients for every α with |α| = order, at n = 3 and 4 and
    order 4, 6, 8 and 12, at the mode-mixed state of seed 2 at t = 1.5, per
    call.  Each timed call meets a new copy of the state, which the
    per-state slot has not seen, so every α is raised from e₀."""
    state, alphas = mode_mixed_state(n, 1.5), list(multi_indices(n, order))

    def call(unseen):
        for alpha in alphas:
            hagedorn_coefficients(unseen, alpha)

    return Timed(call, len(alphas), lambda: (dataclasses.replace(state),))


def graded_coefficients(n: int, top: int) -> Timed:
    """hagedorn_coefficients for every α with |α| ≤ top in graded order (by
    |α|, then stars and bars), n = 3 with top 8 and n = 4 with top 6, at the
    standard frame propagated from a seeded centre to t = 1.5 under a
    mode_mixed H of seed 3.  Each call takes a state of its own propagation:
    the sequence of α at a new state, as a coefficient table asks for it."""
    rng = np.random.default_rng(3)
    H = QuadraticHamiltonian.constant(mode_mixed(rng, n))
    args = (standard_frame(n), rng.uniform(-1.0, 1.0, 2 * n), H, [0.0, 1.5])
    alphas = [alpha for d in range(top + 1) for alpha in multi_indices(n, d)]

    def call(state):
        for alpha in alphas:
            hagedorn_coefficients(state, alpha)

    return Timed(call, before=lambda: (propagate(*args)[-1],))


def small_table() -> Timed:
    """hagedorn_coefficients for n = 1, k = 0, 1, 2, at each of 200 copies of
    the Swanson state at t = 0.5 that the slot has not seen, per call: k = 1
    and 2 each take one raising step from the row before."""
    state = swanson_state(0.5)

    def call(copies):
        for unseen in copies:
            for k in range(3):
                hagedorn_coefficients(unseen, (k,))

    return Timed(call, 600, lambda: ([dataclasses.replace(state) for _ in range(200)],))


def fields(states, grid, alphas, divisor: int) -> Timed:
    """evolved_state_on_grid at two states, moving from one to the other, so
    that each call builds each state's ground field and argument once, as a
    run over a trajectory does: n = 2, all 45 α with |α| ≤ 8 on 256×256 at
    the mode-mixed states at t = 1.5 and 0.75, per state; n = 1, k = 0…8 at
    the Swanson states at t = 0.5 and 0.25 on 1024 nodes, per field."""

    def call():
        for state in states:
            for alpha in alphas:
                evolved_state_on_grid(state, alpha, 1.0, grid)

    return Timed(call, divisor)


def norms() -> Timed:
    """grid_norm of the n = 2 field α = (2, 1) at t = 1.5 on 256×256, per call of 100."""
    field = evolved_state_on_grid(mode_mixed_state(2, 1.5), (2, 1), 1.0, GRID_2)

    def call():
        for _ in range(100):
            grid_norm(field, GRID_2)

    return Timed(call, 100)


def normalised_frame() -> Timed:
    """NormalisedFrame of the n = 3 frame of the mode-mixed state at t = 1.5,
    its whole check, per call of 1000."""
    entries = mode_mixed_state(3, 1.5).Z.entries

    def call():
        for _ in range(1000):
            NormalisedFrame(entries)

    return Timed(call, 1000)


def over_a_trajectory(case: str, per_state: bool) -> Timed:
    """The coefficients of every state of a trajectory, all α of the case per
    call: `swanson-fig1`'s 200 states with α = 0, 1, 2, and the seeded n = 3
    constant H's 150 states with α = 0 and e₁.  By sweep, one
    coefficient_sweep per α, raised from e₀ and holding nothing; per state,
    one hagedorn_coefficients per (α, state) on views built just before the
    call, one list of views per α, so the slot never holds a prefix for them."""
    if case == "fig1":
        states, alphas = propagate(*fig1_args()), [(0,), (1,), (2,)]
    else:
        states, alphas = propagate(*seeded("constant", 3)), [(0, 0, 0), (1, 0, 0)]

    def sweeps():
        for alpha in alphas:
            coefficient_sweep(states, alpha)

    def per_state_calls(views):
        for alpha, views_of_alpha in zip(alphas, views):
            for state in views_of_alpha:
                hagedorn_coefficients(state, alpha)

    if not per_state:
        return Timed(sweeps)
    return Timed(per_state_calls, before=lambda: ([list(states) for _ in alphas],))


def oracle_operator():
    """The oracle's 1024-node grid of [−12, 12], the Swanson H's operator on
    it, and the Swanson packet from (1; −i)."""
    params = WavepacketParams(frame=np.array([[1.0], [-1.0j]]), center=np.zeros(2), eps=1.0)
    return ORACLE_GRID, discretize_hamiltonian(SWANSON_H, 1.0, ORACLE_GRID), params


def assembly() -> Timed:
    """One discretize_hamiltonian call on the oracle's grid."""
    return Timed(lambda: discretize_hamiltonian(SWANSON_H, 1.0, ORACLE_GRID))


def cayley(kind: str) -> Timed:
    """The grid oracle's Cayley maps (private `gridsolver._cayley_matrix`):
    a build with the damping for each map, the operator's cache cleared just
    before, for the coarse map C at τ = 1e-3, kept with C² (one product),
    and the fine map C² at τ = 5e-4, kept with C⁴ (two products); the
    squaring C @ C alone; one Crank–Nicolson step, per step of 500 products
    E²ψ, each two steps for the coarse map's E² = C² and four for the fine
    map's E² = C⁴.  The squaring and the steps time the kernels gridsolver
    calls, scipy's zgemm and zgemv, on Fortran-ordered matrices as the cache
    holds them."""
    from hagedorn.gridsolver import _cayley_matrix

    grid, operator, params = oracle_operator()
    if kind in ("coarse", "fine"):
        step, substeps = (1e-3, 1) if kind == "coarse" else (5e-4, 2)

        def cleared():
            operator._cayley.clear()
            return ()

        return Timed(lambda: _cayley_matrix(operator, step, substeps), before=cleared)
    coarse, squared = _cayley_matrix(operator, 1e-3, 1)
    if kind == "squaring":
        return Timed(lambda: zgemm(1.0, coarse, coarse))
    if kind == "step-coarse":
        steps, matrix = 2, squared
    else:
        steps, matrix = 4, _cayley_matrix(operator, 5e-4, 2)[1]
    psi = eval_excited(params, (1,), grid)

    def call():
        for _ in range(500):
            zgemv(1.0, matrix, psi)

    return Timed(call, 500 * steps)


def marches(ks):
    """A call that marches the Swanson packet's field of each k in ks by
    propagate_grid through (0.25, 0.5), at the preset's dt and grid_tol, on
    the oracle's operator; the fields are evaluated once, here."""
    grid, operator, params = oracle_operator()
    fields = [eval_excited(params, (k,), grid) for k in ks]

    def call():
        for field in fields:
            propagate_grid(field, operator, (0.25, 0.5), dt=ORACLE["dt"],
                           grid_tol=ORACLE["grid_tol"])
        return ()

    return call


def march() -> Timed:
    """propagate_grid for α = 0, 1, 2, per run of three marches; the untimed
    call warms the operator's cache."""
    return Timed(marches(range(3)))


def after_a_march() -> Timed:
    """propagate for `swanson-fig1`'s 200 times, just after an untimed march
    of α = 1: the order in which run_scenario and the benchmark's oracle
    workload call them, so the row shows what the march's BLAS threads leave
    behind.  It times one call, not CALLS: only the first call after the
    march meets what the march leaves."""
    args = fig1_args()
    return Timed(lambda: propagate(*args), before=marches([1]))


def scenario(preset: str, **changes) -> Timed:
    """run_scenario, artifacts written to a temporary directory: on
    `swanson-fig1` with its oracle at t = 0.25, 0.5, with the preset's full
    oracle list and with the oracle off; on `horizon` with its window
    stretched to t = 2000, far past its horizon at t = 0.815."""
    raw = {**copy.deepcopy(PRESETS[preset]), **changes}

    def call():
        with tempfile.TemporaryDirectory() as out:
            run_scenario(load_config(raw), Path(out))

    return Timed(call)


def process(*args, cwd=None) -> Timed:
    """One fresh interpreter with this run's PYTHONPATH, start-up included,
    artifacts written to a new temporary directory named by
    HAGEDORN_OUT_DIR: `python -c pass`, the two imports, every preset with
    --no-oracle, and tests/configs/driven-sampled.json (n = 2, H sampled on
    5 knots) with --no-oracle."""

    def call(out):
        subprocess.run([sys.executable, *args], env={**os.environ, OUT_DIR_ENV: out.name},
                       cwd=cwd, check=True, capture_output=True)

    return Timed(call, before=lambda: (tempfile.TemporaryDirectory(),))


def tier1_suite() -> Timed:
    """The Tier-1 suite of the checkout this file sits in, as one process.
    It runs on that checkout only: ten pairs would take about 17 minutes, so
    with another tree's src on the path the build fails and the row is left
    unpaired."""
    if Path(hagedorn.__file__).resolve().parents[2] != ROOT:
        raise SystemExit("the Tier-1 suite row runs on its own checkout only")
    return process("-m", "pytest", "-q", "-p", "no:cacheprovider", cwd=ROOT)


SEEDED = "150 times on [0, 3]"
ORACLE_CASE = "Swanson, N=1024"
DRIVEN = ROOT / "tests" / "configs" / "driven-sampled.json"

ROWS = {
    **{f"coefficients-n{n}-order{order}": Row(
        "hagedorn_coefficients", f"n={n}, every alpha with |alpha| = {order}, raised from e0"
        " at a state copy the slot has not seen", "call",
        lambda n=n, order=order: cold_coefficients(n, order))
       for n in (3, 4) for order in (4, 6, 8, 12)},
    **{f"coefficients-n{n}-a{top}": Row(
        "hagedorn_coefficients", f"n={n}, every alpha with |alpha| <= {top} in graded order,"
        " new state", "run", lambda n=n, top=top: graded_coefficients(n, top))
       for n, top in ((3, 8), (4, 6))},
    "coefficients-n1-small": Row("hagedorn_coefficients", "n=1 Swanson, |alpha| <= 2", "call",
                                 small_table),
    "propagate-swanson-n1": Row(
        "propagate", "swanson n=1, 200 times on [0, 10]", "call",
        lambda: propagate_row(np.array([[1.0], [-1.0j]]), np.zeros(2), swanson_hamiltonian(),
                              np.linspace(0.0, 10.0, 200))),
    **{f"propagate-{kind}-n{n}": Row(
        "propagate", f"{kind} n={n}, {SEEDED}", "call",
        lambda kind=kind, n=n: propagate_row(*seeded(kind, n)))
       for kind in ("sampled", "polynomial", "constant") for n in (1, 2, 3)},
    "propagate-sampled-n2-ends": Row("propagate", "sampled n=2, times [0, 3]", "call",
                                     sampled_ends),
    "propagate-harmonic-n3-long": Row(
        "propagate", "harmonic n=3, 150 times on [0, 37]", "call",
        lambda: propagate_row(standard_frame(3), np.zeros(6),
                              QuadraticHamiltonian.constant(np.eye(6)), np.linspace(0.0, 37.0, 150))),
    "propagate-after-march": Row(
        "propagate after a march", "swanson-fig1, 200 times, right after a propagate_grid"
        " march of alpha = 1 through (0.25, 0.5)", "call", after_a_march),
    "flow-swanson": Row("flow", "swanson n=1, S_t from 0 to 10", "call",
                        lambda: flow_row(swanson_hamiltonian(), 10.0)),
    "flow-polynomial-n3": Row("flow", "polynomial n=3, S_t from 0 to 3", "call",
                              lambda: flow_row(seeded("polynomial", 3)[2], 3.0)),
    "fields-n2": Row(
        "evolved_state_on_grid", "n=2, 256x256, all 45 alpha with |alpha| <= 8, t = 1.5 and 0.75",
        "run of 45 fields at one state",
        lambda: fields([mode_mixed_state(2, 1.5), mode_mixed_state(2, 0.75)], GRID_2,
                       [alpha for d in range(9) for alpha in multi_indices(2, d)], 2)),
    "fields-n1": Row(
        "evolved_state_on_grid", "n=1 Swanson, N=1024, k = 0..8, t = 0.5 and 0.25", "field",
        lambda: fields([swanson_state(0.5), swanson_state(0.25)],
                       Grid(bounds=[(-10.0, 10.0)], counts=[1024]), [(k,) for k in range(9)], 18)),
    "grid-norm-n2": Row("grid_norm", "n=2, 256x256", "call", norms),
    "frame-normalised-n3": Row("NormalisedFrame", "n=3 mode-mixed frame at t = 1.5", "call",
                               normalised_frame),
    **{f"trajectory-{case}-{how}": Row(
        "coefficients over a trajectory", f"{label}, {how_label}", "run of all alpha",
        lambda case=case, how=how: over_a_trajectory(case, how == "per-state"))
       for case, label in (("fig1", "swanson-fig1, 200 states, alpha = 0, 1, 2"),
                           ("constant-n3", "constant n=3, 150 states, alpha = 0, e1"))
       for how, how_label in (("per-state", "hagedorn_coefficients per state"),
                              ("sweep", "coefficient_sweep per alpha"))},
    "discretize": Row("discretize_hamiltonian", ORACLE_CASE, "call", assembly),
    "cayley-coarse": Row("Cayley build", f"{ORACLE_CASE}, coarse map C, tau=1e-3, damped, C and C^2"
                         " cached (1 product)", "call", lambda: cayley("coarse")),
    "cayley-fine": Row("Cayley build", f"{ORACLE_CASE}, fine map C^2, tau=5e-4, damped, C^2 and C^4"
                       " cached (2 products)", "call", lambda: cayley("fine")),
    "cayley-squaring": Row("Cayley squaring", f"{ORACLE_CASE}, C @ C by scipy zgemm", "call",
                           lambda: cayley("squaring")),
    "cn-step-coarse": Row("Crank-Nicolson step", f"{ORACLE_CASE}, one column, scipy zgemv with"
                          " E^2 = C^2 of the coarse map (2 steps a product)", "step",
                          lambda: cayley("step-coarse")),
    "cn-step-fine": Row("Crank-Nicolson step", f"{ORACLE_CASE}, one column, scipy zgemv with"
                        " E^2 = C^4 of the fine map (4 steps a product)", "step",
                        lambda: cayley("step-fine")),
    "march": Row("propagate_grid march", f"{ORACLE_CASE}, alpha = 0, 1, 2 through (0.25, 0.5),"
                 " warm operator", "run of 3 marches", march),
    "scenario-oracle-short": Row(
        "run_scenario", "swanson-fig1, oracle at t = 0.25, 0.5", "run",
        lambda: scenario("swanson-fig1", oracle={**ORACLE, "times": [0.25, 0.5]})),
    "scenario-oracle-full": Row("run_scenario", "swanson-fig1, full oracle list", "run",
                                lambda: scenario("swanson-fig1")),
    "scenario-no-oracle": Row("run_scenario", "swanson-fig1, no oracle", "run",
                              lambda: scenario("swanson-fig1", oracle={"enabled": False})),
    "scenario-horizon-long": Row(
        "run_scenario", "horizon, window to t = 2000, no oracle", "run",
        lambda: scenario("horizon", times={"start": 0.0, "stop": 2000.0, "count": 80})),
    "process-python": Row("subprocess", "python -c pass", "process",
                          lambda: process("-c", "pass")),
    **{f"process-import-{name}": Row("subprocess", f"import {module}", "process",
                                     lambda module=module: process("-c", f"import {module}"))
       for name, module in (("hagedorn", "hagedorn"), ("cli", "hagedorn.cli"))},
    **{f"process-preset-{name}": Row(
        "subprocess", f"hagedorn run --preset {name} --no-oracle", "process",
        lambda name=name: process("-m", "hagedorn", "run", "--preset", name, "--no-oracle"))
       for name in sorted(PRESETS)},
    "process-driven-sampled": Row(
        "subprocess", f"hagedorn run {DRIVEN.relative_to(ROOT)} --no-oracle", "process",
        lambda: process("-m", "hagedorn", "run", str(DRIVEN), "--no-oracle")),
    "tier1-suite": Row("subprocess", "Tier-1 suite, python -m pytest -q", "process", tier1_suite),
}


def main() -> None:
    timed = ROWS[sys.argv[1]].build()
    for _ in range(2):  # one untimed call, then the timed one
        args = timed.before()
        start = time.perf_counter()
        timed.call(*args)
        elapsed = time.perf_counter() - start
    print(elapsed * 1e3 / timed.divisor)


if __name__ == "__main__":
    main()

"""One timed call of a public entry point of whichever `hagedorn` is on the path.

    PYTHONPATH=<tree>/src python3 bench/public_rows.py ROW

Builds ROW's inputs, makes one untimed call and one timed call, and prints
the wall time of the timed call in ms.  `bench/run.py --against REV` runs it
in a fresh interpreter for each of two trees in turn, so it calls only entry
points that both trees have: `run_scenario` on the `swanson-fig1` preset
and on the `horizon` preset over a long window,
`propagate_grid`, `propagate` under a constant, sampled or polynomial H
and over a long horizon, and `hagedorn_coefficients` for every α up to a
degree at one state.
"""

import copy
import itertools
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from hagedorn.cli import PRESETS, load_config, run_scenario, standard_frame
from hagedorn.gridsolver import discretize_hamiltonian, propagate_grid
from hagedorn.propagation import QuadraticHamiltonian, hagedorn_coefficients, propagate
from hagedorn.swanson import SwansonParams
from hagedorn.wavepackets import Grid, WavepacketParams, eval_excited


ORACLE = PRESETS["swanson-fig1"]["oracle"]


def scenario(oracle: dict):
    """run_scenario on swanson-fig1 with `oracle` as its oracle block,
    artifacts written to a temporary directory."""
    raw = {**copy.deepcopy(PRESETS["swanson-fig1"]), "oracle": oracle}

    def call():
        with tempfile.TemporaryDirectory() as out:
            run_scenario(load_config(raw), Path(out))

    return call


def horizon_long():
    """run_scenario on the horizon preset with its window stretched to
    t = 2000, far past its horizon at t = 0.815, artifacts written to a
    temporary directory."""
    raw = {**copy.deepcopy(PRESETS["horizon"]),
           "times": {"start": 0.0, "stop": 2000.0, "count": 80}}

    def call():
        with tempfile.TemporaryDirectory() as out:
            run_scenario(load_config(raw), Path(out))

    return call


def march():
    """propagate_grid through (0.25, 0.5) for α = 0, 1, 2 at the preset's dt
    and grid_tol on the oracle's 1024-node grid; the untimed call warms the
    operator's cache."""
    grid = Grid(bounds=[(-12.0, 12.0)], counts=[1024])
    operator = discretize_hamiltonian(SwansonParams(1.0, 0.5).matrix(), 1.0, grid)
    params = WavepacketParams(frame=np.array([[1.0], [-1.0j]]), center=np.zeros(2), eps=1.0)
    fields = [eval_excited(params, (k,), grid) for k in range(3)]

    def call():
        for field in fields:
            propagate_grid(field, operator, (0.25, 0.5), dt=ORACLE["dt"],
                           grid_tol=ORACLE["grid_tol"])

    return call


def seeded(kind: str, n: int):
    """propagate of the standard frame from a seeded centre, 150 times on
    [0, 3], under a seeded constant H, an H sampled on 7 knots of [0, 3] or
    the polynomial H₀ + tH₁ + t²H₂ (H₁ scaled by 0.2, H₂ by 0.05), each
    matrix R + iI with R = XXᵀ/2n + ½Id and I = 0.05(Y + Yᵀ) for Gaussian
    X, Y.  No case loses positivity on [0, 3]."""
    rng = np.random.default_rng(2)

    def matrix():
        X, Y = rng.normal(size=(2 * n, 2 * n)), rng.normal(size=(2 * n, 2 * n))
        return X @ X.T / (2 * n) + 0.5 * np.eye(2 * n) + 0.05j * (Y + Y.T)

    knots = np.linspace(0.0, 3.0, 7)
    sampled = QuadraticHamiltonian.sampled(knots, [matrix() for _ in knots])
    polynomial = QuadraticHamiltonian.polynomial([scale * matrix() for scale in (1.0, 0.2, 0.05)])
    centre = rng.uniform(-1.0, 1.0, 2 * n)
    # drawn last, so that the sampled and polynomial rows keep their inputs
    constant = QuadraticHamiltonian.constant(matrix())
    H = {"constant": constant, "sampled": sampled, "polynomial": polynomial}[kind]
    args = (standard_frame(n), centre, H, np.linspace(0.0, 3.0, 150))
    return lambda: propagate(*args)


def long_horizon():
    """propagate of the n = 3 standard frame under the harmonic H = Id, 150
    times on [0, 37]: t·‖ΩH‖₂ = 37, against at most 2π for the presets and
    3·max_t ‖ΩH(t)‖₂ ≤ 20 for the other propagate rows."""
    n = 3
    args = (standard_frame(n), np.zeros(2 * n), QuadraticHamiltonian.constant(np.eye(2 * n)),
            np.linspace(0.0, 37.0, 150))
    return lambda: propagate(*args)


def coefficients(n: int, top: int):
    """hagedorn_coefficients for every α with |α| ≤ top, in graded order (by
    |α|, then stars and bars), at the standard frame propagated from a
    seeded centre to t = 1.5 under a seeded H = R + iI as in `seeded`.
    Each call takes a state of its own propagation, so the timed call meets
    a state that the untimed call never touched: the sequence of α at a new
    state, as a coefficient table over one state asks for it."""
    rng = np.random.default_rng(3)
    X, Y = rng.normal(size=(2 * n, 2 * n)), rng.normal(size=(2 * n, 2 * n))
    H = QuadraticHamiltonian.constant(X @ X.T / (2 * n) + 0.5 * np.eye(2 * n) + 0.05j * (Y + Y.T))
    args = (standard_frame(n), rng.uniform(-1.0, 1.0, 2 * n), H, [0.0, 1.5])
    states = [propagate(*args)[-1] for _ in range(2)]
    alphas = []
    for d in range(top + 1):
        for bars in itertools.combinations(range(d + n - 1), n - 1):
            edges = (-1,) + bars + (d + n - 1,)
            alphas.append(tuple(edges[i + 1] - edges[i] - 1 for i in range(n)))

    def call():
        state = states.pop()
        for alpha in alphas:
            hagedorn_coefficients(state, alpha)

    return call


ROWS = {
    "scenario-oracle-short": lambda: scenario({**ORACLE, "times": [0.25, 0.5]}),
    "scenario-oracle-full": lambda: scenario(ORACLE),
    "scenario-no-oracle": lambda: scenario({"enabled": False}),
    "scenario-horizon-long": horizon_long,
    "march": march,
    **{f"propagate-{kind}-n{n}": (lambda kind=kind, n=n: seeded(kind, n))
       for kind in ("sampled", "polynomial", "constant") for n in (1, 2, 3)},
    "propagate-harmonic-n3-long": long_horizon,
    "coefficients-n3-a8": lambda: coefficients(3, 8),
    "coefficients-n4-a6": lambda: coefficients(4, 6),
}


def main() -> None:
    call = ROWS[sys.argv[1]]()
    call()
    start = time.perf_counter()
    call()
    print((time.perf_counter() - start) * 1e3)


if __name__ == "__main__":
    main()

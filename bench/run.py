"""Per-call times of `hagedorn_coefficients`, `coefficient_sweep`, `propagate`,
grid fields, the grid oracle's building blocks, whole `swanson-fig1` runs and
subprocess runs of every preset, written to BENCH_20.json.

    python3 bench/run.py

Imports the package from ./src of the checkout this script sits in.

- `hagedorn_coefficients` by (n, |α|): for n = 3 and 4 it propagates the
  standard frame under one seeded mode-mixed, non-Hermitian H = R + iI
  (R = XXᵀ/2n + ½Id, I = 0.05(Y + Yᵀ) for Gaussian X, Y) to t = 1.5, then
  calls `hagedorn_coefficients` for every α with |α| = 4, 6, 8 and 12 at that
  state.  One run of a row is the mean time per call over all those α.
- `propagate` by case: the n = 1 Swanson oscillator (ω0 = 1, δ = 0.5) from
  the frame (1; −i), 200 times on [0, 10]; a seeded n = 3 constant H, 150
  times on [0, 3]; a seeded n = 2 H sampled on 7 knots of [0, 3], at 150
  times on [0, 3] and at the times [0, 3]; a seeded n = 2 polynomial
  H₀ + tH₁ + t²H₂ (each matrix drawn as the mode-mixed H above, H₁ scaled by
  0.2 and H₂ by 0.05), 150 times on [0, 3].  All but the first start from
  the standard frame and a seeded centre.  One run of a row is one call,
  after one warm-up call; each row also gives the number of `solve_ivp`
  calls that one call makes, counted through `propagation.solve_ivp`.
- Grid fields: `evolved_state_on_grid` for all 45 α with |α| ≤ 8 on a
  256×256 grid, at the n = 2 states of the mode-mixed H above at t = 1.5
  and 0.75, one run being the mean over the two states of all 45 fields at
  one state; the n = 1 Swanson states at t = 0.5 and 0.25 on a 1024-node
  grid, one run being the mean per field over k = 0…8 at both.  Each run
  moves from one state to the other, so it builds each state's ground field
  and polynomial argument once, as a run over a trajectory does.
- `grid_norm` of one field on that 256×256 grid: the mean over 100 calls.
- `hagedorn_coefficients` for n = 1, |α| ≤ 2 at that Swanson state: one run
  is the mean per call over 600 calls cycling k = 0, 1, 2.
- The coefficients of every state of a trajectory, two ways: one
  `coefficient_sweep` per α, and one `hagedorn_coefficients` per (α, state)
  on views built before the timing.  Cases: `swanson-fig1`'s 200 states with
  α = 0, 1, 2, and the seeded n = 3 constant H of the `propagate` rows
  (150 states) with α = 0 and e₁.  One run is all α of a case.
- Grid oracle, Swanson H on the oracle's 1024-node grid of [−12, 12]: one
  `discretize_hamiltonian` call; one Cayley build at τ = 1e-3 with the
  damping (`_cayley_matrix` after clearing the operator's cache, so the C²
  product included); the squaring C @ C alone; one Crank–Nicolson step, the
  mean over 500 products C² ψ, each counted as two steps; one march of
  `propagate_grid` through (0.25, 0.5) for each of α = 0, 1, 2 at the
  preset's dt and grid_tol, the operator's cache already warm, one run being
  all three marches.  The squaring and the step time the kernels
  `gridsolver` calls, scipy's `zgemm` and `zgemv`, on Fortran-ordered
  matrices as the cache holds them.
- `propagate` for the `swanson-fig1` preset's 200 times, each run timed
  right after an untimed march of α = 1 through (0.25, 0.5): the order in
  which `run_scenario` and the benchmark's oracle workload call them, so the
  row shows what the march's BLAS threads leave behind.
- `run_scenario` on the `swanson-fig1` preset, artifacts written to a
  temporary directory: with its oracle at times (0.25, 0.5), with the
  preset's full oracle list, and with the oracle off.  One run is one call;
  these rows take the median of SCENARIO_RUNS runs.
- Subprocesses, start-up included, each the wall time of one fresh
  interpreter with ./src on PYTHONPATH: `python -c pass` (the interpreter
  alone), `python -c "import hagedorn"`, `python -c "import hagedorn.cli"`,
  and `python -m hagedorn run
  --preset <p> --no-oracle` for all four presets, writing into a temporary
  directory named by HAGEDORN_OUT_DIR.
  These rows take the median of SUBPROCESS_RUNS runs after one warm-up run.

Each row holds the median and the best of its runs.  The file also records
the machine (nproc, Python, numpy and scipy versions).  A `parent` block
already in BENCH_20.json (the same rows measured on the parent commit, by
running this script from a checkout of it) is kept as it is.
"""

import copy
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import combinations
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.linalg.blas import zgemm, zgemv  # noqa: E402

from hagedorn import propagation  # noqa: E402
from hagedorn.cli import (  # noqa: E402
    OUT_DIR_ENV,
    PRESETS,
    load_config,
    run_scenario,
    standard_frame,
)
from hagedorn.gridsolver import (  # noqa: E402
    _cayley_matrix,
    discretize_hamiltonian,
    propagate_grid,
)
from hagedorn.propagation import (  # noqa: E402
    QuadraticHamiltonian,
    coefficient_sweep,
    evolved_state_on_grid,
    hagedorn_coefficients,
    propagate,
)
from hagedorn.swanson import SwansonParams  # noqa: E402
from hagedorn.wavepackets import Grid, WavepacketParams, eval_excited, grid_norm  # noqa: E402

OUT = ROOT / "BENCH_20.json"
MODES = (3, 4)
ORDERS = (4, 6, 8, 12)
RUNS = 5
SCENARIO_RUNS = 3
SUBPROCESS_RUNS = 5
SEED = 2
T = 1.5


def multi_indices(n: int, order: int):
    """Every α with n components and |α| = order (stars and bars)."""
    for bars in combinations(range(order + n - 1), n - 1):
        edges = (-1,) + bars + (order + n - 1,)
        yield tuple(edges[i + 1] - edges[i] - 1 for i in range(n))


def mode_mixed_matrix(rng, n: int) -> np.ndarray:
    X, Y = rng.normal(size=(2 * n, 2 * n)), rng.normal(size=(2 * n, 2 * n))
    return X @ X.T / (2 * n) + 0.5 * np.eye(2 * n) + 0.05j * (Y + Y.T)


def mode_mixed_state(n: int, t: float = T):
    H = mode_mixed_matrix(np.random.default_rng(SEED), n)
    states = propagate(
        standard_frame(n), np.zeros(2 * n), QuadraticHamiltonian.constant(H), [0.0, t]
    )
    return states[-1]


def swanson_state(t: float = 0.5):
    H = QuadraticHamiltonian.constant(SwansonParams(1.0, 0.5).matrix())
    return propagate(np.array([[1.0], [-1.0j]]), np.zeros(2), H, [0.0, t])[-1]


def timing_row(fields: dict, times: list) -> dict:
    """One output row: the median and the best of `times` (ms), printed."""
    row = {**fields, "ms_per_call": statistics.median(times), "best_ms": min(times),
           "runs_ms": times}
    print(json.dumps(row), flush=True)
    return row


def timed_rows(cases, runs: int = RUNS) -> list:
    """One row per (row fields, function, inputs, divisor): the time of one
    call per input, in ms per run / divisor, over `runs` runs after a warm-up
    run.  No result is kept alive past its call."""

    def run(fn, inputs) -> float:
        start = time.perf_counter()
        for x in inputs:
            fn(x)
        return (time.perf_counter() - start) * 1e3

    rows = []
    for fields, fn, inputs, per in cases:
        run(fn, inputs)
        rows.append(timing_row(fields, [run(fn, inputs) / per for _ in range(runs)]))
    return rows


def field_and_small_coefficient_rows() -> list:
    states_2 = [mode_mixed_state(2), mode_mixed_state(2, T / 2)]
    grid_2 = Grid(bounds=[(-8.0, 8.0), (-8.0, 8.0)], counts=[256, 256])
    state_1 = swanson_state()
    states_1 = [state_1, swanson_state(0.25)]
    grid_1 = Grid(bounds=[(-10.0, 10.0)], counts=[1024])
    small = [(k % 3,) for k in range(600)]
    field = evolved_state_on_grid(states_2[0], (2, 1), 1.0, grid_2)
    return timed_rows([
        (
            {"what": "evolved_state_on_grid", "per": "run of 45 fields at one state",
             "case": "n=2, 256x256, all 45 alpha with |alpha| <= 8, t = 1.5 and 0.75"},
            lambda x: evolved_state_on_grid(x[0], x[1], 1.0, grid_2),
            [(st, a) for st in states_2 for order in range(9) for a in multi_indices(2, order)],
            len(states_2),
        ),
        (
            {"what": "evolved_state_on_grid",
             "case": "n=1 Swanson, N=1024, k = 0..8, t = 0.5 and 0.25", "per": "field"},
            lambda x: evolved_state_on_grid(x[0], x[1], 1.0, grid_1),
            [(st, (k,)) for st in states_1 for k in range(9)],
            9 * len(states_1),
        ),
        (
            {"what": "grid_norm", "case": "n=2, 256x256", "per": "call"},
            lambda f: grid_norm(f, grid_2),
            [field] * 100,
            100,
        ),
        (
            {"what": "hagedorn_coefficients", "case": "n=1 Swanson, |alpha| <= 2",
             "per": "call"},
            lambda a: hagedorn_coefficients(state_1, a),
            small,
            len(small),
        ),
    ])


def coefficient_rows() -> list:
    cases = []
    for n in MODES:
        state = mode_mixed_state(n)
        for order in ORDERS:
            alphas = list(multi_indices(n, order))
            cases.append((
                {"what": "hagedorn_coefficients", "n": n, "order": order, "alphas": len(alphas)},
                lambda a, state=state: hagedorn_coefficients(state, a),
                alphas,
                len(alphas),
            ))
    return timed_rows(cases)


def propagate_cases() -> dict:
    """name → (frame, centre, H, times)."""
    rng = np.random.default_rng(SEED)
    swanson = QuadraticHamiltonian.constant(SwansonParams(1.0, 0.5).matrix())
    frame_1 = np.array([[1.0], [-1.0j]])
    knots = np.linspace(0.0, 3.0, 7)
    sampled = QuadraticHamiltonian.sampled(knots, [mode_mixed_matrix(rng, 2) for _ in knots])
    constant = QuadraticHamiltonian.constant(mode_mixed_matrix(rng, 3))
    cases = {
        "swanson n=1, 200 times on [0, 10]": (frame_1, np.zeros(2), swanson, np.linspace(0.0, 10.0, 200)),
        "constant n=3, 150 times on [0, 3]": (
            standard_frame(3), rng.uniform(-1.0, 1.0, 6), constant, np.linspace(0.0, 3.0, 150)
        ),
        "sampled n=2, 150 times on [0, 3]": (
            standard_frame(2), rng.uniform(-1.0, 1.0, 4), sampled, np.linspace(0.0, 3.0, 150)
        ),
    }
    # drawn after the rows above, which keep the inputs of earlier BENCH files
    polynomial = QuadraticHamiltonian.polynomial(
        [scale * mode_mixed_matrix(rng, 2) for scale in (1.0, 0.2, 0.05)]
    )
    centre = rng.uniform(-1.0, 1.0, 4)
    cases["sampled n=2, times [0, 3]"] = (standard_frame(2), centre, sampled, np.array([0.0, 3.0]))
    cases["polynomial n=2, 150 times on [0, 3]"] = (
        standard_frame(2), centre, polynomial, np.linspace(0.0, 3.0, 150)
    )
    return cases


def solve_ivp_calls(args) -> int:
    """The solve_ivp calls that one propagate(*args) makes."""
    with mock.patch.object(propagation, "solve_ivp", wraps=propagation.solve_ivp) as counted:
        propagate(*args)
    return counted.call_count


def propagate_rows() -> list:
    return timed_rows(
        (
            {"what": "propagate", "case": name, "solve_ivp_calls": solve_ivp_calls(args)},
            lambda case: propagate(*case),
            [args],
            1,
        )
        for name, args in propagate_cases().items()
    )


def trajectory_coefficient_rows() -> list:
    fig1 = load_config({**PRESETS["swanson-fig1"], "oracle": {"enabled": False}})
    constant = propagate_cases()["constant n=3, 150 times on [0, 3]"]
    cases = [
        ("swanson-fig1, 200 states, alpha = 0, 1, 2",
         propagate(fig1.frame, fig1.center, fig1.hamiltonian, fig1.times), list(fig1.alphas)),
        ("constant n=3, 150 states, alpha = 0, e1",
         propagate(*constant), [(0, 0, 0), (1, 0, 0)]),
    ]
    rows = []
    for case, states, alphas in cases:
        views = list(states)
        rows.append((
            {"what": "coefficients over a trajectory", "how": "hagedorn_coefficients per state",
             "case": case, "per": "run of all alpha"},
            lambda a, views=views: [hagedorn_coefficients(st, a) for st in views],
            alphas,
            1,
        ))
        rows.append((
            {"what": "coefficients over a trajectory", "how": "coefficient_sweep per alpha",
             "case": case, "per": "run of all alpha"},
            lambda a, states=states: coefficient_sweep(states, a),
            alphas,
            1,
        ))
    return timed_rows(rows)


def subprocess_rows() -> list:
    def run(args) -> float:
        with tempfile.TemporaryDirectory() as out:
            env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), OUT_DIR_ENV: out}
            start = time.perf_counter()
            subprocess.run([sys.executable, *args], env=env, check=True, capture_output=True)
            return (time.perf_counter() - start) * 1e3

    cases = [("python -c pass", ["-c", "pass"]),
             ("import hagedorn", ["-c", "import hagedorn"]),
             ("import hagedorn.cli", ["-c", "import hagedorn.cli"])]
    cases += [
        (f"hagedorn run --preset {name} --no-oracle",
         ["-m", "hagedorn", "run", "--preset", name, "--no-oracle"])
        for name in sorted(PRESETS)
    ]
    rows = []
    for case, args in cases:
        run(args)
        rows.append(timing_row({"what": "subprocess", "case": case, "per": "process"},
                               [run(args) for _ in range(SUBPROCESS_RUNS)]))
    return rows


def grid_oracle_rows() -> list:
    H = SwansonParams(1.0, 0.5).matrix()
    grid = Grid(bounds=[(-12.0, 12.0)], counts=[1024])
    operator = discretize_hamiltonian(H, 1.0, grid)
    params = WavepacketParams(frame=np.array([[1.0], [-1.0j]]), center=np.zeros(2), eps=1.0)
    psi = eval_excited(params, (1,), grid)
    cayley, squared = (np.asfortranarray(m) for m in _cayley_matrix(operator, 1e-3))
    oracle = PRESETS["swanson-fig1"]["oracle"]
    fields = [eval_excited(params, (k,), grid) for k in range(3)]

    def build_cayley(op):
        op._cayley.clear()
        _cayley_matrix(op, 1e-3)

    def march(op):
        for field in fields:
            propagate_grid(field, op, (0.25, 0.5), dt=oracle["dt"], grid_tol=oracle["grid_tol"])

    steps = 500
    return timed_rows([
        ({"what": "discretize_hamiltonian", "case": "Swanson, N=1024", "per": "call"},
         lambda g: discretize_hamiltonian(H, 1.0, g), [grid], 1),
        ({"what": "Cayley build", "case": "Swanson, N=1024, tau=1e-3, damped", "per": "call",
          "matrices_cached": 2},
         build_cayley, [operator], 1),
        ({"what": "Cayley squaring", "case": "Swanson, N=1024, C @ C by scipy zgemm",
          "per": "call"},
         lambda c: zgemm(1.0, c, c), [cayley], 1),
        ({"what": "Crank-Nicolson step", "case": "Swanson, N=1024, one column, scipy zgemv",
          "per": "step", "steps_per_product": 2},
         lambda f: zgemv(1.0, squared, f), [psi] * steps, 2 * steps),
        ({"what": "propagate_grid march", "case": "Swanson, N=1024, alpha = 0, 1, 2 through"
          " (0.25, 0.5), warm operator", "per": "run of 3 marches"},
         march, [discretize_hamiltonian(H, 1.0, grid)], 1),
    ]) + [propagate_after_march_row(operator, psi, oracle)]


def propagate_after_march_row(operator, field, oracle) -> dict:
    fig1 = load_config({**PRESETS["swanson-fig1"], "oracle": {"enabled": False}})
    args = (fig1.frame, fig1.center, fig1.hamiltonian, fig1.times)

    def run() -> float:
        propagate_grid(field, operator, (0.25, 0.5), dt=oracle["dt"], grid_tol=oracle["grid_tol"])
        start = time.perf_counter()
        propagate(*args)
        return (time.perf_counter() - start) * 1e3

    run()
    return timing_row(
        {"what": "propagate after a march", "case": "swanson-fig1, 200 times, right after a"
         " propagate_grid march of alpha = 1 through (0.25, 0.5)", "per": "call"},
        [run() for _ in range(RUNS)],
    )


def scenario_rows() -> list:
    full = PRESETS["swanson-fig1"]
    short = copy.deepcopy(full)
    short["oracle"]["times"] = [0.25, 0.5]
    off = copy.deepcopy(full)
    off["oracle"] = {"enabled": False}

    def run_preset(raw):
        with tempfile.TemporaryDirectory() as out:
            run_scenario(load_config(raw), Path(out))

    return timed_rows(
        [
            ({"what": "run_scenario", "case": case, "per": "run"}, run_preset, [raw], 1)
            for case, raw in (
                ("swanson-fig1, oracle at t = 0.25, 0.5", short),
                ("swanson-fig1, full oracle list", full),
                ("swanson-fig1, no oracle", off),
            )
        ],
        runs=SCENARIO_RUNS,
    )


def main() -> None:
    rows = (
        coefficient_rows()
        + propagate_rows()
        + field_and_small_coefficient_rows()
        + trajectory_coefficient_rows()
        + grid_oracle_rows()
        + scenario_rows()
        + subprocess_rows()
    )
    report = {
        "what": "ms per call of hagedorn_coefficients by (n, |alpha|), of propagate, grid"
        " fields, grid norms and small coefficient tables by case, of the coefficients over a"
        " trajectory per state and by sweep, of the grid oracle's assembly, Cayley build,"
        " squaring, step and march, of propagate right after a march, of swanson-fig1 runs,"
        " and of subprocess imports and preset runs, median of runs",
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "setup": {"seed": SEED, "t": T, "runs": RUNS, "scenario_runs": SCENARIO_RUNS,
                  "subprocess_runs": SUBPROCESS_RUNS},
        "rows": rows,
    }
    if OUT.exists():
        parent = json.loads(OUT.read_text()).get("parent")
        if parent is not None:
            report["parent"] = parent
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()

"""Per-call times of `hagedorn_coefficients`, `coefficient_sweep`, `propagate`,
grid fields, the grid oracle's building blocks, whole `swanson-fig1` runs and
subprocess runs of every preset and of a driven config, written to
BENCH_25.json.

    python3 bench/run.py [--against REV]

Imports the package from ./src of the checkout this script sits in.

- `hagedorn_coefficients` by (n, |α|): for n = 3 and 4 it propagates the
  standard frame under one seeded mode-mixed, non-Hermitian H = R + iI
  (R = XXᵀ/2n + ½Id, I = 0.05(Y + Yᵀ) for Gaussian X, Y) to t = 1.5, then
  calls `hagedorn_coefficients` for every α with |α| = 4, 6, 8 and 12 at that
  state.  One run of a row is the mean time per call over all those α, at a
  copy of the state that the prefix memo has not seen, so no α of the run
  finds a prefix held and every call raises α from e₀.
- `propagate` by case: the n = 1 Swanson oscillator (ω0 = 1, δ = 0.5) from
  the frame (1; −i), 200 times on [0, 10]; a seeded n = 3 constant H, 150
  times on [0, 3]; a seeded n = 2 H sampled on 7 knots of [0, 3], at 150
  times on [0, 3] and at the times [0, 3]; a seeded n = 2 polynomial
  H₀ + tH₁ + t²H₂ (each matrix drawn as the mode-mixed H above, H₁ scaled by
  0.2 and H₂ by 0.05), 150 times on [0, 3].  All but the first start from
  the standard frame and a seeded centre.  One run of a row is one call,
  after one warm-up call; each row also gives the number of Taylor series
  that one call sums, counted through `propagation._series` (one per
  Taylor step, for every kind of H).
- Grid fields: `evolved_state_on_grid` for all 45 α with |α| ≤ 8 on a
  256×256 grid, at the n = 2 states of the mode-mixed H above at t = 1.5
  and 0.75, one run being the mean over the two states of all 45 fields at
  one state; the n = 1 Swanson states at t = 0.5 and 0.25 on a 1024-node
  grid, one run being the mean per field over k = 0…8 at both.  Each run
  moves from one state to the other, so it builds each state's ground field
  and polynomial argument once, as a run over a trajectory does.
- `grid_norm` of one field on that 256×256 grid: the mean over 100 calls.
- `hagedorn_coefficients` for n = 1, |α| ≤ 2 at that Swanson state: one run
  is the mean per call over 600 calls, k = 0, 1, 2 at each of 200 copies of
  the state that the prefix memo has not seen, so k = 1 and 2 each take one
  raising step from the row before, as the CLI's tables of one state do.
- The coefficients of every state of a trajectory, two ways: one
  `coefficient_sweep` per α, and one `hagedorn_coefficients` per (α, state)
  on views built before the timing.  Cases: `swanson-fig1`'s 200 states with
  α = 0, 1, 2, and the seeded n = 3 constant H of the `propagate` rows
  (150 states) with α = 0 and e₁.  One run is all α of a case, on a copy of
  the trajectory that the prefix memo has not seen: the sweeps share
  prefixes within a run (α = 2 continues from α = 1), the per-state calls,
  which move to another state on every call, do not.
- Grid oracle, Swanson H on the oracle's 1024-node grid of [−12, 12]: one
  `discretize_hamiltonian` call; one Cayley build with the damping for each
  map (`_cayley_matrix` after clearing the operator's cache): the coarse
  map C at τ = 1e-3, kept with C² (one product), and the fine map C² at
  τ = 5e-4, kept with C⁴ (two products); the squaring C @ C alone; one
  Crank–Nicolson step, the mean over 500 products E² ψ, each counted as two
  steps for the coarse map's E² = C² and four for the fine map's E² = C⁴;
  one march of `propagate_grid` through (0.25, 0.5) for each of α = 0, 1, 2
  at the preset's dt and grid_tol, the operator's cache already warm, one
  run being all three marches.  The squaring and the step time the kernels
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
  `python -m hagedorn run --preset <p> --no-oracle` for all four presets,
  and `python -m hagedorn run tests/configs/driven-sampled.json --no-oracle`
  (n = 2, H sampled on 5 knots), writing into a temporary directory named
  by HAGEDORN_OUT_DIR.
  These rows take the median of SUBPROCESS_RUNS runs after one warm-up run.

Each row holds the median and the best of its runs.  The file also records
the machine (nproc, Python, numpy and scipy versions).

With --against REV the file also holds a `paired` block: REV's tree,
exported by `git archive` into a temporary directory, and this checkout run
the rows that call only public entry points, PAIRED_RUNS pairs after one
warm-up run each, alternating which tree runs first, every run in a fresh
interpreter with that tree's src on PYTHONPATH.  These are the three
`run_scenario` rows, the march, `propagate` under a sampled, a polynomial
and a constant H for n = 1, 2, 3 at 150 times on [0, 3] and under the
harmonic H for n = 3 at 150 times on [0, 37], `hagedorn_coefficients` for
every α with |α| ≤ 8 at n = 3 and |α| ≤ 6 at n = 4 in graded order at a
new state (all timed inside the interpreter by bench/public_rows.py), and
the subprocess start-up rows.
Each paired row gives both medians, their quartiles and the number of pairs
the checkout won, so the host's drift over the minutes of a run falls on
both trees alike.
"""

import argparse
import dataclasses
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

import public_rows  # noqa: E402  (bench/, the script's own directory)

OUT = ROOT / "BENCH_25.json"
MODES = (3, 4)
ORDERS = (4, 6, 8, 12)
RUNS = 5
SCENARIO_RUNS = 3
SUBPROCESS_RUNS = 5
PAIRED_RUNS = 10
SEED = 2
T = 1.5


# run_scenario rows: (case, bench/public_rows.py row)
SCENARIO_CASES = (
    ("swanson-fig1, oracle at t = 0.25, 0.5", "scenario-oracle-short"),
    ("swanson-fig1, full oracle list", "scenario-oracle-full"),
    ("swanson-fig1, no oracle", "scenario-no-oracle"),
)
# propagate rows: (case, bench/public_rows.py row)
PROPAGATE_CASES = tuple(
    (f"{kind} n={n}, 150 times on [0, 3]", f"propagate-{kind}-n{n}")
    for kind in ("sampled", "polynomial", "constant") for n in (1, 2, 3)
) + (("harmonic n=3, 150 times on [0, 37]", "propagate-harmonic-n3-long"),)
# hagedorn_coefficients rows: (case, bench/public_rows.py row)
COEFFICIENT_CASES = (
    ("n=3, every alpha with |alpha| <= 8 in graded order, new state", "coefficients-n3-a8"),
    ("n=4, every alpha with |alpha| <= 6 in graded order, new state", "coefficients-n4-a6"),
)
DRIVEN_CONFIG = ROOT / "tests" / "configs" / "driven-sampled.json"
MARCH_FIELDS = {"what": "propagate_grid march", "case": "Swanson, N=1024, alpha = 0, 1, 2"
                " through (0.25, 0.5), warm operator", "per": "run of 3 marches"}


def invoke(fn):
    return fn()


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
    run.  inputs() gives the inputs of one run, outside the timed region, so
    a row can hand each run states that the prefix memo has not seen.  No
    result is kept alive past its call."""

    def run(fn, inputs) -> float:
        inputs = inputs()
        start = time.perf_counter()
        for x in inputs:
            fn(x)
        return (time.perf_counter() - start) * 1e3

    rows = []
    for fields, fn, inputs, per in cases:
        run(fn, inputs)
        rows.append(timing_row(fields, [run(fn, inputs) / per for _ in range(runs)]))
    return rows


def at_unseen(owner, alphas) -> list:
    """(copy, α) for each α, with one new PropagatedState or Trajectory on
    owner's read-only arrays: an owner that the prefix memo has not seen."""
    copy = dataclasses.replace(owner)
    return [(copy, alpha) for alpha in alphas]


def field_and_small_coefficient_rows() -> list:
    states_2 = [mode_mixed_state(2), mode_mixed_state(2, T / 2)]
    grid_2 = Grid(bounds=[(-8.0, 8.0), (-8.0, 8.0)], counts=[256, 256])
    state_1 = swanson_state()
    states_1 = [state_1, swanson_state(0.25)]
    grid_1 = Grid(bounds=[(-10.0, 10.0)], counts=[1024])
    field = evolved_state_on_grid(states_2[0], (2, 1), 1.0, grid_2)
    return timed_rows([
        (
            {"what": "evolved_state_on_grid", "per": "run of 45 fields at one state",
             "case": "n=2, 256x256, all 45 alpha with |alpha| <= 8, t = 1.5 and 0.75"},
            lambda x: evolved_state_on_grid(x[0], x[1], 1.0, grid_2),
            lambda: [(st, a) for st in states_2 for order in range(9)
                     for a in multi_indices(2, order)],
            len(states_2),
        ),
        (
            {"what": "evolved_state_on_grid",
             "case": "n=1 Swanson, N=1024, k = 0..8, t = 0.5 and 0.25", "per": "field"},
            lambda x: evolved_state_on_grid(x[0], x[1], 1.0, grid_1),
            lambda: [(st, (k,)) for st in states_1 for k in range(9)],
            9 * len(states_1),
        ),
        (
            {"what": "grid_norm", "case": "n=2, 256x256", "per": "call"},
            lambda f: grid_norm(f, grid_2),
            lambda: [field] * 100,
            100,
        ),
        (
            {"what": "hagedorn_coefficients", "case": "n=1 Swanson, |alpha| <= 2",
             "per": "call"},
            lambda x: hagedorn_coefficients(*x),
            lambda: [x for _ in range(200) for x in at_unseen(state_1, [(0,), (1,), (2,)])],
            600,
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
                lambda x: hagedorn_coefficients(*x),
                lambda state=state, alphas=alphas: at_unseen(state, alphas),
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


def taylor_series_calls(args) -> int:
    """The Taylor series that one propagate(*args) sums."""
    with mock.patch.object(propagation, "_series", wraps=propagation._series) as counted:
        propagate(*args)
    return counted.call_count


def propagate_rows() -> list:
    return timed_rows(
        (
            {"what": "propagate", "case": name, "taylor_series_calls": taylor_series_calls(args)},
            lambda case: propagate(*case),
            lambda args=args: [args],
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
        rows.append((
            {"what": "coefficients over a trajectory", "how": "hagedorn_coefficients per state",
             "case": case, "per": "run of all alpha"},
            lambda x: [hagedorn_coefficients(st, x[1]) for st in x[0]],
            lambda states=states, alphas=alphas: [(list(copy), a)
                                                  for copy, a in at_unseen(states, alphas)],
            1,
        ))
        rows.append((
            {"what": "coefficients over a trajectory", "how": "coefficient_sweep per alpha",
             "case": case, "per": "run of all alpha"},
            lambda x: coefficient_sweep(*x),
            lambda states=states, alphas=alphas: at_unseen(states, alphas),
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

    rows = []
    for case, args in start_up_args():
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
    cayley, squared = _cayley_matrix(operator, 1e-3, 1)
    _, fourth = _cayley_matrix(operator, 5e-4, 2)
    oracle = PRESETS["swanson-fig1"]["oracle"]

    def build_map(step, substeps):
        def build(op):
            op._cayley.clear()
            _cayley_matrix(op, step, substeps)

        return build

    steps = 500
    build_operator = discretize_hamiltonian(H, 1.0, grid)
    return timed_rows([
        ({"what": "discretize_hamiltonian", "case": "Swanson, N=1024", "per": "call"},
         lambda g: discretize_hamiltonian(H, 1.0, g), lambda: [grid], 1),
        ({"what": "Cayley build", "case": "Swanson, N=1024, coarse map C, tau=1e-3, damped",
          "per": "call", "products": 1, "matrices_cached": 2},
         build_map(1e-3, 1), lambda: [build_operator], 1),
        ({"what": "Cayley build", "case": "Swanson, N=1024, fine map C^2, tau=5e-4, damped",
          "per": "call", "products": 2, "matrices_cached": 2},
         build_map(5e-4, 2), lambda: [build_operator], 1),
        ({"what": "Cayley squaring", "case": "Swanson, N=1024, C @ C by scipy zgemm",
          "per": "call"},
         lambda c: zgemm(1.0, c, c), lambda: [cayley], 1),
        ({"what": "Crank-Nicolson step", "case": "Swanson, N=1024, one column, scipy zgemv"
          " with E^2 = C^2 of the coarse map", "per": "step", "steps_per_product": 2},
         lambda f: zgemv(1.0, squared, f), lambda: [psi] * steps, 2 * steps),
        ({"what": "Crank-Nicolson step", "case": "Swanson, N=1024, one column, scipy zgemv"
          " with E^2 = C^4 of the fine map", "per": "step", "steps_per_product": 4},
         lambda f: zgemv(1.0, fourth, f), lambda: [psi] * steps, 4 * steps),
        (MARCH_FIELDS, invoke, lambda march=public_rows.march(): [march], 1),
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
    return timed_rows(
        [
            ({"what": "run_scenario", "case": case, "per": "run"}, invoke,
             lambda call=public_rows.ROWS[row](): [call], 1)
            for case, row in SCENARIO_CASES
        ],
        runs=SCENARIO_RUNS,
    )


def start_up_args() -> list:
    """(case, interpreter arguments) of the subprocess start-up rows."""
    cases = [("python -c pass", ["-c", "pass"]),
             ("import hagedorn", ["-c", "import hagedorn"]),
             ("import hagedorn.cli", ["-c", "import hagedorn.cli"])]
    cases += [
        (f"hagedorn run --preset {name} --no-oracle",
         ["-m", "hagedorn", "run", "--preset", name, "--no-oracle"])
        for name in sorted(PRESETS)
    ]
    return cases + [(f"hagedorn run {DRIVEN_CONFIG.relative_to(ROOT)} --no-oracle",
                     ["-m", "hagedorn", "run", str(DRIVEN_CONFIG), "--no-oracle"])]


def paired_cases() -> list:
    """(row fields, interpreter arguments, timed inside) of the rows run
    against a second tree: each calls only public entry points, in a fresh
    interpreter with that tree's src on PYTHONPATH.  Rows timed inside run
    bench/public_rows.py, which prints the time of one call after an untimed
    one; the others are timed as the whole process."""
    worker = public_rows.__file__
    cases = [
        ({"what": "run_scenario", "case": case, "per": "run"}, [worker, row], True)
        for case, row in SCENARIO_CASES
    ]
    cases.append((MARCH_FIELDS, [worker, "march"], True))
    cases += [({"what": "propagate", "case": case, "per": "call"}, [worker, row], True)
              for case, row in PROPAGATE_CASES]
    cases += [({"what": "hagedorn_coefficients", "case": case, "per": "run"}, [worker, row], True)
              for case, row in COEFFICIENT_CASES]
    cases += [({"what": "subprocess", "case": case, "per": "process"}, args, False)
              for case, args in start_up_args()]
    return cases


def spread(times: list) -> dict:
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_ms": statistics.median(times), "quartiles_ms": [q1, q3], "runs_ms": times}


def paired_block(rev: str) -> dict:
    """Every paired case on the tree of commit `rev` (exported by git archive
    into a temporary directory) and on this checkout, alternating which tree
    runs first, after one warm-up run of each: per row both medians, their
    quartiles and the number of pairs in which this checkout was faster."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    rows = []
    with tempfile.TemporaryDirectory() as parent:
        subprocess.run(["tar", "-x", "-C", parent], input=archive, check=True)
        trees = {"parent": Path(parent) / "src", "change": ROOT / "src"}

        def run(args, src, inside) -> float:
            with tempfile.TemporaryDirectory() as out:
                env = {**os.environ, "PYTHONPATH": str(src), OUT_DIR_ENV: out}
                start = time.perf_counter()
                done = subprocess.run([sys.executable, *args], env=env, check=True,
                                      capture_output=True, text=True)
                elapsed = (time.perf_counter() - start) * 1e3
            return float(done.stdout.split()[-1]) if inside else elapsed

        for fields, args, inside in paired_cases():
            times = {side: [] for side in trees}
            for side, src in trees.items():
                run(args, src, inside)
            for pair in range(PAIRED_RUNS):
                for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
                    times[side].append(run(args, trees[side], inside))
            wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
            row = {**fields, "parent": spread(times["parent"]), "change": spread(times["change"]),
                   "change_wins": wins, "pairs": PAIRED_RUNS}
            print(json.dumps(row), flush=True)
            rows.append(row)
    return {"against": rev, "commit": commit, "pairs": PAIRED_RUNS, "rows": rows}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="also time the paired rows against the tree of commit REV")
    against = parser.parse_args().against
    paired = paired_block(against) if against else None
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
        " and of subprocess imports, preset runs and a driven config run, median of runs",
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
    if paired is not None:
        report["paired"] = paired
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()

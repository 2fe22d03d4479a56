"""Per-call times of `hagedorn_coefficients` and `propagate`, written to BENCH_7.json.

    python3 bench/run.py

Imports the package from ./src of the checkout this script sits in.

- `hagedorn_coefficients` by (n, |α|): for n = 3 and 4 it propagates the
  standard frame under one seeded mode-mixed, non-Hermitian H = R + iI
  (R = XXᵀ/2n + ½Id, I = 0.05(Y + Yᵀ) for Gaussian X, Y) to t = 1.5, then
  calls `hagedorn_coefficients` for every α with |α| = 4, 6, 8 and 12 at that
  state.  One run of a row is the mean time per call over all those α.
- `propagate` by case: the n = 1 Swanson oscillator (ω0 = 1, δ = 0.5) from
  the frame (1; −i), 200 times on [0, 10]; a seeded n = 3 constant H, 150
  times on [0, 3]; a seeded n = 2 H sampled on 7 knots of [0, 3], 150 times
  on [0, 3].  The last two start from the standard frame and a seeded
  centre.  One run of a row is one call, after one warm-up call.

Each row holds the median and the best of RUNS runs.  The file also records
the machine (nproc, Python, numpy and scipy versions).  A `parent` block
already in BENCH_7.json (the same rows measured on the parent commit, by
running this script from a checkout of it) is kept as it is.
"""

import json
import os
import platform
import statistics
import sys
import time
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from hagedorn.cli import standard_frame  # noqa: E402
from hagedorn.propagation import (  # noqa: E402
    QuadraticHamiltonian,
    hagedorn_coefficients,
    propagate,
)
from hagedorn.swanson import SwansonParams  # noqa: E402

OUT = ROOT / "BENCH_7.json"
MODES = (3, 4)
ORDERS = (4, 6, 8, 12)
RUNS = 5
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


def mode_mixed_state(n: int):
    H = mode_mixed_matrix(np.random.default_rng(SEED), n)
    states = propagate(
        standard_frame(n), np.zeros(2 * n), QuadraticHamiltonian.constant(H), [0.0, T]
    )
    return states[-1]


def ms_per_call(state, alphas) -> float:
    start = time.perf_counter()
    for alpha in alphas:
        hagedorn_coefficients(state, alpha)
    return (time.perf_counter() - start) / len(alphas) * 1e3


def coefficient_rows() -> list:
    rows = []
    for n in MODES:
        state = mode_mixed_state(n)
        for order in ORDERS:
            alphas = list(multi_indices(n, order))
            ms_per_call(state, alphas[:1])  # warm-up
            runs = [ms_per_call(state, alphas) for _ in range(RUNS)]
            rows.append(
                {
                    "what": "hagedorn_coefficients",
                    "n": n,
                    "order": order,
                    "alphas": len(alphas),
                    "ms_per_call": statistics.median(runs),
                    "runs_ms": runs,
                }
            )
            print(json.dumps(rows[-1]), flush=True)
    return rows


def propagate_cases() -> dict:
    """name → (frame, centre, H, times)."""
    rng = np.random.default_rng(SEED)
    swanson = QuadraticHamiltonian.constant(SwansonParams(1.0, 0.5).matrix())
    frame_1 = np.array([[1.0], [-1.0j]])
    knots = np.linspace(0.0, 3.0, 7)
    sampled = QuadraticHamiltonian.sampled(knots, [mode_mixed_matrix(rng, 2) for _ in knots])
    constant = QuadraticHamiltonian.constant(mode_mixed_matrix(rng, 3))
    return {
        "swanson n=1, 200 times on [0, 10]": (frame_1, np.zeros(2), swanson, np.linspace(0.0, 10.0, 200)),
        "constant n=3, 150 times on [0, 3]": (
            standard_frame(3), rng.uniform(-1.0, 1.0, 6), constant, np.linspace(0.0, 3.0, 150)
        ),
        "sampled n=2, 150 times on [0, 3]": (
            standard_frame(2), rng.uniform(-1.0, 1.0, 4), sampled, np.linspace(0.0, 3.0, 150)
        ),
    }


def propagate_rows() -> list:
    rows = []
    for name, args in propagate_cases().items():
        propagate(*args)  # warm-up
        runs = []
        for _ in range(RUNS):
            start = time.perf_counter()
            propagate(*args)
            runs.append((time.perf_counter() - start) * 1e3)
        rows.append(
            {
                "what": "propagate",
                "case": name,
                "ms_per_call": statistics.median(runs),
                "best_ms": min(runs),
                "runs_ms": runs,
            }
        )
        print(json.dumps(rows[-1]), flush=True)
    return rows


def main() -> None:
    rows = coefficient_rows() + propagate_rows()
    report = {
        "what": "ms per call of hagedorn_coefficients by (n, |alpha|) and of propagate by case,"
        " median of runs",
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "setup": {"seed": SEED, "t": T, "runs": RUNS},
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

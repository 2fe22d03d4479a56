"""Per-call time of `hagedorn_coefficients` by (n, |α|), written to BENCH_5.json.

    python3 bench/run.py

Imports the package from ./src of the checkout this script sits in.  For
n = 3 and 4 it propagates the standard frame under one seeded mode-mixed,
non-Hermitian H = R + iI (R = XXᵀ/2n + ½Id, I = 0.05(Y + Yᵀ) for Gaussian X,
Y) to t = 1.5, then calls `hagedorn_coefficients` for every α with |α| = 4,
6, 8 and 12 at that state.  One run of a row is the mean time per call over
all those α; the row holds the median of RUNS runs.  The file also records
the machine (nproc, Python, numpy and scipy versions).  A `parent` block
already in BENCH_5.json (the same rows measured on the parent commit) is
kept as it is.
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

OUT = ROOT / "BENCH_5.json"
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


def mode_mixed_state(n: int):
    rng = np.random.default_rng(SEED)
    X, Y = rng.normal(size=(2 * n, 2 * n)), rng.normal(size=(2 * n, 2 * n))
    H = X @ X.T / (2 * n) + 0.5 * np.eye(2 * n) + 0.05j * (Y + Y.T)
    states = propagate(
        standard_frame(n), np.zeros(2 * n), QuadraticHamiltonian.constant(H), [0.0, T]
    )
    return states[-1]


def ms_per_call(state, alphas) -> float:
    start = time.perf_counter()
    for alpha in alphas:
        hagedorn_coefficients(state, alpha)
    return (time.perf_counter() - start) / len(alphas) * 1e3


def main() -> None:
    rows = []
    for n in MODES:
        state = mode_mixed_state(n)
        for order in ORDERS:
            alphas = list(multi_indices(n, order))
            ms_per_call(state, alphas[:1])  # warm-up
            runs = [ms_per_call(state, alphas) for _ in range(RUNS)]
            row = {
                "n": n,
                "order": order,
                "alphas": len(alphas),
                "ms_per_call": statistics.median(runs),
                "runs_ms": runs,
            }
            rows.append(row)
            print(json.dumps(row), flush=True)
    report = {
        "what": "hagedorn_coefficients ms per call by (n, |alpha|), median of runs",
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

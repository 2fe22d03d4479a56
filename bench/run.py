"""Times every row of bench/rows.py, each run in a fresh interpreter, and
writes BENCH_29.json.

    python3 bench/run.py [--against REV]

A run of a row is `python3 bench/rows.py ROW` with a tree's src on
PYTHONPATH: the worker builds the row, makes one untimed call and prints
the time of one timed call.  The rows, what each times and on which inputs,
are defined in bench/rows.py alone.

Alone, the script makes RUNS runs of every row on this checkout.  With
--against REV it exports the tree of commit REV by git archive and makes
RUNS pairs of runs, one on each tree, alternating which tree runs first, so
the host's drift over the minutes of a run falls on both trees alike.  A row
whose run on REV's tree exits non-zero (REV lacks a name the row calls, or
the row runs on its own checkout only) is unpaired: it is timed on this
checkout alone and keeps the last line REV's run wrote to stderr.

Each row gives this checkout's median, quartiles and runs in ms; a paired
row also gives REV's and the number of pairs this checkout won.
`--against HEAD` pairs the checkout with its own commit: its win counts and
the gap between its two medians are the noise floor of each row, to read
before taking a paired win against another commit for a change.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import rows  # noqa: E402  (bench/, the script's own directory)

OUT = ROOT / "BENCH_29.json"
RUNS = 10


class Unbuildable(Exception):
    """A worker that exited non-zero; the message is its last line of stderr."""


def run(name: str, src: Path) -> float:
    """ms of one run of row `name` with src on PYTHONPATH."""
    done = subprocess.run([sys.executable, rows.__file__, name], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    if done.returncode:
        raise Unbuildable((done.stderr.strip().splitlines() or ["exit status"])[-1])
    return float(done.stdout.split()[-1])


def timed_runs(name: str, trees: dict) -> dict:
    """side → RUNS times of row `name` on each tree, alternating which runs first."""
    times = {side: [] for side in trees}
    for i in range(RUNS):
        for side in list(trees)[:: 1 if i % 2 == 0 else -1]:
            times[side].append(run(name, trees[side]))
    return times


def spread(times: list) -> dict:
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"median_ms": statistics.median(times), "quartiles_ms": [q1, q3], "runs_ms": times}


def report(trees: dict) -> list:
    """One entry per row of the catalogue; trees maps "parent" (if paired)
    and "change" to a src directory."""
    out = []
    for name, row in rows.ROWS.items():
        entry = {"row": name, "what": row.what, "case": row.case, "per": row.per}
        try:
            times = timed_runs(name, trees)
        except Unbuildable as exc:
            if "parent" not in trees:
                raise
            times, entry["unpaired"] = timed_runs(name, {"change": trees["change"]}), str(exc)
        entry.update(spread(times["change"]))
        if "parent" in times:
            entry["parent"] = spread(times["parent"])
            entry["change_wins"] = sum(c < p for p, c in zip(times["parent"], times["change"]))
        print(json.dumps(entry), flush=True)
        out.append(entry)
    return out


def git(*args) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="pair every row with the tree of commit REV")
    against = parser.parse_args().against
    result = {
        "what": "ms per call of every row of bench/rows.py, one fresh interpreter per run",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    **{name: os.environ.get(name) for name in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "runs": RUNS,
    }
    with tempfile.TemporaryDirectory() as parent:
        trees = {"change": ROOT / "src"}
        if against:
            commit = git("rev-parse", "--verify", f"{against}^{{commit}}").stdout.decode().strip()
            subprocess.run(["tar", "-x", "-C", parent], input=git("archive", commit).stdout,
                           check=True)
            trees = {"parent": Path(parent) / "src", **trees}
            result.update(against=against, commit=commit)
        result["rows"] = report(trees)
    OUT.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()

"""Benchmark of the hagedorn package: one seeded workload per invocation.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ./src.  The
run sets up (imports, seeded inputs, a warm-up at tiny size), then repeats
passes over the workload's items for --seconds, checks every output against
an independent reference, and prints one JSON object as the last line of
stdout.  With --trace 0 it holds the end-to-end metrics of BENCHMARK.json;
with --trace 1 it holds the per-layer metrics of a traced run.  Lines before
it carry the run facts.  Exit status 2 means the package or the arguments
are unusable, 3 that a reference check could not be evaluated; neither
prints a result.  See perfbench/NOTES.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5  # this process plus four fresh ones; setup_s is their median
WORKLOAD_NAMES = ("trajectory", "expansion", "oracle")


class CheckNotEvaluated(Exception):
    """A reference check raised instead of returning a verdict."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny runs every item at toy size (self-check)")
    return parser.parse_args(argv)


def blas_threads() -> int:
    """One BLAS thread per usable core, fixed before numpy is imported."""
    count = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(count)
    return count


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts(args, threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cores": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


def run_passes(items, before_pass, seconds: float, hagedorn_error, tracer=None) -> dict:
    """Repeat whole passes over the items for up to `seconds` (at least one).

    A pass starts only if, at the length of the last one, it ends within
    `seconds` of measured time, so a run measures at most about `seconds`
    however long one pass is.  An item's time covers its call only; its
    outputs are checked after the clock stops.  An item that raises a
    HagedornError counts as failed and its checks are not evaluated; any
    other exception aborts the run.
    """
    times = [[] for _ in items]  # per item, one latency per pass
    checks, errors = [], []
    attempted = failed = passes = 0
    measured = last_pass = 0.0
    while passes == 0 or measured + last_pass <= seconds:
        before_pass()
        passes += 1
        pass_start = measured
        for item, latencies in zip(items, times):
            attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.active():
                        output = item.run()
                else:
                    output = item.run()
            except hagedorn_error as exc:
                failed += 1
                errors.append(f"{item.label}: {type(exc).__name__}: {exc}")
                continue
            finally:
                latencies.append(time.perf_counter() - t0)
                measured += latencies[-1]
            try:
                checks += item.check(output)
            except Exception as exc:
                raise CheckNotEvaluated(f"{item.label}: {type(exc).__name__}: {exc}") from exc
        last_pass = measured - pass_start
    # each item at its mean over the passes: the host's speed drifts between
    # a fast and a slow state, and a mean follows the share of time in each
    # smoothly where a median over a few passes jumps between them
    typical = [math.fsum(t) / len(t) for t in times]
    return {
        "wall_s": math.fsum(typical),
        "item_p50_s": statistics.median(typical),
        # each sample stands in at its item's mean, so the tail ranks slow
        # items, not the moments the host was slow
        "samples": [mean for mean, latencies in zip(typical, times) for _ in latencies],
        "passes": passes,
        "checks": checks,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
    }


def tail(samples) -> tuple:
    """(percentile, value) of the highest sample with ten samples beyond it,
    at percentile 90 at most.

    That is the 11th largest of up to 100 samples and the one with a tenth
    of them beyond it from there on: with thousands of samples the 11th
    largest would be one of the few items whose own work varies with the
    seed.  With ten samples or fewer it is the largest, at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    beyond = max(10, math.ceil(0.1 * n))
    return 100.0 * (n - beyond) / n, ordered[-beyond - 1]


def is_reference(check) -> bool:
    """The benchmark's own checks; `manifest.*` are the program's verdicts."""
    return not check[0].startswith("manifest.")


def setup_samples(args, own: float) -> list:
    """Set-up time of this process and of SETUP_REPEATS − 1 fresh ones."""
    times = [own]
    for _ in range(SETUP_REPEATS - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--scale", args.scale, "--setup-only"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up subprocess failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def end_to_end(result, setup: list) -> dict:
    checks = result["checks"]
    bad = sum(1 for c in checks if not c[1])
    pct, tail_s = tail(result["samples"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (result["wall_s"], "s"),
        "item_ms_p50": (1e3 * result["item_p50_s"], "ms"),
        "item_ms_tail": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "item_ok_ratio": (1.0 - result["failed"] / result["attempted"], "1"),
        "check_pass_ratio": (1.0 - bad / len(checks), "1"),
    }
    facts = {
        "tail_percentile": pct,
        "item_samples": len(result["samples"]),
        "passes": result["passes"],
        "setup_samples_s": setup,
        "error_ratio": result["failed"] / result["attempted"],
        "check_fail_ratio": bad / len(checks),
        "checks_evaluated": len(checks),
    }
    return metrics, facts


def per_layer(tracer, traced, untraced) -> dict:
    passes = traced["passes"]
    summary = tracer.summary()
    counts = tracer.counts

    def span(name, key="s"):
        return summary.get(name, {}).get(key, 0.0) / passes

    def calls(name):
        return summary.get(name, {}).get("calls", 0) / passes

    def count(name):
        return counts.get(name, 0.0) / passes

    def ms_per_call(name, tag=None):
        if tag is None:
            entry = summary.get(name)
            return 1e3 * entry["s"] / entry["calls"] if entry else 0.0
        n_calls, total = tracer.tagged(name).get(tag, (0, 0.0))
        return 1e3 * total / n_calls if n_calls else 0.0

    cn_steps = count("gridsolver.cn_steps")
    wall_traced = traced["wall_s"]
    rows = {
        "propagation.propagate.s": (span("propagation.propagate"), "s"),
        "propagation.propagate.calls": (calls("propagation.propagate"), "count"),
        "propagation.propagate.ms_per_call": (ms_per_call("propagation.propagate"), "ms"),
        "propagation.ode.s": (span("propagation.ode"), "s"),
        "propagation.ode.calls": (calls("propagation.ode"), "count"),
        "propagation.ode.nfev": (count("propagation.ode.nfev"), "count"),
        "propagation.ode.steps": (count("propagation.ode.steps"), "count"),
        "propagation.positivity_horizon.s": (span("propagation.positivity_horizon"), "s"),
        "propagation.states": (count("propagation.states"), "count"),
        "symplectic.omega.calls": (count("symplectic.omega.calls"), "count"),
        "symplectic.normalise_frame.s": (span("symplectic.normalise_frame"), "s"),
        "propagation.hagedorn_coefficients.s": (span("propagation.hagedorn_coefficients"), "s"),
        "propagation.hagedorn_coefficients.calls": (
            calls("propagation.hagedorn_coefficients"), "count"),
        "polynomials.poly_recursion.s": (span("polynomials.poly_recursion"), "s"),
        "polynomials.poly_recursion.calls": (calls("polynomials.poly_recursion"), "count"),
        "polynomials.compose_linear.s": (span("polynomials.compose_linear"), "s"),
        "polynomials.terms": (count("polynomials.terms"), "count"),
        "propagation.evolved_state_on_grid.s": (span("propagation.evolved_state_on_grid"), "s"),
        "polynomials.evaluate.s": (span("polynomials.evaluate"), "s"),
        "wavepackets.eval_ground.s": (span("wavepackets.eval_ground"), "s"),
        "wavepackets.grid_points": (count("wavepackets.grid_points"), "count"),
        "gridsolver.discretize_hamiltonian.s": (span("gridsolver.discretize_hamiltonian"), "s"),
        "gridsolver.propagate_grid.s": (span("gridsolver.propagate_grid"), "s"),
        "gridsolver.propagate_grid.self_s": (span("gridsolver.propagate_grid", "self_s"), "s"),
        "gridsolver.lu_factor.s": (span("gridsolver.lu_factor"), "s"),
        "gridsolver.lu_factor.calls": (calls("gridsolver.lu_factor"), "count"),
        "gridsolver.lu_solve.s": (span("gridsolver.lu_solve"), "s"),
        "gridsolver.cn_steps": (cn_steps, "count"),
        "gridsolver.cn_ms_per_step": (
            1e3 * span("gridsolver.propagate_grid") / cn_steps if cn_steps else 0.0, "ms"),
        "gridsolver.halvings": (count("gridsolver.halvings"), "count"),
        "gridsolver.bytes_computed": (count("gridsolver.bytes_computed"), "B"),
        "swanson.ds_norm.s": (span("swanson.ds_norm"), "s"),
        "swanson.ds_norm.calls": (calls("swanson.ds_norm"), "count"),
        "cli.run_scenario.s": (span("cli.run_scenario"), "s"),
        "cli.run_scenario.self_s": (span("cli.run_scenario", "self_s"), "s"),
        "cli.artifact_bytes": (count("cli.artifact_bytes"), "B"),
        "trace.wall_s": (wall_traced, "s"),
        "trace.overhead_s": (wall_traced - untraced["wall_s"], "s"),
    }
    for tag in ("n3_a6", "n3_a8", "n4_a6"):
        rows[f"propagation.hagedorn_coefficients.ms_per_call.{tag}"] = (
            ms_per_call("propagation.hagedorn_coefficients", tag), "ms")
    facts = {
        "passes": passes,
        "spans": len(tracer.spans),
        "layers": {k: {"calls": v["calls"] / passes, "s": v["s"] / passes,
                       "self_s": v["self_s"] / passes} for k, v in sorted(summary.items())},
        "hagedorn_coefficients_ms_per_call": {
            tag: 1e3 * total / n for tag, (n, total)
            in sorted(tracer.tagged("propagation.hagedorn_coefficients").items())},
        "bytes_computed_note": "computed from N and the CN step count, not measured",
    }
    return rows, facts


def write_spans(tracer, args) -> Path:
    OUT_ROOT.mkdir(exist_ok=True)
    path = OUT_ROOT / f"spans-{args.workload}-{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "tag"], "spans": tracer.spans}, fh)
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = blas_threads()
    src = ROOT / "src"
    if not (src / "hagedorn" / "__init__.py").is_file():
        print(f"perfbench: no hagedorn package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy  # noqa: F401  (imports are part of the set-up time)
    import scipy.integrate  # noqa: F401
    import scipy.linalg  # noqa: F401
    from hagedorn import HagedornError

    import workloads

    out_root = OUT_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        # warm-up: every item once at toy size, outside the clock
        warm_items, warm_hook = workloads.build(args.workload, args.seed, out_root / "warm", "tiny")
        run_passes(warm_items, warm_hook, 0.0, HagedornError)
        items, before_pass = workloads.build(args.workload, args.seed, out_root / "run", args.scale)
        own_setup = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        facts = machine_facts(args, threads)
        if args.trace:
            import tracing

            untraced = run_passes(items, before_pass, args.seconds / 2, HagedornError)
            tracer = tracing.Tracer().install()
            try:
                result = run_passes(items, before_pass, args.seconds / 2, HagedornError, tracer)
            finally:
                tracer.uninstall()
        else:
            setup = setup_samples(args, own_setup)
            result = run_passes(items, before_pass, args.seconds, HagedornError)
    except CheckNotEvaluated as exc:
        print(f"perfbench: reference check not evaluated: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    reference = [c for c in result["checks"] if is_reference(c)]
    if not reference:
        print("perfbench: no reference check was evaluated", file=sys.stderr)
        return 3
    if args.trace:
        metrics, extra = per_layer(tracer, result, untraced)
        extra["spans_file"] = str(write_spans(tracer, args).relative_to(ROOT))
    else:
        metrics, extra = end_to_end(result, setup)
    facts.update(extra)
    facts["reference_checks"] = dict(Counter(c[0].split(".")[0] for c in reference))
    facts["errors"] = sorted(set(result["errors"]))
    facts["failed_checks"] = sorted({f"{c[0]}: {c[2]}" for c in result["checks"] if not c[1]})
    print("facts: " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": all(c[1] for c in reference),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

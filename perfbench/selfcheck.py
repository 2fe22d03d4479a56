"""Fast self-check of the benchmark at toy sizes (well under a minute).

    python3 perfbench/selfcheck.py

For every workload it runs perfbench/run.py once untraced and once traced
with --scale tiny and confirms that the last stdout line is the result
object, that it carries exactly the metrics BENCHMARK.json names with their
units, and that each reference check of the workload was evaluated.  It
then confirms that the traced wrappers return what the wrapped calls
return, and that the benchmark exits nonzero without a result in a
directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# reference checks each workload must evaluate (see workloads.py)
EXPECTED_CHECKS = {
    "trajectory": {"reference_norms", "reference_centre", "exit_status"},
    "expansion": {"sum_rule"},
    "oracle": {"reference_norms", "exit_status"},
}


def expect(condition, message) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {message}")


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(workload: str, trace: int, spec: dict) -> None:
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--scale", "tiny"])
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    facts = json.loads(lines[-2].split(": ", 1)[1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result))
    expect(result["correct"] is True, facts["failed_checks"])
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted < 1")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == units, f"{workload}: metrics differ from BENCHMARK.json: {set(got) ^ set(units)}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), (name, m))
    kinds = set(facts["reference_checks"])
    missing = EXPECTED_CHECKS[workload] - kinds
    expect(not missing, f"{workload}: reference checks not evaluated: {missing}")
    print(f"ok  {workload:<10} trace={trace}  attempted={result['attempted']}  checks={sorted(kinds)}")


def check_pass_through() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    import tracing
    import workloads
    from hagedorn import propagation

    sets = workloads.expansion_sets(np.random.default_rng(3), "tiny")
    target = sets[0]
    target.propagate()
    alpha = next(a for a in target.alphas() if sum(a) == 2)
    original = propagation.hagedorn_coefficients
    plain = original(target.states[0], alpha).coefficients
    tracer = tracing.Tracer().install()
    try:
        with tracer.active():
            traced = propagation.hagedorn_coefficients(target.states[0], alpha).coefficients
            try:
                propagation.hagedorn_coefficients(target.states[0], (0,))
            except Exception as exc:  # the wrapped call's own error type
                raised = type(exc).__name__
            else:
                raised = None
    finally:
        tracer.uninstall()
    expect(traced == plain, "traced call returned a different result")
    expect(raised == "DimensionMismatch", raised)
    expect(propagation.hagedorn_coefficients is original, "uninstall left a wrapper behind")
    print("ok  tracer passes results and exceptions through and uninstalls")


def check_without_package() -> None:
    bare = ROOT / ".perfbench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(["--workload", "trajectory", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "benchmark succeeded without the package")
    expect('"metrics"' not in proc.stdout, "benchmark printed a result without the package")
    print(f"ok  without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(workload, trace, spec)
    check_pass_through()
    check_without_package()
    return 0


if __name__ == "__main__":
    sys.exit(main())

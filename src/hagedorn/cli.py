"""Scenario runner: JSON config in, CSV/JSON artifacts out.

A scenario propagates one wavepacket family under a quadratic Hamiltonian and
writes these artifacts into the output directory:

  trajectory.csv        t, beta, norm_predicted, re_action, im_action, p, q,
                        det_defect_symplectic, min_eig_positivity
  coefficients_<a>.csv  per initial multi-index a: t, multi_index, re_a, im_a
  norms.csv             (closed-form runs) t, k, norm_closed_form,
                        norm_general_pipeline, norm_grid_oracle
  oracle.json           per-case grid verification report
  manifest.json         config hash, tolerances, check results, exit status

Exit status is 0 iff every enabled check passes.  A positivity breakdown is
reported in the manifest (truncated trajectory, detected horizon); it fails
the run only when the config did not declare expect_horizon.

Numeric CSV fields use 17 significant digits and '\n' line endings so that
identical configs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .errors import ConfigError, ConvergenceFailure, HagedornError, NonSymmetricH, PositivityLost
from .gridsolver import (
    DT_DEFAULT,
    GRID_TOL_DEFAULT,
    discretize_hamiltonian,
    outside_window,
    propagate_grid,
)
from .polynomials import validate_recursion_index
from .propagation import (
    QuadraticHamiltonian,
    Trajectory,
    amplitude,
    coefficient_sweep,
    evolved_state_on_grid,
    expansion_norm,
    log_prefactor,
    propagate,
)
from .propagation import hagedorn_coefficients  # noqa: F401  perfbench/tracing.py wraps it
from .swanson import SwansonParams, ds_norms, ds_positivity_time
from .swanson import ds_norm  # noqa: F401  perfbench/tracing.py wraps cli.ds_norm
from .symplectic import NormalisedFrame, frame_from_metric
from .wavepackets import Grid, WavepacketParams, eval_excited, grid_inner, grid_norm

FIDELITY_TOL = 1e-5
SYMPLECTIC_TOL = 1e-8
ORACLE_NORM_TOL = 1e-5
CLOSED_FORM_TOL = 1e-8
HERMITIAN_NORM_TOL = 1e-8
HORIZON_TOL = 1e-6
OUT_DIR_ENV = "HAGEDORN_OUT_DIR"


@dataclass(frozen=True)
class Diagnostic:
    """One machine-readable validation finding."""

    code: str
    message: str


# ---------------------------------------------------------------------------
# config parsing
#
# One parse builds every ScenarioConfig field once.  Each scalar goes through
# one of the typed readers below, which raise ValueError naming what they got;
# _Findings turns every failure into a Diagnostic and carries on, so a config
# reports all its faults at once.

_KEYS = frozenset(
    "name eps swanson hamiltonian initial center times alphas oracle expect_horizon out_dir"
    .split()
)
_ORACLE_KEYS = frozenset("enabled times grid dt grid_tol".split())
_NESTED_KEYS = {
    "times": frozenset("start stop count".split()),
    "swanson": frozenset("omega0 delta".split()),
    "initial": frozenset("metric entries".split()),
    "oracle.grid": frozenset("lo hi count".split()),
}
_HAMILTONIAN_KEYS = {
    "constant": frozenset("type matrix".split()),
    "sampled": frozenset("type times matrices".split()),
    "polynomial": frozenset("type coefficients".split()),
}
_NOT_AN_OBJECT = Diagnostic("BadConfig", "config root must be a JSON object")
# what malformed JSON raises in a reader; OverflowError is a 400-digit integer
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, OverflowError)


def _real(val) -> float:
    """A JSON number (not a bool) that is finite."""
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not math.isfinite(val):
        raise ValueError(f"expected a finite number, got {val!r}")
    return float(val)


def _positive(val) -> float:
    """A JSON number (not a bool) that is finite and > 0."""
    if not _real(val) > 0:
        raise ValueError(f"expected a positive number, got {val!r}")
    return float(val)


def _count(val) -> int:
    """An integral JSON number (not a bool); 5.0 reads as 5, 5.7 is rejected."""
    if isinstance(val, float) and val.is_integer():
        val = int(val)
    if type(val) is not int:
        raise ValueError(f"expected an integer, got {val!r}")
    return val


def _flag(val) -> bool:
    if not isinstance(val, bool):
        raise ValueError(f"expected true or false, got {val!r}")
    return val


def _text(val) -> str:
    if not isinstance(val, str):
        raise ValueError(f"expected a string, got {val!r}")
    return val


def _list(val, item) -> tuple:
    """A non-empty JSON list, each entry read by `item`."""
    if not isinstance(val, list) or not val:
        raise ValueError(f"expected a non-empty list, got {val!r}")
    return tuple(item(v) for v in val)


def _complex(entry) -> complex:
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(_real(entry[0]), _real(entry[1]))
    return complex(_real(entry))


def _matrix(rows, entry) -> np.ndarray:
    return np.array([[entry(e) for e in row] for row in rows])


def _swanson(block) -> SwansonParams:
    return SwansonParams(_positive(block["omega0"]), _positive(block["delta"]))


def _hamiltonian(block: dict) -> QuadraticHamiltonian:
    kind = block.get("type", "constant")
    if kind == "constant":
        return QuadraticHamiltonian.constant(_matrix(block["matrix"], _complex))
    if kind == "sampled":
        matrices = [_matrix(m, _complex) for m in block["matrices"]]
        return QuadraticHamiltonian.sampled(_list(block["times"], _real), matrices)
    if kind == "polynomial":
        return QuadraticHamiltonian.polynomial([_matrix(m, _complex) for m in block["coefficients"]])
    raise ValueError(f"unknown hamiltonian type {kind!r}")


def standard_frame(n: int) -> NormalisedFrame:
    """The frame (i·Id; Id) of the isotropic standard Gaussian."""
    ident = np.eye(n, dtype=complex)
    return NormalisedFrame(np.vstack([1j * ident, ident]))


def _frame(initial, n: int | None) -> NormalisedFrame | None:
    """The initial frame; None for the standard one when n is unknown."""
    if initial is None or initial == "standard":
        return standard_frame(n) if n is not None else None
    if isinstance(initial, dict) and {"metric", "entries"} <= initial.keys():
        raise ValueError('give one of "metric" and "entries", not both')
    if isinstance(initial, dict) and "metric" in initial:
        frame = frame_from_metric(_matrix(initial["metric"], _real))
    elif isinstance(initial, dict) and "entries" in initial:
        frame = NormalisedFrame(_matrix(initial["entries"], _complex))
    else:
        raise ValueError('expected "standard", {"metric": ...}, or {"entries": ...}')
    if n is not None and frame.n != n:
        raise ValueError(f"frame has n = {frame.n} but the hamiltonian has n = {n}")
    return frame


def _center(val, n: int | None) -> np.ndarray:
    center = np.array(_list(val, _real))
    if n is not None and len(center) != 2 * n:
        raise ValueError(f"expected 2n = {2 * n} reals, got {len(center)}")
    return center


def _times(block) -> np.ndarray:
    if isinstance(block, dict):
        start, stop, count = _real(block["start"]), _real(block["stop"]), _count(block["count"])
        if count < 2 or not stop > start:
            raise ValueError("need stop > start and count ≥ 2")
        times = np.linspace(start, stop, count)
    else:
        times = np.array(_list(block, _real))
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
    if times[0] < 0:
        raise ValueError("times must start at t ≥ 0")
    return times


def _alphas(val, n: int | None) -> tuple:
    """The initial multi-indices, none repeated (its rows and cases would be twice)."""
    alphas = _list(val, functools.partial(validate_recursion_index, n=n))
    if len(set(alphas)) < len(alphas):
        raise ValueError(f"a multi-index is repeated in {[list(a) for a in alphas]}")
    return alphas


def _oracle_times(val) -> tuple:
    return tuple(sorted(set(_list(val, _positive))))


def _grid(block) -> Grid:
    lo, hi, count = _real(block["lo"]), _real(block["hi"]), _count(block["count"])
    if count < 16:
        raise ValueError(f"need count ≥ 16, got {count}")
    return Grid(bounds=((lo, hi),), counts=(count,))


class _Findings(list):
    """The diagnostics of one parse."""

    def add(self, code: str, message: str) -> None:
        self.append(Diagnostic(code, message))

    def read(self, code: str, what: str, reader, *args):
        """reader(*args), or None after recording a `code` diagnostic."""
        try:
            return reader(*args)
        except (HagedornError, *_MALFORMED) as exc:
            self.add(code, f"{what}: {exc}")
            return None

    def unknown_keys(self, block, known, prefix: str = "") -> None:
        """One BadConfig per key of `block` not in `known`; a non-object block is
        left to its reader."""
        if not isinstance(block, dict):
            return
        for key in sorted(map(str, set(block) - known)):
            self.add("BadConfig", f"unknown key '{prefix}{key}'")


@dataclass(frozen=True)
class OracleConfig:
    """The grid oracle's output times, 1-D grid, base step and Richardson tolerance."""

    times: tuple
    grid: Grid
    dt: float
    grid_tol: float


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated, fully resolved scenario; `oracle` is None when it is off."""

    name: str
    eps: float
    hamiltonian: QuadraticHamiltonian
    frame: NormalisedFrame
    center: np.ndarray
    times: np.ndarray
    alphas: tuple
    oracle: OracleConfig | None
    swanson: SwansonParams | None
    expect_horizon: bool
    out_dir: str | None
    raw: dict

    @property
    def n(self) -> int:
        return self.hamiltonian.n


def _parse_config(raw) -> tuple[ScenarioConfig | None, list[Diagnostic]]:
    """The config and no diagnostics, or None and every diagnostic found."""
    if not isinstance(raw, dict):
        return None, [_NOT_AN_OBJECT]
    bad = _Findings()
    bad.unknown_keys(raw, _KEYS)
    name = bad.read("BadConfig", "name", _text, raw.get("name", "scenario"))
    out_dir = raw.get("out_dir")
    if out_dir is not None:
        out_dir = bad.read("BadConfig", "out_dir", _text, out_dir)
    eps = bad.read("BadEps", "eps", _positive, raw.get("eps", 1.0))
    expect_horizon = bad.read(
        "BadConfig", "expect_horizon", _flag, raw.get("expect_horizon", False)
    )

    for block_name in ("times", "swanson", "initial"):
        bad.unknown_keys(raw.get(block_name), _NESTED_KEYS[block_name], f"{block_name}.")
    swanson = None
    if raw.get("swanson") is not None:
        swanson = bad.read("BadSwanson", "swanson", _swanson, raw["swanson"])

    hamiltonian = None
    block = raw.get("hamiltonian")
    if block is None and swanson is not None:
        hamiltonian = QuadraticHamiltonian.constant(swanson.matrix())
    elif block is None:
        bad.add("MissingHamiltonian", "no hamiltonian block")
    elif not isinstance(block, dict):
        bad.add("BadHamiltonian", "hamiltonian must be an object")
    else:
        kind = block.get("type", "constant")
        if isinstance(kind, str) and kind in _HAMILTONIAN_KEYS:
            bad.unknown_keys(block, _HAMILTONIAN_KEYS[kind], "hamiltonian.")
        try:
            hamiltonian = _hamiltonian(block)
        except NonSymmetricH as exc:
            bad.add("NonSymmetricH", f"hamiltonian rejected: {exc}")
        except (HagedornError, *_MALFORMED) as exc:
            bad.add("BadHamiltonian", f"hamiltonian block invalid: {exc}")
    n = hamiltonian.n if hamiltonian is not None else None
    if swanson is not None and hamiltonian is not None:
        comparable = hamiltonian.is_constant and n == 1
        if not (comparable and np.allclose(hamiltonian(0.0), swanson.matrix(), atol=1e-12, rtol=0)):
            bad.add("SwansonMismatch", "swanson block needs a constant hamiltonian of its matrix")

    frame = bad.read("BadFrame", "initial", _frame, raw.get("initial"), n)
    center = None
    if "center" in raw:
        center = bad.read("BadCenter", "center", _center, raw["center"], n)
    elif n is not None:
        center = np.zeros(2 * n)
    if swanson is not None and center is not None and np.any(center != 0):
        bad.add("SwansonMismatch", "the swanson closed forms hold for center 0 only")
    times = bad.read("BadTimeGrid", "times", _times, raw.get("times"))
    alphas = None
    if "alphas" in raw:
        alphas = bad.read("BadAlpha", "alphas", _alphas, raw["alphas"], n)
    elif n is not None:
        alphas = ((0,) * n,)

    block = raw.get("oracle")
    block = {} if block is None else block
    oracle = None
    if not isinstance(block, dict):
        bad.add("BadOracle", "oracle must be an object")
    else:
        bad.unknown_keys(block, _ORACLE_KEYS, "oracle.")
        bad.unknown_keys(block.get("grid"), _NESTED_KEYS["oracle.grid"], "oracle.grid.")
        # checked also when the oracle is off, so a bad grid_tol never passes
        grid_tol = bad.read(
            "BadOracle", "oracle.grid_tol", _positive, block.get("grid_tol", GRID_TOL_DEFAULT)
        )
        if bad.read("BadOracle", "oracle.enabled", _flag, block.get("enabled", False)):
            if n is not None and n != 1:
                bad.add("BadOracle", "the grid oracle supports n = 1 only")
            if hamiltonian is not None and not hamiltonian.is_constant:
                bad.add("BadOracle", "the grid oracle supports constant H only")
            oracle = OracleConfig(
                times=bad.read("BadOracle", "oracle.times", _oracle_times, block.get("times")),
                grid=bad.read("BadOracle", "oracle.grid", _grid, block.get("grid", {})),
                dt=bad.read("BadOracle", "oracle.dt", _positive, block.get("dt", DT_DEFAULT)),
                grid_tol=grid_tol,
            )

    if bad:
        return None, list(bad)
    config = ScenarioConfig(
        name=name, eps=eps, hamiltonian=hamiltonian,
        frame=frame, center=center, times=times, alphas=alphas, oracle=oracle, swanson=swanson,
        expect_horizon=expect_horizon, out_dir=out_dir, raw=raw,
    )
    return config, []


def validate_config(raw: dict) -> list[Diagnostic]:
    """All schema diagnostics for a raw config dict; empty iff runnable."""
    return _parse_config(raw)[1]


def load_config(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig, raising ConfigError with all diagnostics."""
    config, diagnostics = _parse_config(raw)
    if diagnostics:
        raise ConfigError(diagnostics)
    return config


# ---------------------------------------------------------------------------
# compute


@dataclass(frozen=True)
class _Computed:
    """What a run derives from its config; per-state lists and rows run over
    `all_states`."""

    all_states: Trajectory  # at the trajectory and oracle times, up to any horizon
    on_grid: list  # indices into all_states of the trajectory times
    horizon: float | None  # the detected positivity breakdown, if any
    prefactor: np.ndarray  # e^{Re(iα_t/ε + β_t)} per state
    expansions: dict  # α → its coefficient_sweep (keys, a); a[i, r] is a_{keys[r]} at state i
    norms: dict  # α → the pipeline norm per state
    closed_norms: dict | None  # α → the closed-form Swanson norm per state


def _compute(config: ScenarioConfig) -> _Computed:
    oracle_times = config.oracle.times if config.oracle is not None else ()
    all_times = sorted(set(config.times) | set(oracle_times))
    horizon = None
    try:
        all_states = propagate(
            config.frame, config.center, config.hamiltonian, all_times, config.eps
        )
    except PositivityLost as exc:
        horizon = exc.t_star
        all_states = exc.states
    times = all_states.t.tolist()
    logs = log_prefactor(all_states.beta, all_states.action, all_states.eps)
    prefactor = np.array([amplitude(g) for g in logs.tolist()])
    expansions = {alpha: coefficient_sweep(all_states, alpha) for alpha in config.alphas}
    closed_norms = None
    if config.swanson is not None:
        ks = [alpha[0] for alpha in config.alphas]
        per_time = [ds_norms(config.swanson, ks, t) for t in times]
        closed_norms = {
            alpha: [norms[i] for norms in per_time] for i, alpha in enumerate(config.alphas)
        }
    grid_times = set(config.times)
    return _Computed(
        all_states=all_states,
        on_grid=[i for i, t in enumerate(times) if t in grid_times],
        horizon=horizon,
        prefactor=prefactor,
        expansions=expansions,
        norms={
            alpha: [expansion_norm(p, row) for p, row in zip(prefactor.tolist(), a.tolist())]
            for alpha, (_, a) in expansions.items()
        },
        closed_norms=closed_norms,
    )


# ---------------------------------------------------------------------------
# checks


class _Checks:
    def __init__(self):
        self.entries: list[dict] = []

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.entries.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def all_passed(self) -> bool:
        return all(e["passed"] for e in self.entries)


def _run_oracle(config: ScenarioConfig, run: _Computed) -> list[dict]:
    """Grid-oracle cases, each against the pipeline's state and norm at its t.

    One march per α through the sorted oracle times; a ConvergenceFailure
    keeps the earlier times' cases and marks that time and every later one.
    """
    oracle = config.oracle
    index = {t: i for i, t in enumerate(run.all_states.t.tolist())}
    eps = config.eps
    operator = discretize_hamiltonian(config.hamiltonian(0.0), eps, oracle.grid)
    params0 = WavepacketParams(frame=config.frame, center=config.center, eps=eps)
    cases = []
    for alpha in config.alphas:
        psi0 = eval_excited(params0, alpha, oracle.grid)
        k = int(alpha[0])
        error = None
        try:
            results = propagate_grid(
                psi0, operator, oracle.times, dt=oracle.dt, grid_tol=oracle.grid_tol
            )
        except ConvergenceFailure as exc:
            results, error = exc.results, str(exc)
        for t, result in zip_longest(oracle.times, results):
            case = {"k": k, "t": t}
            if result is None:
                cases.append({**case, "error": error})
                continue
            i = index[t]
            psi_hag = evolved_state_on_grid(run.all_states[i], alpha, eps, oracle.grid)
            norm_grid = grid_norm(result.field, oracle.grid)
            norm_hag = grid_norm(psi_hag, oracle.grid)
            fidelity = abs(grid_inner(result.field, psi_hag, oracle.grid)) / (norm_grid * norm_hag)
            outside_x, outside_p = outside_window(result.field, oracle.grid, eps)
            cases.append(
                {
                    **case,
                    "norm_grid": norm_grid,
                    "norm_predicted": run.norms[alpha][i],
                    "fidelity": fidelity,
                    "richardson_error": result.richardson_error,
                    "outside_x": outside_x,
                    "outside_p": outside_p,
                }
            )
    return cases


def _check(config: ScenarioConfig, run: _Computed) -> tuple[_Checks, list | None]:
    """Every verdict on a computed run, and the oracle cases (None with no oracle)."""
    checks = _Checks()
    on_grid = run.on_grid

    # propagation health
    max_sympl = max(run.all_states.symplectic_defect[on_grid].tolist(), default=0.0)
    checks.add(
        "symplectic_defect",
        max_sympl <= SYMPLECTIC_TOL,
        f"max |SᵀΩS − Ω| {max_sympl:.3e} (tol {SYMPLECTIC_TOL:.3e})",
    )

    # positivity / horizon accounting
    horizon = run.horizon
    if config.expect_horizon:
        if horizon is None:
            checks.add("horizon", False, "expected a positivity breakdown, none detected")
        elif config.swanson is not None:
            closed = ds_positivity_time(config.swanson)
            err = abs(horizon - closed)
            checks.add(
                "horizon",
                err <= HORIZON_TOL,
                f"detected {horizon:.9f}, closed form {closed:.9f}, |diff| {err:.3e}",
            )
        else:
            checks.add("horizon", True, f"detected horizon at t = {horizon:.9f}")
    elif horizon is not None:
        detail = f"positivity lost at t = {horizon:.9f} but expect_horizon is false"
        checks.add("positivity", False, detail)

    # closed-form comparison over all computed times
    if run.closed_norms is not None:
        pairs = [zip(run.closed_norms[alpha], run.norms[alpha]) for alpha in config.alphas]
        max_err = max((abs(c - p) for pair in pairs for c, p in pair), default=0.0)
        checks.add(
            "closed_form_norms",
            max_err <= CLOSED_FORM_TOL,
            f"max |closed − pipeline| {max_err:.3e} (tol {CLOSED_FORM_TOL:.3e})",
        )

    # Hermitian sanity: with Im H ≡ 0 every norm must stay 1
    if config.hamiltonian.is_real:
        norms = [norm for norms in run.norms.values() for norm in norms]
        norms += run.prefactor[on_grid].tolist()
        worst = max((abs(norm - 1.0) for norm in norms), default=0.0)
        checks.add(
            "hermitian_norms",
            worst <= HERMITIAN_NORM_TOL,
            f"max |norm − 1| {worst:.3e} (tol {HERMITIAN_NORM_TOL:.3e})",
        )

    if config.oracle is None:
        return checks, None
    computed = set(run.all_states.t.tolist())
    missing = [t for t in config.oracle.times if t not in computed]
    if missing:
        checks.add("oracle_fidelity", False, f"oracle times {missing} beyond the positivity horizon")
        return checks, []
    cases = _run_oracle(config, run)
    errors = [c for c in cases if "error" in c]
    if errors:
        checks.add("oracle_fidelity", False, f"{len(errors)} case(s) failed to converge")
        return checks, cases
    worst_fid = min(c["fidelity"] for c in cases)
    worst_norm = max(abs(c["norm_grid"] - c["norm_predicted"]) for c in cases)
    checks.add(
        "oracle_fidelity",
        worst_fid >= 1 - FIDELITY_TOL,
        f"min fidelity {worst_fid:.12f} (needs ≥ {1 - FIDELITY_TOL})",
    )
    checks.add(
        "oracle_norms",
        worst_norm <= ORACLE_NORM_TOL,
        f"max |norm_grid − norm_predicted| {worst_norm:.3e} (tol {ORACLE_NORM_TOL:.3e})",
    )
    return checks, cases


# ---------------------------------------------------------------------------
# artifacts


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _write_csv(path: Path, header: list[str], lines: list[str]) -> None:
    """The header, then the rows, each a line of comma-separated fields."""
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def _write_json(path: Path, data: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _alpha_label(alpha) -> str:
    return "-".join(str(k) for k in alpha)


def config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_trajectory(path: Path, run: _Computed, n: int) -> None:
    centre = ["p", "q"] if n == 1 else [f"{c}{i + 1}" for c in "pq" for i in range(n)]
    header = ["t", "beta", "norm_predicted", "re_action", "im_action", *centre]
    header += ["det_defect_symplectic", "min_eig_positivity"]
    states, on_grid = run.all_states, run.on_grid
    columns = [
        states.t, states.beta, run.prefactor, states.action.real, states.action.imag,
        *states.z.T, states.symplectic_defect, states.min_positivity,
    ]
    table = np.column_stack(columns)[on_grid]
    line = ",".join(["%.17g"] * len(header))
    _write_csv(path, header, [line % tuple(values) for values in table.tolist()])


def _write_coefficients(out: Path, run: _Computed) -> list[str]:
    """One CSV per initial α, on the trajectory times only: the nonzero slots
    of each state's row of the α's sweep, in lexicographic order of k.  Times
    are formatted once per state, labels and slot order once per α."""
    stamps = [_fmt(t) for t in run.all_states.t[run.on_grid].tolist()]
    names = []
    for alpha, (keys, a) in run.expansions.items():
        order = np.lexsort(keys.T[::-1])
        labels = [_alpha_label(k) for k in keys[order].tolist()]
        rows = [
            "%s,%s,%.17g,%.17g" % (stamp, label, v.real, v.imag)
            for stamp, row in zip(stamps, a[run.on_grid][:, order].tolist())
            for label, v in zip(labels, row) if v
        ]
        name = f"coefficients_{_alpha_label(alpha)}.csv"
        _write_csv(out / name, ["t", "multi_index", "re_a", "im_a"], rows)
        names.append(name)
    return names


def _write_norms(path: Path, config: ScenarioConfig, run: _Computed, cases) -> None:
    """The norm curves over all computed times, with the oracle's where it ran."""
    oracle = {(c["k"], c["t"]): c["norm_grid"] for c in cases or () if "norm_grid" in c}
    times = run.all_states.t.tolist()
    stamps = [_fmt(t) for t in times]
    rows = []
    for alpha in config.alphas:
        k = int(alpha[0])
        for t, stamp, closed, pipeline in zip(
            times, stamps, run.closed_norms[alpha], run.norms[alpha]
        ):
            grid = oracle.get((k, t))
            rows.append("%s,%d,%.17g,%.17g,%s" % (
                stamp, k, closed, pipeline, "" if grid is None else _fmt(grid)))
    header = ["t", "k", "norm_closed_form", "norm_general_pipeline", "norm_grid_oracle"]
    _write_csv(path, header, rows)


def _write_artifacts(
    config: ScenarioConfig, run: _Computed, checks: _Checks, cases, out_dir: Path
) -> int:
    """Write every artifact and the manifest; returns the exit status."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_trajectory(out_dir / "trajectory.csv", run, config.n)
    artifacts = ["trajectory.csv", "manifest.json"]
    artifacts += _write_coefficients(out_dir, run)
    if run.closed_norms is not None:
        _write_norms(out_dir / "norms.csv", config, run, cases)
        artifacts.append("norms.csv")
    if config.oracle is not None:
        grid = config.oracle.grid
        report = {
            "grid": {"lo": grid.bounds[0][0], "hi": grid.bounds[0][1], "count": grid.counts[0]},
            "dt": config.oracle.dt,
            "grid_tol": config.oracle.grid_tol,
            "cases": cases,
        }
        _write_json(out_dir / "oracle.json", report)
        artifacts.append("oracle.json")

    closed_horizon = ds_positivity_time(config.swanson) if config.swanson is not None else math.inf
    tolerances = {}
    if config.oracle is not None:  # grid_tol only where the grid oracle applies it
        tolerances["grid_tol"] = config.oracle.grid_tol
    manifest = {
        "name": config.name,
        "config_sha256": config_hash(config.raw),
        "n": config.n,
        "eps": config.eps,
        "tolerances": tolerances,
        "times": {
            "count": len(run.on_grid),
            "requested": len(config.times),
            "first": run.all_states.t[run.on_grid[0]].item() if run.on_grid else None,
            "last": run.all_states.t[run.on_grid[-1]].item() if run.on_grid else None,
        },
        "horizon": {
            "expected": config.expect_horizon,
            "detected": run.horizon,
            "closed_form": closed_horizon if math.isfinite(closed_horizon) else None,
        },
        "checks": checks.entries,
        "artifacts": sorted(artifacts),
        "exit_status": 0 if checks.all_passed else 1,
    }
    _write_json(out_dir / "manifest.json", manifest)
    return manifest["exit_status"]


def run_scenario(config: ScenarioConfig, out_dir: Path) -> int:
    """Propagate, verify, and write artifacts; 0 iff all checks pass."""
    run = _compute(config)
    checks, cases = _check(config, run)
    return _write_artifacts(config, run, checks, cases, Path(out_dir))


# ---------------------------------------------------------------------------
# presets

_OMEGA_FIG1 = math.sqrt(1.25)


PRESETS: dict[str, dict] = {
    "swanson-fig1": {
        "name": "swanson-fig1",
        "eps": 1.0,
        "swanson": {"omega0": 1.0, "delta": 0.5},
        "hamiltonian": {
            "type": "constant",
            "matrix": [[[1.0, 0.0], [0.0, -0.5]], [[0.0, -0.5], [1.0, 0.0]]],
        },
        "initial": {"entries": [[[1.0, 0.0]], [[0.0, -1.0]]]},
        "center": [0.0, 0.0],
        "times": {"start": 0.0, "stop": 2 * math.pi / _OMEGA_FIG1, "count": 200},
        "alphas": [[0], [1], [2]],
        "oracle": {
            "enabled": True,
            "times": [0.25, 0.5, 1.0, math.pi / (2 * _OMEGA_FIG1)],
            "grid": {"lo": -12.0, "hi": 12.0, "count": 1024},
            "dt": 1e-3,
            "grid_tol": 1e-5,
        },
    },
    "hermitian-sanity": {
        "name": "hermitian-sanity",
        "eps": 1.0,
        "hamiltonian": {"type": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "initial": "standard",
        "center": [0.0, 0.0],
        "times": {"start": 0.0, "stop": 2 * math.pi, "count": 101},
        "alphas": [[0], [1], [2]],
        "oracle": {"enabled": False},
    },
    "horizon": {
        "name": "horizon",
        "eps": 1.0,
        "swanson": {"omega0": 0.5, "delta": 1.0},
        "hamiltonian": {
            "type": "constant",
            "matrix": [[[0.5, 0.0], [0.0, -1.0]], [[0.0, -1.0], [0.5, 0.0]]],
        },
        "initial": {"entries": [[[1.0, 0.0]], [[0.0, -1.0]]]},
        "center": [0.0, 0.0],
        "times": {"start": 0.0, "stop": 2.0, "count": 80},
        "alphas": [[0]],
        "expect_horizon": True,
        "oracle": {"enabled": False},
    },
    "squeezed-metric": {
        "name": "squeezed-metric",
        "eps": 1.0,
        "hamiltonian": {"type": "constant", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "initial": {"metric": [[4.0, 0.0], [0.0, 0.25]]},
        "center": [0.0, 0.0],
        "times": {"start": 0.0, "stop": 2 * math.pi, "count": 101},
        "alphas": [[0], [1]],
        "oracle": {"enabled": False},
    },
}

PRESET_NOTES = {
    "swanson-fig1": "gain/loss oscillator norm curves, k = 0, 1, 2, with grid oracle",
    "hermitian-sanity": "harmonic oscillator, all norms must stay 1",
    "horizon": "over-damped oscillator whose frame positivity breaks down",
    "squeezed-metric": "harmonic evolution of a squeezed initial Gaussian",
}


# ---------------------------------------------------------------------------
# entry point


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _read_json(path) -> object:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError([Diagnostic("BadConfig", str(exc))]) from exc


def _resolve_raw(args) -> dict:
    raw: dict = PRESETS[args.preset] if args.preset else {}
    if args.config:
        user = _read_json(args.config)
        if not isinstance(user, dict):
            raise ConfigError([_NOT_AN_OBJECT])
        raw = _deep_merge(raw, user)
    if not raw:
        raise ConfigError([Diagnostic("BadConfig", "give a config path and/or --preset")])
    if args.no_oracle:
        raw = _deep_merge(raw, {"oracle": {"enabled": False}})
    return raw


def _resolve_out_dir(args, config: ScenarioConfig) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return Path(env)
    if config.out_dir:
        return Path(config.out_dir)
    return Path.cwd() / f"{config.name}-artifacts"


def _print_diagnostics(diagnostics, file) -> None:
    for d in diagnostics:
        print(f"{d.code}: {d.message}", file=file)


def _cmd_run(args) -> int:
    try:
        config = load_config(_resolve_raw(args))
    except ConfigError as exc:
        _print_diagnostics(exc.diagnostics, sys.stderr)
        return 2
    out_dir = _resolve_out_dir(args, config)
    try:
        status = run_scenario(config, out_dir)
    except HagedornError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    with open(out_dir / "manifest.json") as fh:
        manifest = json.load(fh)
    for check in manifest["checks"]:
        mark = "pass" if check["passed"] else "FAIL"
        print(f"[{mark}] {check['name']}: {check['detail']}")
    print(f"artifacts written to {out_dir}")
    return status


def _cmd_validate(args) -> int:
    try:
        raw = _read_json(args.config)
    except ConfigError as exc:
        _print_diagnostics(exc.diagnostics, sys.stderr)
        return 2
    diagnostics = validate_config(raw)
    _print_diagnostics(diagnostics, sys.stdout)
    if not diagnostics:
        print("ok")
    return 0 if not diagnostics else 1


def _cmd_presets(args) -> int:
    for name in sorted(PRESETS):
        print(f"{name}: {PRESET_NOTES[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hagedorn",
        description="Hagedorn wavepacket scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write artifacts")
    run_p.add_argument("config", nargs="?", help="path to a JSON scenario config")
    run_p.add_argument("--preset", choices=sorted(PRESETS), help="start from a built-in scenario")
    run_p.add_argument("--out", help="output directory (overrides env and config)")
    run_p.add_argument("--no-oracle", action="store_true", help="disable the grid oracle")
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="check a config file without running it")
    val_p.add_argument("config")
    val_p.set_defaults(func=_cmd_validate)

    pre_p = sub.add_parser("presets", help="inspect built-in scenarios")
    pre_p.add_argument("action", choices=["list"])
    pre_p.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Scenario runner: JSON config in, CSV/JSON artifacts out.

A scenario propagates one wavepacket family under a quadratic Hamiltonian and
writes four kinds of artifact into the output directory:

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
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ConvergenceFailure, HagedornError, PositivityLost
from .gridsolver import GRID_TOL_DEFAULT, discretize_hamiltonian, propagate_grid
from .polynomials import validate_multi_index
from .propagation import (
    ODE_TOL,
    QuadraticHamiltonian,
    evolved_state_on_grid,
    hagedorn_coefficients,
    propagate,
)
from .swanson import SwansonParams, ds_norm, ds_positivity_time
from .symplectic import (
    TOL_FRAME,
    LagrangianFrame,
    NormalisedFrame,
    frame_from_metric,
)
from .wavepackets import Grid, WavepacketParams, eval_excited, grid_inner, grid_norm

FIDELITY_TOL = 1e-5
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


def _as_complex(entry):
    if isinstance(entry, bool):
        raise ValueError("boolean is not a number")
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        re, im = entry
        if isinstance(re, (int, float)) and isinstance(im, (int, float)):
            return complex(re, im)
    raise ValueError(f"expected a number or [re, im] pair, got {entry!r}")


def _as_matrix(rows):
    return np.array([[_as_complex(e) for e in row] for row in rows], dtype=complex)


def _swanson_matrix_entries(omega0: float, delta: float):
    return [
        [[omega0, 0.0], [0.0, -delta]],
        [[0.0, -delta], [omega0, 0.0]],
    ]


def _infer_n(raw: dict):
    ham = raw.get("hamiltonian")
    if isinstance(ham, dict):
        mat = None
        if ham.get("type", "constant") == "constant":
            mat = ham.get("matrix")
        elif ham.get("type") == "sampled":
            mats = ham.get("matrices")
            mat = mats[0] if isinstance(mats, list) and mats else None
        elif ham.get("type") == "polynomial":
            coeffs = ham.get("coefficients")
            mat = coeffs[0] if isinstance(coeffs, list) and coeffs else None
        if isinstance(mat, list) and len(mat) % 2 == 0 and mat:
            return len(mat) // 2
    initial = raw.get("initial")
    if isinstance(initial, dict):
        if isinstance(initial.get("entries"), list) and len(initial["entries"]) % 2 == 0:
            return len(initial["entries"]) // 2
        if isinstance(initial.get("metric"), list) and len(initial["metric"]) % 2 == 0:
            return len(initial["metric"]) // 2
    if "swanson" in raw:
        return 1
    return None


def _build_hamiltonian(ham: dict, n: int) -> QuadraticHamiltonian:
    kind = ham.get("type", "constant")
    if kind == "constant":
        return QuadraticHamiltonian.constant(_as_matrix(ham["matrix"]))
    if kind == "sampled":
        times = np.asarray(ham["times"], dtype=float)
        matrices = [_as_matrix(m) for m in ham["matrices"]]
        return QuadraticHamiltonian.sampled(times, matrices)
    if kind == "polynomial":
        coefficients = [_as_matrix(m) for m in ham["coefficients"]]
        return QuadraticHamiltonian.polynomial(coefficients)
    raise ValueError(f"unknown hamiltonian type {kind!r}")


def standard_frame(n: int) -> NormalisedFrame:
    """The frame (i·Id; Id) of the isotropic standard Gaussian."""
    ident = np.eye(n, dtype=complex)
    return NormalisedFrame(LagrangianFrame(np.vstack([1j * ident, ident])))


def _build_frame(initial, n: int) -> NormalisedFrame:
    if initial is None or initial == "standard":
        return standard_frame(n)
    if isinstance(initial, dict) and "metric" in initial:
        return frame_from_metric(np.array(initial["metric"], dtype=float))
    if isinstance(initial, dict) and "entries" in initial:
        return NormalisedFrame(LagrangianFrame(_as_matrix(initial["entries"])))
    raise ValueError("initial must be \"standard\", {\"metric\": ...}, or {\"entries\": ...}")


def _build_times(times) -> np.ndarray:
    if isinstance(times, dict):
        start = float(times["start"])
        stop = float(times["stop"])
        count = int(times["count"])
        if count < 2 or not stop > start:
            raise ValueError("need stop > start and count ≥ 2")
        return np.linspace(start, stop, count)
    out = np.asarray(times, dtype=float)
    if out.ndim != 1 or out.size == 0 or np.any(np.diff(out) <= 0):
        raise ValueError("times must be strictly increasing")
    return out


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated, fully resolved scenario."""

    name: str
    n: int
    eps: float
    ode_tol: float
    tol_frame: float
    hamiltonian: QuadraticHamiltonian
    frame: NormalisedFrame
    center: np.ndarray
    times: np.ndarray
    alphas: tuple
    oracle_enabled: bool
    oracle_times: tuple
    oracle_grid: Grid | None
    oracle_dt: float
    oracle_grid_tol: float
    swanson: SwansonParams | None
    expect_horizon: bool
    out_dir: str | None
    raw: dict


def _finite_positive(val) -> bool:
    """A JSON number (not a bool) that is finite and > 0."""
    return (
        isinstance(val, (int, float))
        and not isinstance(val, bool)
        and math.isfinite(val)
        and val > 0
    )


def validate_config(raw: dict) -> list[Diagnostic]:
    """All schema diagnostics for a raw config dict; empty iff runnable."""
    bad: list[Diagnostic] = []
    if not isinstance(raw, dict):
        return [Diagnostic("BadConfig", "config root must be a JSON object")]

    if not _finite_positive(raw.get("eps", 1.0)):
        bad.append(Diagnostic("BadEps", "eps must be a finite positive number"))

    for key, default in (("ode_tol", ODE_TOL), ("tol_frame", TOL_FRAME)):
        if not _finite_positive(raw.get(key, default)):
            bad.append(Diagnostic("BadTolerance", f"{key} must be a finite positive number"))

    swanson = raw.get("swanson")
    sw_params = None
    if swanson is not None:
        try:
            sw_params = SwansonParams(float(swanson["omega0"]), float(swanson["delta"]))
        except (HagedornError, KeyError, TypeError, ValueError) as exc:
            bad.append(Diagnostic("BadSwanson", f"swanson block invalid: {exc}"))

    n = _infer_n(raw)
    if n is None:
        bad.append(Diagnostic("MissingHamiltonian", "cannot infer dimension: give a hamiltonian"))
        return bad

    ham_raw = raw.get("hamiltonian")
    if ham_raw is None and sw_params is not None:
        ham_raw = {
            "type": "constant",
            "matrix": _swanson_matrix_entries(sw_params.omega0, sw_params.delta),
        }
    hamiltonian = None
    if ham_raw is None:
        bad.append(Diagnostic("MissingHamiltonian", "no hamiltonian block"))
    else:
        try:
            hamiltonian = _build_hamiltonian(ham_raw, n)
            if hamiltonian.n != n:
                bad.append(Diagnostic("BadHamiltonian", "coefficient matrix is not 2n×2n"))
        except HagedornError as exc:
            code = type(exc).__name__
            bad.append(Diagnostic(code, f"hamiltonian rejected: {exc}"))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            bad.append(Diagnostic("BadHamiltonian", f"hamiltonian block invalid: {exc}"))

    if sw_params is not None and hamiltonian is not None and hamiltonian.is_constant:
        expected = sw_params.matrix()
        if hamiltonian.n != 1 or not np.allclose(
            hamiltonian(0.0), expected, rtol=0.0, atol=1e-12
        ):
            bad.append(
                Diagnostic(
                    "SwansonMismatch",
                    "swanson block does not match the hamiltonian matrix",
                )
            )

    try:
        _build_frame(raw.get("initial"), n)
    except HagedornError as exc:
        bad.append(Diagnostic("BadFrame", f"initial frame rejected: {exc}"))
    except (TypeError, ValueError, IndexError) as exc:
        bad.append(Diagnostic("BadFrame", f"initial block invalid: {exc}"))

    center = raw.get("center", [0.0] * (2 * n))
    if (
        not isinstance(center, list)
        or len(center) != 2 * n
        or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in center)
    ):
        bad.append(Diagnostic("BadCenter", f"center must be a list of 2n = {2 * n} reals"))

    try:
        times = _build_times(raw.get("times"))
        if times[0] < 0:
            bad.append(Diagnostic("BadTimeGrid", "times must start at t ≥ 0"))
    except (KeyError, TypeError, ValueError) as exc:
        bad.append(Diagnostic("BadTimeGrid", f"times block invalid: {exc}"))

    alphas = raw.get("alphas", [[0] * n])
    if not isinstance(alphas, list) or not alphas:
        bad.append(Diagnostic("BadAlpha", "alphas must be a non-empty list of multi-indices"))
    else:
        for a in alphas:
            try:
                validate_multi_index(a, n)
            except HagedornError as exc:
                bad.append(Diagnostic("BadAlpha", f"multi-index {a!r} rejected: {exc}"))
                break

    oracle = raw.get("oracle", {})
    if oracle and not isinstance(oracle, dict):
        bad.append(Diagnostic("BadOracle", "oracle must be an object"))
    elif isinstance(oracle, dict) and oracle.get("enabled", False):
        if n != 1:
            bad.append(Diagnostic("BadOracle", "the grid oracle supports n = 1 only"))
        if hamiltonian is not None and not hamiltonian.is_constant:
            bad.append(Diagnostic("BadOracle", "the grid oracle supports constant H only"))
        otimes = oracle.get("times")
        if not isinstance(otimes, list) or not otimes or not all(map(_finite_positive, otimes)):
            bad.append(
                Diagnostic("BadOracle", "oracle.times must be a list of finite positive times")
            )
        grid = oracle.get("grid", {})
        try:
            lo, hi, count = float(grid["lo"]), float(grid["hi"]), int(grid["count"])
            if not (hi > lo and count >= 16):
                raise ValueError("need hi > lo and count ≥ 16")
        except (KeyError, TypeError, ValueError) as exc:
            bad.append(Diagnostic("BadOracle", f"oracle.grid invalid: {exc}"))
        for key, default in (("dt", 1e-3), ("grid_tol", GRID_TOL_DEFAULT)):
            if not _finite_positive(oracle.get(key, default)):
                bad.append(Diagnostic("BadOracle", f"oracle.{key} must be finite and positive"))

    if not isinstance(raw.get("expect_horizon", False), bool):
        bad.append(Diagnostic("BadConfig", "expect_horizon must be a boolean"))
    return bad


def load_config(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig, raising ConfigError with all diagnostics."""
    diagnostics = validate_config(raw)
    if diagnostics:
        raise ConfigError(diagnostics)

    n = _infer_n(raw)
    sw = raw.get("swanson")
    sw_params = SwansonParams(float(sw["omega0"]), float(sw["delta"])) if sw else None
    ham_raw = raw.get("hamiltonian")
    if ham_raw is None:
        ham_raw = {
            "type": "constant",
            "matrix": _swanson_matrix_entries(sw_params.omega0, sw_params.delta),
        }
    oracle = raw.get("oracle", {}) or {}
    enabled = bool(oracle.get("enabled", False))
    grid = None
    if enabled:
        g = oracle["grid"]
        grid = Grid(bounds=((float(g["lo"]), float(g["hi"])),), counts=(int(g["count"]),))
    return ScenarioConfig(
        name=str(raw.get("name", "scenario")),
        n=n,
        eps=float(raw.get("eps", 1.0)),
        ode_tol=float(raw.get("ode_tol", ODE_TOL)),
        tol_frame=float(raw.get("tol_frame", TOL_FRAME)),
        hamiltonian=_build_hamiltonian(ham_raw, n),
        frame=_build_frame(raw.get("initial"), n),
        center=np.asarray(raw.get("center", [0.0] * (2 * n)), dtype=float),
        times=_build_times(raw.get("times")),
        alphas=tuple(validate_multi_index(a, n) for a in raw.get("alphas", [[0] * n])),
        oracle_enabled=enabled,
        oracle_times=tuple(sorted(set(float(t) for t in oracle.get("times", [])))),
        oracle_grid=grid,
        oracle_dt=float(oracle.get("dt", 1e-3)),
        oracle_grid_tol=float(oracle.get("grid_tol", GRID_TOL_DEFAULT)),
        swanson=sw_params,
        expect_horizon=bool(raw.get("expect_horizon", False)),
        out_dir=raw.get("out_dir"),
        raw=raw,
    )


# ---------------------------------------------------------------------------
# artifacts


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _alpha_label(alpha) -> str:
    return "-".join(str(k) for k in alpha)


def config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_trajectory(path: Path, states, eps: float, n: int) -> None:
    if n == 1:
        p_cols, q_cols = ["p"], ["q"]
    else:
        p_cols = [f"p{i + 1}" for i in range(n)]
        q_cols = [f"q{i + 1}" for i in range(n)]
    header = (
        ["t", "beta", "norm_predicted", "re_action", "im_action"]
        + p_cols
        + q_cols
        + ["det_defect_symplectic", "min_eig_positivity"]
    )
    rows = []
    for st in states:
        norm_predicted = math.exp(st.log_prefactor.real)
        row = [
            _fmt(st.t),
            _fmt(st.beta),
            _fmt(norm_predicted),
            _fmt(st.action.real),
            _fmt(st.action.imag),
        ]
        row += [_fmt(v) for v in st.z[:n]]
        row += [_fmt(v) for v in st.z[n:]]
        row += [_fmt(st.symplectic_defect), _fmt(st.min_positivity)]
        rows.append(row)
    _write_csv(path, header, rows)


def _write_coefficients(out: Path, states, expansions_by_alpha: dict) -> list[str]:
    names = []
    for alpha, expansions in expansions_by_alpha.items():
        rows = []
        for st, exp in zip(states, expansions):
            for target in sorted(exp.coefficients):
                a = exp.coefficients[target]
                rows.append(
                    [_fmt(st.t), _alpha_label(target), _fmt(a.real), _fmt(a.imag)]
                )
        name = f"coefficients_{_alpha_label(alpha)}.csv"
        _write_csv(out / name, ["t", "multi_index", "re_a", "im_a"], rows)
        names.append(name)
    return names


class _Checks:
    def __init__(self):
        self.entries: list[dict] = []

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.entries.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def all_passed(self) -> bool:
        return all(e["passed"] for e in self.entries)


def _run_oracle(config: ScenarioConfig, predictions: dict) -> list[dict]:
    """Grid-oracle cases; predictions maps t to (state, {α: pipeline norm})."""
    grid = config.oracle_grid
    eps = config.eps
    operator = discretize_hamiltonian(config.hamiltonian(0.0), eps, grid)
    params0 = WavepacketParams(frame=config.frame, center=config.center, eps=eps)
    cases = []
    for alpha in config.alphas:
        psi0 = eval_excited(params0, alpha, grid)
        for t in config.oracle_times:
            state, norms = predictions[t]
            case: dict = {
                "k": int(alpha[0]) if config.n == 1 else _alpha_label(alpha),
                "t": t,
            }
            try:
                result = propagate_grid(
                    psi0,
                    operator,
                    t,
                    dt=config.oracle_dt,
                    grid_tol=config.oracle_grid_tol,
                )
            except ConvergenceFailure as exc:
                case["error"] = str(exc)
                cases.append(case)
                continue
            psi_hag = evolved_state_on_grid(state, alpha, eps, grid)
            norm_grid = grid_norm(result.field, grid)
            norm_hag = grid_norm(psi_hag, grid)
            fidelity = abs(grid_inner(result.field, psi_hag, grid)) / (norm_grid * norm_hag)
            case.update(
                {
                    "norm_grid": norm_grid,
                    "norm_predicted": norms[alpha],
                    "fidelity": fidelity,
                    "richardson_error": result.richardson_error,
                }
            )
            cases.append(case)
    return cases


def run_scenario(config: ScenarioConfig, out_dir: Path) -> int:
    """Propagate, verify, and write artifacts; 0 iff all checks pass."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    checks = _Checks()
    eps = config.eps
    artifacts: list[str] = []

    horizon_detected = None
    trajectory_times = list(config.times)
    oracle_wanted = config.oracle_enabled and bool(config.oracle_times)
    all_times = sorted(set(trajectory_times) | set(config.oracle_times if oracle_wanted else ()))
    try:
        all_states = propagate(
            config.frame, config.center, config.hamiltonian, all_times, eps, config.ode_tol
        )
    except PositivityLost as exc:
        horizon_detected = exc.t_star
        all_states = exc.states
    traj_set = set(trajectory_times)
    states = [st for st in all_states if st.t in traj_set]

    _write_trajectory(out_dir / "trajectory.csv", states, eps, config.n)
    artifacts.append("trajectory.csv")

    # expansions at every computed time; CSVs carry the trajectory grid only
    expansions_by_alpha = {
        alpha: [hagedorn_coefficients(st, alpha) for st in all_states]
        for alpha in config.alphas
    }
    traj_expansions = {
        alpha: [exp for st, exp in zip(all_states, expansions_by_alpha[alpha]) if st.t in traj_set]
        for alpha in config.alphas
    }
    artifacts += _write_coefficients(out_dir, states, traj_expansions)

    # propagation health
    max_sympl = max((st.symplectic_defect for st in states), default=0.0)
    sympl_tol = max(100 * config.ode_tol, 1e-12)
    checks.add(
        "symplectic_defect",
        max_sympl <= sympl_tol,
        f"max |SᵀΩS − Ω| {max_sympl:.3e} (tol {sympl_tol:.3e})",
    )

    # positivity / horizon accounting
    if config.expect_horizon:
        if horizon_detected is None:
            checks.add("horizon", False, "expected a positivity breakdown, none detected")
        elif config.swanson is not None:
            closed = ds_positivity_time(config.swanson)
            err = abs(horizon_detected - closed)
            checks.add(
                "horizon",
                err <= HORIZON_TOL,
                f"detected {horizon_detected:.9f}, closed form {closed:.9f}, |diff| {err:.3e}",
            )
        else:
            checks.add("horizon", True, f"detected horizon at t = {horizon_detected:.9f}")
    elif horizon_detected is not None:
        checks.add(
            "positivity",
            False,
            f"positivity lost at t = {horizon_detected:.9f} but expect_horizon is false",
        )

    # closed-form comparison and norm curve (over all computed times so the
    # oracle column lands on real rows)
    norms_by_alpha = {
        alpha: [exp.norm() for exp in expansions_by_alpha[alpha]]
        for alpha in config.alphas
    }
    if config.swanson is not None:
        rows = []
        max_err = 0.0
        for alpha in config.alphas:
            k = int(alpha[0])
            for st, pipeline in zip(all_states, norms_by_alpha[alpha]):
                closed = ds_norm(config.swanson, k, st.t)
                max_err = max(max_err, abs(closed - pipeline))
                rows.append(
                    [
                        _fmt(st.t),
                        str(k),
                        _fmt(closed),
                        _fmt(pipeline),
                        "",
                    ]
                )
        checks.add(
            "closed_form_norms",
            max_err <= CLOSED_FORM_TOL,
            f"max |closed − pipeline| {max_err:.3e} (tol {CLOSED_FORM_TOL:.3e})",
        )
    else:
        rows = None

    # Hermitian sanity: with Im H ≡ 0 every norm must stay 1
    im_h_max = max(
        float(np.max(np.abs(config.hamiltonian(t).imag))) for t in trajectory_times
    )
    if im_h_max == 0.0:
        worst = 0.0
        for alpha in config.alphas:
            for norm in norms_by_alpha[alpha]:
                worst = max(worst, abs(norm - 1.0))
        for st in states:
            worst = max(worst, abs(math.exp(st.log_prefactor.real) - 1.0))
        checks.add(
            "hermitian_norms",
            worst <= HERMITIAN_NORM_TOL,
            f"max |norm − 1| {worst:.3e} (tol {HERMITIAN_NORM_TOL:.3e})",
        )

    # grid oracle
    if oracle_wanted:
        predictions = {
            st.t: (st, {alpha: norms_by_alpha[alpha][i] for alpha in config.alphas})
            for i, st in enumerate(all_states)
        }
        missing = [t for t in config.oracle_times if t not in predictions]
        if missing:
            checks.add(
                "oracle_fidelity",
                False,
                f"oracle times {missing} beyond the positivity horizon",
            )
            cases = []
        else:
            cases = _run_oracle(config, predictions)
            errors = [c for c in cases if "error" in c]
            if errors:
                checks.add("oracle_fidelity", False, f"{len(errors)} case(s) failed to converge")
            else:
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
        report = {
            "grid": {
                "lo": config.oracle_grid.bounds[0][0],
                "hi": config.oracle_grid.bounds[0][1],
                "count": config.oracle_grid.counts[0],
            },
            "dt": config.oracle_dt,
            "grid_tol": config.oracle_grid_tol,
            "cases": cases,
        }
        with open(out_dir / "oracle.json", "w", newline="\n") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        artifacts.append("oracle.json")
        if rows is not None and cases:
            lookup = {
                (c["k"], c["t"]): _fmt(c["norm_grid"]) for c in cases if "norm_grid" in c
            }
            for row in rows:
                key = (int(row[1]), float(row[0]))
                if key in lookup:
                    row[4] = lookup[key]

    if rows is not None:
        _write_csv(
            out_dir / "norms.csv",
            ["t", "k", "norm_closed_form", "norm_general_pipeline", "norm_grid_oracle"],
            rows,
        )
        artifacts.append("norms.csv")

    manifest = {
        "name": config.name,
        "config_sha256": config_hash(config.raw),
        "n": config.n,
        "eps": eps,
        "tolerances": {
            "ode_tol": config.ode_tol,
            "grid_tol": config.oracle_grid_tol,
            "tol_frame": config.tol_frame,
        },
        "times": {
            "count": len(states),
            "requested": len(trajectory_times),
            "first": states[0].t if states else None,
            "last": states[-1].t if states else None,
        },
        "horizon": {
            "expected": config.expect_horizon,
            "detected": horizon_detected,
            "closed_form": (
                ds_positivity_time(config.swanson)
                if config.swanson is not None and math.isfinite(ds_positivity_time(config.swanson))
                else None
            ),
        },
        "checks": checks.entries,
        "artifacts": sorted(artifacts + ["manifest.json"]),
        "exit_status": 0 if checks.all_passed else 1,
    }
    with open(out_dir / "manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest["exit_status"]


# ---------------------------------------------------------------------------
# presets

_OMEGA_FIG1 = math.sqrt(1.25)

PRESETS: dict[str, dict] = {
    "swanson-fig1": {
        "name": "swanson-fig1",
        "eps": 1.0,
        "swanson": {"omega0": 1.0, "delta": 0.5},
        "hamiltonian": {"type": "constant", "matrix": _swanson_matrix_entries(1.0, 0.5)},
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
        "hamiltonian": {"type": "constant", "matrix": _swanson_matrix_entries(0.5, 1.0)},
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


def _resolve_raw(args) -> dict:
    raw: dict = {}
    if args.preset:
        raw = PRESETS[args.preset]
    if args.config:
        with open(args.config) as fh:
            user = json.load(fh)
        raw = _deep_merge(raw, user) if raw else user
    if not raw:
        raise ConfigError([Diagnostic("BadConfig", "give a config path and/or --preset")])
    if args.no_oracle:
        raw = _deep_merge(raw, {"oracle": {"enabled": False}})
    if args.ode_tol is not None:
        raw = _deep_merge(raw, {"ode_tol": args.ode_tol})
    if args.grid_tol is not None:
        raw = _deep_merge(raw, {"oracle": {"grid_tol": args.grid_tol}})
    return raw


def _resolve_out_dir(args, raw: dict) -> Path:
    if args.out:
        return Path(args.out)
    env = os.environ.get(OUT_DIR_ENV)
    if env:
        return Path(env)
    if raw.get("out_dir"):
        return Path(raw["out_dir"])
    return Path.cwd() / f"{raw.get('name', 'scenario')}-artifacts"


def _cmd_run(args) -> int:
    try:
        raw = _resolve_raw(args)
        config = load_config(raw)
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(f"{d.code}: {d.message}", file=sys.stderr)
        return 2
    out_dir = _resolve_out_dir(args, raw)
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
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"BadConfig: {exc}", file=sys.stderr)
        return 2
    diagnostics = validate_config(raw)
    for d in diagnostics:
        print(f"{d.code}: {d.message}")
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
    run_p.add_argument("--ode-tol", type=float, help="override the propagation tolerance")
    run_p.add_argument("--grid-tol", type=float, help="override the oracle tolerance")
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

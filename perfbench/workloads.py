"""Seeded workloads of the benchmark and their reference checks.

A workload is a list of items.  `Item.run` is the timed call; it returns
the output that `Item.check` compares against a reference computed by this
file, independently of the code under test.  A check is a
(name, passed, detail) triple.

References:
- Swanson presets: the closed-form norm curves `ds_norm`; Hermitian presets
  keep norm 1.
- Seeded scenarios (trajectory): H = R + iI with R ≻ 0 and
  ‖I‖₂ = 0.1, a random real centre z₀ and the standard frame Z₀.  The real
  centre of the packet is an algebraic function of the flow S_t, which is
  expm(tΩH) for constant H and a DOP853 integration at 1e-13 otherwise.
- Expansion: H' = Sᵀ(⊕ⱼ Swanson(ω0ⱼ, δⱼ))S for a random real symplectic S,
  with frame S⁻¹Z₀U, Z₀ = (Id; −i·Id) and U random orthogonal.  The
  metaplectic operator of S is unitary and U only mixes states of one
  degree, so Σ_{|α|=d} ‖U(t)φ_α‖² = Σ_{|α|=d} Πⱼ ds_norm(ω0ⱼ, δⱼ, αⱼ, t)².
  U makes the frame and the recursion matrices dense, as for a generic
  system.  The centre is zero, so parity keeps the modes orthogonal.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import hagedorn
from hagedorn import cli, propagation, swanson
from hagedorn.wavepackets import Grid, grid_norm

REF_RTOL = 1e-8  # relative tolerance of closed-form norms and sum rules
# Relative tolerance of the real centre after integrating to t = 3.  The
# program steps over the knots of a sampled H with RK45 at 1e-10 and ends up
# 1e-8 to 5e-8 off there; a wrong sign or term would be off by O(1).
CENTRE_RTOL = 1e-6
TRAJ_T_MAX = 3.0
TRAJ_COUNT = 150


@dataclass
class Item:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


@dataclass(frozen=True)
class SwansonSystem:
    """H' = Sᵀ(⊕ Swanson)S with frame S⁻¹Z₀U; see the module docstring."""

    modes: tuple  # ((ω0, δ), ...)
    S: np.ndarray
    U: np.ndarray

    @property
    def n(self) -> int:
        return len(self.modes)

    def hamiltonian(self) -> np.ndarray:
        n = self.n
        w0 = np.diag([m[0] for m in self.modes]).astype(complex)
        d = np.diag([-1j * m[1] for m in self.modes])
        H = np.block([[w0, d], [d, w0]])
        out = self.S.T @ H @ self.S
        return 0.5 * (out + out.T)

    def frame(self) -> np.ndarray:
        n = self.n
        Z0 = np.vstack([np.eye(n), -1j * np.eye(n)])
        return np.linalg.solve(self.S, Z0) @ self.U

    def ds(self, j: int, k: int, t: float) -> float:
        omega0, delta = self.modes[j]
        return swanson.ds_norm(swanson.SwansonParams(omega0, delta), k, t)

    def degree_sum(self, d: int, t: float) -> float:
        """Σ_{|α|=d} ‖U(t)φ_α‖² = Σ_{|α|=d} Πⱼ ds_norm(ω0ⱼ, δⱼ, αⱼ, t)²."""
        table = [[self.ds(j, k, t) ** 2 for k in range(d + 1)] for j in range(self.n)]
        return math.fsum(
            math.prod(table[j][a] for j, a in enumerate(alpha))
            for alpha in multi_indices(self.n, d)
        )


def multi_indices(n: int, d: int):
    """All α ∈ ℕⁿ with |α| = d."""
    for cut in itertools.combinations(range(d + n - 1), n - 1):
        bounds = (-1,) + cut + (d + n - 1,)
        yield tuple(bounds[i + 1] - bounds[i] - 1 for i in range(n))


def random_orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_symplectic(rng, n: int, scale: float) -> np.ndarray:
    """expm(ΩK) for a random symmetric K of entry size `scale`."""
    K = rng.normal(scale=scale, size=(2 * n, 2 * n))
    return expm(hagedorn.omega(n) @ (0.5 * (K + K.T)))


def swanson_system(rng, n: int) -> SwansonSystem:
    """ω0 ∈ [0.8, 1.2], δ ∈ [0.04, 0.08] per mode; S within ~25% of the identity."""
    modes = tuple((float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.04, 0.08))) for _ in range(n))
    return SwansonSystem(modes, random_symplectic(rng, n, 0.25), random_orthogonal(rng, n))


# ---------------------------------------------------------------------------
# scenario items (run_scenario through the CLI's config path)


def _json_matrix(a) -> list:
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    return [[[float(v.real), float(v.imag)] for v in row] for row in a]


def _read_csv(path: Path) -> list[list[str]]:
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def pipeline_norms(out_dir: Path, alphas) -> dict:
    """{(α, t): ‖U(t)φ_α‖} from trajectory.csv and coefficients_<α>.csv."""
    prefactor = {float(r[0]): float(r[2]) for r in _read_csv(out_dir / "trajectory.csv")}
    norms = {}
    for alpha in alphas:
        label = "-".join(str(k) for k in alpha)
        sums: dict = {}
        for r in _read_csv(out_dir / f"coefficients_{label}.csv"):
            t = float(r[0])
            sums[t] = sums.get(t, 0.0) + float(r[2]) ** 2 + float(r[3]) ** 2
        for t, s in sums.items():
            norms[(tuple(alpha), t)] = prefactor[t] * math.sqrt(s)
    return norms


class ScenarioItem:
    """load_config + run_scenario on one raw config; checks the artifacts.

    `norm_reference(α, t)` gives the exact norm of U(t)φ_α and `flow(times)`
    the exact flow matrices S_t; either may be None.  Times at or past a
    detected positivity horizon are absent from the artifacts and are not
    checked.  Flows are computed once and reused by later passes.
    """

    def __init__(self, label, raw, out_root: Path, norm_reference=None, flow=None):
        self.label = label
        self.raw = raw
        self.out_dir = out_root / label
        self.norm_reference = norm_reference
        self.flow = flow
        self._flows: dict = {}

    def run(self) -> int:
        return cli.run_scenario(cli.load_config(self.raw), self.out_dir)

    def check(self, status) -> list:
        with open(self.out_dir / "manifest.json") as fh:
            manifest = json.load(fh)
        checks = [
            (f"manifest.{c['name']}", c["passed"], c["detail"]) for c in manifest["checks"]
        ]
        checks.append(
            (
                "exit_status",
                status == manifest["exit_status"],
                f"run_scenario returned {status}, manifest says {manifest['exit_status']}",
            )
        )
        if self.norm_reference is not None:
            checks.append(self._check_norms())
        if self.flow is not None:
            checks.append(self._check_centre())
        return checks

    def _check_norms(self):
        alphas = [tuple(a) for a in self.raw["alphas"]]
        norms = pipeline_norms(self.out_dir, alphas)
        if not norms:
            raise RuntimeError(f"{self.label}: no norms in the artifacts")
        worst = max(
            _relative(value, self.norm_reference(alpha, t)) for (alpha, t), value in norms.items()
        )
        return (
            "reference_norms",
            worst <= REF_RTOL,
            f"max relative |pipeline − closed form| {worst:.3e} over {len(norms)} (α, t)",
        )

    def _check_centre(self):
        """Real centre against the algebraic formula on the exact flow S_t.

        With (π, ξ) = S_t z₀ and B_t = P_tQ_t⁻¹ of (P_t; Q_t) = S_tZ₀, the real
        centre (p, q) solves p − B_t q = π − B_t ξ.
        """
        rows = _read_csv(self.out_dir / "trajectory.csv")
        n = len(self.raw["center"]) // 2
        times = tuple(float(r[0]) for r in rows)
        if not times:
            raise RuntimeError(f"{self.label}: empty trajectory")
        if times not in self._flows:
            self._flows[times] = self.flow(np.array(times))
        Z0 = np.vstack([1j * np.eye(n), np.eye(n)])
        z0 = np.array(self.raw["center"], dtype=float)
        worst = 0.0
        for r, S in zip(rows, self._flows[times]):
            z = np.array([float(v) for v in r[5 : 5 + 2 * n]])
            W = S @ Z0
            B = np.linalg.solve(W[n:].T, W[:n].T).T
            pi_xi = S @ z0
            c = pi_xi[:n] - B @ pi_xi[n:]
            q = -np.linalg.solve(B.imag, c.imag)
            ref = np.concatenate([c.real + B.real @ q, q])
            worst = max(worst, float(np.max(np.abs(z - ref))) / (1.0 + float(np.max(np.abs(ref)))))
        return (
            "reference_centre",
            worst <= CENTRE_RTOL,
            f"max relative centre defect {worst:.3e} over {len(rows)} times",
        )


def _relative(value: float, ref: float) -> float:
    return abs(value - ref) / ref if math.isfinite(value) else math.inf


def _times_block(scale: str) -> dict:
    if scale == "full":
        return {"start": 0.0, "stop": TRAJ_T_MAX, "count": TRAJ_COUNT}
    return {"start": 0.0, "stop": 0.5, "count": 5}


def _preset_item(name: str, out_root: Path, scale: str) -> ScenarioItem:
    raw = copy.deepcopy(cli.PRESETS[name])
    raw["oracle"] = {"enabled": False}
    if scale != "full":
        # the horizon preset must still reach its horizon (t ≈ 0.815)
        raw["times"] = {"start": 0.0, "stop": 1.0 if raw.get("expect_horizon") else 0.5, "count": 5}
    sw = raw.get("swanson")
    if sw is None:
        # Hermitian presets: the evolution is unitary
        reference = lambda alpha, t: 1.0  # noqa: E731
    else:
        reference = _swanson_norm(sw["omega0"], sw["delta"])
    return ScenarioItem(f"preset-{name}", raw, out_root, norm_reference=reference)


def _swanson_norm(omega0: float, delta: float):
    params = swanson.SwansonParams(omega0, delta)
    return lambda alpha, t: swanson.ds_norm(params, alpha[0], t)


def generic_hamiltonian(rng, n: int) -> np.ndarray:
    """H = R + iI with ‖I‖₂ = 0.1 and R ≻ 0 of highest frequency 1.5.

    R has eigenvalues drawn from [0.5, 1.5] before it is scaled so that the
    largest |eigenvalue| of ΩR is 1.5: the integrator's step size follows
    that frequency, so every seed asks for about the same work.
    """
    R = random_orthogonal(rng, 2 * n)
    R = R @ np.diag(rng.uniform(0.5, 1.5, size=2 * n)) @ R.T
    R *= 1.5 / np.max(np.abs(np.linalg.eigvals(hagedorn.omega(n) @ R)))
    I = rng.normal(size=(2 * n, 2 * n))
    I = 0.5 * (I + I.T)
    I *= 0.1 / np.linalg.norm(I, 2)
    return 0.5 * (R + R.T) + 1j * I


def _generic_raw(name, n, rng, hamiltonian: dict, scale: str) -> dict:
    return {
        "name": name,
        "eps": 1.0,
        "hamiltonian": hamiltonian,
        "initial": "standard",
        "center": [float(c) for c in rng.uniform(-1.0, 1.0, size=2 * n)],
        "times": _times_block(scale),
        "alphas": [[0] * n, [1] + [0] * (n - 1)],
        "oracle": {"enabled": False},
    }


def trajectory_items(rng, out_root: Path, scale: str = "full") -> list:
    """The CLI presets, 4 seeded constant-H scenarios with n = 3, then 4 driven ones.

    The constant-H items cost about what the presets do, so the median item
    falls among them; the driven items run the time-dependent ODE path.
    """
    items = [_preset_item(name, out_root, scale) for name in sorted(cli.PRESETS)]
    n = 3
    for i in range(4 if scale == "full" else 1):
        H = generic_hamiltonian(rng, n)
        raw = _generic_raw(
            f"constant-{i}", n, rng, {"type": "constant", "matrix": _json_matrix(H)}, scale
        )
        generator = hagedorn.omega(n) @ H
        flow = lambda times, g=generator: [expm(t * g) for t in times]  # noqa: E731
        items.append(ScenarioItem(raw["name"], raw, out_root, flow=flow))
    return items + driven_items(rng, out_root, 4 if scale == "full" else 2, scale)


def driven_items(rng, out_root: Path, count: int, scale: str = "full") -> list:
    """H linear in t (H₀ + tH₁) or sampled on 7 knots, every matrix drawn as H₀; n = 1, 2, 3, …"""
    items = []
    for i in range(count):
        n = 1 + i % 3
        if i % 2 == 0:
            H0, H1 = generic_hamiltonian(rng, n), generic_hamiltonian(rng, n)
            ham = {"type": "polynomial", "coefficients": [_json_matrix(H0), _json_matrix(H1)]}
            knots = np.array([0.0, TRAJ_T_MAX])
            h_at = lambda t, H0=H0, H1=H1: H0 + t * H1  # noqa: E731
        else:
            knots = np.linspace(0.0, TRAJ_T_MAX, 7)
            stack = np.stack([generic_hamiltonian(rng, n) for _ in knots])
            ham = {
                "type": "sampled",
                "times": [float(t) for t in knots],
                "matrices": [_json_matrix(m) for m in stack],
            }
            h_at = lambda t, k=knots, m=stack: _interpolate(k, m, t)  # noqa: E731
        raw = _generic_raw(f"{ham['type']}-{i}", n, rng, ham, scale)
        flow = lambda times, n=n, h=h_at, k=knots: _integrated_flow(n, h, k, times)  # noqa: E731
        items.append(ScenarioItem(raw["name"], raw, out_root, flow=flow))
    return items


def _interpolate(knots, matrices, t: float) -> np.ndarray:
    k = min(max(int(np.searchsorted(knots, t, side="right")) - 1, 0), len(knots) - 2)
    w = (t - knots[k]) / (knots[k + 1] - knots[k])
    return (1 - w) * matrices[k] + w * matrices[k + 1]


def _integrated_flow(n: int, h_at, knots, times) -> list:
    """S_t of Ṡ = ΩH(t)S by DOP853 at 1e-13, restarted at every knot of H."""
    om = hagedorn.omega(n)

    def rhs(t, y):
        return (om @ h_at(t) @ y.reshape(2 * n, 2 * n)).reshape(-1)

    y = np.eye(2 * n, dtype=complex).reshape(-1)
    out = [y.reshape(2 * n, 2 * n)] * sum(1 for t in times if t == 0.0)
    for lo, hi in zip(knots[:-1], knots[1:]):
        wanted = [t for t in times if lo < t < hi] + [hi]
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-13, atol=1e-13, t_eval=wanted)
        if not sol.success:
            raise RuntimeError(f"reference flow failed: {sol.message}")
        states = [sol.y[:, j].reshape(2 * n, 2 * n) for j in range(len(wanted))]
        out += states[:-1] + states[-1:] * sum(1 for t in times if t == hi)
        y = sol.y[:, -1]
    return out


def oracle_items(rng, out_root: Path, scale: str = "full") -> list:
    raw = copy.deepcopy(cli.PRESETS["swanson-fig1"])
    omega0 = float(rng.uniform(0.9, 1.1))
    delta = float(rng.uniform(0.4, 0.6))
    raw["name"] = "oracle"
    raw["swanson"] = {"omega0": omega0, "delta": delta}
    raw["hamiltonian"] = {
        "type": "constant",
        "matrix": _json_matrix(swanson.SwansonParams(omega0, delta).matrix()),
    }
    raw["oracle"]["times"] = [0.25, 0.5] if scale == "full" else [0.05]
    if scale != "full":
        raw["oracle"].update(grid={"lo": -12.0, "hi": 12.0, "count": 128}, dt=1e-2, grid_tol=1e-3)
        raw["times"] = {"start": 0.0, "stop": 0.5, "count": 5}
    return [ScenarioItem("oracle", raw, out_root, norm_reference=_swanson_norm(omega0, delta))]


# ---------------------------------------------------------------------------
# expansion items (library calls on propagated states)


class ExpansionSet:
    """One propagated system whose states feed coefficient or field items.

    The propagation is itself an item; the per-α items read its states, so
    they must run after it in the same pass.
    """

    def __init__(self, label, system: SwansonSystem, times, max_degree: int, grid=None):
        self.label = label
        self.system = system
        self.times = tuple(times)
        self.max_degree = max_degree
        self.grid = grid
        self._alpha_count = sum(1 for _ in self.alphas())
        self.reset()
        self.H = hagedorn.QuadraticHamiltonian.constant(system.hamiltonian())
        self.frame = hagedorn.NormalisedFrame(hagedorn.LagrangianFrame(system.frame()))

    def propagate(self):
        self.states = propagation.propagate(
            self.frame, np.zeros(2 * self.system.n), self.H, self.times
        )
        return len(self.states)

    def alphas(self):
        for d in range(self.max_degree + 1):
            yield from multi_indices(self.system.n, d)

    def items(self) -> list:
        out = [Item(f"{self.label}:propagate", self.propagate, lambda r: [])]
        for i, t in enumerate(self.times):
            for alpha in self.alphas():
                run = (
                    (lambda i=i, a=alpha: self._field(i, a))
                    if self.grid is not None
                    else (lambda i=i, a=alpha: self._coefficients(i, a))
                )
                out.append(Item(f"{self.label}:t{i}:{alpha}", run, self._collect))
        return out

    def _coefficients(self, i, alpha):
        expansion = propagation.hagedorn_coefficients(self.states[i], alpha)
        return i, alpha, expansion.norm()

    def _field(self, i, alpha):
        field = propagation.evolved_state_on_grid(self.states[i], alpha, 1.0, self.grid)
        return i, alpha, grid_norm(field, self.grid)

    # per-α outputs are summed per degree; the sum rule is checked once the
    # last α of a time has been seen
    def _collect(self, output) -> list:
        i, alpha, norm = output
        sums = self._sums.setdefault(i, {})
        d = sum(alpha)
        sums[d] = sums.get(d, 0.0) + norm**2
        self._seen[i] = self._seen.get(i, 0) + 1
        if self._seen[i] < self._alpha_count:
            return []
        t = self.times[i]
        checks = []
        for d in range(self.max_degree + 1):
            ref = self.system.degree_sum(d, t)
            err = abs(sums.get(d, 0.0) - ref) / ref
            checks.append(
                (
                    f"sum_rule.{self.label}.t{i}.d{d}",
                    err <= REF_RTOL,
                    f"relative sum-rule defect {err:.3e} at t = {t:.6g}",
                )
            )
        return checks

    def reset(self):
        self.states = None
        self._sums: dict = {}
        self._seen: dict = {}


def expansion_sets(rng, scale: str = "full") -> list:
    times = sorted(float(t) for t in rng.uniform(0.5, 2.5, size=2))
    if scale == "full":
        plan = [("n3", 3, 8, None), ("n4", 4, 6, None),
                ("grid2", 2, 8, Grid(bounds=((-12, 12), (-12, 12)), counts=(256, 256)))]
    else:
        plan = [("n3", 3, 2, None), ("n4", 4, 1, None),
                ("grid2", 2, 2, Grid(bounds=((-12, 12), (-12, 12)), counts=(64, 64)))]
    return [
        ExpansionSet(label, swanson_system(rng, n), times, degree, grid)
        for label, n, degree, grid in plan
    ]


def build(workload: str, seed: int, out_root: Path, scale: str = "full"):
    """(items, pass hook) for one workload; the hook runs before every pass."""
    rng = np.random.default_rng([seed, *workload.encode()])
    if workload == "expansion":
        sets = expansion_sets(rng, scale)

        def before_pass():
            for s in sets:
                s.reset()

        return [item for s in sets for item in s.items()], before_pass
    shutil.rmtree(out_root, ignore_errors=True)
    builders = {"trajectory": trajectory_items, "oracle": oracle_items}
    return builders[workload](rng, out_root, scale), lambda: None

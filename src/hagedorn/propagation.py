"""Non-Hermitian time evolution of Hagedorn wavepackets.

For a quadratic Hamiltonian the whole packet is an algebraic function of the
linear flow S_t, Ṡ = ΩH_tS with S_0 = Id.  For constant H, S_t = expm(tΩH);
otherwise one DOP853 integration of the linear system runs per output
interval, restarted at the knots of a sampled H.  propagate returns a
Trajectory: every quantity below at every output time, stacked on a leading
time axis and computed by one batched numpy call per step, with W = S_tZ₀ =
(W_P; W_Q) and the complex centre (π, ξ) = S_tz₀:

- N_t = ((1/2i)W*ΩW)^{−1/2}, the frame Z_t = WN_t = (P_t; Q_t), its metric
  G_t, M_t = ¼(S_tZ̄₀)ᵀG_t(S_tZ̄₀) and M̃_t = M_t + N_tQ_t⁻¹Q̄_tN̄_t;
- the gain exponent β_t = ½ log det N_t, so e^β_t = det(N_t)^{1/2} as in the
  metaplectic formula;
- the real centre (p, q), which solves p − B_tq = π − B_tξ with B_t = P_tQ_t⁻¹;
- the complex action α_t = ½(π·ξ − p₀·q₀) + ½dᵀB_td + π·d with d = q − ξ.

One scan of λ_min((1/2i)W*ΩW) and arg det W_Q over the flow's samples gives
both the positivity horizon and the continuous branch of log det Q_t.  The
samples are equal steps with step·‖ΩH‖₂ ≤ ¼ for constant H, the integrator's
accepted steps otherwise, and always include the output times; the scan
handles them a chunk at a time (all of them for constant H).  The horizon
is the first sign change, refined by a bracketing root-find; breakdown raises
PositivityLost with the horizon time and the truncated Trajectory.  The
branch unwraps arg det W_Q from one sample to the next, one eigenvalue of
W_Q(t_prev)⁻¹W_Q(t) at a time.  The stacked packet passes every check the
per-state constructors of the symplectic module make, once per trajectory.
evolve_metric_riccati and center_dynamics integrate the Riccati metric and
the centre ODE independently, as cross-checks.

The polynomial recursion with M_t, composed with x → N_t x, yields the
activation coefficients a_k (only |k| ≤ |α| with |α|−|k| even appear), so
U(t)φ_α = e^{iα_t/ε + β_t} Σ_k a_k φ_k(Z_t, z_t) with a_k = c_k √(k!)/√(α!).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq

from .errors import (
    ConsistencyError,
    DimensionMismatch,
    NonSymmetricH,
    PositivityLost,
    StepSizeUnderflow,
)
from .polynomials import poly_recursion, validate_recursion_index
from .symplectic import (
    POS_TOL,
    TOL_FRAME,
    LagrangianFrame,
    NormalisedFrame,
    SymplecticMetricPair,
    check_lagrangian,
    check_metric_pair,
    check_normalised,
    check_positive_gram,
    frame_metric,
    gram_margin,
    gram_matrix,
    hermitian_inv_sqrt,
    normalise_frame,  # noqa: F401  part of this module's namespace; perfbench/tracing.py wraps it
    omega,
    siegel_b,
)
from .wavepackets import Grid, WavepacketParams, eval_ground

ODE_TOL = 1e-10


def _check_symmetric(H: np.ndarray, label: str = "H") -> np.ndarray:
    H = np.asarray(H, dtype=complex)
    n2 = H.shape[0]
    if H.ndim != 2 or H.shape != (n2, n2) or n2 % 2 != 0:
        raise NonSymmetricH(f"{label} must be a 2n×2n matrix, got {H.shape}")
    scale = max(1.0, float(np.max(np.abs(H))))
    if np.max(np.abs(H - H.T)) > TOL_FRAME * scale:
        raise NonSymmetricH(f"{label} is not symmetric")
    return 0.5 * (H + H.T)


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Time-dependent complex symmetric coefficient matrix H_t.

    kind "constant": H(t) = matrix; "sampled": linear interpolation between
    sample times; "polynomial": H(t) = Σ_k C_k t^k from a coefficient stack.
    """

    kind: str
    data: tuple = field(repr=False)

    @staticmethod
    def constant(H) -> "QuadraticHamiltonian":
        return QuadraticHamiltonian(kind="constant", data=(_check_symmetric(H),))

    @staticmethod
    def sampled(times, matrices) -> "QuadraticHamiltonian":
        times = np.asarray(times, dtype=float)
        stack = np.stack([_check_symmetric(m) for m in matrices])
        if times.ndim != 1 or len(times) != len(stack) or len(times) < 2:
            raise DimensionMismatch("sampled form needs matching times and ≥ 2 matrices")
        if np.any(np.diff(times) <= 0):
            raise DimensionMismatch("sample times must be strictly increasing")
        if not np.all(np.isfinite(stack)):
            raise NonSymmetricH("sampled matrices must be finite")
        return QuadraticHamiltonian(kind="sampled", data=(times, stack))

    @staticmethod
    def polynomial(coefficients) -> "QuadraticHamiltonian":
        stack = np.stack([_check_symmetric(c, "coefficient") for c in coefficients])
        return QuadraticHamiltonian(kind="polynomial", data=(stack,))

    @property
    def n(self) -> int:
        if self.kind == "constant":
            return self.data[0].shape[0] // 2
        if self.kind == "sampled":
            return self.data[1].shape[1] // 2
        return self.data[0].shape[1] // 2

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def __call__(self, t: float) -> np.ndarray:
        if self.kind == "constant":
            return self.data[0]
        if self.kind == "sampled":
            times, stack = self.data
            t = float(np.clip(t, times[0], times[-1]))
            idx = int(np.searchsorted(times, t, side="right") - 1)
            idx = min(max(idx, 0), len(times) - 2)
            w = (t - times[idx]) / (times[idx + 1] - times[idx])
            return (1 - w) * stack[idx] + w * stack[idx + 1]
        stack = self.data[0]
        out = np.zeros_like(stack[0])
        for k in range(len(stack) - 1, -1, -1):
            out = out * t + stack[k]
        return out


@dataclass(frozen=True)
class PropagatedState:
    """Full dossier of the propagated wavepacket at one time."""

    t: float
    S: np.ndarray
    Z: NormalisedFrame
    N: np.ndarray
    beta: float
    z: np.ndarray
    action: complex
    M: np.ndarray
    Mtilde: np.ndarray
    G: np.ndarray
    J: np.ndarray
    logdetQ: complex
    eps: float
    symplectic_defect: float
    min_positivity: float

    @property
    def log_prefactor(self) -> complex:
        """log of the scalar prefactor: iα_t/ε + β_t (Im α folds into amplitude)."""
        return 1j * self.action / self.eps + self.beta


@dataclass(frozen=True, eq=False)
class Trajectory(Sequence):
    """The propagated packet at every output time, each field stacked on axis 0.

    The fields are those of PropagatedState, with one leading time axis (Z holds
    the frame entries); eps is shared.  len, indexing and iteration give
    PropagatedState views of one time, whose arrays are read-only slices of
    these stacks.
    """

    t: np.ndarray
    S: np.ndarray
    Z: np.ndarray
    N: np.ndarray
    beta: np.ndarray
    z: np.ndarray
    action: np.ndarray
    M: np.ndarray
    Mtilde: np.ndarray
    G: np.ndarray
    J: np.ndarray
    logdetQ: np.ndarray
    eps: float
    symplectic_defect: np.ndarray
    min_positivity: np.ndarray
    _views: list = field(init=False, repr=False)

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        object.__setattr__(self, "_views", [None] * len(self.t))

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> PropagatedState:
        view = self._views[i]
        if view is None:
            view = self._views[i] = PropagatedState(
                t=float(self.t[i]),
                S=self.S[i],
                Z=NormalisedFrame.checked(self.Z[i]),
                N=self.N[i],
                beta=float(self.beta[i]),
                z=self.z[i],
                action=complex(self.action[i]),
                M=self.M[i],
                Mtilde=self.Mtilde[i],
                G=self.G[i],
                J=self.J[i],
                logdetQ=complex(self.logdetQ[i]),
                eps=self.eps,
                symplectic_defect=float(self.symplectic_defect[i]),
                min_positivity=float(self.min_positivity[i]),
            )
        return view


@dataclass(frozen=True)
class HagedornExpansion:
    """Activation coefficients of U(t)φ_α over the basis φ_k(Z_t, z_t)."""

    coefficients: dict
    log_prefactor: complex

    def norm(self) -> float:
        """Predicted L² norm e^{Re log_prefactor}·(Σ|a_k|²)^{1/2}."""
        total = math.fsum(abs(a) ** 2 for a in self.coefficients.values())
        return math.exp(self.log_prefactor.real) * math.sqrt(total)


def _t(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def symplectic_defect(S: np.ndarray):
    """Max-norm of SᵀΩS − Ω: a float, or an array for a stack of flows."""
    S = np.asarray(S, dtype=complex)
    om = omega(S.shape[-1] // 2)
    defect = np.max(np.abs(_t(S) @ om @ S - om), axis=(-2, -1))
    return float(defect) if S.ndim == 2 else defect


# -- the linear flow S_t ---------------------------------------------------------

class _LinearFlow:
    """S_t with Ṡ = ΩH_tS: expm(tΩH) for constant H, DOP853 otherwise."""

    def __init__(self, H: QuadraticHamiltonian, ode_tol: float):
        self.H = H
        self.ode_tol = ode_tol
        self.n2 = 2 * H.n
        self.generator = omega(H.n) @ H(0.0) if H.is_constant else None
        # expm samples per unit time, so that step·‖ΩH‖₂ ≤ ¼
        self.rate = 4.0 * np.linalg.norm(self.generator, 2) if H.is_constant else 0.0
        # a sampled H has kinks at its knots; the integration restarts there
        self.knots = H.data[0] if H.kind == "sampled" else np.empty(0)

    def chunks(self, times):
        """Yield (counts, sample times, flows) covering the output times in order.

        counts[j] is the number of samples on (t_prev, t] of the chunk's j-th
        output time t, where t_prev is the previous output time (0 before the
        first); each such segment ends at its t unless it is empty.  For
        constant H one chunk holds every sample, from one batched expm call:
        called once per matrix, scipy's expm stalls for milliseconds per call
        when its BLAS threads compete for the cores (200 samples on 2 busy
        cores: 800 ms against 90 ms).  Otherwise each output time is a chunk.
        """
        starts = np.concatenate([[0.0], times[:-1]])
        if self.generator is None:
            S = np.eye(self.n2, dtype=complex)
            for t0, t1 in zip(starts, times):
                ts, flows = self._integrate(t0, S, t1)
                S = flows[-1] if len(flows) else S
                yield [len(ts)], ts, flows
            return
        grids = [self._grid(t0, t1) for t0, t1 in zip(starts, times)]
        ts = np.concatenate(grids)
        yield [len(g) for g in grids], ts, expm(ts[:, None, None] * self.generator)

    def at(self, t0: float, S0: np.ndarray, t1: float) -> np.ndarray:
        """S(t1) given S(t0) = S0."""
        if self.generator is not None:
            return expm((t1 - t0) * self.generator) @ S0
        return self._integrate(t0, S0, t1)[1][-1] if t1 > t0 else S0

    def _grid(self, t0: float, t1: float) -> np.ndarray:
        if t1 <= t0:
            return np.empty(0)
        count = max(1, math.ceil((t1 - t0) * self.rate))
        ts = t0 + (t1 - t0) * np.arange(1, count + 1) / count
        ts[-1] = t1
        return ts

    def _integrate(self, t0: float, S0: np.ndarray, t1: float):
        """Accepted steps (times, flows) on (t0, t1] of one DOP853 run per smooth piece."""
        if t1 <= t0:
            return np.empty(0), np.empty((0, self.n2, self.n2), dtype=complex)
        n2, H = self.n2, self.H
        om = omega(n2 // 2)

        def rhs(t, y):
            return (om @ H(t) @ y.reshape(n2, n2)).reshape(-1)

        inner = self.knots[(self.knots > t0) & (self.knots < t1)]
        bounds = [t0, *inner, t1]
        ts, flows = [], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sol = solve_ivp(rhs, (lo, hi), S0.reshape(-1), method="DOP853",
                            rtol=self.ode_tol, atol=self.ode_tol)
            if not sol.success:
                raise StepSizeUnderflow(f"flow integration failed: {sol.message}")
            ts.append(sol.t[1:])
            flows.append(sol.y[:, 1:].T.reshape(-1, n2, n2))
            S0 = flows[-1][-1]
        return np.concatenate(ts), np.concatenate(flows)


def flow(H: QuadraticHamiltonian, t0: float, t1: float, ode_tol: float = ODE_TOL):
    """Flow matrix S with Ṡ = ΩH_tS, S(t0) = Id, evaluated at t1."""
    if t1 < t0:
        raise DimensionMismatch("t1 must be ≥ t0")
    return _LinearFlow(H, ode_tol).at(t0, np.eye(2 * H.n, dtype=complex), t1)


def _positivity_margin(W: np.ndarray, pos_tol: float):
    """λ_min of the Gram matrix of W (of each frame of a stack) above the floor
    that normalise_frame applies."""
    return gram_margin(gram_matrix(W), pos_tol)[1]


def _scan(Z0: NormalisedFrame, H: QuadraticHamiltonian, times, ode_tol, pos_tol):
    """(S_t, log det W_Q, horizon) with W = S_tZ₀, stacked over the output times.

    The stacks stop before the first output time whose segment loses
    positivity; the horizon is None when no sample does.  Each chunk of flow
    samples is checked for positivity by one batched eigvalsh.  log det W_Q
    carries over from one sample to the next by the principal logs of the
    eigenvalues of W_Q(t_prev)⁻¹W_Q(t), one batched solve and eigvals per
    chunk summed in sample order, so it starts on the principal branch and
    stays continuous as long as no eigenvalue turns by π within one step.  At
    the first sample that fails, brentq locates the crossing inside the last
    step.
    """
    linear = _LinearFlow(H, ode_tol)
    n, W0 = Z0.n, Z0.entries
    t_prev, S_prev, WQ_prev = 0.0, np.eye(2 * n, dtype=complex), W0[n:]
    margin_prev = float(_positivity_margin(W0, pos_tol))
    log_prev = complex(np.log(complex(np.linalg.det(Z0.Q))))
    out_S, out_log = [np.empty((0, 2 * n, 2 * n), dtype=complex)], [np.empty(0, dtype=complex)]
    for counts, ts, flows in linear.chunks(times):
        W = flows @ W0
        margin = _positivity_margin(W, pos_tol)
        failed = np.flatnonzero(margin <= 0)
        good = int(failed[0]) if failed.size else len(ts)
        WQ = np.concatenate([WQ_prev[None], W[:good, n:]])
        steps = np.log(np.linalg.eigvals(np.linalg.solve(WQ[:-1], WQ[1:]))).sum(axis=-1)
        # position 0 holds the chunk's start, position k + 1 its sample k
        logs = np.cumsum(np.concatenate([[log_prev], steps]))
        ends = np.cumsum(counts)
        ends = ends[ends <= good]
        out_S.append(np.concatenate([S_prev[None], flows[:good]])[ends])
        out_log.append(logs[ends])
        if failed.size:
            if good:
                t_prev, S_prev, margin_prev = ts[good - 1], flows[good - 1], margin[good - 1]
            t_star = _crossing(
                lambda s: float(_positivity_margin(linear.at(t_prev, S_prev, s) @ W0, pos_tol)),
                t_prev, float(ts[good]), margin_prev, margin[good],
            )
            return np.concatenate(out_S), np.concatenate(out_log), t_star
        if len(ts):
            t_prev, S_prev, WQ_prev = ts[-1], flows[-1], W[-1, n:]
            margin_prev, log_prev = margin[-1], logs[-1]
    return np.concatenate(out_S), np.concatenate(out_log), None


def _crossing(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of f in [lo, hi] given f(lo) > 0 ≥ f(hi), reusing the known end values."""
    def g(t):
        if t == lo:
            return f_lo
        if t == hi:
            return f_hi
        return f(t)

    return float(brentq(g, lo, hi))


def propagate(
    Z0: NormalisedFrame,
    z0,
    H: QuadraticHamiltonian,
    times,
    eps: float = 1.0,
    ode_tol: float = ODE_TOL,
    pos_tol: float = POS_TOL,
):
    """Propagate a wavepacket frame: a Trajectory with one state per time.

    times must be increasing and start at t ≥ 0; a state is reported for every
    requested time.  Raises PositivityLost (carrying the truncated Trajectory
    and the horizon time) if the evolved Lagrangian stops being positive
    before the last requested time.
    """
    if not isinstance(Z0, NormalisedFrame):
        Z0 = NormalisedFrame(LagrangianFrame(np.asarray(Z0)))
    n = Z0.n
    if H.n != n:
        raise DimensionMismatch("Hamiltonian and frame dimensions differ")
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    if z0.size != 2 * n:
        raise DimensionMismatch(f"center must have 2n = {2 * n} components")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) <= 0):
        raise DimensionMismatch("times must be a strictly increasing sequence")
    if times[0] < 0:
        raise DimensionMismatch("times must start at t ≥ 0")

    S, log_det_wq, t_star = _scan(Z0, H, times, ode_tol, pos_tol)
    trajectory = _trajectory(times[: len(S)], S, Z0.entries, z0, log_det_wq, eps)
    if t_star is not None:
        raise PositivityLost(t_star, trajectory)
    return trajectory


def _trajectory(times, S, Z0, z0, log_det_wq, eps) -> Trajectory:
    """The packet at every output time from the stacked flow S, one batched call a step.

    The stack runs once through every check the per-state constructors make
    (normalise_frame, LagrangianFrame, NormalisedFrame, SymplecticMetricPair,
    siegel_matrix), with their tolerances, scales and errors.
    """
    n = Z0.shape[1]
    W = S @ Z0
    gram = gram_matrix(W)
    min_positivity = check_positive_gram(gram)
    N = hermitian_inv_sqrt(gram)
    Z = W @ N
    check_lagrangian(Z)
    check_normalised(Z)
    G = frame_metric(Z)
    J = -omega(n) @ G
    check_metric_pair(G, J)

    W_bar_flow = S @ np.conj(Z0)
    M = 0.25 * (_t(W_bar_flow) @ G @ W_bar_flow)
    M = 0.5 * (M + _t(M))
    P, Q = Z[:, :n], Z[:, n:]
    Mtilde = M + N @ np.linalg.solve(Q, np.conj(Q)) @ np.conj(N)
    Mtilde = 0.5 * (Mtilde + _t(Mtilde))

    # N is Hermitian positive definite, so det N > 0 and the log is real
    log_det_n = np.linalg.slogdet(N)[1]
    z, action = _centre_and_action(S, z0, siegel_b(P, Q))
    return Trajectory(
        t=np.array(times, dtype=float),
        S=S,
        Z=Z,
        N=N,
        beta=0.5 * log_det_n,
        z=z,
        action=action,
        M=M,
        Mtilde=Mtilde,
        G=G,
        J=J,
        logdetQ=log_det_wq + log_det_n,
        eps=float(eps),
        symplectic_defect=symplectic_defect(S),
        min_positivity=min_positivity,
    )


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a·b (no conjugation) of each pair of vectors of two stacks."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _centre_and_action(S, z0, B):
    """Real centres and complex actions from the complex centres (π, ξ) = S_tz₀.

    (p, q) solves p − Bq = π − Bξ over the reals, and
    α_t = ½(π·ξ − p₀·q₀) + ½dᵀBd + π·d with d = q − ξ; all stacked over t.
    """
    n = B.shape[-1]
    w = S @ z0
    pi, xi = w[:, :n], w[:, n:]
    c = pi - (B @ xi[..., None])[..., 0]
    q = -np.linalg.solve(B.imag, c.imag[..., None])[..., 0]
    p = c.real + (B.real @ q[..., None])[..., 0]
    d = q - xi
    dB = (d[:, None, :] @ B)[:, 0]
    action = 0.5 * (_dot(pi, xi) - z0[:n] @ z0[n:]) + 0.5 * _dot(dB, d) + _dot(pi, d)
    return np.concatenate([p, q], axis=1), action


def evolve_metric_riccati(
    G0: SymplecticMetricPair,
    H: QuadraticHamiltonian,
    times,
    ode_tol: float = ODE_TOL,
):
    """Integrate the G and J Riccati equations independently.

    Ġ = ReH ΩG − GΩReH − ImH − GΩImHΩG and the J equation obtained from it by
    G = ΩJ: J̇ = ΩReH·J − J·ΩReH + ΩImH + J·ΩImH·J.  The cross-check
    J_t = −ΩG_t is enforced to 10×ode_tol at every output time.
    """
    if not isinstance(G0, SymplecticMetricPair):
        G0_mat = np.asarray(G0, dtype=float)
        om0 = omega(G0_mat.shape[0] // 2)
        G0 = SymplecticMetricPair(G=G0_mat, J=-om0 @ G0_mat)
    n = G0.n
    if H.n != n:
        raise DimensionMismatch("Hamiltonian and metric dimensions differ")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) <= 0):
        raise DimensionMismatch("times must be a strictly increasing sequence")
    om = omega(n)
    n2 = 2 * n

    def rhs(t, y):
        G = y[: n2 * n2].reshape(n2, n2)
        J = y[n2 * n2 :].reshape(n2, n2)
        G = 0.5 * (G + G.T)
        Ht = H(t)
        re_h, im_h = Ht.real, Ht.imag
        dG = re_h @ om @ G - G @ om @ re_h - im_h - G @ om @ im_h @ om @ G
        dJ = om @ re_h @ J - J @ om @ re_h + om @ im_h + J @ om @ im_h @ J
        return np.concatenate([dG.reshape(-1), dJ.reshape(-1)])

    y = np.concatenate([G0.G.reshape(-1), G0.J.reshape(-1)])
    out: list[SymplecticMetricPair] = []
    t_prev = 0.0
    if times[0] < 0:
        raise DimensionMismatch("times must start at t ≥ 0 (G0 is the t = 0 metric)")
    scale = max(1.0, float(np.max(np.abs(G0.G))))
    for t_out in times:
        if t_out > t_prev:
            sol = solve_ivp(rhs, (t_prev, float(t_out)), y, method="RK45",
                            rtol=ode_tol, atol=ode_tol)
            if not sol.success:
                raise StepSizeUnderflow(f"Riccati integration failed: {sol.message}")
            y = sol.y[:, -1]
            t_prev = float(t_out)
        G = 0.5 * (y[: n2 * n2].reshape(n2, n2) + y[: n2 * n2].reshape(n2, n2).T)
        J = y[n2 * n2 :].reshape(n2, n2)
        if np.max(np.abs(J + om @ G)) > 10 * ode_tol * scale + 1e-13:
            raise ConsistencyError("independent J-Riccati drifted away from −ΩG")
        # The integrated G leaves the symplectic manifold by O(ode_tol) per
        # period; one Newton step of (−J²)^{−1/2} restores J² = −Id (and hence
        # GΩG = Ω) while moving G only by O(defect²), far below ode_tol.
        J_g = -om @ G
        X = -J_g @ J_g
        J_g = J_g @ (1.5 * np.eye(n2) - 0.5 * X)
        G_proj = om @ J_g
        G_proj = 0.5 * (G_proj + G_proj.T)
        out.append(SymplecticMetricPair(G=G_proj, J=-om @ G_proj))
    return out


def center_dynamics(z0, H: QuadraticHamiltonian, G_path, times, ode_tol: float = ODE_TOL):
    """Integrate ż = ΩReH z + G⁻¹ImH z and the action α_t = ∫(q̇·p − ℋ_τ(z_τ))dτ.

    G_path is either a callable t ↦ G or a sequence of metrics aligned with
    times (linearly interpolated in between).  Returns (z sequence, complex
    action sequence), one entry per requested time.
    """
    n = H.n
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    if z0.size != 2 * n:
        raise DimensionMismatch(f"center must have 2n = {2 * n} components")
    times = np.asarray(times, dtype=float)
    om = omega(n)

    if callable(G_path):
        metric_at = G_path
    else:
        stack = np.stack(
            [g.G if isinstance(g, SymplecticMetricPair) else np.asarray(g, float)
             for g in G_path]
        )
        if len(stack) != len(times):
            raise DimensionMismatch("G_path and times must have matching lengths")

        def metric_at(t):
            idx = int(np.searchsorted(times, t, side="right") - 1)
            idx = min(max(idx, 0), len(times) - 2)
            t0, t1 = times[idx], times[idx + 1]
            w = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
            return (1 - w) * stack[idx] + w * stack[idx + 1]

    def rhs(t, y):
        z = y[: 2 * n]
        Ht = H(t)
        re_h, im_h = Ht.real, Ht.imag
        G = metric_at(t)
        dz = om @ re_h @ z + np.linalg.solve(G, im_h @ z)
        hamil = 0.5 * complex(z @ Ht @ z)
        daction = complex(dz[n:] @ z[:n]) - hamil
        return np.concatenate([dz, [daction.real, daction.imag]])

    y = np.concatenate([z0, [0.0, 0.0]])
    zs, actions = [], []
    t_prev = 0.0
    if times[0] < 0:
        raise DimensionMismatch("times must start at t ≥ 0 (z0 is the t = 0 center)")
    for i, t_out in enumerate(times):
        if t_out > t_prev:
            sol = solve_ivp(rhs, (t_prev, float(t_out)), y, method="RK45",
                            rtol=ode_tol, atol=ode_tol)
            if not sol.success:
                raise StepSizeUnderflow(f"center integration failed: {sol.message}")
            y = sol.y[:, -1]
            t_prev = float(t_out)
        zs.append(y[: 2 * n].copy())
        actions.append(complex(y[2 * n], y[2 * n + 1]))
    return zs, actions


def hagedorn_coefficients(state: PropagatedState, alpha) -> HagedornExpansion:
    """Activation coefficients a_k of U(t)φ_α over φ_k(Z_t, z_t).

    Builds q_α from the recursion with M_t, substitutes x → N_t x, and scales
    monomial coefficients c_k to a_k = c_k √(k!)/√(α!).  Only indices with
    |k| ≤ |α| and |α| − |k| even appear.
    """
    n = state.Z.n
    alpha = validate_recursion_index(alpha, n)
    poly = poly_recursion(state.M, alpha)
    composed = poly.compose_linear(state.N)
    fact_alpha = math.sqrt(math.prod(math.factorial(a) for a in alpha))
    coeffs = {
        k: c * math.sqrt(math.prod(math.factorial(x) for x in k)) / fact_alpha
        for k, c in composed.coeffs.items()
    }
    return HagedornExpansion(coefficients=coeffs, log_prefactor=state.log_prefactor)


def evolved_state_on_grid(state: PropagatedState, alpha, eps: float, grid: Grid):
    """Direct grid evaluation of U(t)φ_α via the polynomial prefactor route:

    e^{iα_t/ε + β_t}/√α! · p_α(√(2/ε) N_tQ_t⁻¹(x−q_t); M̃_t) · φ₀(Z_t, z_t; x)

    with the continuity-tracked branch of (det Q_t)^{−1/2}.
    """
    n = state.Z.n
    alpha = validate_recursion_index(alpha, n)
    params = WavepacketParams(
        frame=state.Z,
        center=state.z,
        eps=eps,
        phase=state.log_prefactor,
        log_det_q=state.logdetQ,
    )
    ground = eval_ground(params, grid)
    if sum(alpha) == 0:
        return ground
    poly = poly_recursion(state.Mtilde, alpha)
    Q = state.Z.Q
    lin = state.N @ np.linalg.inv(Q)
    x = grid.points()
    y = math.sqrt(2.0 / eps) * np.einsum("ij,...j->...i", lin, x - state.z[n:])
    fact_alpha = math.sqrt(math.prod(math.factorial(a) for a in alpha))
    return poly.evaluate(y) / fact_alpha * ground


def positivity_horizon(
    Z0: NormalisedFrame,
    H: QuadraticHamiltonian,
    t_max: float,
    ode_tol: float = ODE_TOL,
    pos_tol: float = POS_TOL,
) -> float:
    """First time in (0, t_max] where the evolved frame stops being positive.

    Returns math.inf when positivity survives the whole window.  The crossing
    is the root of λ_min((1/2i)W*ΩW) − pos_tol inside the first flow sample
    step where it changes sign, located to brentq's default tolerance (~1e-12).
    """
    if not isinstance(Z0, NormalisedFrame):
        Z0 = NormalisedFrame(LagrangianFrame(np.asarray(Z0)))
    if H.n != Z0.n:
        raise DimensionMismatch("Hamiltonian and frame dimensions differ")
    t_star = _scan(Z0, H, np.array([float(t_max)]), ode_tol, pos_tol)[2]
    return math.inf if t_star is None else t_star

"""Non-Hermitian time evolution of Hagedorn wavepackets.

For a quadratic Hamiltonian the whole packet is an algebraic function of the
linear flow S_t, Ṡ = ΩH_tS with S_0 = Id.  For constant H, S_t = expm(tΩH);
otherwise one DOP853 run with dense output per smooth piece of H (a sampled H
is split at its knots), at the fixed rtol = atol = FLOW_TOL, integrates it,
whatever the output times.  propagate returns a Trajectory: every quantity
below at every output time, stacked on a leading time axis and computed by
one batched numpy call per step, with W = S_tZ₀ = (W_P; W_Q) and the complex
centre (π, ξ) = S_tz₀:

- N_t = ((1/2i)W*ΩW)^{−1/2}, the frame Z_t = WN_t = (P_t; Q_t), its metric
  G_t, M_t = ¼(S_tZ̄₀)ᵀG_t(S_tZ̄₀) and M̃_t = M_t + N_tQ_t⁻¹Q̄_tN̄_t;
- the gain exponent β_t = ½ log det N_t, so e^β_t = det(N_t)^{1/2} as in the
  metaplectic formula;
- the real centre (p, q), which solves p − B_tq = π − B_tξ with B_t = P_tQ_t⁻¹;
- the complex action α_t = ½(π·ξ − p₀·q₀) + ½dᵀB_td + π·d with d = q − ξ;
- the ladder shift σ below.

One scan of λ_min((1/2i)W*ΩW) and arg det W_Q over the flow's samples gives
both the positivity horizon and the continuous branch of log det Q_t.  The
samples are equal steps with step·‖ΩH‖₂ ≤ ¼ for constant H, the accepted
steps of the runs otherwise, and always include the output times; the scan
takes them all in one batched pass.  The horizon is the first sign change,
refined by a bracketing root-find; breakdown raises PositivityLost with the
horizon time and the truncated Trajectory.  The branch unwraps arg det W_Q
from one sample to the next, one eigenvalue of W_Q(t_prev)⁻¹W_Q(t) at a
time.  The stacked packet passes every check the per-state constructors of
the symplectic module make, once per trajectory.

U(t) carries the raising operator A†_j(Z₀) into
Σ_l N̄_lj A†_l(Z_t) − Σ_l D_lj A_l(Z_t) + σ_j with D = N_t⁻¹M_t and the shift
σ_j = −(i/√(2ε)) (S_tZ̄₀e_j)ᵀ Ω (z_t − S_tz₀), which moves the centre from the
complex S_tz₀ to the real z_t (Hagedorn, Ann. Phys. 269 (1998); Lasser &
Lubich, Acta Numerica 29 (2020), §4).  Applied α times to a⁰ = e₀ it gives the
activation coefficients of U(t)φ_α = e^{iα_t/ε + β_t} Σ_k a_k φ_k(Z_t, z_t),
all with |k| ≤ |α|.  σ = 0 exactly when z₀ = 0; then only |α| − |k| even
appear.  For a displaced packet under real H, σ vanishes in exact arithmetic
but not in floating point: z_t comes out of a real solve that reproduces
S_tz₀ only to rounding, so σ_t is noise of about 1e-16 and slots with
|α| − |k| odd can hold entries of that size.  coefficient_sweep runs the
recursion once per α over every time of a Trajectory; hagedorn_coefficients
is its one-row call at one state.

scipy.integrate and scipy.optimize are imported on first use: a constant H
without a positivity crossing needs neither.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import (
    DimensionMismatch,
    NonSymmetricH,
    PositivityLost,
    StepSizeUnderflow,
)
from .polynomials import poly_recursion, validate_recursion_index
from .symplectic import (
    TOL_FRAME,
    NormalisedFrame,
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
from .wavepackets import Grid, WavepacketParams, _excite, _ground_and_argument
from .wavepackets import eval_ground  # noqa: F401  perfbench/tracing.py wraps it


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use: constant H never needs it."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def _check_times(times) -> np.ndarray:
    """times as a float array, checked to be strictly increasing from t ≥ 0."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) <= 0):
        raise DimensionMismatch("times must be a strictly increasing sequence")
    if times[0] < 0:
        raise DimensionMismatch("times must start at t ≥ 0")
    return times


def _check_symmetric(matrices, label: str = "H") -> np.ndarray:
    """The stack of the given finite, symmetric 2n×2n matrices, symmetrised."""
    matrices = [np.asarray(m, dtype=complex) for m in matrices]
    if not matrices or any(m.shape != matrices[0].shape for m in matrices):
        raise DimensionMismatch(f"{label} needs at least one matrix, all of one shape")
    H = np.stack(matrices)
    if H.ndim != 3 or H.shape[1] != H.shape[2] or H.shape[1] % 2 != 0:
        raise NonSymmetricH(f"{label} must be a 2n×2n matrix, got {H.shape[1:]}")
    if not np.all(np.isfinite(H)):
        raise NonSymmetricH(f"{label} must be finite")
    scale = np.maximum(1.0, np.max(np.abs(H), axis=(1, 2)))
    if np.any(np.max(np.abs(H - _t(H)), axis=(1, 2)) > TOL_FRAME * scale):
        raise NonSymmetricH(f"{label} is not symmetric")
    return 0.5 * (H + _t(H))


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Time-dependent complex symmetric coefficient matrix H_t.

    kind "constant": H(t) = matrix; "sampled": linear interpolation between
    sample times; "polynomial": H(t) = Σ_k C_k t^k from a coefficient stack.
    """

    kind: str
    data: tuple = field(repr=False)

    @staticmethod
    def constant(H) -> "QuadraticHamiltonian":
        return QuadraticHamiltonian(kind="constant", data=(_check_symmetric([H])[0],))

    @staticmethod
    def sampled(times, matrices) -> "QuadraticHamiltonian":
        times = np.asarray(times, dtype=float)
        stack = _check_symmetric(matrices)
        if times.ndim != 1 or len(times) != len(stack) or len(times) < 2:
            raise DimensionMismatch("sampled form needs matching times and ≥ 2 matrices")
        if np.any(np.diff(times) <= 0):
            raise DimensionMismatch("sample times must be strictly increasing")
        return QuadraticHamiltonian(kind="sampled", data=(times, stack))

    @staticmethod
    def polynomial(coefficients) -> "QuadraticHamiltonian":
        stack = _check_symmetric(coefficients, "coefficient")
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

    @property
    def is_real(self) -> bool:
        """Im H(t) = 0 for every t: every stored matrix is real."""
        return not np.any(self.data[-1].imag)

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


@dataclass(frozen=True, eq=False)
class PropagatedState:
    """Full dossier of the propagated wavepacket at one time."""

    t: float
    S: np.ndarray
    Z: NormalisedFrame
    N: np.ndarray
    beta: float
    z: np.ndarray
    action: complex
    sigma: np.ndarray
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
    these stacks; a slice gives the list of those views.
    """

    t: np.ndarray
    S: np.ndarray
    Z: np.ndarray
    N: np.ndarray
    beta: np.ndarray
    z: np.ndarray
    action: np.ndarray
    sigma: np.ndarray
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

    def __getitem__(self, i: int | slice):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
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
                sigma=self.sigma[i],
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

# rtol = atol of each DOP853 run.  Against a 1e-14 reference (polynomial H,
# n = 2, 401 times on [0, 2]) one run at 1e-13 leaves S_t 3.0e-13 off.  At
# 1e-12, G misses the Riccati metric by more than 1e-12; at 1e-10 the stacked
# isotropy check fails.
FLOW_TOL = 1e-13


class _LinearFlow:
    """S_t on [t0, t1] with Ṡ = ΩH_tS and S(t0) = Id: expm((t − t0)ΩH) for
    constant H, otherwise one DOP853 run with dense output per smooth piece of
    H (a sampled H is split at its knots), held as one OdeSolution."""

    def __init__(self, H: QuadraticHamiltonian, t0: float, t1: float):
        self.t0 = t0
        self.n2 = n2 = 2 * H.n
        self.generator = omega(H.n) @ H(0.0) if H.is_constant else None
        if H.is_constant:
            # expm samples per unit time, so that step·‖ΩH‖₂ ≤ ¼
            self.rate = 4.0 * np.linalg.norm(self.generator, 2)
            return
        om = omega(H.n)

        def rhs(t, y):
            return (om @ H(t) @ y.reshape(n2, n2)).reshape(-1)

        knots = H.data[0] if H.kind == "sampled" else np.empty(0)
        bounds = [t0, *knots[(knots > t0) & (knots < t1)], t1] if t1 > t0 else [t0]
        ts, ys, interpolants = [[t0]], [np.eye(n2, dtype=complex).reshape(-1, 1)], []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sol = solve_ivp(rhs, (lo, hi), ys[-1][:, -1], method="DOP853", dense_output=True,
                            rtol=FLOW_TOL, atol=FLOW_TOL)
            if not sol.success:
                raise StepSizeUnderflow(f"flow integration failed: {sol.message}")
            ts.append(sol.t[1:])
            ys.append(sol.y[:, 1:])
            interpolants += sol.sol.interpolants
        self.steps = np.concatenate(ts), np.concatenate(ys, axis=1).T.reshape(-1, n2, n2)
        from scipy.integrate import OdeSolution

        self.dense = OdeSolution(self.steps[0], interpolants) if interpolants else None

    def samples(self, times: np.ndarray):
        """(ts, flows): ts[0] = t0 with Id, then samples up to times[-1] that
        include every output time: for constant H equal steps between output
        times, from one batched expm (called per matrix, scipy's expm stalls
        when its BLAS threads compete for 2 busy cores: 800 ms against 90 ms
        for 200 samples); otherwise the accepted steps, plus the output times
        inside a step, from the dense interpolant."""
        if self.generator is not None:
            starts = np.concatenate([[self.t0], times[:-1]])
            ts = np.concatenate([self._grid(lo, hi) for lo, hi in zip(starts, times)])
            flows = expm((ts - self.t0)[:, None, None] * self.generator)
            identity = np.eye(self.n2, dtype=complex)[None]
            return np.concatenate([[self.t0], ts]), np.concatenate([identity, flows])
        ts, flows = self.steps
        inside = np.setdiff1d(times, ts)
        if inside.size:
            order = np.argsort(np.concatenate([ts, inside]))
            inner = self.dense(inside).T.reshape(-1, self.n2, self.n2)
            ts, flows = np.concatenate([ts, inside])[order], np.concatenate([flows, inner])[order]
        return ts, flows

    def at(self, t: float, t_prev: float, S_prev: np.ndarray) -> np.ndarray:
        """S(t) for t in the sample step that starts at t_prev with S_prev:
        expm from that sample for constant H, the dense interpolant otherwise."""
        if self.generator is not None:
            return expm((t - t_prev) * self.generator) @ S_prev
        return S_prev if t == t_prev else self.dense(t).reshape(self.n2, self.n2)

    def _grid(self, t0: float, t1: float) -> np.ndarray:
        if t1 <= t0:
            return np.empty(0)
        count = max(1, math.ceil((t1 - t0) * self.rate))
        ts = t0 + (t1 - t0) * np.arange(1, count + 1) / count
        ts[-1] = t1
        return ts


def flow(H: QuadraticHamiltonian, t0: float, t1: float):
    """Flow matrix S with Ṡ = ΩH_tS, S(t0) = Id, evaluated at t1 (see _LinearFlow)."""
    if t1 < t0:
        raise DimensionMismatch("t1 must be ≥ t0")
    return _LinearFlow(H, t0, t1).at(t1, t0, np.eye(2 * H.n, dtype=complex))


def _positivity_margin(W: np.ndarray):
    """λ_min of the Gram matrix of W (of each frame of a stack) above the floor
    that normalise_frame applies."""
    return gram_margin(gram_matrix(W))[1]


def _scan(Z0: NormalisedFrame, H: QuadraticHamiltonian, times):
    """(S_t, log det W_Q, horizon) with W = S_tZ₀, stacked over the output times.

    One batched eigvalsh checks every flow sample for positivity; the stacks
    stop before the first failing sample, and the horizon is None when none
    fails.  log det W_Q carries over from one sample to the next by the
    principal logs of the eigenvalues of W_Q(t_prev)⁻¹W_Q(t), one batched
    solve and eigvals summed by cumsum, so it starts on the principal branch
    and stays continuous as long as no eigenvalue turns by π within one step.
    brentq locates the crossing inside the step before the first failing
    sample, on the dense interpolant for non-constant H.
    """
    linear = _LinearFlow(H, 0.0, float(times[-1]))
    ts, flows = linear.samples(times)
    n, W0 = Z0.n, Z0.entries
    W = flows @ W0
    margin = _positivity_margin(W)
    failed = np.flatnonzero(margin <= 0)
    good = int(failed[0]) if failed.size else len(ts)
    WQ = W[:good, n:]
    steps = np.log(np.linalg.eigvals(np.linalg.solve(WQ[:-1], WQ[1:]))).sum(axis=-1)
    logs = np.cumsum(np.concatenate([[np.log(complex(np.linalg.det(Z0.Q)))], steps]))
    ends = np.searchsorted(ts, times)
    ends = ends[ends < good]
    t_star = None
    if failed.size:
        t_prev, S_prev = ts[good - 1], flows[good - 1]
        t_star = _crossing(
            lambda s: float(_positivity_margin(linear.at(s, t_prev, S_prev) @ W0)),
            t_prev, float(ts[good]), margin[good - 1], margin[good],
        )
    return flows[ends], logs[ends], t_star


def _crossing(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of f in [lo, hi] given f(lo) > 0 ≥ f(hi), reusing the known end values."""
    def g(t):
        if t == lo:
            return f_lo
        if t == hi:
            return f_hi
        return f(t)

    from scipy.optimize import brentq  # only a detected crossing needs it

    return float(brentq(g, lo, hi))


def propagate(Z0: NormalisedFrame, z0, H: QuadraticHamiltonian, times, eps: float = 1.0):
    """Propagate a wavepacket frame: a Trajectory with one state per time.

    times must be increasing and start at t ≥ 0; a state is reported for every
    requested time.  Raises PositivityLost (carrying the truncated Trajectory
    and the horizon time) if the evolved Lagrangian stops being positive
    before the last requested time.  For non-constant H every output time is
    read from one DOP853 run per smooth piece at rtol = atol = FLOW_TOL;
    constant H uses expm.
    """
    if not isinstance(Z0, NormalisedFrame):
        Z0 = NormalisedFrame(Z0)
    n = Z0.n
    if H.n != n:
        raise DimensionMismatch("Hamiltonian and frame dimensions differ")
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    if z0.size != 2 * n:
        raise DimensionMismatch(f"center must have 2n = {2 * n} components")
    times = _check_times(times)

    S, log_det_wq, t_star = _scan(Z0, H, times)
    trajectory = _trajectory(times[: len(S)], S, Z0.entries, z0, log_det_wq, eps)
    if t_star is not None:
        raise PositivityLost(t_star, trajectory)
    return trajectory


def _trajectory(times, S, Z0, z0, log_det_wq, eps) -> Trajectory:
    """The packet at every output time from the stacked flow S, one batched call a step.

    The stack runs once through every check the per-state constructors make
    (normalise_frame, NormalisedFrame, SymplecticMetricPair, siegel_matrix),
    with their tolerances, scales and errors.
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
    # σ_j = −(i/√(2ε)) (S_tZ̄₀e_j)ᵀ Ω (z_t − S_tz₀); exactly 0 when z₀ = 0
    sigma = -1j / math.sqrt(2 * eps) * (_t(W_bar_flow) @ omega(n) @ (z - S @ z0)[..., None])[..., 0]
    return Trajectory(
        t=np.array(times, dtype=float),
        S=S,
        Z=Z,
        N=N,
        beta=0.5 * log_det_n,
        z=z,
        action=action,
        sigma=sigma,
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


@functools.lru_cache(maxsize=32)  # a run uses a few (n, |α|); each layout is ≤ TABLE_MAX
def _ladder_layout(n: int, order: int):
    """The simplex |k| ≤ order in graded order, for the ladder recursion.

    Returns (keys, labels, ends, root, rise, down, up): keys[r] is the
    multi-index of slot r and labels[r] the same as a tuple; slots with
    |k| ≤ d are the first ends[d]; root = √k and rise = √(k+1) per mode, shape
    (n, slots), stored complex so no product casts them; down[l, r] and
    up[l, r] are the slots of k − e_l and k + e_l, or the extra slot past the
    table (which holds 0) where those leave it.  The order is the colex order
    of the sets {k_0 + … + k_i + i}, whose rank Σ_i C(k_0 + … + k_i + i, i + 1)
    is computed directly, so the build is O(n) numpy passes over the slots.
    """
    keys = np.zeros((1, 0), dtype=np.intp)
    for _ in range(n):  # append one component: 0 … order − |k| to each row
        room = order + 1 - keys.sum(axis=1)
        first = np.repeat(np.cumsum(room) - room, room)
        last = np.arange(first.size) - first
        keys = np.column_stack([np.repeat(keys, room, axis=0), last])
    size = len(keys)
    binom = np.array([[math.comb(s + i, i + 1) for s in range(order + 1)] for i in range(n)])
    partial = np.cumsum(keys, axis=1)
    modes = np.arange(n)
    same = binom[modes, partial]
    less = binom[modes, np.maximum(partial - 1, 0)]
    rank = same.sum(axis=1)
    # k − e_l lowers the partial sums from position l on by one
    lowered = np.cumsum(same, axis=1) - same + np.cumsum(less[:, ::-1], axis=1)[:, ::-1]
    lowered = np.where(keys > 0, lowered, size).T
    down = np.empty((n, size), dtype=np.intp)
    down[:, rank] = lowered
    up = np.full((n, size), size, dtype=np.intp)
    mode, slot = np.nonzero(lowered < size)
    up[mode, lowered[mode, slot]] = rank[slot]
    ordered = np.empty_like(keys)
    ordered[rank] = keys
    ends = tuple(math.comb(d + n, n) for d in range(order + 1))
    root, rise = np.sqrt(ordered.T).astype(complex), np.sqrt(ordered.T + 1).astype(complex)
    labels = tuple(map(tuple, ordered.tolist()))
    layout = (ordered, labels, ends, root, rise, down, up)
    for array in layout:
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return layout


def coefficient_sweep(states: Trajectory, alpha):
    """Activation coefficients a_k of U(t)φ_α over φ_k(Z_t, z_t) at every time.

    Returns (keys, a): keys[r] is the multi-index k of slot r, in graded order
    with every |k| ≤ |α|, and a[i, r] is a_k at states[i], shape
    (len(states), slots).  Starts from a⁰ = e₀ and applies the evolved raising
    operators, one step of |α| per unit of α:

        a^{γ+e_j}_k = (Σ_l N̄_lj √k_l a^γ_{k−e_l} − Σ_l D_lj √(k_l+1) a^γ_{k+e_l}
                       + σ_j a^γ_k) / √(γ_j+1)

    with D = N_t⁻¹M_t, one batched solve for all times.  Each step is one
    gather per direction over the slots with |k| ≤ |γ| + 1 and one stacked
    matmul per direction over all times.  A slot no step reaches holds an
    exact 0; when σ = 0 these include every k with |α| − |k| odd.
    """
    layout, a = _ladder(states.N, states.M, states.sigma, alpha)
    return layout[0], a


def _ladder(N, M, sigma, alpha):
    """(layout, a) of coefficient_sweep from the stacks N_t, M_t and σ_t.

    steps[i, s] holds, for raising step s in direction j at time i, column j
    of N̄ and of D, then σ_j, all divided by √(γ_j+1).  np.take keeps every
    gathered stack C-ordered, so each time's product is the same BLAS call
    whatever the number of times (a fancy-index gather puts the time axis
    last, and numpy's loop for such strides rounds differently): a row of the
    sweep equals the one-row call bit for bit.
    """
    n = N.shape[-1]
    alpha = validate_recursion_index(alpha, n)
    layout = _ladder_layout(n, sum(alpha))
    ends, root, rise, down, up = layout[2:]
    js, scales = _raising_steps(alpha)
    columns = np.concatenate([np.conj(N), np.linalg.solve(N, M), sigma[:, None]], axis=-2)
    steps = np.take(columns.swapaxes(-1, -2), js, axis=-2) * scales
    raising, lowering, shift = steps[..., :n], steps[..., n:-1], steps[..., -1:]
    a = np.zeros((len(N), len(root[0]) + 1), dtype=complex)  # the last slot stays 0
    a[:, 0] = 1.0
    for step in range(len(js)):  # from degree `step` to `step` + 1
        hi, mid = ends[step + 1], ends[step]
        gathered = root[:, :hi] * np.take(a, down[:, :hi], axis=1)
        new = (raising[:, step, None] @ gathered)[:, 0]
        new[:, :mid] += shift[:, step] * a[:, :mid]
        if step:
            lo = ends[step - 1]
            gathered = rise[:, :lo] * np.take(a, up[:, :lo], axis=1)
            new[:, :lo] -= (lowering[:, step, None] @ gathered)[:, 0]
        a[:, :hi] = new
    return layout, a[:, :-1]


@functools.lru_cache(maxsize=1024)
def _raising_steps(alpha: tuple):
    """(js, scales) of the |α| raising steps that build α from 0: the
    direction j of each and its 1/√(γ_j+1), as a column."""
    js = np.array([j for j, count in enumerate(alpha) for _ in range(count)], dtype=np.intp)
    scales = np.array([1.0 / math.sqrt(c + 1) for count in alpha for c in range(count)])
    scales = scales.reshape(-1, 1)
    js.flags.writeable = scales.flags.writeable = False
    return js, scales


def hagedorn_coefficients(state: PropagatedState, alpha) -> HagedornExpansion:
    """Activation coefficients a_k of U(t)φ_α over φ_k(Z_t, z_t) at one state.

    The one-row call of coefficient_sweep, equal to its row bit for bit.
    Only nonzero coefficients are kept; all have |k| ≤ |α|, and |α| − |k| is
    even when σ = 0, which holds exactly for z₀ = 0.  A displaced packet under
    real H has σ_t of rounding size (about 1e-16), so entries of that size
    can appear at odd |α| − |k|.
    """
    layout, a = _ladder(state.N[None], state.M[None], state.sigma[None], alpha)
    a = a[0]
    kept = a != 0
    return HagedornExpansion(
        coefficients=dict(zip(itertools.compress(layout[1], kept.tolist()), a[kept].tolist())),
        log_prefactor=state.log_prefactor,
    )


def evolved_state_on_grid(state: PropagatedState, alpha, eps: float, grid: Grid):
    """Direct grid evaluation of U(t)φ_α via the polynomial prefactor route:

    e^{iα_t/ε + β_t}/√α! · p_α(√(2/ε) N_tQ_t⁻¹(x−q_t) + σ_t; M̃_t) · φ₀(Z_t, z_t; x)

    with the continuity-tracked branch of (det Q_t)^{−1/2}.  eps must be the
    state's own ε, which σ_t and the phase were built from; another value
    raises DimensionMismatch.  Every α at one state shares the prefactor
    times φ₀ and the polynomial argument; both are kept for the last
    (state, grid) pair seen, so a run of α at one state builds them once.
    Each call returns a new array.
    """
    alpha = validate_recursion_index(alpha, state.Z.n)
    if eps != state.eps:
        raise DimensionMismatch(f"eps {eps} differs from the state's eps {state.eps}")
    ground, y = _shared_on_grid(state, grid)
    if not any(alpha):
        return ground.copy()
    return _excite(ground, y, poly_recursion(state.Mtilde, alpha), alpha)


# One slot: (weak reference to a state, grid, ground field, argument y), the
# last pair _shared_on_grid built.  Only a state whose arrays are read-only,
# such as a Trajectory's view, enters it, and a Grid is a frozen value, so
# the slot answers only for that exact pair; it holds one state's fields at
# most, whatever the trajectory's length.  It is read once and replaced
# whole, so concurrent callers can at worst build the same pair twice.
_last_shared = None


def _shared_on_grid(state: PropagatedState, grid: Grid):
    """The read-only e^{iα_t/ε + β_t} φ₀(Z_t, z_t) and y = √(2/ε) N_tQ_t⁻¹(x−q_t) + σ_t
    of state on grid, from the slot when it holds this pair."""
    global _last_shared
    last = _last_shared
    if last is not None and last[0]() is state and last[1] == grid:
        return last[2], last[3]
    _last_shared = None  # the old pair's fields go before the new ones are built
    params = WavepacketParams(
        frame=state.Z,
        center=state.z,
        eps=state.eps,
        phase=state.log_prefactor,
        log_det_q=state.logdetQ,
    )
    L = state.N @ np.linalg.inv(state.Z.Q)
    ground, y = _ground_and_argument(params, grid, L, state.sigma)
    ground.flags.writeable = y.flags.writeable = False
    inputs = (state.z, state.N, state.sigma, state.Z.entries)
    if not any(a.flags.writeable for a in inputs):  # a state built by hand may change
        _last_shared = (weakref.ref(state), grid, ground, y)
    return ground, y


def positivity_horizon(Z0: NormalisedFrame, H: QuadraticHamiltonian, t_max: float) -> float:
    """First time in (0, t_max] where the evolved frame stops being positive.

    Returns math.inf when positivity survives the whole window.  The crossing
    is the root of the margin gram_margin gives for (1/2i)W*ΩW inside the first
    flow sample step where it changes sign, located to brentq's default
    tolerance (~1e-12).
    """
    if not isinstance(Z0, NormalisedFrame):
        Z0 = NormalisedFrame(Z0)
    if H.n != Z0.n:
        raise DimensionMismatch("Hamiltonian and frame dimensions differ")
    t_star = _scan(Z0, H, np.array([float(t_max)]))[2]
    return math.inf if t_star is None else t_star

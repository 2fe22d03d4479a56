"""Non-Hermitian time evolution of Hagedorn wavepackets.

For a quadratic Hamiltonian the whole packet is an algebraic function of the
linear flow S_t, Ṡ = ΩH_tS with S_0 = Id.  ΩH is a polynomial in t on each
smooth piece of H (a sampled H is split at its knots, and a constant H is
the polynomial of degree 0), so the Taylor coefficients of a step's map P,
S(t_s + τ) = P(τ)S(t_s) with P(0) = Id, obey an exact recurrence,
(k + 1)C_{k+1} = Σ_j G_jC_{k−j}, summed on steps with h·‖ΩH‖₂ ≤ 1 until
max(2, d + 1) successive terms fall below 2⁻⁵³‖Id‖, d the degree of ΩH in t
on the piece (_LinearFlow).  For a constant H this is the Taylor series of
expm(hΩH) (Moler & Van Loan, SIAM Rev. 45 (2003), method 1), summed once
for all steps of one length.  The steps follow H alone, whatever the
output times.
Against closed forms S_t is within 8.4e-16 for the Swanson H on [0, 5],
given as constant, sampled or polynomial, and 2.0e-15 for the harmonic H
at n = 3 up to t = 37 (37 steps of one map, whose rounding adds up from
step to step).  propagate returns a Trajectory: every quantity
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
samples have spacing·‖ΩH‖₂ ≤ ¼ and always include the output times; the scan
takes them all in one batched pass.  The horizon is the first sign change,
refined by a bracketing root-find; breakdown raises PositivityLost with the
horizon time and the truncated Trajectory.  The branch unwraps arg det W_Q
from one sample to the next, one eigenvalue of W_Q(t_prev)⁻¹W_Q(t) at a
time.  The scan hands W, its Gram matrices and their λ_min at the output
times to the assembly, which passes every other check the per-state
constructors of the symplectic module make, once per trajectory.

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
is its one-row call at one state.  Both start from the longest prefix of
α's raising path that the prefix memo holds: the finished rows of the last
Trajectory coefficient_sweep saw, and of the last state
hagedorn_coefficients saw, each owner held by a weak reference.  Only an
owner whose N, M and σ are read-only enters the memo, the rows it holds are
read-only, and they are dropped before they would pass TABLE_MAX entries.
So every α up to a degree, in graded order, takes one raising step per
call, and the result is the same bits in any call order.
log_prefactor (iα_t/ε + β_t), amplitude
(its e^{Re}) and expansion_norm are the package's one route to the norm.

The module loads no scipy: scipy.optimize is imported on first use, and a
run without a positivity crossing never uses it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import threading
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NonSymmetricH,
    PositivityLost,
    StepSizeUnderflow,
)
from .polynomials import TABLE_MAX, poly_recursion, validate_recursion_index
from .symplectic import (
    TOL_FRAME,
    NormalisedFrame,
    check_lagrangian,
    check_metric_pair,
    check_normalised,
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


def solve_ivp(*args, **kwargs):  # perfbench/tracing.py wraps it
    """scipy.integrate.solve_ivp, imported on first use; the flow never calls it."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def _check_times(times) -> np.ndarray:
    """times as a float array, checked to be finite and strictly increasing from t ≥ 0."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) <= 0):
        raise DimensionMismatch("times must be a strictly increasing sequence")
    if not np.isfinite(times).all():
        raise DimensionMismatch("times must be finite")
    if times[0] < 0:
        raise DimensionMismatch("times must start at t ≥ 0")
    return times


def _check_symmetric(matrices, label: str = "H") -> np.ndarray:
    """The stack of the given finite, symmetric 2n×2n matrices, symmetrised.

    The check and the symmetrisation work on ¼H, whose sums and differences
    stay finite, in modulus too, for every finite H; scaling by a power of 2
    is exact short of subnormal entries, so the verdict and the stored
    ½(H + Hᵀ) are those of H itself.
    """
    matrices = [np.asarray(m, dtype=complex) for m in matrices]
    if not matrices or any(m.shape != matrices[0].shape for m in matrices):
        raise DimensionMismatch(f"{label} needs at least one matrix, all of one shape")
    H = np.stack(matrices)
    if H.ndim != 3 or H.shape[1] != H.shape[2] or H.shape[1] % 2 != 0:
        raise NonSymmetricH(f"{label} must be a 2n×2n matrix, got {H.shape[1:]}")
    if not np.all(np.isfinite(H)):
        raise NonSymmetricH(f"{label} must be finite")
    quarter = 0.25 * H
    scale = np.maximum(0.25, np.max(np.abs(quarter), axis=(1, 2)))
    if np.any(np.max(np.abs(quarter - _t(quarter)), axis=(1, 2)) > TOL_FRAME * scale):
        raise NonSymmetricH(f"{label} is not symmetric")
    return 2.0 * (quarter + _t(quarter))


@dataclass(frozen=True, eq=False)
class QuadraticHamiltonian:
    """Time-dependent complex symmetric coefficient matrix H_t.

    kind "sampled": linear interpolation between sample times; "polynomial":
    H(t) = Σ_k C_k t^k from a coefficient stack.  A constant H is the
    polynomial with one coefficient.
    """

    kind: str
    data: tuple = field(repr=False)

    @staticmethod
    def constant(H) -> "QuadraticHamiltonian":
        return QuadraticHamiltonian.polynomial([H])

    @staticmethod
    def sampled(times, matrices) -> "QuadraticHamiltonian":
        times = np.asarray(times, dtype=float)
        stack = _check_symmetric(matrices)
        if times.ndim != 1 or len(times) != len(stack) or len(times) < 2:
            raise DimensionMismatch("sampled form needs matching times and ≥ 2 matrices")
        if not np.isfinite(times).all():
            raise DimensionMismatch("sample times must be finite")
        if np.any(np.diff(times) <= 0):
            raise DimensionMismatch("sample times must be strictly increasing")
        return QuadraticHamiltonian(kind="sampled", data=(times, stack))

    @staticmethod
    def polynomial(coefficients) -> "QuadraticHamiltonian":
        stack = _check_symmetric(coefficients, "coefficient")
        return QuadraticHamiltonian(kind="polynomial", data=(stack,))

    @property
    def n(self) -> int:
        return self.data[-1].shape[-1] // 2

    @property
    def is_constant(self) -> bool:
        return self.kind == "polynomial" and len(self.data[0]) == 1

    @property
    def is_real(self) -> bool:
        """Im H(t) = 0 for every t: every stored matrix is real."""
        return not np.any(self.data[-1].imag)

    def __call__(self, t: float) -> np.ndarray:
        if self.kind == "sampled":
            times, stack = self.data
            t = float(np.clip(t, times[0], times[-1]))
            idx = int(np.searchsorted(times, t, side="right") - 1)
            idx = min(max(idx, 0), len(times) - 2)
            w = (t - times[idx]) / (times[idx + 1] - times[idx])
            return (1 - w) * stack[idx] + w * stack[idx + 1]
        stack = self.data[0]
        out = stack[-1].copy()
        for k in range(len(stack) - 2, -1, -1):
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
    logdetQ: complex
    eps: float
    symplectic_defect: float
    min_positivity: float

    @property
    def log_prefactor(self) -> complex:
        """log of the scalar prefactor: iα_t/ε + β_t (Im α folds into amplitude)."""
        return complex(log_prefactor(self.beta, self.action, self.eps))


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
        return expansion_norm(amplitude(self.log_prefactor), self.coefficients.values())


def log_prefactor(beta, action, eps):
    """iα_t/ε + β_t at one time or over stacks.  The real part β_t − Im α_t/ε is
    taken in real arithmetic: numpy divides a complex stack by ε as a product
    with 1/ε, which for ε ≠ 1 moves last bits."""
    return (beta - action.imag / eps) + 1j * (action.real / eps)


def amplitude(log_prefactor: complex) -> float:
    """|e^{log_prefactor}| by math.exp, which np.exp need not match in the last bit."""
    return math.exp(log_prefactor.real)


def expansion_norm(amp: float, coefficients) -> float:
    """amp·(Σ_k |a_k|²)^{1/2}, the norm of U(t)φ_α from its amplitude and its
    activation coefficients: Python's ** 2, which numpy's square does not always
    match in the last bit, and an exact fsum, which no zero or order changes."""
    return amp * math.sqrt(math.fsum([abs(a) ** 2 for a in coefficients]))


def _t(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def symplectic_defect(S: np.ndarray):
    """Max-norm of SᵀΩS − Ω: a float, or an array for a stack of flows."""
    S = np.asarray(S, dtype=complex)
    om = omega(S.shape[-1] // 2)
    defect = np.max(np.abs(_t(S) @ om @ S - om), axis=(-2, -1))
    return float(defect) if S.ndim == 2 else defect


# -- the linear flow S_t ---------------------------------------------------------

# Terms a Taylor step of degree d may take, past d, before its flow counts as
# not finite.  With h·ρ ≤ 1 a finite S needs 20 to 26 + d (‖D_k‖ falls
# roughly as 1/k!); only NaN or an overflow, whose norms never compare below
# the floor, reach 60 + d.
TAYLOR_TERMS_MAX = 60


class _LinearFlow:
    """S_t from t0 on, with Ṡ = ΩH_tS and S(t0) = Id.

    H is split into smooth pieces (a sampled H at its knots, constant before
    the first and after the last; a polynomial H, a constant one included, is
    one piece), on each of which ΩH(t_s + τ) = Σ_j G_jτ^j is a polynomial of
    degree d in τ about any t_s.  S(t_s + τ) = P(τ)S(t_s) with the step map
    P(τ) = Σ_k C_kτ^k, C_0 = Id, whose Taylor coefficients obey the exact
    recurrence

        (k + 1)C_{k+1} = Σ_{j ≤ min(k, d)} G_jC_{k−j},

    and only the tail of the series is cut.  Each step starts where the last
    ended and has the largest length h, up to the end of its piece, with
    h·ρ ≤ 1 for ρ = Σ_j ‖G_j‖₂h^j, an upper bound of ‖ΩH‖₂ on the step; its
    series runs in the scaled terms D_k = C_kh^k until max(2, d + 1)
    successive ‖D_k‖_F fall below 2⁻⁵³‖Id‖_F, after which no later term
    can rise above that floor.  The series depends on (G_j, h) alone: on a
    piece of degree 0, such as a constant H, the G_j and their norms are the
    same on every step, and a step of the last step's length reuses its
    series, so a constant H sums one series per step length, not one per
    step.  Each step applies P to S(t_s) at all its samples in one batched
    product.  The steps depend on H and t0 alone, so S at a time is
    bit-identical whatever other times are asked for.
    """

    def __init__(self, H: QuadraticHamiltonian, t0: float):
        self.t0 = t0
        self.n2 = 2 * H.n
        om = omega(H.n)
        # (end, origin, coefficients of H in powers of t − origin) per piece;
        # self.pieces keeps Ω times the coefficients
        if H.kind == "polynomial":
            pieces = [(math.inf, 0.0, H.data[0])]
        else:
            knots, stack = H.data
            slopes = np.diff(stack, axis=0) / np.diff(knots)[:, None, None]
            pieces = [(knots[0], knots[0], stack[:1])]
            pieces += [(hi, lo, np.stack([a, s]))
                       for lo, hi, a, s in zip(knots[:-1], knots[1:], stack, slopes)]
            pieces.append((math.inf, knots[-1], stack[-1:]))
        self.ends = [float(end) for end, _, _ in pieces]
        self.pieces = [(float(origin), om @ coeffs) for _, origin, coeffs in pieces]

    def samples(self, times: np.ndarray):
        """(ts, flows): ts[0] = t0 with Id, then samples up to times[-1] that
        include every output time, with spacing·ρ ≤ ¼: ⌈4hρ⌉ equal parts of
        each Taylor step and the output times inside it.  A step's flows are
        P(u)S(t_s), P(u) its step map at the fractions u of the step, all from
        one batched Horner pass of the map's series and one batched product."""
        identity = np.eye(self.n2, dtype=complex)
        last = float(times[-1])
        ts, flows = [np.array([self.t0])], [identity[None]]
        t, S = self.t0, identity
        G = P = None  # the last step's G_j and series
        while t < last:
            if not math.isfinite(np.vdot(S, S).real):
                raise StepSizeUnderflow(f"flow integration failed: S is not finite at t = {t}")
            piece = bisect.bisect_right(self.ends, t)
            expansion = self._expansion(piece, t)
            if expansion is not G:  # a piece of degree 0 gives the same G_j on every step
                G, P = expansion, None
                norms = np.linalg.norm(G, 2, axis=(1, 2))
                reach = _step_length(norms)
            if reach < 10.0 * np.spacing(max(abs(t), abs(last))):  # finer than t resolves
                raise StepSizeUnderflow(
                    f"flow step {reach:.3g} at t = {t} is below the spacing of t")
            stop = min(t + reach, self.ends[piece])
            if stop == math.inf:  # H is zero from t on: one exact step to the end
                stop = last
            if P is None or stop - t != h:  # equal (G_j, h) sum the same series
                h = stop - t
                P = _series(G, h, t)
                parts = np.arange(1, max(1, math.ceil(4.0 * h * _bound(norms, h))) + 1)
                fractions = parts / parts[-1]
            grid = t + h * fractions
            grid[-1] = stop
            upto = min(stop, last)
            step_ts = np.union1d(grid[grid <= upto], times[(times > t) & (times <= upto)])
            step_flows = _horner(P, (step_ts - t) / h) @ S
            ts.append(step_ts)
            flows.append(step_flows)
            t, S = stop, step_flows[-1]
        return np.concatenate(ts), np.concatenate(flows)

    def at(self, t: float, t_prev: float, S_prev: np.ndarray) -> np.ndarray:
        """S(t) for t in the sample step that starts at t_prev with S_prev:
        one Taylor step from that sample."""
        if t == t_prev:
            return S_prev
        G = self._expansion(bisect.bisect_right(self.ends, t_prev), t_prev)
        return _horner(_series(G, t - t_prev, t_prev), np.ones(1))[0] @ S_prev

    def _expansion(self, piece: int, t: float) -> np.ndarray:
        """G_j, j = 0 … d, of ΩH(t + τ) = Σ_j G_jτ^j on the given piece: its
        coefficients re-expanded about t by repeated synthetic division."""
        origin, G = self.pieces[piece]
        shift = t - origin
        if len(G) == 1 or shift == 0.0:
            return G
        G = G.copy()
        for low in range(len(G) - 1):
            for k in range(len(G) - 2, low - 1, -1):
                G[k] += shift * G[k + 1]
        return G


def _bound(norms, h: float) -> float:
    """ρ(h) = Σ_j ‖G_j‖₂h^j, an upper bound of ‖ΩH‖₂ on a step of length h."""
    return sum(float(a) * h**j for j, a in enumerate(norms))


def _step_length(norms) -> float:
    """The h with h·ρ(h) = 1, to rounding and not above it: h·ρ(h) rises and
    is convex in h, so Newton's method from above stays above the root, and
    1/ρ at such a point is a step at or below it.  inf when H is zero."""
    if not np.isfinite(norms).all():
        raise StepSizeUnderflow("flow integration failed: ‖ΩH‖₂ is not finite")
    # one term alone reaches 1 at each of these, so the root lies below them
    tops = [(1.0 / a) ** (1.0 / (j + 1)) for j, a in enumerate(norms) if a > 0]
    if not tops:
        return math.inf
    h = min(tops)
    if h * _bound(norms, h) <= 1.0:
        return h
    while True:
        rise = sum((j + 1) * float(a) * h**j for j, a in enumerate(norms))
        below = h - (h * _bound(norms, h) - 1.0) / rise
        if below >= h * (1.0 - 1e-3):
            return 1.0 / _bound(norms, below)
        h = below


def _series(G: np.ndarray, h: float, t: float) -> np.ndarray:
    """D_k = C_kh^k of the step map P(t + τ) = Σ_k D_k(τ/h)^k, with
    P(t) = Id and S(t + τ) = P(t + τ)S(t), highest k first, from
    (k + 1)D_{k+1} = Σ_j (h^{j+1}G_j)D_{k−j}; it stops once max(2, d + 1)
    successive ‖D_k‖_F fall below 2⁻⁵³‖Id‖_F and raises StepSizeUnderflow
    for a map that is not finite.  Each term reaches back d + 1 terms and,
    as h·ρ ≤ 1, is at most the largest of them over k + 1, so every later
    term stays below the floor once d + 1 in a row do; fewer would stop too
    early where the leading G_j vanish (H = t²H₂ from t = 0 has D_1 = D_2 = 0)."""
    d, m = len(G) - 1, G.shape[-1]
    window, limit = max(2, d + 1), TAYLOR_TERMS_MAX + d
    scaled = (G * (h ** np.arange(1.0, d + 2.0))[:, None, None]).transpose(1, 0, 2).reshape(m, -1)
    # [h^{j+1}G_j/(k + 1)]_j side by side, one row of blocks per k
    steps = scaled / np.arange(1.0, limit + 1.0)[:, None, None]
    # D_k sits at slot limit − k, so D_k … D_{k−d} (zeros below D_0) are one
    # contiguous block
    D = np.zeros((limit + d + 1, m, m), dtype=complex)
    D[limit] = np.eye(m)
    floor = 2.0**-106 * m
    small = 0
    for k in range(limit):
        term = D[limit - k - 1]
        np.matmul(steps[k], D[limit - k: limit - k + d + 1].reshape(-1, m), out=term)
        small = small + 1 if np.vdot(term, term).real < floor else 0
        if small == window:
            return D[limit - k - 1: limit + 1]
    raise StepSizeUnderflow(f"flow integration failed: the step map is not finite after t = {t}")


def _horner(D: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Σ_k D_ku^k for each u, with D highest power first: elementwise in real
    arithmetic, so each u's value does not depend on the others."""
    parts = D.view(float)
    u = u[:, None, None]
    out = parts[0] * u
    out += parts[1]
    for part in parts[2:]:
        out *= u
        out += part
    return out.view(complex)


def flow(H: QuadraticHamiltonian, t0: float, t1: float):
    """Flow matrix S with Ṡ = ΩH_tS, S(t0) = Id, evaluated at t1 (see _LinearFlow)."""
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise DimensionMismatch("t0 and t1 must be finite")
    if t1 < t0:
        raise DimensionMismatch("t1 must be ≥ t0")
    return _LinearFlow(H, t0).samples(np.array([t1]))[1][-1]


def _scan(Z0: NormalisedFrame, H: QuadraticHamiltonian, times):
    """(S_t, W, gram, λ_min, log det W_Q, horizon) stacked over the output times:
    W = S_tZ₀, gram = (1/2i)W*ΩW and λ_min its smallest eigenvalue.

    One batched eigvalsh checks every flow sample against gram_margin; the
    stacks stop before the first failing sample, and the horizon is None when
    none fails.  log det W_Q carries over from one sample to the next by the
    principal logs of the eigenvalues of W_Q(t_prev)⁻¹W_Q(t), one batched
    solve and eigvals summed by cumsum, so it starts on the principal branch
    and stays continuous as long as no eigenvalue turns by π within one step.
    brentq locates the crossing inside the step before the first failing
    sample, on one Taylor step from that sample.
    """
    linear = _LinearFlow(H, 0.0)
    ts, flows = linear.samples(times)
    n, W0 = Z0.n, Z0.entries
    W = flows @ W0
    gram = gram_matrix(W)
    min_eig, margin = gram_margin(gram)
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
            lambda s: float(gram_margin(gram_matrix(linear.at(s, t_prev, S_prev) @ W0))[1]),
            t_prev, float(ts[good]), margin[good - 1], margin[good],
        )
    return flows[ends], W[ends], gram[ends], min_eig[ends], logs[ends], t_star


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

    times must be finite, increasing and start at t ≥ 0, and eps finite and
    positive; a state is reported for every requested time.  Raises
    PositivityLost (carrying the truncated Trajectory and the horizon time) if
    the evolved Lagrangian stops being positive before the last requested
    time.  Every output time is read from the Taylor steps of _LinearFlow,
    which depend on H alone.
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
    if not (math.isfinite(eps) and eps > 0):
        raise DimensionMismatch("eps must be finite and positive")

    *stacks, t_star = _scan(Z0, H, times)
    trajectory = _trajectory(times, *stacks, Z0.entries, z0, eps)
    if t_star is not None:
        raise PositivityLost(t_star, trajectory)
    return trajectory


def _trajectory(times, S, W, gram, min_positivity, log_det_wq, Z0, z0, eps) -> Trajectory:
    """The packet at the first len(S) times from _scan's stacks, one batched call a step.

    _scan has tested positivity, with normalise_frame's margin, at every time
    it kept.  The stack runs once through every other check the per-state
    route makes (normalise_frame, NormalisedFrame, check_metric_pair on one
    metric, siegel_matrix), with their tolerances, scales and errors.
    """
    n = Z0.shape[1]
    N = hermitian_inv_sqrt(gram)
    Z = W @ N
    check_lagrangian(Z)
    check_normalised(Z)
    G = frame_metric(Z)
    check_metric_pair(G, -omega(n) @ G)

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
        t=np.array(times[: len(S)], dtype=float),
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

    The steps start from the longest prefix of α's path whose sweep the
    prefix memo holds for this trajectory: after the sweep of α − e_j, j the
    last direction of α, the sweep of α takes one step.  The memo keeps the
    solve and the finished sweeps of the last trajectory seen, by a weak
    reference, if its stacks are read-only (a Trajectory's are); it holds
    read-only copies of at most TABLE_MAX entries in all, and a is a new
    array, which the caller may change.  The result is the same bits in
    any call order.
    """
    layout, a = _ladder(states, states.N, states.M, states.sigma, alpha)
    return layout[0], a.copy()


def _ladder(owner, N, M, sigma, alpha):
    """(layout, a) of coefficient_sweep from the stacks N_t, M_t and σ_t of
    owner, a Trajectory or a PropagatedState; a is read-only.

    steps[i, s] holds, for raising step s in direction j at time i, column j
    of N̄ and of D, then σ_j, all divided by √(γ_j+1).  np.take keeps every
    gathered stack C-ordered, so each time's product is the same BLAS call
    whatever the number of times (a fancy-index gather puts the time axis
    last, and numpy's loop for such strides rounds differently): a row of the
    sweep equals the one-row call bit for bit.

    The path raises direction 0 α_0 times, then direction 1, and so on, so
    after s steps it holds the row of γ, the first s directions of it, and
    the row of γ fills the first ends[|γ|] slots of every larger layout (the
    ranks do not depend on the order).  The steps therefore start at the
    longest such γ whose row _rows_of holds for owner (e₀ at worst) and
    repeat, with the same shapes, the operations a start from e₀ makes: the
    result is the same bits in any call order.
    """
    n = N.shape[-1]
    alpha = validate_recursion_index(alpha, n)
    layout = _ladder_layout(n, sum(alpha))
    ends, root, rise, down, up = layout[2:]
    js, scales = _raising_steps(alpha)
    held = _rows_of(owner, N, M, sigma)
    start, prefix = held.longest_prefix(alpha)
    steps = np.take(held.columns.swapaxes(-1, -2), js, axis=-2) * scales
    raising, lowering, shift = steps[..., :n], steps[..., n:-1], steps[..., -1:]
    a = np.zeros((len(N), len(root[0]) + 1), dtype=complex)  # the last slot stays 0
    a[:, : ends[start]] = prefix
    for step in range(start, len(js)):  # from degree `step` to `step` + 1
        hi, mid = ends[step + 1], ends[step]
        gathered = root[:, :hi] * np.take(a, down[:, :hi], axis=1)
        new = (raising[:, step, None] @ gathered)[:, 0]
        new[:, :mid] += shift[:, step] * a[:, :mid]
        if step:
            lo = ends[step - 1]
            gathered = rise[:, :lo] * np.take(a, up[:, :lo], axis=1)
            new[:, :lo] -= (lowering[:, step, None] @ gathered)[:, 0]
        a[:, :hi] = new
    a = a[:, :-1]
    a.flags.writeable = False
    held.keep(alpha, a)
    return layout, a


class _Rows:
    """The columns (conj N, N⁻¹M, σ) of one owner's stacks and the finished
    ladder rows built from them, by α, all read-only.  The zero α holds 1.0,
    which fills slot 0 with e₀, where every path starts.  The rows hold at
    most TABLE_MAX entries, the most that the largest ladder table
    validate_recursion_index admits may hold: a row that would pass it drops
    every other row first."""

    def __init__(self, N, M, sigma):
        self.columns = np.concatenate([np.conj(N), np.linalg.solve(N, M), sigma[:, None]], axis=-2)
        self.columns.flags.writeable = False
        self.zero = (0,) * N.shape[-1]
        self.rows = {self.zero: 1.0}
        self.entries = 0

    def longest_prefix(self, alpha: tuple):
        """(|γ|, row of γ) for the longest held γ on α's path, α included:
        α less one unit of its last nonzero direction, again and again."""
        rows = self.rows  # keep may replace it meanwhile, never change what it held
        gamma, j = list(alpha), len(alpha) - 1
        while (key := tuple(gamma)) not in rows:
            while not gamma[j]:
                j -= 1
            gamma[j] -= 1
        return sum(gamma), rows[key]

    def keep(self, alpha: tuple, a: np.ndarray) -> None:
        with _keeping:
            if alpha in self.rows:
                return
            if self.entries + a.size > TABLE_MAX:
                self.rows, self.entries = {self.zero: 1.0}, 0
            if a.size <= TABLE_MAX:
                self.rows[alpha] = a
                self.entries += a.size


_keeping = threading.Lock()  # makes _Rows.keep's test and update one step


# The prefix memo: per kind of owner (PropagatedState for
# hagedorn_coefficients, Trajectory for coefficient_sweep) one slot,
# (weak reference to the last owner seen, its _Rows).  As in _last_shared,
# only an owner whose N, M and σ are read-only, such as a Trajectory or its
# view, enters a slot, and a slot goes when its owner dies.  Each call of a
# new owner builds its _Rows afresh, so nothing stays warm across owners.
_last_rows: dict = {}


def _rows_of(owner, N, M, sigma) -> _Rows:
    """owner's _Rows, from its slot when that holds owner."""
    kind = type(owner)
    last = _last_rows.get(kind)
    if last is not None and last[0]() is owner:
        return last[1]
    _last_rows.pop(kind, None)  # the old owner's rows go before the new ones are built
    held = _Rows(N, M, sigma)
    # an owner built by hand may change its arrays
    if not (N.flags.writeable or M.flags.writeable or sigma.flags.writeable):
        _last_rows[kind] = (weakref.ref(owner, _release), held)
    return held


def _release(ref) -> None:
    """Empty the slot of an owner that died."""
    for kind, last in list(_last_rows.items()):
        if last[0] is ref:
            _last_rows.pop(kind, None)


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

    As in coefficient_sweep, the steps start from the longest prefix of α's
    path that the prefix memo holds, here for the last state seen: every α
    up to a degree at one state, in graded order, takes one raising step a
    call.  Only a state whose N, M and σ are read-only, such as a
    Trajectory's view, enters the memo; a state built by hand with
    writeable arrays is raised from e₀ on every call.  The memo holds at
    most TABLE_MAX entries and no array the caller sees; the dict is new.
    """
    layout, a = _ladder(state, state.N[None], state.M[None], state.sigma[None], alpha)
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

    t_max must be finite and ≥ 0.  Returns math.inf when positivity survives
    the whole window.  The crossing is the root of the margin gram_margin
    gives for (1/2i)W*ΩW inside the first flow sample step where it changes
    sign, located to brentq's default tolerance (~1e-12).
    """
    if not isinstance(Z0, NormalisedFrame):
        Z0 = NormalisedFrame(Z0)
    if H.n != Z0.n:
        raise DimensionMismatch("Hamiltonian and frame dimensions differ")
    t_star = _scan(Z0, H, _check_times([t_max]))[-1]
    return math.inf if t_star is None else t_star

"""Closed-form reference curves for the Davies–Swanson oscillator.

The oscillator is Ĥ = (ω0/2)(p̂² + q̂²) − (iδ/2)(p̂q̂ + q̂p̂) with ω0, δ > 0,
i.e. the quadratic symbol ½ z·Hz with H = [[ω0, −iδ], [−iδ, ω0]] in the
(p, q) ordering.  With ω = √(ω0² + δ²) everything is elementary:

    S_t   = cos(tω) Id + (sin(tω)/ω) ΩH
    n_t⁻² = 1 − (δ²/ω²)(1 − cos 2tω)
    e^β_t = n_t^{1/2} = ω^{1/2} (ω0² + δ² cos 2ωt)^{−1/4}
    m_t   = (2δ/ω) n_t² sin(tω) ((ω0/ω) sin(tω) + i cos(tω))
    G_t   = n_t² [[c² + b²s², 2δcs/ω], [2δcs/ω, c² + a²s²]]
            with c = cos tω, s = sin tω, a = (ω0+δ)/ω, b = (ω0−δ)/ω
    T     = ∞ if ω0 > δ, else (1/2ω) arccos(−ω0²/δ²)

for the initial frame l₀ = (1, −i).  Norm curves for the k-th excited state
follow from the univariate recursion q_{j+1} = x q_j − m_t · j · q_{j−1}
composed with x → n_t x:  ‖U(t)φ_k(l₀)‖ = e^{β_t} (Σ_j |a_j|²)^{1/2} with
a_j = c_j n_t^j √(j!)/√(k!).  ds_scalars cross-checks the normalisation of
l_t = n_t S_t l₀ through the Hermitian pairing h(z, z′) = (i/2) z̄ · Ωᵀ z′,
conjugate-linear in its first argument: h(l_t, l_t) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutsideHorizon
from .polynomials import ALPHA_MAX
from .symplectic import NormalisedFrame, omega

L0 = np.array([1.0, -1.0j])


@dataclass(frozen=True)
class SwansonParams:
    """Oscillator parameters; omega = √(omega0² + delta²) is derived."""

    omega0: float
    delta: float

    def __post_init__(self):
        if not (self.omega0 > 0 and np.isfinite(self.omega0)):
            raise DimensionMismatch("omega0 must be finite and positive")
        if not (self.delta > 0 and np.isfinite(self.delta)):
            raise DimensionMismatch("delta must be finite and positive")

    @property
    def omega(self) -> float:
        return math.hypot(self.omega0, self.delta)

    def matrix(self) -> np.ndarray:
        """The coefficient matrix H = [[ω0, −iδ], [−iδ, ω0]]."""
        return np.array(
            [[self.omega0, -1j * self.delta], [-1j * self.delta, self.omega0]]
        )


@dataclass(frozen=True)
class SwansonStateScalars:
    """Closed-form state of the oscillator at one time."""

    t: float
    n: float
    beta: float
    m: complex
    l: NormalisedFrame
    metric: np.ndarray


def ds_flow(params: SwansonParams, t: float) -> np.ndarray:
    """S_t = cos(tω) Id + (sin(tω)/ω) ΩH."""
    w = params.omega
    om = omega(1)
    return math.cos(t * w) * np.eye(2) + math.sin(t * w) / w * (om @ params.matrix())


def ds_positivity_time(params: SwansonParams) -> float:
    """Horizon T = (1/2ω) arccos(−ω0²/δ²); infinite when ω0 > δ.

    The boundary ω0 = δ counts as finite: arccos(−1) = π gives T = π/(2ω).
    """
    if params.omega0 > params.delta:
        return math.inf
    ratio = -(params.omega0**2) / params.delta**2
    return math.acos(max(ratio, -1.0)) / (2 * params.omega)


def _n_beta_m(params: SwansonParams, t: float) -> tuple[float, float, complex]:
    """n_t, β_t and m_t (raises OutsideHorizon past T)."""
    horizon = ds_positivity_time(params)
    if abs(t) >= horizon:
        raise OutsideHorizon(f"t = {t:.9g} is at or beyond the horizon T = {horizon:.9g}")
    w = params.omega
    d = params.delta
    w0 = params.omega0
    n_inv_sq = 1.0 - (d**2 / w**2) * (1.0 - math.cos(2 * t * w))
    n = 1.0 / math.sqrt(n_inv_sq)
    beta = 0.5 * math.log(w) - 0.25 * math.log(w0**2 + d**2 * math.cos(2 * w * t))
    c, s = math.cos(t * w), math.sin(t * w)
    m = (2 * d / w) * n**2 * s * complex((w0 / w) * s, c)
    return n, beta, m


def hermitian_pairing(z: np.ndarray, w: np.ndarray) -> complex | np.ndarray:
    """h(z, w) = (i/2) z̄ · Ωᵀ w, conjugate-linear in the first argument.

    Accepts single vectors or 2n×k stacks; for stacks the full pairing matrix
    is returned.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    n2 = z.shape[0]
    if n2 % 2 != 0 or w.shape[0] != n2:
        raise DimensionMismatch("pairing needs two vectors of equal even length")
    om = omega(n2 // 2)
    value = 0.5j * (z.conj().T @ om.T @ w)
    if value.ndim == 0:
        return complex(value)
    return value


def ds_scalars(params: SwansonParams, t: float) -> SwansonStateScalars:
    """All closed-form scalars at time t (raises OutsideHorizon past T)."""
    n, beta, m = _n_beta_m(params, t)
    w, d, w0 = params.omega, params.delta, params.omega0
    c, s = math.cos(t * w), math.sin(t * w)
    l_t = n * (ds_flow(params, t) @ L0)
    frame = NormalisedFrame(l_t.reshape(2, 1))
    pairing = complex(hermitian_pairing(l_t, l_t))
    if abs(pairing - 1.0) > 1e-12:
        raise OutsideHorizon(f"normalization cross-check failed: h(l,l) = {pairing}")
    a, b, off = (w0 + d) / w, (w0 - d) / w, 2 * d * c * s / w
    metric = n**2 * np.array([[c**2 + b**2 * s**2, off], [off, c**2 + a**2 * s**2]])
    return SwansonStateScalars(t=float(t), n=n, beta=beta, m=m, l=frame, metric=metric)


def ds_norm(params: SwansonParams, k: int, t: float) -> float:
    """Closed-form ‖U(t)φ_k(l₀)‖ from the scaled-Hermite recursion.

    For k = 0, 1, 2 this reduces to e^β, e^β n, e^β √(n⁴ + |m|²/2).
    """
    return ds_norms(params, [k], t)[0]


def ds_norms(params: SwansonParams, ks, t: float) -> list[float]:
    """ds_norm for every k in ks, from one set of closed-form scalars at t."""
    ks = [int(k) for k in ks]
    for k in ks:
        if k < 0 or k > ALPHA_MAX:
            raise DimensionMismatch(f"k must lie in [0, {ALPHA_MAX}]")
    n, beta, m = _n_beta_m(params, t)
    return [_norm(n, beta, m, k) for k in ks]


def _norm(n: float, beta: float, m: complex, k: int) -> float:
    # monomial coefficients of q_k: q_{j+1} = x q_j − m j q_{j−1}
    prev = {0: 1.0 + 0j}
    current = prev
    for j in range(k):
        nxt: dict[int, complex] = {}
        for power, coeff in current.items():
            nxt[power + 1] = nxt.get(power + 1, 0j) + coeff
        if j >= 1:
            for power, coeff in prev.items():
                nxt[power] = nxt.get(power, 0j) - m * j * coeff
        prev, current = current, nxt
    fact_k = math.factorial(k)
    terms = [
        abs(coeff) ** 2 * n ** (2 * power) * math.factorial(power) / fact_k
        for power, coeff in current.items()
    ]
    return math.exp(beta) * math.sqrt(math.fsum(terms))

"""Complex symplectic linear algebra for Lagrangian frames.

Conventions used throughout the package: phase-space vectors are ordered
z = (p, q) with the momentum block on top, the symplectic form is
Ω = [[0, −Id], [Id, 0]], and a frame Z stacks the blocks as Z = (P; Q).
The Hermitian pairing h(z, z′) = (i/2) z̄ · Ωᵀ z′ is conjugate-linear in its
first argument. A frame is normalised when Z*ΩZ = 2i·Id.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatch,
    NotHermitian,
    NotPositiveDefinite,
    NotPositiveLagrangian,
    NotSymplecticMetric,
    SingularQ,
)

TOL_FRAME = 1e-10
RANK_TOL = 1e-12
POS_TOL = 1e-12
COND_MAX = 1e12


@lru_cache(maxsize=None)
def omega(n: int) -> np.ndarray:
    """The 2n×2n symplectic form [[0, −Id], [Id, 0]], built once per n (read-only)."""
    ident = np.eye(n)
    zero = np.zeros((n, n))
    om = np.block([[zero, -ident], [ident, zero]])
    om.flags.writeable = False
    return om


# Helpers on one matrix or a stack of them (leading axes); the one-matrix
# branches keep the per-object constructors as cheap as plain numpy calls.


def _mT(a: np.ndarray) -> np.ndarray:
    return a.T if a.ndim == 2 else np.swapaxes(a, -1, -2)


def _mH(a: np.ndarray) -> np.ndarray:
    return _mT(np.conj(a))


def _worst(a: np.ndarray):
    """max |a| of each matrix of a stack (the last two axes)."""
    return np.abs(a).max() if a.ndim == 2 else np.abs(a).max(axis=(-2, -1))


def _scale(a: np.ndarray):
    # Tolerances are relative to max(1, ‖input‖) for scale robustness, per matrix.
    if a.ndim == 2:
        return max(1.0, float(_worst(a))) if a.size else 1.0
    return np.maximum(1.0, _worst(a)) if a.size else np.ones(a.shape[:-2])


def _reject(bad, error, message: str, **details) -> None:
    """Raise error(message, **details) if any matrix of a stack is flagged bad,
    naming the first."""
    if np.ndim(bad) == 0:
        if bad:
            raise error(message, **details)
    elif bad.any():
        raise error(f"{message} (stack index {int(np.argmax(bad))})", **details)


def _check_frame_shape(Z: np.ndarray) -> int:
    Z = np.asarray(Z)
    if Z.ndim != 2:
        raise DimensionMismatch(f"frame must be a 2n×n matrix, got shape {Z.shape}")
    return _check_stack_shape(Z)


def _check_stack_shape(Z: np.ndarray) -> int:
    if Z.ndim < 2 or Z.shape[-2] % 2 != 0 or Z.shape[-1] > Z.shape[-2] // 2:
        raise DimensionMismatch(f"frame must be a 2n×n matrix, got shape {Z.shape}")
    return Z.shape[-1]


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


def _not_isotropic(Z: np.ndarray, tol: float):
    om = omega(Z.shape[-2] // 2)
    return _worst(_mT(Z) @ om @ Z) > tol * _scale(Z) ** 2


def _not_normalised(Z: np.ndarray, tol: float):
    om = omega(Z.shape[-2] // 2)
    defect = _mH(Z) @ om @ Z - 2j * np.eye(Z.shape[-1])
    return _worst(defect) > tol * _scale(Z) ** 2


def _rank_deficient(Z: np.ndarray, rank_tol: float):
    return ~(np.linalg.svd(Z, compute_uv=False)[..., -1] > rank_tol)


def is_isotropic(Z: np.ndarray, tol: float = TOL_FRAME) -> bool:
    """True iff ZᵀΩZ vanishes entrywise to tol (relative to input scale)."""
    n = _check_frame_shape(Z)
    return not _not_isotropic(np.asarray(Z, dtype=complex), tol) if n else True


def is_normalised(Z: np.ndarray, tol: float = TOL_FRAME) -> bool:
    """True iff Z*ΩZ = 2i·Id to tol."""
    _check_frame_shape(Z)
    return not _not_normalised(np.asarray(Z, dtype=complex), tol)


def has_full_rank(Z: np.ndarray, rank_tol: float = RANK_TOL) -> bool:
    """True iff the smallest singular value of Z exceeds rank_tol."""
    return not _rank_deficient(np.asarray(Z, dtype=complex), rank_tol)


# -- checks on one matrix or a stack of them (leading axes) ------------------
#
# The constructors below run them on their one input; propagation runs them
# once on a whole trajectory.  Tolerances and scales are per matrix.


def check_lagrangian(Z: np.ndarray) -> None:
    """Raise DimensionMismatch unless every frame of Z is isotropic and of full rank."""
    Z = np.asarray(Z, dtype=complex)
    _check_stack_shape(Z)
    _reject(_not_isotropic(Z, TOL_FRAME), DimensionMismatch, "frame is not isotropic: ZᵀΩZ ≠ 0")
    _reject(_rank_deficient(Z, RANK_TOL), DimensionMismatch, "frame does not have full column rank")


def check_normalised(Z: np.ndarray) -> None:
    """Raise DimensionMismatch unless Z*ΩZ = 2i·Id for every frame of Z."""
    Z = np.asarray(Z, dtype=complex)
    _check_stack_shape(Z)
    _reject(_not_normalised(Z, TOL_FRAME), DimensionMismatch,
            "frame is not normalised: Z*ΩZ ≠ 2i·Id")


def check_metric_pair(G: np.ndarray, J: np.ndarray) -> None:
    """Raise NotSymplecticMetric unless every (G, J) is a symmetric, symplectic,
    positive-definite metric with J = −ΩG and J² = −Id."""
    if G.ndim < 2 or G.shape[-2] != G.shape[-1] or J.shape != G.shape or G.shape[-1] % 2 != 0:
        raise DimensionMismatch("metric pair needs two equal 2n×2n matrices")
    n2 = G.shape[-1]
    scale = _scale(G)
    om = omega(n2 // 2)
    _reject(_worst(G - _mT(G)) > TOL_FRAME * scale, NotSymplecticMetric, "G is not symmetric")
    _reject(_worst(_mT(G) @ om @ G - om) > TOL_FRAME * scale**2, NotSymplecticMetric,
            "G is not symplectic: GᵀΩG ≠ Ω")
    _reject(np.linalg.eigvalsh(G)[..., 0] <= 0, NotSymplecticMetric, "G is not positive definite")
    _reject(_worst(J + om @ G) > TOL_FRAME * scale, NotSymplecticMetric, "J ≠ −ΩG")
    _reject(_worst(J @ J + np.eye(n2)) > TOL_FRAME * scale**2, NotSymplecticMetric, "J² ≠ −Id")


def gram_margin(gram: np.ndarray, pos_tol: float = POS_TOL):
    """(λ_min, λ_min − pos_tol·max(1, ‖gram‖)) of every Gram matrix of a stack."""
    min_eig = np.linalg.eigvalsh(gram)[..., 0]
    return min_eig, min_eig - pos_tol * _scale(gram)


def check_positive_gram(gram: np.ndarray, pos_tol: float = POS_TOL) -> np.ndarray:
    """λ_min of every Gram matrix (1/2i) Z*ΩZ of a stack; raises NotPositiveLagrangian
    when one has no positive margin (see gram_margin)."""
    min_eig, margin = gram_margin(gram, pos_tol)
    bad = margin <= 0
    if bad.any():
        worst = float(min_eig[bad][0])
        _reject(bad, NotPositiveLagrangian,
                f"Gram matrix not positive definite (min eigenvalue {worst:.3e})", min_eig=worst)
    return min_eig


@dataclass(frozen=True)
class LagrangianFrame:
    """A 2n×n isotropic frame of full rank."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        _check_frame_shape(entries)
        check_lagrangian(entries)

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    @property
    def P(self) -> np.ndarray:
        return self.entries[: self.n, :]

    @property
    def Q(self) -> np.ndarray:
        return self.entries[self.n :, :]

    def __array__(self, dtype=None):
        return np.asarray(self.entries, dtype=dtype)


@dataclass(frozen=True)
class NormalisedFrame:
    """A Lagrangian frame with Z*ΩZ = 2i·Id (hence a positive Lagrangian)."""

    frame: LagrangianFrame

    def __post_init__(self):
        frame = self.frame
        if not isinstance(frame, LagrangianFrame):
            frame = LagrangianFrame(np.asarray(frame))
            object.__setattr__(self, "frame", frame)
        check_normalised(frame.entries)

    @classmethod
    def checked(cls, entries: np.ndarray) -> "NormalisedFrame":
        """The frame over entries that check_lagrangian and check_normalised have
        already accepted, e.g. one slice of a checked stack; nothing is re-run."""
        lagrangian = object.__new__(LagrangianFrame)
        object.__setattr__(lagrangian, "entries", entries)
        frame = object.__new__(cls)
        object.__setattr__(frame, "frame", lagrangian)
        return frame

    @property
    def entries(self) -> np.ndarray:
        return self.frame.entries

    @property
    def n(self) -> int:
        return self.frame.n

    @property
    def P(self) -> np.ndarray:
        return self.frame.P

    @property
    def Q(self) -> np.ndarray:
        return self.frame.Q

    def __array__(self, dtype=None):
        return np.asarray(self.entries, dtype=dtype)


@dataclass(frozen=True)
class SymplecticMetricPair:
    """Metric G (symmetric positive-definite symplectic) and structure J = −ΩG."""

    G: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        J = np.asarray(self.J, dtype=float)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "J", J)
        if G.ndim != 2:
            raise DimensionMismatch("metric pair needs two equal 2n×2n matrices")
        check_metric_pair(G, J)

    @property
    def n(self) -> int:
        return self.G.shape[0] // 2


@dataclass(frozen=True)
class SiegelMatrix:
    """B = PQ⁻¹, complex symmetric; Im B ≻ 0 for positive Lagrangians."""

    B: np.ndarray
    im_min_eig: float

    def __post_init__(self):
        object.__setattr__(self, "B", np.asarray(self.B, dtype=complex))


def hermitian_inv_sqrt(A: np.ndarray, pos_tol: float = POS_TOL) -> np.ndarray:
    """The unique Hermitian positive-definite A^{−1/2} of a Hermitian A ≻ 0
    (of every matrix of a stack)."""
    A = np.asarray(A, dtype=complex)
    scale = _scale(A)
    _reject(_worst(A - _mH(A)) > TOL_FRAME * scale, NotHermitian, "matrix is not Hermitian")
    A = 0.5 * (A + _mH(A))
    vals, vecs = np.linalg.eigh(A)
    bad = vals[..., 0] <= pos_tol * scale
    if bad.any():
        worst = float(vals[..., 0][bad][0])
        _reject(bad, NotPositiveDefinite, f"smallest eigenvalue {worst:.3e} below floor")
    return (vecs / np.sqrt(vals)[..., None, :]) @ _mH(vecs)


def gram_matrix(Z: np.ndarray) -> np.ndarray:
    """The normalization Gram matrix (1/2i) Z*ΩZ, Hermitized (of every frame of a stack)."""
    Z = np.asarray(Z, dtype=complex)
    om = omega(Z.shape[-2] // 2)
    gram = (_mH(Z) @ om @ Z) / 2j
    return 0.5 * (gram + _mH(gram))


def normalise_frame(Z, pos_tol: float = POS_TOL):
    """Return (ZN as NormalisedFrame, N) with N = ((1/2i) Z*ΩZ)^{−1/2}.

    Raises NotPositiveLagrangian when the Gram matrix is not positive
    definite, which is the breakdown signal at the positivity horizon.
    """
    entries = np.asarray(Z, dtype=complex)
    _check_frame_shape(entries)
    gram = gram_matrix(entries)
    check_positive_gram(gram, pos_tol)
    N = hermitian_inv_sqrt(gram, pos_tol=pos_tol)
    return NormalisedFrame(LagrangianFrame(entries @ N)), N


def projections(Z: NormalisedFrame):
    """Orthogonal projections (π_L, π_L̄) = ((i/2) ZZ*Ωᵀ, −(i/2) Z̄ZᵀΩᵀ)."""
    entries = Z.entries
    om = omega(Z.n)
    pi_l = 0.5j * (entries @ entries.conj().T @ om.T)
    pi_lbar = -0.5j * (entries.conj() @ entries.T @ om.T)
    return pi_l, pi_lbar


def siegel_b(P: np.ndarray, Q: np.ndarray, cond_max: float = COND_MAX) -> np.ndarray:
    """B = PQ⁻¹, symmetrized post-hoc, of every block pair of a stack; raises
    SingularQ when cond(Q) exceeds cond_max."""
    _reject(np.linalg.cond(Q) > cond_max, SingularQ, "Q block is singular or too ill-conditioned")
    B = _mT(np.linalg.solve(_mT(Q), _mT(P)))
    return 0.5 * (B + _mT(B))


def siegel_matrix(Z, cond_max: float = COND_MAX) -> SiegelMatrix:
    """B = PQ⁻¹, symmetrized post-hoc; reports the smallest eigenvalue of Im B."""
    if isinstance(Z, (LagrangianFrame, NormalisedFrame)):
        P, Q = Z.P, Z.Q
    else:
        entries = np.asarray(Z, dtype=complex)
        n = _check_frame_shape(entries)
        P, Q = entries[:n, :], entries[n:, :]
    B = siegel_b(P, Q, cond_max)
    im_min = float(np.linalg.eigvalsh(0.5 * (B - B.conj().T) / 1j)[0])
    return SiegelMatrix(B=B, im_min_eig=im_min)


def frame_metric(Z: np.ndarray) -> np.ndarray:
    """G = Ωᵀ Re(ZZ*) Ω, symmetrized, of a normalised frame's entries (or a stack)."""
    om = omega(Z.shape[-1])
    G = om.T @ np.real(Z @ _mH(Z)) @ om
    return 0.5 * (G + _mT(G))


def metric_and_structure(Z: NormalisedFrame) -> SymplecticMetricPair:
    """G = Ωᵀ Re(ZZ*) Ω and J = −ΩG for a normalised frame."""
    G = frame_metric(Z.entries)
    return SymplecticMetricPair(G=G, J=-omega(Z.n) @ G)


def _sign_canonical(u: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    # Flip so the first significant component is positive: deterministic output.
    for x in u:
        if abs(x) > tol:
            return u if x > 0 else -u
    return u


def frame_from_metric(G, pos_tol: float = POS_TOL) -> NormalisedFrame:
    """Reconstruct a normalised frame with metric G.

    Uses the symplectic eigenbasis: eigenvalues of G come in (λ, 1/λ) pairs
    with Ω mapping one eigenspace to the other; columns are
    l_k = u_k/√λ_k − i√λ_k (Ωu_k) for λ_k ≥ 1 in descending order.
    """
    if isinstance(G, SymplecticMetricPair):
        G = G.G
    G = np.asarray(G, dtype=float)
    n2 = G.shape[0]
    if G.ndim != 2 or G.shape != (n2, n2) or n2 % 2 != 0:
        raise DimensionMismatch("metric must be a 2n×2n matrix")
    n = n2 // 2
    om = omega(n)
    scale = _scale(G)
    if np.max(np.abs(G - G.T)) > TOL_FRAME * scale:
        raise NotSymplecticMetric("G is not symmetric")
    if np.max(np.abs(G.T @ om @ G - om)) > TOL_FRAME * scale**2:
        raise NotSymplecticMetric("G is not symplectic: GᵀΩG ≠ Ω")
    vals, vecs = np.linalg.eigh(G)
    if vals[0] <= pos_tol:
        raise NotSymplecticMetric("G is not positive definite")

    # Pick n vectors from the λ ≥ 1 side, largest first.  Within a
    # near-degenerate group the partner v = Ωu may fall in the same eigenspace
    # (λ = 1), so re-orthogonalize greedily against everything chosen so far.
    order = np.argsort(vals)[::-1]
    chosen: list[tuple[float, np.ndarray]] = []
    basis: list[np.ndarray] = []  # spans both u_k and v_k picked so far
    for idx in order:
        if len(chosen) == n:
            break
        lam = float(vals[idx])
        if lam < 1.0 - 1e-9:
            break
        u = vecs[:, idx].copy()
        for b in basis:
            u -= (b @ u) * b
        norm = np.linalg.norm(u)
        if norm <= 1e-9:
            continue
        u = _sign_canonical(u / norm)
        v = om @ u
        chosen.append((lam, u))
        basis.append(u)
        basis.append(v)
    if len(chosen) != n:
        raise NotSymplecticMetric("could not extract n symplectic eigenpairs")

    cols = [u / np.sqrt(lam) - 1j * np.sqrt(lam) * (om @ u) for lam, u in chosen]
    Z = np.stack(cols, axis=1)
    return NormalisedFrame(LagrangianFrame(Z))

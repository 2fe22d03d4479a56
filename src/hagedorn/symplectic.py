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


def _scale(a: np.ndarray) -> float:
    # Tolerances are relative to max(1, ‖input‖) for scale robustness.
    return max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)


def _check_frame_shape(Z: np.ndarray) -> int:
    Z = np.asarray(Z)
    if Z.ndim != 2:
        raise DimensionMismatch(f"frame must be a 2n×n matrix, got shape {Z.shape}")
    rows, cols = Z.shape
    if rows % 2 != 0 or cols > rows // 2:
        raise DimensionMismatch(f"frame must be a 2n×n matrix, got shape {Z.shape}")
    return cols


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


def is_isotropic(Z: np.ndarray, tol: float = TOL_FRAME) -> bool:
    """True iff ZᵀΩZ vanishes entrywise to tol (relative to input scale)."""
    n = _check_frame_shape(Z)
    Z = np.asarray(Z, dtype=complex)
    om = omega(Z.shape[0] // 2)
    defect = Z.T @ om @ Z
    return float(np.max(np.abs(defect))) <= tol * _scale(Z) ** 2 if n else True


def is_normalised(Z: np.ndarray, tol: float = TOL_FRAME) -> bool:
    """True iff Z*ΩZ = 2i·Id to tol."""
    n = _check_frame_shape(Z)
    Z = np.asarray(Z, dtype=complex)
    om = omega(Z.shape[0] // 2)
    defect = Z.conj().T @ om @ Z - 2j * np.eye(n)
    return float(np.max(np.abs(defect))) <= tol * _scale(Z) ** 2


def has_full_rank(Z: np.ndarray, rank_tol: float = RANK_TOL) -> bool:
    """True iff the smallest singular value of Z exceeds rank_tol."""
    Z = np.asarray(Z, dtype=complex)
    smin = np.linalg.svd(Z, compute_uv=False)[-1]
    return float(smin) > rank_tol


@dataclass(frozen=True)
class LagrangianFrame:
    """A 2n×n isotropic frame of full rank."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        _check_frame_shape(entries)
        if not is_isotropic(entries):
            raise DimensionMismatch("frame is not isotropic: ZᵀΩZ ≠ 0")
        if not has_full_rank(entries):
            raise DimensionMismatch("frame does not have full column rank")

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
        if not is_normalised(frame.entries):
            raise DimensionMismatch("frame is not normalised: Z*ΩZ ≠ 2i·Id")

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
        n2 = G.shape[0]
        if G.shape != (n2, n2) or J.shape != (n2, n2) or n2 % 2 != 0:
            raise DimensionMismatch("metric pair needs two equal 2n×2n matrices")
        scale = _scale(G)
        om = omega(n2 // 2)
        if np.max(np.abs(G - G.T)) > TOL_FRAME * scale:
            raise NotSymplecticMetric("G is not symmetric")
        if np.max(np.abs(G.T @ om @ G - om)) > TOL_FRAME * scale**2:
            raise NotSymplecticMetric("G is not symplectic: GᵀΩG ≠ Ω")
        if np.linalg.eigvalsh(G)[0] <= 0:
            raise NotSymplecticMetric("G is not positive definite")
        if np.max(np.abs(J + om @ G)) > TOL_FRAME * scale:
            raise NotSymplecticMetric("J ≠ −ΩG")
        if np.max(np.abs(J @ J + np.eye(n2))) > TOL_FRAME * scale**2:
            raise NotSymplecticMetric("J² ≠ −Id")

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
    """The unique Hermitian positive-definite A^{−1/2} of a Hermitian A ≻ 0."""
    A = np.asarray(A, dtype=complex)
    scale = _scale(A)
    if np.max(np.abs(A - A.conj().T)) > TOL_FRAME * scale:
        raise NotHermitian("matrix is not Hermitian")
    A = 0.5 * (A + A.conj().T)
    vals, vecs = np.linalg.eigh(A)
    if vals[0] <= pos_tol * scale:
        raise NotPositiveDefinite(f"smallest eigenvalue {vals[0]:.3e} below floor")
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def gram_matrix(Z: np.ndarray) -> np.ndarray:
    """The normalization Gram matrix (1/2i) Z*ΩZ, Hermitized."""
    Z = np.asarray(Z, dtype=complex)
    om = omega(Z.shape[0] // 2)
    gram = (Z.conj().T @ om @ Z) / 2j
    return 0.5 * (gram + gram.conj().T)


def normalise_frame(Z, pos_tol: float = POS_TOL):
    """Return (ZN as NormalisedFrame, N) with N = ((1/2i) Z*ΩZ)^{−1/2}.

    Raises NotPositiveLagrangian when the Gram matrix is not positive
    definite, which is the breakdown signal at the positivity horizon.
    """
    entries = np.asarray(Z, dtype=complex)
    _check_frame_shape(entries)
    gram = gram_matrix(entries)
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    if min_eig <= pos_tol * _scale(gram):
        raise NotPositiveLagrangian(
            f"Gram matrix not positive definite (min eigenvalue {min_eig:.3e})",
            min_eig=min_eig,
        )
    N = hermitian_inv_sqrt(gram, pos_tol=pos_tol)
    return NormalisedFrame(LagrangianFrame(entries @ N)), N


def projections(Z: NormalisedFrame):
    """Orthogonal projections (π_L, π_L̄) = ((i/2) ZZ*Ωᵀ, −(i/2) Z̄ZᵀΩᵀ)."""
    entries = Z.entries
    om = omega(Z.n)
    pi_l = 0.5j * (entries @ entries.conj().T @ om.T)
    pi_lbar = -0.5j * (entries.conj() @ entries.T @ om.T)
    return pi_l, pi_lbar


def siegel_matrix(Z, cond_max: float = COND_MAX) -> SiegelMatrix:
    """B = PQ⁻¹, symmetrized post-hoc; reports the smallest eigenvalue of Im B."""
    if isinstance(Z, (LagrangianFrame, NormalisedFrame)):
        P, Q = Z.P, Z.Q
    else:
        entries = np.asarray(Z, dtype=complex)
        n = _check_frame_shape(entries)
        P, Q = entries[:n, :], entries[n:, :]
    if np.linalg.cond(Q) > cond_max:
        raise SingularQ("Q block is singular or too ill-conditioned")
    B = np.linalg.solve(Q.T, P.T).T
    B = 0.5 * (B + B.T)
    im_min = float(np.linalg.eigvalsh(0.5 * (B - B.conj().T) / 1j)[0])
    return SiegelMatrix(B=B, im_min_eig=im_min)


def metric_and_structure(Z: NormalisedFrame) -> SymplecticMetricPair:
    """G = Ωᵀ Re(ZZ*) Ω and J = −ΩG for a normalised frame."""
    entries = Z.entries
    om = omega(Z.n)
    G = om.T @ np.real(entries @ entries.conj().T) @ om
    G = 0.5 * (G + G.T)
    return SymplecticMetricPair(G=G, J=-om @ G)


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

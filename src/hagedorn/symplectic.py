"""Complex symplectic linear algebra for Lagrangian frames.

Conventions used throughout the package: phase-space vectors are ordered
z = (p, q) with the momentum block on top, the symplectic form is
Ω = [[0, −Id], [Id, 0]], and a frame Z stacks the blocks as Z = (P; Q).
A frame is normalised when Z*ΩZ = 2i·Id; its metric is G = Ωᵀ Re(ZZ*) Ω,
with J = −ΩG.  Algebra that only the checking side calls lives there: the
Hermitian pairing in swanson, the projections onto a frame in oracles.
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


# Helpers on one matrix or a stack of them (leading axes).


def _mT(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _mH(a: np.ndarray) -> np.ndarray:
    return _mT(np.conj(a))


def _worst(a: np.ndarray):
    """max |a| of each matrix of a stack (the last two axes)."""
    return np.abs(a).max(axis=(-2, -1))


def _scale(a: np.ndarray):
    # Tolerances are relative to max(1, ‖input‖) for scale robustness, per matrix.
    return np.maximum(1.0, _worst(a)) if a.size else np.ones(a.shape[:-2])


def _checked_scale(a: np.ndarray, error, what: str):
    """_scale(a), after raising error where an entry is not finite or above 2^500:
    past it a check's sums of 2n products of two entries, or the tolerances
    of _check_product, may overflow."""
    scale = _scale(a)
    _reject(~(scale <= 2.0**500), error, f"{what} has an entry too large to check")
    return scale


def _check_product(a: np.ndarray, b: np.ndarray, identity, error, what: str, message: str):
    """Raise error(message) unless a @ b equals identity for every matrix of a
    stack, each entry (j, k) to TOL_FRAME·‖row j of a‖·‖column k of b‖: the
    size of the products it sums, which bounds its rounding.  Where that
    tolerance reaches a nonzero entry of the identity, the check could not
    tell the entry from 0, so error reports the input too large to check."""
    rows = np.sqrt((np.abs(a) ** 2).sum(axis=-1))
    columns = np.sqrt((np.abs(b) ** 2).sum(axis=-2))
    tol = TOL_FRAME * rows[..., :, None] * columns[..., None, :]
    if np.any(identity):
        _reject(((identity != 0) & ~(tol < np.abs(identity))).any(axis=(-2, -1)), error,
                f"{what} has an entry too large to check")
    _reject(~(np.abs(a @ b - identity) <= tol).all(axis=(-2, -1)), error, message)


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


# -- checks on one matrix or a stack of them (leading axes) ------------------
#
# The constructors below run them on their one input; propagation runs them
# once on a whole trajectory.  Tolerances and scales are per matrix.


def check_lagrangian(Z: np.ndarray) -> None:
    """Raise DimensionMismatch unless every frame of Z is isotropic and of full rank."""
    Z = np.asarray(Z, dtype=complex)
    _check_stack_shape(Z)
    _checked_scale(Z, DimensionMismatch, "frame")
    _check_product(_mT(Z) @ omega(Z.shape[-2] // 2), Z, 0.0, DimensionMismatch, "frame",
                   "frame is not isotropic: ZᵀΩZ ≠ 0")
    _reject(~(np.linalg.svd(Z, compute_uv=False)[..., -1] > RANK_TOL), DimensionMismatch,
            "frame does not have full column rank")


def check_normalised(Z: np.ndarray) -> None:
    """Raise DimensionMismatch unless Z*ΩZ = 2i·Id for every frame of Z."""
    Z = np.asarray(Z, dtype=complex)
    _check_stack_shape(Z)
    _checked_scale(Z, DimensionMismatch, "frame")
    _check_product(_mH(Z) @ omega(Z.shape[-2] // 2), Z, 2j * np.eye(Z.shape[-1]),
                   DimensionMismatch, "frame", "frame is not normalised: Z*ΩZ ≠ 2i·Id")


def check_metric_pair(G: np.ndarray, J: np.ndarray) -> None:
    """Raise NotSymplecticMetric unless every (G, J) is a symmetric, symplectic,
    positive-definite metric with J = −ΩG and J² = −Id."""
    if G.ndim < 2 or G.shape[-2] != G.shape[-1] or J.shape != G.shape or G.shape[-1] % 2 != 0:
        raise DimensionMismatch("metric pair needs two equal 2n×2n matrices")
    n2 = G.shape[-1]
    scale = _checked_scale(G, NotSymplecticMetric, "G")
    om = omega(n2 // 2)
    _reject(_worst(G - _mT(G)) > TOL_FRAME * scale, NotSymplecticMetric, "G is not symmetric")
    _check_product(_mT(G) @ om, G, om, NotSymplecticMetric, "G",
                   "G is not symplectic: GᵀΩG ≠ Ω")
    _reject(np.linalg.eigvalsh(G)[..., 0] <= 0, NotSymplecticMetric, "G is not positive definite")
    _reject(_worst(J + om @ G) > TOL_FRAME * scale, NotSymplecticMetric, "J ≠ −ΩG")
    _check_product(J, J, -np.eye(n2), NotSymplecticMetric, "J", "J² ≠ −Id")


def gram_margin(gram: np.ndarray):
    """(λ_min, λ_min − POS_TOL·max(1, ‖gram‖)) of every Gram matrix of a stack."""
    min_eig = np.linalg.eigvalsh(gram)[..., 0]
    return min_eig, min_eig - POS_TOL * _scale(gram)


def check_positive_gram(gram: np.ndarray) -> np.ndarray:
    """λ_min of every Gram matrix (1/2i) Z*ΩZ of a stack; raises NotPositiveLagrangian
    when one has no positive margin (see gram_margin)."""
    min_eig, margin = gram_margin(gram)
    bad = margin <= 0
    if bad.any():
        worst = float(min_eig[bad][0])
        _reject(bad, NotPositiveLagrangian,
                f"Gram matrix not positive definite (min eigenvalue {worst:.3e})", min_eig=worst)
    return min_eig


@dataclass(frozen=True, eq=False)
class LagrangianFrame:
    """A 2n×n isotropic frame of full rank, from an array or another frame."""

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


@dataclass(frozen=True, eq=False)
class NormalisedFrame(LagrangianFrame):
    """A Lagrangian frame with Z*ΩZ = 2i·Id (hence a positive Lagrangian)."""

    def __post_init__(self):
        super().__post_init__()
        check_normalised(self.entries)

    @classmethod
    def checked(cls, entries: np.ndarray) -> "NormalisedFrame":
        """The frame over entries that check_lagrangian and check_normalised have
        already accepted, e.g. one slice of a checked stack; nothing is re-run."""
        frame = object.__new__(cls)
        object.__setattr__(frame, "entries", entries)
        return frame


@dataclass(frozen=True, eq=False)
class SiegelMatrix:
    """B = PQ⁻¹, complex symmetric; Im B ≻ 0 for positive Lagrangians."""

    B: np.ndarray
    im_min_eig: float

    def __post_init__(self):
        object.__setattr__(self, "B", np.asarray(self.B, dtype=complex))


def hermitian_inv_sqrt(A: np.ndarray) -> np.ndarray:
    """The unique Hermitian positive-definite A^{−1/2} of a Hermitian A ≻ 0
    (of every matrix of a stack)."""
    A = np.asarray(A, dtype=complex)
    scale = _scale(A)
    _reject(_worst(A - _mH(A)) > TOL_FRAME * scale, NotHermitian, "matrix is not Hermitian")
    A = 0.5 * (A + _mH(A))
    vals, vecs = np.linalg.eigh(A)
    bad = vals[..., 0] <= POS_TOL * scale
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


def normalise_frame(Z):
    """Return (ZN as NormalisedFrame, N) with N = ((1/2i) Z*ΩZ)^{−1/2}.

    Raises NotPositiveLagrangian when the Gram matrix is not positive
    definite, which is the breakdown signal at the positivity horizon.
    """
    entries = np.asarray(Z, dtype=complex)
    _check_frame_shape(entries)
    gram = gram_matrix(entries)
    check_positive_gram(gram)
    N = hermitian_inv_sqrt(gram)
    return NormalisedFrame(entries @ N), N


def siegel_b(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """B = PQ⁻¹, symmetrized post-hoc, of every block pair of a stack; raises
    SingularQ when cond(Q) exceeds COND_MAX."""
    _reject(np.linalg.cond(Q) > COND_MAX, SingularQ, "Q block is singular or too ill-conditioned")
    B = _mT(np.linalg.solve(_mT(Q), _mT(P)))
    return 0.5 * (B + _mT(B))


def siegel_matrix(Z) -> SiegelMatrix:
    """B = PQ⁻¹, symmetrized post-hoc; reports the smallest eigenvalue of Im B."""
    if isinstance(Z, LagrangianFrame):
        P, Q = Z.P, Z.Q
    else:
        entries = np.asarray(Z, dtype=complex)
        n = _check_frame_shape(entries)
        P, Q = entries[:n, :], entries[n:, :]
    B = siegel_b(P, Q)
    im_min = float(np.linalg.eigvalsh(0.5 * (B - B.conj().T) / 1j)[0])
    return SiegelMatrix(B=B, im_min_eig=im_min)


def frame_metric(Z: np.ndarray) -> np.ndarray:
    """G = Ωᵀ Re(ZZ*) Ω, symmetrized, of a normalised frame's entries (or a stack)."""
    om = omega(Z.shape[-1])
    G = om.T @ np.real(Z @ _mH(Z)) @ om
    return 0.5 * (G + _mT(G))


def frame_from_metric(G) -> NormalisedFrame:
    """The normalised frame Z = G^{−1/2}(Id; −i·Id) with metric G.

    A symmetric, positive, symplectic G has G⁻¹ = ΩᵀGΩ, so its positive
    square roots are symplectic too, and G^{−1/2} maps the frame (Id; −i·Id)
    of metric Id to one of metric G.
    """
    G = np.asarray(G, dtype=float)
    n2 = G.shape[0]
    if G.ndim != 2 or G.shape != (n2, n2) or n2 % 2 != 0:
        raise DimensionMismatch("metric must be a 2n×2n matrix")
    n = n2 // 2
    check_metric_pair(G, -omega(n) @ G)
    vals, vecs = np.linalg.eigh(G)
    root = (vecs / np.sqrt(vals)) @ vecs.T
    return NormalisedFrame(root @ np.vstack([np.eye(n), -1j * np.eye(n)]))

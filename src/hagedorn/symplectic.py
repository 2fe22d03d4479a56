"""Complex symplectic linear algebra for Lagrangian frames.

Conventions used throughout the package: phase-space vectors are ordered
z = (p, q) with the momentum block on top, the symplectic form is
Ω = [[0, −Id], [Id, 0]], and a frame Z stacks the blocks as Z = (P; Q).
A frame is normalised when Z*ΩZ = 2i·Id; its metric is G = Ωᵀ Re(ZZ*) Ω,
with J = −ΩG.  Algebra that only the checking side calls lives there: the
Hermitian pairing in swanson, the projections onto a frame in oracles.

Each structure is checked once, where it enters (Lasser & Lubich, Acta
Numerica 29 (2020), §3–4):

  check_lagrangian    a 2n×n frame (n ≥ 1) is isotropic, ZᵀΩZ = 0, of full rank
  check_normalised    the same, sharing one ZᵀΩ and one set of norms, and Z*ΩZ = 2i·Id
  check_positive_gram the Gram matrix (1/2i) Z*ΩZ has a positive margin (gram_margin)
  check_metric        G is symmetric, and ½(G + Gᵀ), which it returns, is
                      symplectic (GᵀΩG = Ω) and positive definite
  siegel_b            cond(Q) ≤ COND_MAX; its caller tests Im B ≻ 0

Nothing re-checks what one of these implies.  J = −ΩG is not checked: for
a symmetric G, J² + Id = Ω(GΩG − Ω) is GᵀΩG − Ω with its rows permuted,
held by check_metric to the same tolerances; every G built here is
symmetrised exactly, and a user's G is used as the ½(G + Gᵀ) checked.
hermitian_inv_sqrt only receives gram_matrix output, which is exactly
Hermitian and has passed gram_margin's floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NotPositiveLagrangian, NotSymplecticMetric, SingularQ

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


def _check_size(a: np.ndarray, error, what: str) -> None:
    """Raise error where an entry of a stack is not finite or above 2^500:
    past it a check's sums of 2n products of two entries, or the tolerances
    of _check_product, may overflow."""
    _require(np.abs(a) <= 2.0**500, error, f"{what} has an entry too large to check")


def _norms(a: np.ndarray, axis: int) -> np.ndarray:
    """The 2-norms of the rows (axis −1) or columns (axis −2) of every matrix of a stack."""
    return np.sqrt((np.abs(a) ** 2).sum(axis=axis))


def _check_product(product: np.ndarray, rows, columns, identity, error, what: str, message: str):
    """Raise error(message) unless product = a @ b equals identity (None for
    0) for every matrix of a stack, each entry (j, k) to TOL_FRAME·‖row j of
    a‖·‖column k of b‖ (rows and columns): the size of the products it sums,
    which bounds its rounding.  Where that tolerance reaches a nonzero entry
    of the identity, the check could not tell the entry from 0, so error
    reports the input too large to check."""
    tol = TOL_FRAME * rows[..., :, None] * columns[..., None, :]
    if identity is None:
        _require(np.abs(product) <= tol, error, message)
        return
    _require((identity == 0) | (tol < np.abs(identity)), error,
             f"{what} has an entry too large to check")
    _require(np.abs(product - identity) <= tol, error, message)


def _reject(bad, error, message: str, **details) -> None:
    """Raise error(message, **details) if any matrix of a stack is flagged bad,
    naming the first."""
    if np.ndim(bad) == 0:
        if bad:
            raise error(message, **details)
    elif bad.any():
        raise error(f"{message} (stack index {int(np.argmax(bad))})", **details)


def _require(ok, error, message: str) -> None:
    """_reject the matrices of a stack that hold an entry not flagged ok."""
    if not ok.all():
        _reject(~ok.all(axis=(-2, -1)), error, message)


def _shape_error(Z: np.ndarray) -> DimensionMismatch:
    return DimensionMismatch(f"frame must be a 2n×n matrix, got shape {Z.shape}")


def _check_frame_shape(Z: np.ndarray) -> int:
    if Z.ndim != 2:
        raise _shape_error(Z)
    return _check_stack_shape(Z)


def _check_stack_shape(Z: np.ndarray) -> int:
    """n of a stack of 2n×n frames, n ≥ 1."""
    if Z.ndim < 2 or Z.shape[-1] < 1 or Z.shape[-2] != 2 * Z.shape[-1]:
        raise _shape_error(Z)
    return Z.shape[-1]


# -- checks on one matrix or a stack of them (leading axes) ------------------
#
# The constructors below run them on their one input; propagation runs them
# once on a whole trajectory.  Tolerances and scales are per matrix.


def check_lagrangian(Z: np.ndarray) -> None:
    """Raise DimensionMismatch unless every frame of Z is isotropic and of full rank."""
    _check_isotropic(np.asarray(Z, dtype=complex))


def _check_isotropic(Z: np.ndarray):
    """check_lagrangian's shape, scale, isotropy and rank checks, in that
    order; returns ZᵀΩ with its row norms and the column norms of Z, which
    check_normalised reuses."""
    n = _check_stack_shape(Z)
    _check_size(Z, DimensionMismatch, "frame")
    ZtO = _mT(Z) @ omega(n)
    rows, columns = _norms(ZtO, -1), _norms(Z, -2)
    _check_product(ZtO @ Z, rows, columns, None, DimensionMismatch, "frame",
                   "frame is not isotropic: ZᵀΩZ ≠ 0")
    _reject(~(np.linalg.svd(Z, compute_uv=False)[..., -1] > RANK_TOL), DimensionMismatch,
            "frame does not have full column rank")
    return ZtO, rows, columns


def check_normalised(Z: np.ndarray) -> None:
    """Raise DimensionMismatch unless every frame of Z is isotropic, of full
    rank and has Z*ΩZ = 2i·Id.  Z*Ω is the conjugate of the isotropy check's
    ZᵀΩ (Ω is real), so both products share its row norms."""
    Z = np.asarray(Z, dtype=complex)
    ZtO, rows, columns = _check_isotropic(Z)
    _check_product(np.conj(ZtO) @ Z, rows, columns, 2j * np.eye(Z.shape[-1]),
                   DimensionMismatch, "frame", "frame is not normalised: Z*ΩZ ≠ 2i·Id")


def check_metric(G: np.ndarray) -> np.ndarray:
    """½(G + Gᵀ) of every G of a stack, the matrix eigh and J = −ΩG see;
    raises NotSymplecticMetric unless G is symmetric and ½(G + Gᵀ) is a
    symplectic (GᵀΩG = Ω), positive-definite metric."""
    if G.ndim < 2 or G.shape[-2] != G.shape[-1] or G.shape[-1] % 2 != 0 or G.shape[-1] < 2:
        raise DimensionMismatch("metric must be a 2n×2n matrix")
    _check_size(G, NotSymplecticMetric, "G")
    om = omega(G.shape[-1] // 2)
    _reject(_worst(G - _mT(G)) > TOL_FRAME * _scale(G), NotSymplecticMetric, "G is not symmetric")
    G = 0.5 * (G + _mT(G))
    GtO = _mT(G) @ om
    _check_product(GtO @ G, _norms(GtO, -1), _norms(G, -2), om, NotSymplecticMetric, "G",
                   "G is not symplectic: GᵀΩG ≠ Ω")
    _reject(np.linalg.eigvalsh(G)[..., 0] <= 0, NotSymplecticMetric, "G is not positive definite")
    return G


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
    _check = staticmethod(check_lagrangian)  # the one check of the entries

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2:
            raise _shape_error(entries)
        self._check(entries)

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

    _check = staticmethod(check_normalised)

    @classmethod
    def checked(cls, entries: np.ndarray) -> "NormalisedFrame":
        """The frame over entries that check_normalised has already accepted,
        e.g. one slice of a checked stack; nothing is re-run."""
        frame = object.__new__(cls)
        object.__setattr__(frame, "entries", entries)
        return frame


def hermitian_inv_sqrt(A: np.ndarray) -> np.ndarray:
    """The Hermitian positive-definite A^{−1/2} of every matrix of a stack.

    Nothing is checked here.  Each A must be exactly Hermitian with its
    smallest eigenvalue above POS_TOL·max(1, ‖A‖): both callers pass a
    gram_matrix that gram_margin (propagation._scan) or check_positive_gram
    (normalise_frame) has accepted.
    """
    vals, vecs = np.linalg.eigh(A)
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
    if G.ndim != 2:
        raise DimensionMismatch("metric must be a 2n×2n matrix")
    G = check_metric(G)
    n = G.shape[0] // 2
    vals, vecs = np.linalg.eigh(G)
    root = (vecs / np.sqrt(vals)) @ vecs.T
    return NormalisedFrame(root @ np.vstack([np.eye(n), -1j * np.eye(n)]))

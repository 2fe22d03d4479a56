"""Frame algebra: isotropy, normalization, projections, metric, Siegel form."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from hagedorn.errors import DimensionMismatch, NotPositiveLagrangian, NotSymplecticMetric, SingularQ
from hagedorn.oracles import projections
from hagedorn.swanson import L0, SwansonParams, ds_flow, hermitian_pairing
from hagedorn.symplectic import (
    LagrangianFrame,
    NormalisedFrame,
    check_lagrangian,
    check_metric,
    check_normalised,
    frame_from_metric,
    frame_metric,
    gram_matrix,
    hermitian_inv_sqrt,
    normalise_frame,
    omega,
    siegel_b,
)

STANDARD_1D = np.array([[1j], [1.0]])


def standard(n):
    return np.vstack([1j * np.eye(n), np.eye(n)])


def random_symplectic(rng, n):
    A = rng.standard_normal((2 * n, 2 * n))
    return expm(omega(n) @ (0.5 * (A + A.T)))


def random_unitary(rng, n):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    U, _ = np.linalg.qr(M)
    return U


def random_frame(rng, n):
    # real symplectic times unitary gauge preserves normalization
    Z = random_symplectic(rng, n) @ standard(n) @ random_unitary(rng, n)
    return NormalisedFrame(LagrangianFrame(Z))


# -- predicates ----------------------------------------------------------------

def test_is_isotropic_examples():
    check_lagrangian(STANDARD_1D)
    check_lagrangian(np.vstack([np.eye(2), -1j * np.eye(2)]))
    with pytest.raises(DimensionMismatch, match="isotropic"):
        check_lagrangian(np.vstack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])]))


def test_is_normalised_examples():
    check_normalised(STANDARD_1D)
    with pytest.raises(DimensionMismatch):
        check_normalised(np.array([[2j], [2.0]]))
    check_normalised(frame_from_metric(np.eye(2)).entries)


def test_lagrangian_frame_rejects_non_isotropic():
    bad = np.vstack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(DimensionMismatch):
        LagrangianFrame(bad)
    with pytest.raises(DimensionMismatch):
        NormalisedFrame(np.array([[2j], [2.0]]))


def test_normalised_frame_is_one_lagrangian_frame():
    entries = standard(2)
    for source in (entries, LagrangianFrame(entries)):
        frame = NormalisedFrame(source)
        assert isinstance(frame, LagrangianFrame)
        assert not hasattr(frame, "frame")
        assert np.array_equal(frame.entries, entries)
        assert np.array_equal(frame.Q, np.eye(2))
    checked = NormalisedFrame.checked(entries)
    assert isinstance(checked, LagrangianFrame) and checked.entries is entries


@pytest.mark.parametrize("shape", [(4, 1), (2, 0), (0, 0), (2,)], ids=str)
def test_frame_must_be_2n_by_n(shape):
    # a normalised 4×1 frame would split into a 1×1 P and a 3×1 Q
    entries = np.array([[1], [0], [-1j], [0]]) if shape == (4, 1) else np.zeros(shape)
    for make in (LagrangianFrame, NormalisedFrame, normalise_frame):
        with pytest.raises(DimensionMismatch, match="2n×n"):
            make(entries)


def test_rank_deficient_frame_rejected():
    Z = np.hstack([standard(2)[:, :1], standard(2)[:, :1]])
    with pytest.raises(DimensionMismatch):
        LagrangianFrame(Z)


# -- normalization -------------------------------------------------------------

def test_normalise_frame_identity_on_normalised():
    frame, N = normalise_frame(STANDARD_1D)
    assert np.allclose(N, np.eye(1), atol=1e-14)
    assert np.allclose(frame.entries, STANDARD_1D, atol=1e-14)


def test_normalise_frame_rescales():
    frame, N = normalise_frame(np.array([[2j], [2.0]]))
    assert np.allclose(N, [[0.5]], atol=1e-14)
    assert np.allclose(frame.entries, STANDARD_1D, atol=1e-14)


def test_normalise_frame_swanson_quarter_period():
    params = SwansonParams(omega0=1.0, delta=0.5)
    t = math.pi / (2 * params.omega)
    W = (ds_flow(params, t) @ L0).reshape(2, 1)
    _, N = normalise_frame(W)
    assert N[0, 0].real == pytest.approx(0.6 ** -0.5, rel=1e-12)
    assert abs(N[0, 0].imag) < 1e-14


def test_normalise_frame_raises_past_horizon():
    params = SwansonParams(omega0=0.5, delta=1.0)
    W = (ds_flow(params, 1.0) @ L0).reshape(2, 1)  # horizon is near 0.8155
    with pytest.raises(NotPositiveLagrangian) as excinfo:
        normalise_frame(W)
    assert excinfo.value.min_eig is not None and excinfo.value.min_eig <= 0


@given(st.integers(0, 10_000), st.sampled_from([1, 2]))
def test_normalise_frame_idempotent(seed, n):
    Z = random_frame(np.random.default_rng(seed), n)
    _, N = normalise_frame(Z.entries)
    assert np.max(np.abs(N - np.eye(n))) < 1e-10


# -- frame identities ----------------------------------------------------------

@given(st.integers(0, 10_000), st.sampled_from([1, 2]))
def test_four_frame_identities(seed, n):
    Z = random_frame(np.random.default_rng(seed), n).entries
    om = omega(n)
    assert np.max(np.abs(Z.T @ om @ Z)) < 1e-10
    assert np.max(np.abs(Z.conj().T @ om @ Z - 2j * np.eye(n))) < 1e-10
    assert np.max(np.abs(np.imag(Z @ Z.conj().T) + om)) < 1e-10
    square = np.real(Z @ Z.conj().T) @ om
    assert np.max(np.abs(square @ square + np.eye(2 * n))) < 1e-9


def test_gram_matrix_standard():
    assert np.allclose(gram_matrix(STANDARD_1D), np.eye(1), atol=1e-15)
    assert np.allclose(gram_matrix(2 * STANDARD_1D), 4 * np.eye(1), atol=1e-15)


def test_hermitian_pairing_matches_gram():
    z = STANDARD_1D[:, 0]
    assert complex(hermitian_pairing(z, z)) == pytest.approx(1.0)


# -- projections ---------------------------------------------------------------

@given(st.integers(0, 10_000), st.sampled_from([1, 2]))
def test_projection_identities(seed, n):
    rng = np.random.default_rng(seed)
    Z = random_frame(rng, n)
    pi_l, pi_lbar = projections(Z)
    ident = np.eye(2 * n)
    assert np.max(np.abs(pi_l + pi_lbar - ident)) < 1e-10
    assert np.max(np.abs(pi_l @ pi_l - pi_l)) < 1e-10
    assert np.max(np.abs(pi_l @ pi_lbar)) < 1e-10
    assert np.max(np.abs(pi_l @ Z.entries - Z.entries)) < 1e-10
    assert np.max(np.abs(pi_l @ np.conj(Z.entries))) < 1e-10
    # h-self-adjointness on random vectors
    u = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    v = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    lhs = complex(hermitian_pairing(pi_l @ u, v))
    rhs = complex(hermitian_pairing(u, pi_l @ v))
    assert lhs == pytest.approx(rhs, abs=1e-10)


@given(st.integers(0, 10_000), st.sampled_from([1, 2]))
def test_projection_from_complex_structure(seed, n):
    Z = random_frame(np.random.default_rng(seed), n)
    pi_l, _ = projections(Z)
    J = -omega(n) @ frame_metric(Z.entries)
    assert np.max(np.abs(pi_l - 0.5 * (np.eye(2 * n) + 1j * J))) < 1e-10


# -- Siegel matrix ---------------------------------------------------------------

def siegel(Z):
    n = Z.shape[1]
    return siegel_b(Z[:n], Z[n:])


def test_siegel_standard():
    B = siegel(STANDARD_1D)
    assert np.allclose(B, [[1j]], atol=1e-14)
    assert np.linalg.eigvalsh(B.imag)[0] == pytest.approx(1.0, abs=1e-14)


@given(st.integers(0, 10_000), st.sampled_from([1, 2]))
def test_siegel_gauge_invariance(seed, n):
    rng = np.random.default_rng(seed)
    Z = random_frame(rng, n).entries
    C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    C += 2 * np.eye(n)  # keep it comfortably invertible
    B = siegel(Z)
    assert np.max(np.abs(B - siegel(Z @ C))) < 1e-9
    assert np.linalg.eigvalsh(B.imag)[0] > 0


def test_siegel_positive_along_swanson_path():
    params = SwansonParams(omega0=1.0, delta=0.5)
    for t in np.linspace(0.0, 2 * math.pi / params.omega, 17):
        W = (ds_flow(params, t) @ L0).reshape(2, 1)
        assert np.linalg.eigvalsh(siegel(W).imag)[0] > 0


def test_siegel_singular_q():
    Z = np.vstack([np.eye(2), np.zeros((2, 2))])
    with pytest.raises(SingularQ):
        siegel(Z)


# -- metric and complex structure ------------------------------------------------

def test_metric_standard_frame():
    G = frame_metric(NormalisedFrame(LagrangianFrame(STANDARD_1D)).entries)
    assert np.allclose(G, np.eye(2), atol=1e-14)
    assert np.allclose(-omega(1) @ G, -omega(1), atol=1e-14)


@given(st.integers(0, 10_000), st.sampled_from([1, 2]))
def test_metric_unitary_gauge_equality(seed, n):
    rng = np.random.default_rng(seed)
    Z = random_frame(rng, n)
    U = random_unitary(rng, n)
    gauged = NormalisedFrame(LagrangianFrame(Z.entries @ U))
    G, G_gauged = frame_metric(Z.entries), frame_metric(gauged.entries)
    assert np.max(np.abs(G - G_gauged)) < 1e-12
    assert np.max(np.abs(-omega(n) @ G - (-omega(n) @ G_gauged))) < 1e-12


def test_metric_pair_validation():
    with pytest.raises(NotSymplecticMetric):
        check_metric(np.diag([2.0, 2.0]))


# -- entries too large to check ---------------------------------------------------
#
# Each check compares an entry of a product with TOL_FRAME times the norms of
# the row and column it pairs.  Such a tolerance overflows to inf near 1e154,
# so an entry above 2^500 is rejected instead; and where it reaches a nonzero
# entry of the identity tested (2 for Z*ΩZ = 2i·Id, 1 for GᵀΩG = Ω), which it
# could no longer tell from 0, the input is rejected too.


def test_lagrangian_check_rejects_entries_too_large_to_check():
    # not isotropic: ZᵀΩZ holds ±5e300 off the diagonal
    with pytest.raises(DimensionMismatch, match="too large to check"):
        LagrangianFrame([[1e300, 0], [0, 1], [0, 5], [1, 0]])
    check_lagrangian(np.array([[2.0**500], [1.0]]))
    with pytest.raises(DimensionMismatch, match=r"too large to check \(stack index 1\)"):
        check_lagrangian(np.stack([STANDARD_1D, np.array([[2.0**501], [1.0]])]))


def test_normalised_check_rejects_entries_too_large_to_check():
    # Z*ΩZ = 2e200i, not 2i
    with pytest.raises(DimensionMismatch, match="too large to check"):
        check_normalised(np.array([[1e200j], [1.0]]))


def test_metric_check_rejects_entries_too_large_to_check():
    G = np.diag([1e200, 1.0])  # GᵀΩG = 1e200·Ω
    with pytest.raises(NotSymplecticMetric, match="too large to check"):
        check_metric(G)
    G = np.diag([2.0**400, 2.0**-400])  # symplectic, and within the bound
    check_metric(G)


BADLY_SCALED = np.array([[1e100, 0], [0, 1], [0, 5], [1, 0]], dtype=complex)


def test_lagrangian_check_scales_each_entry_by_its_two_columns():
    # ZᵀΩZ holds ±(5e100 − 1) against columns of norms 1e100 and 5.1
    with pytest.raises(DimensionMismatch, match="not isotropic"):
        LagrangianFrame(BADLY_SCALED)
    for check in (NormalisedFrame, check_normalised):
        with pytest.raises(DimensionMismatch, match="not isotropic"):
            check(BADLY_SCALED)
    # isotropic, with columns of norms 1e100 and 1
    check_lagrangian(np.array([[1e100, 0], [0, 1], [0, 0], [0, 0]], dtype=complex))


def test_normalised_check_rejects_a_tolerance_that_reaches_2():
    # isotropic (n = 1) and real, so Z*ΩZ is 0, not 2i, and TOL_FRAME·|z|² ≈ 2.25
    with pytest.raises(DimensionMismatch, match="too large to check"):
        check_normalised(np.array([[1.5e5], [1.0]]))
    # normalised, but TOL_FRAME·|z|² = 2.25 could not tell Z*ΩZ from 0
    with pytest.raises(DimensionMismatch, match="too large to check"):
        check_normalised(np.array([[1.5e5j], [1 / 1.5e5]]))
    check_normalised(np.array([[1e4j], [1e-4]]))


def test_metric_check_rejects_a_tolerance_that_reaches_1():
    # GᵀΩG = 1e100·Ω
    G = np.diag([1e100, 1.0])
    with pytest.raises(NotSymplecticMetric, match="too large to check"):
        check_metric(G)
    # symplectic, with ‖g_1‖‖g_2‖ = 1e10: the tolerance of GᵀΩG's entry 1 reaches it
    G = np.diag([1e10, 1.0])
    with pytest.raises(NotSymplecticMetric, match="too large to check"):
        check_metric(G)


# -- frame from metric -----------------------------------------------------------

def test_frame_from_metric_identity():
    frame = frame_from_metric(np.eye(2))
    check_normalised(frame.entries)
    assert np.allclose(frame_metric(frame.entries), np.eye(2), atol=1e-12)


def test_frame_from_metric_of_the_identity_is_l0():
    # G^{−1/2}(Id; −i·Id) with G = Id is the paper's l₀ = (1; −i)
    assert np.array_equal(frame_from_metric(np.eye(2)).entries, L0.reshape(2, 1))
    assert np.array_equal(frame_from_metric(np.eye(4)).entries, np.vstack([np.eye(2), -1j * np.eye(2)]))


def test_frame_from_metric_squeezed():
    frame = frame_from_metric(np.diag([4.0, 0.25]))
    assert np.allclose(frame.entries, [[0.5], [-2j]], atol=1e-12)


def test_a_nearly_symmetric_metric_is_used_as_its_symmetric_part():
    # an antisymmetric part inside check_metric's tolerance passes, and the
    # frame follows ½(G + Gᵀ), not the lower triangle that eigh would read
    G = np.diag([4.0, 0.25]) + np.array([[0.0, 4e-11], [-4e-11, 0.0]])
    assert np.array_equal(check_metric(G), np.diag([4.0, 0.25]))
    back = frame_metric(frame_from_metric(G).entries)
    assert np.max(np.abs(back - 0.5 * (G + G.T))) < 1e-15


@given(st.integers(0, 10_000), st.sampled_from([1, 2]))
def test_frame_from_metric_round_trip(seed, n):
    S = random_symplectic(np.random.default_rng(seed), n)
    G = S.T @ S
    frame = frame_from_metric(G)
    back = frame_metric(frame.entries)
    assert np.max(np.abs(back - G)) < 1e-10 * max(1.0, np.max(np.abs(G)))


def test_frame_from_metric_rejects_invalid():
    with pytest.raises(NotSymplecticMetric):
        frame_from_metric(np.diag([2.0, 2.0]))  # not symplectic
    with pytest.raises(NotSymplecticMetric):
        frame_from_metric(np.array([[1.0, 0.2], [0.0, 1.0]]))  # not symmetric
    for shape in [(3, 3), (0, 0), (2, 4), (2,)]:
        with pytest.raises(DimensionMismatch, match="2n×2n"):
            frame_from_metric(np.ones(shape))


# -- Hermitian inverse square root -----------------------------------------------

def test_hermitian_inv_sqrt_examples():
    assert np.allclose(hermitian_inv_sqrt(np.eye(2)), np.eye(2), atol=1e-14)
    assert np.allclose(
        hermitian_inv_sqrt(np.diag([4.0, 9.0])), np.diag([0.5, 1 / 3]), atol=1e-14
    )


def test_hermitian_inv_sqrt_residual(rng):
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    A = M @ M.conj().T + np.eye(4)
    R = hermitian_inv_sqrt(A)
    assert np.max(np.abs(R @ A @ R - np.eye(4))) < 1e-10
    assert np.max(np.abs(R - R.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(R)[0] > 0


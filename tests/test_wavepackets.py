"""Basis function evaluation, orthonormality, and expansion coefficients."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from hagedorn.errors import DimensionMismatch, GridMismatch, SingularC
from hagedorn.oracles import apply_lowering, expansion_overlap
from hagedorn.symplectic import LagrangianFrame, NormalisedFrame, omega
from hagedorn.wavepackets import (
    Grid,
    WavepacketParams,
    eval_excited,
    eval_ground,
    grid_inner,
    grid_norm,
    write_field_csv,
)

STANDARD_1D = NormalisedFrame(LagrangianFrame(np.array([[1j], [1.0]])))
GRID_1D = Grid(bounds=[(-10.0, 10.0)], counts=[1024])


def standard_params(eps=1.0):
    return WavepacketParams(frame=STANDARD_1D, center=np.zeros(2), eps=eps)


def squeezed_frame_2d():
    A = np.array(
        [
            [0.3, 0.1, 0.0, 0.0],
            [0.1, -0.2, 0.0, 0.0],
            [0.0, 0.0, 0.3, 0.1],
            [0.0, 0.0, 0.1, -0.2],
        ]
    )
    S = expm(omega(2) @ (0.5 * (A + A.T)))
    return NormalisedFrame(LagrangianFrame(S @ np.vstack([1j * np.eye(2), np.eye(2)])))


# -- grid type -------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(DimensionMismatch):
        Grid(bounds=[(0.0, 1.0)], counts=[1])
    with pytest.raises(DimensionMismatch):
        Grid(bounds=[(1.0, 0.0)], counts=[16])
    with pytest.raises(DimensionMismatch):
        Grid(bounds=[(0.0, 1.0)] * 3, counts=[4, 4, 4])


def test_grid_weights_are_trapezoidal():
    grid = Grid(bounds=[(0.0, 1.0)], counts=[5])
    assert np.allclose(grid.weights(), [0.125, 0.25, 0.25, 0.25, 0.125])


def test_grid_weights_are_built_once_and_read_only():
    grid = Grid(bounds=[(0.0, 1.0), (-2.0, 2.0)], counts=[5, 9])
    w = grid.weights()
    assert grid.weights() is w
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 1.0
    outer = np.multiply.outer([0.125, 0.25, 0.25, 0.25, 0.125], np.r_[0.25, [0.5] * 7, 0.25])
    assert np.array_equal(w, outer)
    # the cached array is not part of the grid's value
    assert grid == Grid(bounds=[(0.0, 1.0), (-2.0, 2.0)], counts=[5, 9])
    assert hash(grid) == hash(Grid(bounds=[(0.0, 1.0), (-2.0, 2.0)], counts=[5, 9]))


def test_grid_inner_shape_check():
    f = np.zeros(GRID_1D.counts[0])
    with pytest.raises(GridMismatch):
        grid_inner(f[:-1], f, GRID_1D)


# -- ground state ----------------------------------------------------------------

def test_ground_standard_values_and_norm():
    field = eval_ground(standard_params(), GRID_1D)
    x = GRID_1D.axes()[0]
    expected = math.pi ** -0.25 * np.exp(-0.5 * x**2)
    assert np.max(np.abs(field - expected)) < 1e-12
    assert grid_norm(field, GRID_1D) == pytest.approx(1.0, abs=1e-8)


def test_ground_gauge_scaling(rng):
    # only unitary C keeps the frame normalised, so the (det C)^{-1/2} scaling
    # is grid-testable for phases (n=1) and random unitaries (n=2)
    base = eval_ground(standard_params(), GRID_1D)
    theta = 0.7
    U1 = np.array([[np.exp(1j * theta)]])
    gauged_field = eval_ground(
        WavepacketParams(
            frame=NormalisedFrame(LagrangianFrame(STANDARD_1D.entries @ U1)),
            center=np.zeros(2),
            eps=1.0,
        ),
        GRID_1D,
    )
    assert np.max(np.abs(gauged_field - np.exp(-0.5j * theta) * base)) < 1e-10

    Z = squeezed_frame_2d()
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    U2, _ = np.linalg.qr(M)
    grid = Grid(bounds=[(-9.0, 9.0), (-9.0, 9.0)], counts=[128, 128])
    center = np.array([0.1, 0.0, 0.2, -0.1])
    base2 = eval_ground(WavepacketParams(frame=Z, center=center, eps=1.0), grid)
    gauged2 = eval_ground(
        WavepacketParams(
            frame=NormalisedFrame(LagrangianFrame(Z.entries @ U2)),
            center=center,
            eps=1.0,
        ),
        grid,
    )
    scale = np.exp(-0.5 * np.log(complex(np.linalg.det(U2))))
    ratio = gauged2 / (scale * base2)
    # principal branches of det(QU) and det(Q)det(U) may sit on opposite
    # sides of the cut, which flips the square root's sign
    sign = 1.0 if abs(ratio.flat[0] - 1.0) < abs(ratio.flat[0] + 1.0) else -1.0
    assert np.max(np.abs(gauged2 - sign * scale * base2)) < 1e-10


def test_ground_translated_packet_peak_and_momentum():
    eps = 0.1
    grid = Grid(bounds=[(-2.0, 6.0)], counts=[2048])
    params = WavepacketParams(frame=STANDARD_1D, center=np.array([1.0, 2.0]), eps=eps)
    field = eval_ground(params, grid)
    x = grid.axes()[0]
    peak = x[int(np.argmax(np.abs(field)))]
    assert abs(peak - 2.0) <= grid.spacings()[0]
    # local phase gradient at the center is p/eps: the Gaussian factor is even
    # around q, so f(q+h)/f(q−h) = exp(2i p h / eps)
    idx = int(np.argmin(np.abs(x - 2.0)))
    h = x[idx + 1] - x[idx]
    ratio = field[idx + 1] / field[idx - 1]
    assert np.angle(ratio) == pytest.approx(2 * 1.0 * h / eps, rel=1e-9)


def test_ground_norm_across_eps():
    for eps in (0.1, 1.0, 2.5):
        field = eval_ground(standard_params(eps), GRID_1D)
        assert grid_norm(field, GRID_1D) == pytest.approx(1.0, abs=1e-8)


# -- excited states ----------------------------------------------------------------

def test_excited_first_hermite():
    field = eval_excited(standard_params(), (1,), GRID_1D)
    x = GRID_1D.axes()[0]
    expected = math.pi ** -0.25 * math.sqrt(2.0) * x * np.exp(-0.5 * x**2)
    assert np.max(np.abs(field - expected)) < 1e-12
    assert grid_norm(field, GRID_1D) == pytest.approx(1.0, abs=1e-8)


def test_orthonormality_1d():
    fields = [eval_excited(standard_params(), (k,), GRID_1D) for k in range(5)]
    for a, fa in enumerate(fields):
        for b, fb in enumerate(fields):
            val = grid_inner(fa, fb, GRID_1D)
            assert abs(val - (1.0 if a == b else 0.0)) < 1e-6


def test_orthonormality_2d_squeezed():
    grid = Grid(bounds=[(-9.0, 9.0), (-9.0, 9.0)], counts=[384, 384])
    params = WavepacketParams(
        frame=squeezed_frame_2d(), center=np.array([0.1, 0.0, 0.2, -0.1]), eps=1.0
    )
    idx = [(i, j) for i in range(5) for j in range(5) if i + j <= 4]
    fields = {a: eval_excited(params, a, grid) for a in idx}
    for a in idx:
        for b in idx:
            val = grid_inner(fields[a], fields[b], grid)
            assert abs(val - (1.0 if a == b else 0.0)) < 1e-6


def test_excited_alpha_cap():
    with pytest.raises(DimensionMismatch):
        eval_excited(standard_params(), (40,), GRID_1D)


# -- lowering operator ---------------------------------------------------------------

def test_lowering_annihilates_ground():
    # second-order finite differences: residual must be small and shrink by
    # about 4x when the grid is refined
    residuals = []
    for count in (1024, 2048):
        grid = Grid(bounds=[(-10.0, 10.0)], counts=[count])
        params = standard_params()
        field = eval_ground(params, grid)
        residuals.append(grid_norm(apply_lowering(params, field, grid), grid))
    assert residuals[0] < 1e-4
    assert residuals[0] / residuals[1] > 3.5


def test_lowering_maps_excited_down():
    # A phi_1 = phi_0 for the standard frame
    grid = Grid(bounds=[(-10.0, 10.0)], counts=[2048])
    params = standard_params()
    phi1 = eval_excited(params, (1,), grid)
    phi0 = eval_ground(params, grid)
    lowered = apply_lowering(params, phi1, grid)
    assert grid_norm(lowered - phi0, grid) < 1e-4


# -- expansion coefficients ------------------------------------------------------------

def test_expansion_overlap_identity_gauge():
    for a in range(4):
        for b in range(4):
            val = expansion_overlap(STANDARD_1D, np.eye(1), (a,), (b,))
            assert abs(val - (1.0 if a == b else 0.0)) < 1e-14


def test_expansion_overlap_scalar_example():
    val = expansion_overlap(STANDARD_1D, np.array([[2.0]]), (1,), (1,))
    assert val == pytest.approx(math.sqrt(2.0), abs=1e-14)
    # |alpha| != |beta| gives an empty transport set
    assert expansion_overlap(STANDARD_1D, np.array([[2.0]]), (1,), (2,)) == 0j


def test_expansion_overlap_rejects_singular():
    with pytest.raises(SingularC):
        expansion_overlap(STANDARD_1D, np.array([[0.0]]), (1,), (1,))


def test_expansion_overlap_vs_quadrature_1d():
    theta = 0.7
    U = np.array([[np.exp(1j * theta)]])
    gauged = NormalisedFrame(LagrangianFrame(STANDARD_1D.entries @ U))
    params = standard_params()
    params_gauged = WavepacketParams(frame=gauged, center=np.zeros(2), eps=1.0)
    for a in range(4):
        fa = eval_excited(params, (a,), GRID_1D)
        for b in range(4):
            fb = eval_excited(params_gauged, (b,), GRID_1D)
            quad = np.conj(grid_inner(fa, fb, GRID_1D))  # <phi_b(ZU), phi_a(Z)>
            pred = expansion_overlap(STANDARD_1D, U, (a,), (b,))
            assert abs(quad - pred) < 1e-6


def test_expansion_overlap_vs_quadrature_2d_unitary(rng):
    Z = squeezed_frame_2d()
    M = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    U, _ = np.linalg.qr(M)
    grid = Grid(bounds=[(-9.0, 9.0), (-9.0, 9.0)], counts=[384, 384])
    center = np.zeros(4)
    params = WavepacketParams(frame=Z, center=center, eps=1.0)
    gauged = WavepacketParams(
        frame=NormalisedFrame(LagrangianFrame(Z.entries @ U)), center=center, eps=1.0
    )
    idx = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
    fields = {a: eval_excited(params, a, grid) for a in idx}
    fields_gauged = {b: eval_excited(gauged, b, grid) for b in idx}
    for a in idx:
        for b in idx:
            quad = np.conj(grid_inner(fields[a], fields_gauged[b], grid))
            pred = expansion_overlap(Z, U, a, b)
            assert abs(quad - pred) < 1e-6
    # degree-2 block: basis change between two orthonormal families is unitary
    block = [(2, 0), (1, 1), (0, 2)]
    gram = np.array([[expansion_overlap(Z, U, a, b) for b in block] for a in block])
    assert np.max(np.abs(gram @ gram.conj().T - np.eye(3))) < 1e-8


# -- snapshots -------------------------------------------------------------------------

def test_write_field_csv_round_trip(tmp_path):
    grid = Grid(bounds=[(-1.0, 1.0)], counts=[9])
    field = eval_ground(
        WavepacketParams(frame=STANDARD_1D, center=np.zeros(2), eps=1.0), grid
    )
    path = tmp_path / "snapshot.csv"
    write_field_csv(field, grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 10
    x, re, im = (np.array(v) for v in zip(*(map(float, ln.split(",")) for ln in lines[1:])))
    assert np.allclose(x, grid.axes()[0])
    assert np.allclose(re + 1j * im, field)


def test_write_field_csv_shape_check(tmp_path):
    grid = Grid(bounds=[(-1.0, 1.0)], counts=[9])
    with pytest.raises(GridMismatch):
        write_field_csv(np.zeros(8), grid, tmp_path / "bad.csv")

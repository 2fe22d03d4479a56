"""Closed forms for the shifted-oscillator family with imaginary coupling."""

import math

import numpy as np
import pytest

from hagedorn.errors import DimensionMismatch, OutsideHorizon
from hagedorn.propagation import QuadraticHamiltonian, flow
from hagedorn.swanson import (
    L0,
    SwansonParams,
    ds_flow,
    ds_norm,
    ds_norms,
    ds_positivity_time,
    ds_scalars,
)
from hagedorn import symplectic
from hagedorn.symplectic import omega

REFERENCE = SwansonParams(omega0=1.0, delta=0.5)
T_STAR = math.pi / (2 * REFERENCE.omega)


def test_params_validation():
    assert REFERENCE.omega == pytest.approx(math.sqrt(1.25), abs=0)
    with pytest.raises(DimensionMismatch):
        SwansonParams(omega0=0.0, delta=1.0)
    with pytest.raises(DimensionMismatch):
        SwansonParams(omega0=1.0, delta=-0.1)
    with pytest.raises(DimensionMismatch):
        SwansonParams(omega0=math.inf, delta=1.0)


def test_matrix_layout():
    H = REFERENCE.matrix()
    assert np.array_equal(H, H.T)
    assert H[0, 0] == 1.0 and H[1, 1] == 1.0
    assert H[0, 1] == -0.5j


def test_flow_basics():
    assert np.array_equal(ds_flow(REFERENCE, 0.0), np.eye(2))
    # vanishing coupling: plain rotation at frequency omega0
    tiny = SwansonParams(omega0=1.0, delta=1e-12)
    S = ds_flow(tiny, math.pi / 2)
    assert np.max(np.abs(S - np.array([[0.0, -1.0], [1.0, 0.0]]))) < 1e-9


def test_flow_matches_generic_integrator():
    ham = QuadraticHamiltonian.constant(REFERENCE.matrix())
    for t in (0.3, 1.0, 2.2):
        assert np.max(np.abs(ds_flow(REFERENCE, t) - flow(ham, 0.0, t))) < 1e-9


def test_flow_is_symplectic():
    om = omega(1)
    for t in (0.4, 1.7, 3.0):
        S = ds_flow(REFERENCE, t)
        assert np.max(np.abs(S.T @ om @ S - om)) < 1e-14


def test_positivity_time_cases():
    assert ds_positivity_time(REFERENCE) == math.inf
    strong = SwansonParams(omega0=0.5, delta=1.0)
    expected = math.acos(-0.25) / (2 * strong.omega)
    assert ds_positivity_time(strong) == pytest.approx(expected, abs=1e-15)
    assert ds_positivity_time(strong) == pytest.approx(0.8154835185180084, abs=1e-12)
    critical = SwansonParams(omega0=1.0, delta=1.0)
    assert ds_positivity_time(critical) == pytest.approx(math.pi / (2 * math.sqrt(2)), abs=1e-15)


def test_scalars_at_time_zero():
    sc = ds_scalars(REFERENCE, 0.0)
    assert sc.n == 1.0
    assert abs(sc.beta) < 1e-15
    assert sc.m == 0.0
    assert np.max(np.abs(sc.l.entries[:, 0] - L0)) < 1e-15
    assert np.max(np.abs(sc.metric - np.eye(2))) < 1e-15


def test_closed_form_metric_is_independent_of_the_frame_metric(monkeypatch):
    # the closed-form metric must not come from the formula the pipeline uses
    def refuse(Z):
        raise AssertionError("frame_metric called")

    monkeypatch.setattr(symplectic, "frame_metric", refuse)
    for t in (0.0, 0.4, T_STAR):
        metric = ds_scalars(REFERENCE, t).metric
        assert metric.shape == (2, 2)
        assert np.max(np.abs(metric.T @ omega(1) @ metric - omega(1))) < 1e-12


def test_scalars_at_quarter_period():
    sc = ds_scalars(REFERENCE, T_STAR)
    assert math.exp(sc.beta) == pytest.approx(0.6**-0.25, rel=1e-12)
    assert sc.n == pytest.approx(0.6**-0.5, rel=1e-12)
    assert sc.m == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_scalars_hermitian_limit():
    tiny = SwansonParams(omega0=1.0, delta=1e-8)
    sc = ds_scalars(tiny, 1.3)
    assert abs(sc.n - 1.0) < 1e-12
    assert abs(sc.beta) < 1e-12
    assert abs(sc.m) < 1e-7


def test_scalars_refuse_horizon():
    strong = SwansonParams(omega0=0.5, delta=1.0)
    with pytest.raises(OutsideHorizon):
        ds_scalars(strong, 0.9)
    with pytest.raises(OutsideHorizon):
        ds_scalars(strong, ds_positivity_time(strong))


def test_norm_low_orders_reduce_to_scalars():
    for t in (0.25, 0.8, 1.4):
        sc = ds_scalars(REFERENCE, t)
        gain = math.exp(sc.beta)
        assert ds_norm(REFERENCE, 0, t) == pytest.approx(gain, abs=1e-12)
        assert ds_norm(REFERENCE, 1, t) == pytest.approx(gain * sc.n, abs=1e-12)
        expected2 = gain * math.sqrt(sc.n**4 + abs(sc.m) ** 2 / 2)
        assert ds_norm(REFERENCE, 2, t) == pytest.approx(expected2, abs=1e-12)


def test_norm_spot_value():
    assert ds_norm(REFERENCE, 2, T_STAR) == pytest.approx(2.175694443627433, rel=1e-9)


def test_norm_rejects_bad_order():
    with pytest.raises(DimensionMismatch):
        ds_norm(REFERENCE, -1, 0.5)
    with pytest.raises(DimensionMismatch):
        ds_norm(REFERENCE, 33, 0.5)


def test_norms_build_the_scalars_once_per_time(monkeypatch):
    from hagedorn import swanson

    # n_t, β_t and m_t once; the frame and metric of ds_scalars never
    built, frames = [], []
    real = swanson._n_beta_m
    monkeypatch.setattr(swanson, "_n_beta_m", lambda *args: built.append(args) or real(*args))
    monkeypatch.setattr(swanson, "ds_scalars", lambda *args: frames.append(args))
    ks = [0, 3, 1, 8, 3]
    norms = ds_norms(REFERENCE, ks, 0.9)
    assert len(built) == 1 and frames == []
    monkeypatch.undo()
    assert norms == [ds_norm(REFERENCE, k, 0.9) for k in ks]
    # the same n, β and m as ds_scalars, bit for bit
    scalars = ds_scalars(REFERENCE, 0.9)
    assert real(REFERENCE, 0.9) == (scalars.n, scalars.beta, scalars.m)
    # a bad order anywhere in the list is rejected before anything is built
    built.clear()
    monkeypatch.setattr(swanson, "_n_beta_m", lambda *args: built.append(args) or real(*args))
    with pytest.raises(DimensionMismatch):
        ds_norms(REFERENCE, [0, 33], 0.9)
    assert built == []


def test_norm_deviation_grows_with_order():
    devs = [abs(ds_norm(REFERENCE, k, T_STAR) - 1.0) for k in range(3)]
    assert devs[1] >= devs[0]
    assert devs[2] >= devs[1]


def test_scalars_are_periodic():
    # beta, n and |m| all repeat with half the flow period
    half = math.pi / REFERENCE.omega
    for t in (0.2, 0.7, 1.1):
        a = ds_scalars(REFERENCE, t)
        b = ds_scalars(REFERENCE, t + half)
        assert abs(a.beta - b.beta) < 1e-12
        assert abs(a.n - b.n) < 1e-12
        assert abs(abs(a.m) - abs(b.m)) < 1e-12

"""Acceptance gate: one test per release criterion, one printed verdict each."""

import math
import time

import numpy as np
from scipy.linalg import expm

from hagedorn.gridsolver import discretize_hamiltonian, propagate_grid
from hagedorn.oracles import (
    expansion_overlap,
    number_operator_check,
    poly_gradient,
    projections,
    thawed_gaussian,
)
from hagedorn.polynomials import poly_recursion
from hagedorn.propagation import (
    QuadraticHamiltonian,
    evolved_state_on_grid,
    hagedorn_coefficients,
    positivity_horizon,
    propagate,
)
from hagedorn.swanson import L0, SwansonParams, ds_norm, ds_positivity_time, ds_scalars
from hagedorn.symplectic import (
    LagrangianFrame,
    NormalisedFrame,
    frame_from_metric,
    frame_metric,
    omega,
    siegel_b,
)
from hagedorn.wavepackets import (
    Grid,
    WavepacketParams,
    eval_excited,
    grid_inner,
    grid_norm,
)

DS = SwansonParams(omega0=1.0, delta=0.5)
DS_HAM = QuadraticHamiltonian.constant(DS.matrix())
L0_FRAME = NormalisedFrame(LagrangianFrame(L0.reshape(2, 1)))
T_STAR = math.pi / (2 * DS.omega)
PERIOD = 2 * math.pi / DS.omega
SEED = 20260818


def report(name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} - {detail}")


def standard(n):
    return NormalisedFrame(LagrangianFrame(np.vstack([1j * np.eye(n), np.eye(n)])))


def random_symplectic(rng, n):
    A = rng.standard_normal((2 * n, 2 * n))
    return expm(omega(n) @ (0.5 * (A + A.T)))


def random_unitary(rng, n):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    U, _ = np.linalg.qr(M)
    return U


def test_criterion_1_norm_curves():
    start = time.perf_counter()
    times = np.unique(np.append(np.linspace(0.0, PERIOD, 200), T_STAR))
    states = propagate(L0_FRAME, np.zeros(2), DS_HAM, times)
    worst = 0.0
    spots = {}
    for t, state in zip(times, states):
        for k in (0, 1, 2):
            pipeline = hagedorn_coefficients(state, [k]).norm()
            worst = max(worst, abs(pipeline - ds_norm(DS, k, t)))
            if t == T_STAR:
                spots[k] = pipeline
    elapsed = time.perf_counter() - start
    spot_errs = (
        abs(spots[0] - 0.6**-0.25),
        abs(spots[1] - 0.6**-0.75),
        abs(spots[2] - 2.17569),
    )
    passed = (
        worst <= 1e-8
        and spot_errs[0] <= 1e-8
        and spot_errs[1] <= 1e-8
        and spot_errs[2] <= 1e-4
        and elapsed < 10.0
    )
    report(
        "norm curves",
        passed,
        f"max |pipeline - closed form| {worst:.3e} over 200 samples, "
        f"quarter-period spots ({spots[0]:.6f}, {spots[1]:.6f}, {spots[2]:.6f}), "
        f"{elapsed:.1f}s",
    )
    assert elapsed < 10.0
    assert worst <= 1e-8
    assert spot_errs[0] <= 1e-8 and spot_errs[1] <= 1e-8 and spot_errs[2] <= 1e-4


def test_criterion_2_grid_oracle_agreement():
    start = time.perf_counter()
    grid = Grid(bounds=[(-12.0, 12.0)], counts=[1024])
    oracle_times = [0.25, 0.5, 1.0, T_STAR]
    operator = discretize_hamiltonian(DS.matrix(), 1.0, grid)
    states = propagate(L0_FRAME, np.zeros(2), DS_HAM, np.array(oracle_times))
    worst_fid = 1.0
    worst_norm = 0.0
    for k in (0, 1, 2, 3):
        psi = eval_excited(
            WavepacketParams(frame=L0_FRAME, center=np.zeros(2), eps=1.0), [k], grid
        )
        t_prev = 0.0
        for t, state in zip(oracle_times, states):
            psi = propagate_grid(psi, operator, t - t_prev, dt=1e-3, grid_tol=1e-5).field
            t_prev = t
            predicted = evolved_state_on_grid(state, [k], 1.0, grid)
            fid = abs(grid_inner(psi, predicted, grid)) / (
                grid_norm(psi, grid) * grid_norm(predicted, grid)
            )
            worst_fid = min(worst_fid, fid)
            worst_norm = max(
                worst_norm,
                abs(grid_norm(psi, grid) - hagedorn_coefficients(state, [k]).norm()),
            )
    elapsed = time.perf_counter() - start
    passed = elapsed < 120.0 and worst_fid >= 1 - 1e-5 and worst_norm <= 1e-5
    report(
        "grid-oracle agreement",
        passed,
        f"min fidelity {worst_fid:.12f}, max norm deviation {worst_norm:.3e}, "
        f"{elapsed:.0f}s",
    )
    assert elapsed < 120.0
    assert worst_fid >= 1 - 1e-5
    assert worst_norm <= 1e-5


def test_criterion_3_positivity_horizon():
    start = time.perf_counter()
    params = SwansonParams(omega0=0.5, delta=1.0)
    ham = QuadraticHamiltonian.constant(params.matrix())
    closed = math.acos(-0.25) / (2 * params.omega)
    detected = positivity_horizon(L0_FRAME, ham, 2.0)
    elapsed = time.perf_counter() - start
    passed = abs(detected - closed) <= 1e-6 and elapsed < 5.0
    report(
        "positivity horizon",
        passed,
        f"detected {detected:.9f} vs closed form {closed:.9f}, "
        f"|diff| {abs(detected - closed):.3e}, {elapsed:.1f}s",
    )
    assert elapsed < 5.0
    assert abs(detected - closed) <= 1e-6
    assert abs(ds_positivity_time(params) - closed) <= 1e-12


def test_criterion_4_hermitian_degeneration():
    rng = np.random.default_rng(SEED)
    times = np.linspace(0.0, 5.0, 26)
    cases = [(1, np.eye(2))]
    for n in (1, 2):
        for _ in range(3):
            A = rng.standard_normal((2 * n, 2 * n))
            cases.append((n, A @ A.T / (2 * n) + 0.5 * np.eye(2 * n)))
    worst = 0.0
    for n, H in cases:
        ham = QuadraticHamiltonian.constant(H)
        states = propagate(standard(n), np.zeros(2 * n), ham, times)
        for s in states:
            worst = max(worst, abs(s.beta))
            worst = max(worst, float(np.max(np.abs(s.N - np.eye(n)))))
            worst = max(worst, float(np.max(np.abs(s.M))))
        alpha = [2] if n == 1 else [1, 1]
        exp = hagedorn_coefficients(states[-1], alpha)
        for key, c in exp.coefficients.items():
            target = 1.0 if key == tuple(alpha) else 0.0
            worst = max(worst, abs(c - target))
    passed = worst <= 1e-9
    report(
        "hermitian degeneration",
        passed,
        f"max deviation {worst:.3e} over {len(cases)} real symmetric cases, t in [0, 5]",
    )
    assert worst <= 1e-9


def test_criterion_5_consistency_triangle():
    times = np.linspace(0.0, PERIOD, 50, endpoint=False)
    states = propagate(L0_FRAME, np.zeros(2), DS_HAM, times)
    Gs, _, _ = thawed_gaussian(L0_FRAME, np.zeros(2), DS_HAM, times)
    worst = 0.0
    for t, state, G in zip(times, states, Gs):
        closed = ds_scalars(DS, t).metric
        worst = max(worst, float(np.max(np.abs(state.G - G))))
        worst = max(worst, float(np.max(np.abs(state.G - closed))))
        worst = max(worst, float(np.max(np.abs(G - closed))))
    passed = worst <= 1e-8
    report(
        "consistency triangle",
        passed,
        f"max pairwise metric gap {worst:.3e} across frame, Riccati, closed-form routes",
    )
    assert worst <= 1e-8


def test_criterion_6_algebraic_properties():
    rng = np.random.default_rng(SEED)
    worst_frame = 0.0
    for n in (1, 2):
        for _ in range(5):
            Z = NormalisedFrame(
                LagrangianFrame(
                    random_symplectic(rng, n) @ standard(n).entries @ random_unitary(rng, n)
                )
            )
            E = Z.entries
            om = omega(n)
            worst_frame = max(worst_frame, float(np.max(np.abs(E.T @ om @ E))))
            worst_frame = max(
                worst_frame, float(np.max(np.abs(E.conj().T @ om @ E - 2j * np.eye(n))))
            )
            gram = E @ E.conj().T
            worst_frame = max(worst_frame, float(np.max(np.abs(gram.imag + om))))
            worst_frame = max(
                worst_frame,
                float(np.max(np.abs((gram.real @ om) @ (gram.real @ om) + np.eye(2 * n)))),
            )
            pi_l, pi_lbar = projections(Z)
            worst_frame = max(
                worst_frame, float(np.max(np.abs(pi_l + pi_lbar - np.eye(2 * n))))
            )
            worst_frame = max(worst_frame, float(np.max(np.abs(pi_l @ pi_l - pi_l))))
            worst_frame = max(worst_frame, float(np.max(np.abs(pi_l @ E - E))))
            worst_frame = max(worst_frame, float(np.max(np.abs(pi_l @ E.conj()))))
            # the Siegel matrix only sees the spanned subspace
            C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            C += 2 * np.eye(n)
            gauged = LagrangianFrame(E @ C)
            B1 = siegel_b(Z.P, Z.Q)
            B2 = siegel_b(gauged.P, gauged.Q)
            worst_frame = max(worst_frame, float(np.max(np.abs(B1 - B2))))
            S = random_symplectic(rng, n)
            G = S.T @ S
            G_round = frame_metric(frame_from_metric(G).entries)
            worst_frame = max(worst_frame, float(np.max(np.abs(G_round - G))))
    assert worst_frame <= 1e-9

    # gradient identity at exact coefficient level
    worst_grad = 0.0
    for n in (1, 2, 3):
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = 0.5 * (M + M.T)
        alpha = tuple(int(a) for a in rng.integers(1, 3, size=n))
        p = poly_recursion(M, alpha)
        grads = poly_gradient(p, alpha=alpha)
        scale = max(abs(c) for c in p.coeffs.values())
        for j in range(n):
            lower = poly_recursion(M, tuple(
                a - 1 if i == j else a for i, a in enumerate(alpha)
            ))
            keys = set(grads[j].coeffs) | set(lower.coeffs)
            gap = max((abs(grads[j][k] - alpha[j] * lower[k]) for k in keys), default=0.0)
            worst_grad = max(worst_grad, gap / scale)
    assert worst_grad <= 1e-12

    # expansion overlaps against quadrature, n = 1 and n = 2
    worst_overlap = 0.0
    grid1 = Grid(bounds=[(-10.0, 10.0)], counts=[512])
    grid2 = Grid(bounds=[(-8.0, 8.0), (-8.0, 8.0)], counts=[256, 256])
    for n, grid, C in (
        (1, grid1, np.array([[np.exp(0.7j)]])),
        (2, grid2, random_unitary(rng, 2)),
    ):
        Z = standard(n)
        ZC = NormalisedFrame(LagrangianFrame(Z.entries @ C))
        indices = [
            idx
            for total in range(4)
            for idx in _indices_of_order(total, n)
        ]
        fields_z = {
            idx: eval_excited(
                WavepacketParams(frame=Z, center=np.zeros(2 * n), eps=1.0), list(idx), grid
            )
            for idx in indices
        }
        fields_zc = {
            idx: eval_excited(
                WavepacketParams(frame=ZC, center=np.zeros(2 * n), eps=1.0), list(idx), grid
            )
            for idx in indices
        }
        for a in indices:
            for b in indices:
                algebra = expansion_overlap(Z, C, a, b)
                quad = grid_inner(fields_zc[b], fields_z[a], grid)
                worst_overlap = max(worst_overlap, abs(algebra - quad))
    assert worst_overlap <= 1e-6

    # number operator eigenvalue residuals, standard and squeezed metrics
    grid_std = Grid(bounds=[(-12.0, 12.0)], counts=[1024])
    grid_squeezed = Grid(bounds=[(-16.0, 16.0)], counts=[1024])
    worst_number = max(
        number_operator_check(np.eye(2), 1.0, grid_std, [0]),
        number_operator_check(np.eye(2), 1.0, grid_std, [3]),
        number_operator_check(np.diag([4.0, 0.25]), 1.0, grid_squeezed, [1]),
    )
    assert worst_number <= 1e-6

    report(
        "algebraic properties",
        True,
        f"frame/projection/Siegel/metric {worst_frame:.3e}, gradient {worst_grad:.3e}, "
        f"overlap vs quadrature {worst_overlap:.3e}, number operator {worst_number:.3e}",
    )


def _indices_of_order(total, n):
    if n == 1:
        return [(total,)]
    return [(i, total - i) for i in range(total + 1)]


def test_criterion_7_ladder_identities():
    times = np.linspace(0.0, PERIOD, 50, endpoint=False)
    states = propagate(L0_FRAME, np.zeros(2), DS_HAM, times)
    om = omega(1)
    Z0 = L0_FRAME.entries
    worst = 0.0
    for s in states:
        Zt = s.Z.entries
        conj_flow = s.S.conj() @ Z0
        C = 0.5j * Zt.conj().T @ om.T @ conj_flow
        D = 0.5j * Zt.conj().T @ om.T @ (s.S @ Z0.conj())
        worst = max(worst, float(np.max(np.abs(C - s.N))))
        worst = max(
            worst, float(np.max(np.abs(Zt @ C + Zt.conj() @ D.conj() - conj_flow)))
        )
        worst = max(worst, float(np.max(np.abs(D.T @ C.conj() - s.M))))
    passed = worst <= 1e-8
    report(
        "ladder identities",
        passed,
        f"max defect {worst:.3e} across 50 times (decomposition, C = N, M reassembly)",
    )
    assert worst <= 1e-8

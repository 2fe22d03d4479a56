"""Reference routes of the checking side, independent of the flow they check.

The production side builds the whole packet from the linear flow S_t.  The
routes here reach the same quantities another way, so a test can hold the
one against the other:

- evolve_metric_riccati integrates the G and J Riccati equations of the
  metric, and center_dynamics the real centre ODE and the action integral,
  both with RK45 at the fixed rtol = atol = ODE_TOL and restarted at every
  output time (Lasser & Lubich, Acta Numerica 29 (2020), §4);
- apply_lowering applies the lowering operator A(l) to a grid field by
  finite differences, and expansion_overlap gives ⟨φ_β(ZC), φ_α(Z)⟩ from
  its closed-form sum over transport matrices (Hagedorn, Ann. Phys. 269
  (1998)).

This module takes input types and validators from the production side, never
the flow, the trajectory assembly or the frame and metric it checks.  The
grid oracle (gridsolver) and the Swanson closed forms (swanson) are checking
modules of their own.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConsistencyError, DimensionMismatch, SingularC, StepSizeUnderflow
from .polynomials import validate_multi_index
from .propagation import QuadraticHamiltonian, _check_times
from .symplectic import COND_MAX, NormalisedFrame, SymplecticMetricPair, omega
from .wavepackets import Grid, WavepacketParams, _offsets

ODE_TOL = 1e-11


def evolve_metric_riccati(G0: SymplecticMetricPair, H: QuadraticHamiltonian, times):
    """Integrate the G and J Riccati equations independently.

    Ġ = ReH ΩG − GΩReH − ImH − GΩImHΩG and the J equation obtained from it by
    G = ΩJ: J̇ = ΩReH·J − J·ΩReH + ΩImH + J·ΩImH·J, restarted at each output
    time.  The cross-check J_t = −ΩG_t is enforced to 10×ODE_TOL at every
    output time.
    """
    if not isinstance(G0, SymplecticMetricPair):
        G0_mat = np.asarray(G0, dtype=float)
        om0 = omega(G0_mat.shape[0] // 2)
        G0 = SymplecticMetricPair(G=G0_mat, J=-om0 @ G0_mat)
    n = G0.n
    if H.n != n:
        raise DimensionMismatch("Hamiltonian and metric dimensions differ")
    times = _check_times(times)
    om = omega(n)
    n2 = 2 * n

    def rhs(t, y):
        G = y[: n2 * n2].reshape(n2, n2)
        J = y[n2 * n2 :].reshape(n2, n2)
        G = 0.5 * (G + G.T)
        Ht = H(t)
        re_h, im_h = Ht.real, Ht.imag
        dG = re_h @ om @ G - G @ om @ re_h - im_h - G @ om @ im_h @ om @ G
        dJ = om @ re_h @ J - J @ om @ re_h + om @ im_h + J @ om @ im_h @ J
        return np.concatenate([dG.reshape(-1), dJ.reshape(-1)])

    y = np.concatenate([G0.G.reshape(-1), G0.J.reshape(-1)])
    out: list[SymplecticMetricPair] = []
    t_prev = 0.0
    scale = max(1.0, float(np.max(np.abs(G0.G))))
    # one run per interval: on the polynomial-H test (n = 2, 401 times) the
    # metric lands 2.3e-13 off the flow's, one run with t_eval 3.6e-11 (RK45)
    # or 4.6e-11 (DOP853), against a 1e-12 gate
    for t_out in times:
        if t_out > t_prev:
            sol = solve_ivp(rhs, (t_prev, float(t_out)), y, method="RK45",
                            rtol=ODE_TOL, atol=ODE_TOL)
            if not sol.success:
                raise StepSizeUnderflow(f"Riccati integration failed: {sol.message}")
            y = sol.y[:, -1]
            t_prev = float(t_out)
        G = 0.5 * (y[: n2 * n2].reshape(n2, n2) + y[: n2 * n2].reshape(n2, n2).T)
        J = y[n2 * n2 :].reshape(n2, n2)
        if np.max(np.abs(J + om @ G)) > 10 * ODE_TOL * scale + 1e-13:
            raise ConsistencyError("independent J-Riccati drifted away from −ΩG")
        # The integrated G leaves the symplectic manifold by O(ODE_TOL) per
        # period; one Newton step of (−J²)^{−1/2} restores J² = −Id (and hence
        # GΩG = Ω) while moving G only by O(defect²), far below ODE_TOL.
        J_g = -om @ G
        X = -J_g @ J_g
        J_g = J_g @ (1.5 * np.eye(n2) - 0.5 * X)
        G_proj = om @ J_g
        G_proj = 0.5 * (G_proj + G_proj.T)
        out.append(SymplecticMetricPair(G=G_proj, J=-om @ G_proj))
    return out


def center_dynamics(z0, H: QuadraticHamiltonian, G_path, times):
    """Integrate ż = ΩReH z + G⁻¹ImH z and the action α_t = ∫(q̇·p − ℋ_τ(z_τ))dτ.

    G_path is a callable t ↦ G.  The ODE is restarted at each output time.
    Returns (z sequence, complex action sequence), one entry per requested
    time.
    """
    n = H.n
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    if z0.size != 2 * n:
        raise DimensionMismatch(f"center must have 2n = {2 * n} components")
    if not callable(G_path):
        raise DimensionMismatch("G_path must be a callable t ↦ G")
    times = _check_times(times)
    om = omega(n)

    def rhs(t, y):
        z = y[: 2 * n]
        Ht = H(t)
        re_h, im_h = Ht.real, Ht.imag
        G = G_path(t)
        dz = om @ re_h @ z + np.linalg.solve(G, im_h @ z)
        hamil = 0.5 * complex(z @ Ht @ z)
        daction = complex(dz[n:] @ z[:n]) - hamil
        return np.concatenate([dz, [daction.real, daction.imag]])

    y = np.concatenate([z0, [0.0, 0.0]])
    zs, actions = [], []
    t_prev = 0.0
    for t_out in times:
        if t_out > t_prev:
            sol = solve_ivp(rhs, (t_prev, float(t_out)), y, method="RK45",
                            rtol=ODE_TOL, atol=ODE_TOL)
            if not sol.success:
                raise StepSizeUnderflow(f"center integration failed: {sol.message}")
            y = sol.y[:, -1]
            t_prev = float(t_out)
        zs.append(y[: 2 * n].copy())
        actions.append(complex(y[2 * n], y[2 * n + 1]))
    return zs, actions


def apply_lowering(params: WavepacketParams, f: np.ndarray, grid: Grid, col: int = 0):
    """Apply the discretized lowering operator A(l_col) to a grid field.

    A(l) = (i/√(2ε)) l·Ω(ẑ − z) with p̂ realized by second-order central
    differences (np.gradient), so the residual on the exact ground state is
    limited by the finite-difference order.
    """
    n = params.n
    d = _offsets(params, grid)
    l = params.frame.entries[:, col]
    w = omega(n).T @ l  # A(l) = (i/√(2ε)) (Ωᵀl)·(ẑ − z)
    axes = grid.axes()
    eps = params.eps
    out = np.zeros_like(np.asarray(f, dtype=complex))
    for j in range(n):
        # momentum component: p̂_j f = −iε ∂_j f, shifted by the center p_j
        grad = np.gradient(f, axes[j], axis=j, edge_order=2)
        out += w[j] * (-1j * eps * grad - params.p[j] * f)
    for j in range(n):
        out += w[n + j] * d[j] * f
    return 1j / math.sqrt(2 * eps) * out


def _transport_matrices(alpha, beta, n):
    """Non-negative integer n×n matrices with row sums alpha and column sums beta."""
    results = []
    flat = [0] * (n * n)

    def fill(pos, row_left, col_left):
        if pos == n * n:
            results.append(tuple(flat))
            return
        i, j = divmod(pos, n)
        remaining_rows = sum(row_left) - row_left[i]
        hi = min(row_left[i], col_left[j])
        # the rest of column j must be fillable by the rows below
        for v in range(hi + 1):
            if col_left[j] - v > remaining_rows:
                continue
            flat[pos] = v
            row_left[i] -= v
            col_left[j] -= v
            if j == n - 1 and row_left[i] != 0:
                pass  # row i is finished but not exhausted: prune
            else:
                fill(pos + 1, row_left, col_left)
            row_left[i] += v
            col_left[j] += v
            flat[pos] = 0

    fill(0, list(alpha), list(beta))
    return results


def expansion_overlap(Z: NormalisedFrame, C: np.ndarray, alpha, beta) -> complex:
    """⟨φ_β(ZC), φ_α(Z)⟩ = √(α!β!) (det C̄)^{−1/2} Σ_{Λ∈m(α,β)} C^Λ/Λ!.

    The sum runs over matrices with row sums α and column sums β; it is empty
    (value 0) when |α| ≠ |β|.  Principal branch of (det C̄)^{1/2}, matching
    eval_ground's branch policy.
    """
    if not isinstance(Z, NormalisedFrame):
        Z = NormalisedFrame(Z)
    n = Z.n
    C = np.atleast_2d(np.asarray(C, dtype=complex))
    if C.shape != (n, n):
        raise DimensionMismatch(f"C must be {n}×{n}")
    if abs(np.linalg.det(C)) < 1e-300 or np.linalg.cond(C) > COND_MAX:
        raise SingularC("C is singular")
    alpha = validate_multi_index(alpha, n)
    beta = validate_multi_index(beta, n)
    if sum(alpha) != sum(beta):
        return 0j
    total = 0j
    for lam in _transport_matrices(alpha, beta, n):
        term = 1.0 + 0j
        for pos, power in enumerate(lam):
            if power:
                i, j = divmod(pos, n)
                term *= C[i, j] ** power / math.factorial(power)
        total += term
    fact = math.sqrt(
        math.prod(math.factorial(a) for a in alpha)
        * math.prod(math.factorial(b) for b in beta)
    )
    det_cbar = np.linalg.det(np.conj(C))
    return fact * total / np.exp(0.5 * np.log(complex(det_cbar)))

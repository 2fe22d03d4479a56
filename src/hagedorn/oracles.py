"""Reference routes of the checking side, independent of the flow they check.

The production side builds the whole packet from the linear flow S_t.  The
routes here reach the same quantities another way, so a test can hold the
one against the other:

- thawed_gaussian integrates one Gaussian under the quadratic H, its
  matrix B by a Riccati equation, and reads the metric, the real centre
  and the whole log prefactor off that one solution, with RK45 at the fixed
  rtol = atol = ODE_TOL and restarted at every output time (Heller,
  J. Chem. Phys. 62 (1975); Graefe & Schubert, Phys. Rev. A 83, 060101(R)
  (2011));
- apply_lowering applies the lowering operator A(l) to a grid field by
  finite differences, and expansion_overlap gives ⟨φ_β(ZC), φ_α(Z)⟩ from
  its closed-form sum over transport matrices (Hagedorn, Ann. Phys. 269
  (1998));
- projections gives the orthogonal projections onto a normalised frame's
  Lagrangian and its conjugate;
- differentiate and poly_gradient give a MultiPoly's derivatives, and
  number_operator_check applies the grid oracle's number operator to the
  excited state eval_excited builds from a metric.

This module takes input types and validators from the production side, never
the flow, the trajectory assembly or the frame and metric it checks.  The
grid oracle (gridsolver) and the Swanson closed forms (swanson) are checking
modules of their own.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DimensionMismatch, SingularC, StepSizeUnderflow
from .errors import UnsupportedDimension
from .gridsolver import _require_1d, discretize_hamiltonian
from .polynomials import MultiPoly, validate_multi_index
from .propagation import QuadraticHamiltonian, _check_times
from .symplectic import COND_MAX, NormalisedFrame, check_metric, frame_from_metric, omega
from .wavepackets import Grid, WavepacketParams, _offsets, eval_excited, grid_norm

ODE_TOL = 1e-11


def thawed_gaussian(Z0, z0, H: QuadraticHamiltonian, times, eps: float = 1.0):
    """Integrate the Gaussian c·exp((i/ε)(½ x·Bx + b·x)) under Op[½ z·Hz].

    With H = [[H_pp, H_pq], [H_pqᵀ, H_qq]] in z = (p; q) order,
    Ḃ = −(BH_ppB + BH_pq + H_pqᵀB + H_qq), ḃ = −(BH_pp + H_pqᵀ)b and
    d(log c)/dt = −(i/2ε) b·H_pp b − ½ tr(H_ppB + H_pq), from the φ₀(Z₀, z₀)
    of frame (P₀; Q₀) and centre (p₀, q₀): B₀ = P₀Q₀⁻¹, b₀ = p₀ − B₀q₀ and
    log c₀ = −(n/4) log(πε) − ½ log det Q₀ + (i/ε)(½ q₀·B₀q₀ − p₀·q₀), with
    the principal branch of log det Q₀.  B obeys a matrix Riccati equation.
    The ODE is restarted at each output time.  With X = Re B and Y = Im B it
    returns, one entry per time:

    - the metrics G = [[Y⁻¹, −Y⁻¹X], [−XY⁻¹, Y + XY⁻¹X]], a stack that
      check_metric accepts;
    - the real centres (p, q) with q = −Y⁻¹ Im b and p = Re b + Xq;
    - the log prefactors log c + (n/4) log(πε) − (i/ε)(½ q·Bq − p·q), which
      equal the pipeline's log_prefactor − ½ logdetQ.
    """
    if not isinstance(Z0, NormalisedFrame):
        Z0 = NormalisedFrame(Z0)
    n = Z0.n
    if H.n != n:
        raise DimensionMismatch("Hamiltonian and frame dimensions differ")
    z0 = np.asarray(z0, dtype=float).reshape(-1)
    if z0.size != 2 * n:
        raise DimensionMismatch(f"center must have 2n = {2 * n} components")
    times = _check_times(times)
    if not (math.isfinite(eps) and eps > 0):
        raise DimensionMismatch("eps must be finite and positive")
    p0, q0 = z0[:n], z0[n:]
    B0 = np.linalg.solve(Z0.Q.T, Z0.P.T).T
    b0 = p0 - B0 @ q0
    log_c0 = (-0.25 * n * math.log(math.pi * eps)
              - 0.5 * np.log(complex(np.linalg.det(Z0.Q)))
              + 1j / eps * (0.5 * q0 @ B0 @ q0 - p0 @ q0))

    def rhs(t, y):
        B, b = y[: n * n].reshape(n, n), y[n * n : -1]
        Ht = H(t)
        h_pp, h_pq, h_qq = Ht[:n, :n], Ht[:n, n:], Ht[n:, n:]
        dB = -(B @ h_pp @ B + B @ h_pq + h_pq.T @ B + h_qq)
        db = -(B @ h_pp + h_pq.T) @ b
        dlog_c = -0.5j / eps * (b @ h_pp @ b) - 0.5 * np.trace(h_pp @ B + h_pq)
        return np.concatenate([dB.reshape(-1), db, [dlog_c]])

    y = np.concatenate([B0.reshape(-1), b0, [log_c0]])
    out = np.empty((len(times), y.size), dtype=complex)
    t_prev = 0.0
    for i, t_out in enumerate(times):
        if t_out > t_prev:
            sol = solve_ivp(rhs, (t_prev, float(t_out)), y, method="RK45",
                            rtol=ODE_TOL, atol=ODE_TOL)
            if not sol.success:
                raise StepSizeUnderflow(f"Gaussian integration failed: {sol.message}")
            y = sol.y[:, -1]
            t_prev = float(t_out)
        out[i] = y
    B = out[:, : n * n].reshape(-1, n, n)
    # symmetric X and Y make G symmetric and symplectic by construction
    B = 0.5 * (B + np.swapaxes(B, 1, 2))
    b, log_c = out[:, n * n : -1], out[:, -1]
    X, Y = B.real, B.imag
    Y_inv = np.linalg.inv(Y)
    Y_inv_X = Y_inv @ X
    G = np.block([[Y_inv, -Y_inv_X], [-np.swapaxes(Y_inv_X, 1, 2), Y + X @ Y_inv_X]])
    q = -(Y_inv @ b.imag[..., None])[..., 0]
    p = b.real + (X @ q[..., None])[..., 0]
    Bq = (B @ q[..., None])[..., 0]
    prefactor = (log_c + 0.25 * n * math.log(math.pi * eps)
                 - 1j / eps * (0.5 * np.sum(q * Bq, axis=1) - np.sum(p * q, axis=1)))
    return check_metric(G), np.concatenate([p, q], axis=1), prefactor


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


def projections(Z: NormalisedFrame):
    """Orthogonal projections (π_L, π_L̄) = ((i/2) ZZ*Ωᵀ, −(i/2) Z̄ZᵀΩᵀ)."""
    entries = Z.entries
    om = omega(Z.n)
    pi_l = 0.5j * (entries @ entries.conj().T @ om.T)
    pi_lbar = -0.5j * (entries.conj() @ entries.T @ om.T)
    return pi_l, pi_lbar


def differentiate(p: MultiPoly, j: int) -> MultiPoly:
    """Partial derivative of p in variable j."""
    size = p.array.shape[j]
    if size == 1:
        return MultiPoly(np.zeros_like(p.array))
    powers = np.arange(1, size).reshape((-1,) + (1,) * (p.n - 1 - j))
    return MultiPoly(p.array[(slice(None),) * j + (slice(1, None),)] * powers)


def poly_gradient(p: MultiPoly, alpha=None):
    """Analytic gradients (∂_1 p, …, ∂_n p).

    For p = poly_recursion(M, α) these equal α_j · r_{α−e_j}; the identity is
    what the property tests assert.
    """
    if alpha is not None:
        alpha = validate_multi_index(alpha, p.n)
        if p.degree > sum(alpha):
            raise DimensionMismatch("polynomial degree exceeds |alpha|")
    return tuple(differentiate(p, j) for j in range(p.n))


def number_operator_check(G, eps: float, grid: Grid, alpha) -> float:
    """Residual ‖Op[ν]φ_α − (|α|+n)φ_α‖/‖φ_α‖ for ν(z) = (z·Gz + nε)/(2ε).

    The frame is reconstructed from the metric, so the eigenvalue |α|+n comes
    from the per-mode ladder algebra.
    """
    _require_1d(grid)
    G_mat = np.asarray(G, dtype=float)
    if G_mat.shape != (2, 2):
        raise UnsupportedDimension("only n = 1 metrics are supported here")
    alpha = validate_multi_index(alpha, 1)
    frame = frame_from_metric(G_mat)
    params = WavepacketParams(frame=frame, center=np.zeros(2), eps=eps)
    phi = eval_excited(params, alpha, grid)
    op = discretize_hamiltonian(G_mat / eps, eps, grid)
    nu_phi = op.matrix @ phi + 0.5 * phi  # + nε/(2ε) with n = 1
    target = (sum(alpha) + 1) * phi
    return grid_norm(nu_phi - target, grid) / grid_norm(phi, grid)

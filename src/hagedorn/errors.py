"""Exception types shared across the package."""

from __future__ import annotations


class HagedornError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(HagedornError):
    """An input has an incompatible shape (odd row count, wrong block size, ...)."""


class NotPositiveLagrangian(HagedornError):
    """The normalization Gram matrix (1/2i) Z*ΩZ is not positive definite."""

    def __init__(self, message: str, min_eig: float | None = None):
        super().__init__(message)
        self.min_eig = min_eig


class SingularQ(HagedornError):
    """The position block Q of a frame is singular or too ill-conditioned."""


class NotSymplecticMetric(HagedornError):
    """A claimed symplectic metric fails GᵀΩG = Ω, symmetry, or positivity."""


class NotHermitian(HagedornError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class NotPositiveDefinite(HagedornError):
    """A Hermitian matrix has an eigenvalue at or below the positivity floor."""


class AsymmetricM(HagedornError):
    """The polynomial recursion matrix is not symmetric."""


class SingularC(HagedornError):
    """The basis-change matrix C of an expansion overlap is singular."""


class NonDecayingGaussian(HagedornError):
    """Im(PQ⁻¹) is not positive definite, so the Gaussian does not decay."""


class NonSymmetricH(HagedornError):
    """A quadratic Hamiltonian coefficient matrix is not symmetric."""


class StepSizeUnderflow(HagedornError):
    """The adaptive integrator failed (step size collapsed or blow-up)."""


class PositivityLost(HagedornError):
    """Positivity of the evolved Lagrangian broke down at time t_star.

    Carries the states computed before the breakdown (propagate passes its
    truncated Trajectory) so callers can report them instead of crashing.
    """

    def __init__(self, t_star: float, states=None):
        super().__init__(f"positivity of the evolved frame lost at t = {t_star:.9g}")
        self.t_star = t_star
        self.states = states if states is not None else []


class ConsistencyError(HagedornError):
    """A runtime cross-check between two redundant computations failed."""


class OutsideHorizon(HagedornError):
    """A closed-form evaluation was requested at or beyond the positivity horizon."""


class UnsupportedDimension(HagedornError):
    """The grid oracle only supports one spatial dimension."""


class ConvergenceFailure(HagedornError):
    """Step halving did not bring the Richardson estimate under tolerance.

    Also raised when a Crank–Nicolson step matrix cannot be built because
    Id + iτ/2ε F is singular.  Carries the results of the output times
    before the failing one (propagate_grid passes those of its march) so
    callers can report them.
    """

    def __init__(self, message: str, estimate: float | None = None, results=()):
        super().__init__(message)
        self.estimate = estimate
        self.results = results


class GridMismatch(HagedornError):
    """Two fields live on different grids."""


class ConfigError(HagedornError):
    """A scenario config failed validation."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(f"{d.code}: {d.message}" for d in diagnostics))
        self.diagnostics = list(diagnostics)

"""Hagedorn wavepacket propagation for quadratic, possibly non-Hermitian, Hamiltonians.

The package root exports the production side, organised bottom-up:

  errors        the typed errors every layer raises
  symplectic    complex Lagrangian frames, normalization, metrics
  polynomials   multivariate Appell-type recursion polynomials
  wavepackets   Gaussian and excited-state evaluation on grids
  propagation   flow map, frame/metric/center/phase dynamics, coefficients

The checking side and the runner are imported by module and are not loaded
by `import hagedorn`:

  oracles       Riccati metric and centre ODEs, lowering operator, overlaps
  swanson       closed-form gain/loss oscillator reference solution
  gridsolver    independent Crank-Nicolson grid verification
  cli           scenario runner producing CSV/JSON artifacts
"""

from .errors import (
    AsymmetricM,
    ConfigError,
    ConsistencyError,
    ConvergenceFailure,
    DimensionMismatch,
    GridMismatch,
    HagedornError,
    NonDecayingGaussian,
    NonSymmetricH,
    NotHermitian,
    NotPositiveDefinite,
    NotPositiveLagrangian,
    NotSymplecticMetric,
    OutsideHorizon,
    PositivityLost,
    SingularC,
    SingularQ,
    StepSizeUnderflow,
    UnsupportedDimension,
)
from .symplectic import LagrangianFrame, NormalisedFrame, omega
from .wavepackets import Grid, WavepacketParams, eval_excited, eval_ground, grid_inner, grid_norm
from .propagation import (
    HagedornExpansion,
    PropagatedState,
    QuadraticHamiltonian,
    Trajectory,
    coefficient_sweep,
    evolved_state_on_grid,
    flow,
    hagedorn_coefficients,
    positivity_horizon,
    propagate,
)

__version__ = "0.1.0"

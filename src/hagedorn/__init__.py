"""Hagedorn wavepacket propagation for quadratic, possibly non-Hermitian, Hamiltonians.

The package is organised bottom-up:

  symplectic    complex Lagrangian frames, normalization, metrics
  polynomials   multivariate Appell-type recursion polynomials
  wavepackets   Gaussian and excited-state evaluation on grids, overlaps
  propagation   flow map, frame/metric/center/phase dynamics, coefficients
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
from .symplectic import (
    LagrangianFrame,
    NormalisedFrame,
    SiegelMatrix,
    SymplecticMetricPair,
    frame_from_metric,
    gram_matrix,
    hermitian_inv_sqrt,
    hermitian_pairing,
    is_isotropic,
    is_normalised,
    metric_and_structure,
    normalise_frame,
    omega,
    projections,
    siegel_matrix,
)
from .polynomials import (
    MultiPoly,
    poly_gradient,
    poly_recursion,
    validate_multi_index,
    validate_recursion_index,
)
from .wavepackets import (
    Grid,
    WavepacketParams,
    apply_lowering,
    eval_excited,
    eval_ground,
    expansion_overlap,
    grid_inner,
    grid_norm,
    write_field_csv,
)
from .propagation import (
    HagedornExpansion,
    PropagatedState,
    QuadraticHamiltonian,
    Trajectory,
    center_dynamics,
    coefficient_sweep,
    evolve_metric_riccati,
    evolved_state_on_grid,
    flow,
    hagedorn_coefficients,
    positivity_horizon,
    propagate,
    symplectic_defect,
)
from .swanson import (
    SwansonParams,
    SwansonStateScalars,
    ds_flow,
    ds_norm,
    ds_norms,
    ds_positivity_time,
    ds_scalars,
)
from .gridsolver import (
    DiscretizedOperator,
    GridMarch,
    GridPropagation,
    discretize_hamiltonian,
    number_operator_check,
    propagate_grid,
)
from .cli import (
    PRESETS,
    Diagnostic,
    ScenarioConfig,
    load_config,
    run_scenario,
    standard_frame,
    validate_config,
)

__version__ = "0.1.0"

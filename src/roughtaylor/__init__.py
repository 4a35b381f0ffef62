"""Semi-implicit Taylor schemes for stiff differential equations driven by
rough (e.g. fractional Brownian) noise, with an fBm driver generator, rough
path lifts, and a convergence/stability experiment harness."""

from .fbm import (
    FbmConfig,
    NotPositiveDefiniteError,
    SamplePath,
    cholesky,
    covariance_matrix,
    dump_path_csv,
    restrict,
    sample_fbm,
)
from .fields import (
    DiffusionField,
    DriftField,
    first_order_composition,
    second_order_composition,
)
from .grids import Grid, make_grid
from .harness import (
    ErrorTable,
    ProbeResult,
    StabilityReport,
    StudyConfig,
    StudyResult,
    eoc,
    local_error_probe,
    run_scheme,
    run_study,
    stability_demo,
)
from .lift import RoughLift, chen_compose, piecewise_linear_lift
from .schemes import (
    BlowupError,
    Problem,
    Trajectory,
    boundedness_bound,
    explicit_euler,
    semi_implicit_taylor,
)
from .solver import ConvergenceError, SolveReport, StepSizeError, solve_step

__version__ = "0.1.0"

"""Averaged constant-step-size LMS: analysis, simulation, and sampling tools."""

from .asymptotics import (
    CovarianceModel,
    Risks,
    excess_risk,
    small_gamma_equivalents,
)
from .engine import (
    Cell,
    Trajectory,
    run_cells,
)
from .errors import (
    DataFormatError,
    DimensionError,
    SchemeError,
    SingularOperatorError,
    SpecError,
)
from .moments import (
    CrossTermReport,
    DiscreteDesign,
    GaussianDesign,
    IndependentGaussianNoise,
    MomentSet,
    ProblemSpec,
    ResidualNoise,
    check_cross_term_condition,
    compute_moments,
    leverage_resampled_moments,
    norm_resampled_moments,
)
from .operators import (
    MAX_DIM,
    SymBasis,
    fourth_moment_operator_from_samples,
)
from .sampling import (
    SamplingScheme,
    atom_scheme,
    bias_gain,
    moment_sets,
    optimal_bias_scheme,
    optimal_variance_scheme,
    variance_gain,
)
from .stepsize import (
    contraction_rate_bound,
    gamma_max,
    gamma_max_det,
    smallest_t_eigenvalue,
    trace_step_bound,
)

__version__ = "0.1.0"

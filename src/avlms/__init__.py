"""Averaged constant-step-size LMS: analysis, simulation, and sampling tools."""

from .asymptotics import (
    CovarianceModel,
    CovarianceReport,
    excess_risk,
    small_gamma_equivalents,
    total_error_envelope,
)
from .engine import (
    RunConfig,
    Trajectory,
    class_weighted_spec,
    isgd_run,
    nlms_run,
    run_averaged_lms,
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
    reweighted_moments,
)
from .operators import (
    MAX_DIM,
    SymBasis,
    fourth_moment_operator_from_samples,
)
from .sampling import (
    SamplingScheme,
    bias_gain,
    optimal_bias_scheme,
    optimal_variance_scheme,
    resampled_gamma_max,
    resampled_moments,
    uniform_scheme,
    variance_gain,
)
from .stepsize import (
    ContractionFactors,
    StepSizeReport,
    contraction_factors,
    contraction_rate_bound,
    gamma_max,
    gamma_max_det,
    smallest_t_eigenvalue,
    step_size_report,
    trace_step_bound,
)

__version__ = "0.1.0"

"""Confidence-based estimation of quantum run counts for constrained QUBO solving.

The toolkit simulates QAOA on small constrained QUBO instances, models the
per-run minimum energies with a generalized extreme value law, and estimates
how many runs (of s shots each) are needed to match or beat a simulated
annealing baseline at a chosen confidence level.
"""

__version__ = "0.1.0"

from .annealing import SaConfig, default_sa_config, simulated_annealing
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateSamplesError,
    EstimationImpossibleError,
    FitFailureError,
    InstanceFormatError,
    InsufficientSamplesError,
    OutputLockedError,
    QevtError,
    SingularCovarianceError,
)
from .gev import (
    GevParams,
    JitteredSamples,
    ShotEstimate,
    estimate_runs,
    estimate_shots,
    fit_gev_minima,
    gev_cdf,
    gev_pdf,
    jitter,
    required_runs,
    success_probability,
)
from .qaoa import (
    NoiseConfig,
    OptimizerConfig,
    QaoaParams,
    collect_extreme_samples,
    expectation_energy,
    optimize_parameters,
    prepare_initial_state,
    sample_shots,
)
from .qubo import (
    IsingModel,
    QuboInstance,
    brute_force_minimum,
    generate_synthetic_q,
    ising_energy,
    load_instance,
    qubo_energy,
    save_instance,
    to_ising,
)
from .sample_size import (
    SampleSizeConfig,
    SampleSizeResult,
    estimate_required_extremes,
    reference_parameters,
)
from .stats import (
    TestResult,
    crossing_sample_size,
    fit_regression_line,
    hotelling_t2,
    shapiro_wilk_multivariate,
)

__all__ = [name for name in dir() if not name.startswith("_")]

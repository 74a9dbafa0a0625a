"""qlimits: a numerical laboratory for statistical scaling limits of learning.

Builds synthetic regression problems with known Bayes risk, trains classical
solvers (closed-form Tikhonov, KRR, early-stopped gradient descent, divide
and conquer, Nystrom), injects the two error channels of a simulated noisy
quantum solver (solver precision and tomography readout), and measures how
excess risk and runtime scale with the training size.
"""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DivergenceError,
    KernelNotPSDError,
    NumericalError,
    QlimitsError,
    SingularSystemError,
)
from .qmodel import (
    BoundCheck,
    ComplexityEntry,
    NoiseSchedule,
    algorithmic_error_bound_check,
    apply_channels,
    complexity_table,
    cost_log_error_solver,
    cost_matched_precision,
    cost_poly_error_solver,
    perturb_solution,
    quantum_ls_pipeline,
    required_measurements,
    tomography_estimate,
)
from .risk import (
    empirical_risk,
    excess_risk,
    excess_risks,
    expected_risk_mc,
    input_second_moment,
    linear_weights,
    pairwise_sum,
    stable_mean,
)
from .rng import child_rng, derive_seed
from .scaling import (
    SOLVER_IDS,
    BenchReport,
    PairedReport,
    ScalingFit,
    SweepConfig,
    SweepTable,
    fit_scaling,
    fit_solver,
    matching_experiment,
    measurement_experiment,
    paired_experiment,
    runtime_benchmark,
    sweep_excess_risk,
)
from .solvers import (
    DualPredictor,
    Kernel,
    LINEAR_KERNEL,
    PrimalPredictor,
    SolverConfig,
    divide_and_conquer,
    early_stopping_gd,
    exact_ls,
    krr,
    load_predictor,
    nystrom,
    predict_batch,
    save_predictor,
)
from .synth import (
    Dataset,
    SyntheticProblem,
    read_dataset_csv,
    sample_dataset,
    write_dataset_csv,
)

__version__ = "0.1.0"

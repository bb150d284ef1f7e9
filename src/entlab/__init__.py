"""Two-qubit entanglement measures, random-state sampling, and the
Monte Carlo comparison of the ordering the measures induce."""

from .cmat import (
    EigenDecomposition,
    TOL,
    Tolerances,
    hermitian_eig,
    partial_transpose_b,
    psd_sqrt,
)
from .experiment import (
    ExperimentConfig,
    ExperimentSummary,
    PairComparisonRecord,
    SHistogram,
    compare_pair,
    run_experiment,
    write_csvs,
)
from .measures import (
    MeasureReport,
    binary_entropy,
    concurrence,
    e_formation,
    e_negative,
    e_sum,
    ef_from_concurrence,
    is_separable,
    linear_entropy,
    measure_report,
)
from .qstate import (
    DensityMatrix,
    density_from_matrix,
    pure_schmidt,
    singlet,
    werner_state,
)
from .sampler import (
    RngStream,
    elementary_unitary,
    random_cue_unitary,
    random_density,
    random_density_batch,
    random_simplex,
    random_spectral_batch,
)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "EigenDecomposition",
    "ExperimentConfig",
    "ExperimentSummary",
    "MeasureReport",
    "PairComparisonRecord",
    "RngStream",
    "SHistogram",
    "TOL",
    "Tolerances",
    "binary_entropy",
    "compare_pair",
    "concurrence",
    "density_from_matrix",
    "e_formation",
    "e_negative",
    "e_sum",
    "ef_from_concurrence",
    "elementary_unitary",
    "hermitian_eig",
    "is_separable",
    "linear_entropy",
    "measure_report",
    "partial_transpose_b",
    "psd_sqrt",
    "pure_schmidt",
    "random_cue_unitary",
    "random_density",
    "random_density_batch",
    "random_simplex",
    "random_spectral_batch",
    "run_experiment",
    "singlet",
    "werner_state",
    "write_csvs",
]

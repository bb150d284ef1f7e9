"""Two-qubit entanglement measures, random-state sampling, and the
Monte Carlo comparison of the ordering the measures induce."""

from .cmat import (
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
    concurrence,
    e_formation,
    e_negative,
    e_sum,
    is_separable,
    linear_entropy,
    measure_report,
)
from .qstate import (
    DensityMatrix,
    pure_schmidt,
    singlet,
    werner_state,
)
from .sampler import (
    RngStream,
    random_density_batch,
)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "ExperimentConfig",
    "ExperimentSummary",
    "MeasureReport",
    "PairComparisonRecord",
    "RngStream",
    "SHistogram",
    "TOL",
    "Tolerances",
    "compare_pair",
    "concurrence",
    "e_formation",
    "e_negative",
    "e_sum",
    "hermitian_eig",
    "is_separable",
    "linear_entropy",
    "measure_report",
    "partial_transpose_b",
    "psd_sqrt",
    "pure_schmidt",
    "random_density_batch",
    "run_experiment",
    "singlet",
    "werner_state",
    "write_csvs",
]

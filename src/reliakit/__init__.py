"""reliakit: test-retest reliability with information-theoretic indices.

Core quantities: the nonlinear reliability difference (KSG mutual
information minus the Gaussian baseline implied by the test-retest
correlation), classical ICC(2,1)/ICC(3,1), BCa bootstrap intervals with
one-sided p-values, Benjamini-Hochberg q-values over the primary measure
tier, and a 24-cell estimator multiverse. Execution is contract-bound,
hash-verified, and byte-deterministic.
"""

__version__ = "0.1.0"

from .bootstrap import (
    BcaParams,
    BootstrapResult,
    bca_interval,
    bootstrap_estimate,
    derive_entropy,
    jackknife_values,
    one_sided_p,
    resample_statistic,
)
from .errors import (
    BootstrapFailureError,
    ClaimTierViolationError,
    ContractParseError,
    DegenerateSampleError,
    EstimatorError,
    HashMismatchError,
    ImmutabilityViolationError,
    IngestError,
    InvalidPValueError,
    ReliakitError,
    SchemaError,
    UnknownMeasureError,
)
from .estimators import (
    CorrMethod,
    IccEstimate,
    IccVariant,
    NlrValue,
    gaussian_mi,
    icc,
    ksg_mi,
    nlr,
    nlr_delta_rows,
    pearson,
    spearman,
)
from .inference import (
    ReliabilityEstimate,
    apply_primary_inference,
    bh_adjust,
    headline_pass,
)
from .ingest import (
    PairedSample,
    TrialTable,
    aggregate_scores,
    build_sample,
    filter_trials,
    pair_sessions,
    read_long_csv,
    verify_archive,
)
from .multiverse import (
    DEFAULT_SPEC,
    MultiverseCell,
    Specification,
    build_grid,
    run_cell,
    run_measure,
    summarize,
)
from .pipeline import RunConfig, cmd_multiverse, cmd_run, cmd_verify
from .provenance import GateReport, ProvenanceRecord, build_provenance, run_gate
from .registry import (
    ContractRegistry,
    MeasureContract,
    Tier,
    assert_headline_eligible,
    load_contract,
)

__all__ = [
    "__version__",
    "BcaParams",
    "BootstrapResult",
    "bca_interval",
    "bootstrap_estimate",
    "derive_entropy",
    "jackknife_values",
    "one_sided_p",
    "resample_statistic",
    "BootstrapFailureError",
    "ClaimTierViolationError",
    "ContractParseError",
    "DegenerateSampleError",
    "EstimatorError",
    "HashMismatchError",
    "ImmutabilityViolationError",
    "IngestError",
    "InvalidPValueError",
    "ReliakitError",
    "SchemaError",
    "UnknownMeasureError",
    "CorrMethod",
    "IccEstimate",
    "IccVariant",
    "NlrValue",
    "gaussian_mi",
    "icc",
    "ksg_mi",
    "nlr",
    "nlr_delta_rows",
    "pearson",
    "spearman",
    "ReliabilityEstimate",
    "apply_primary_inference",
    "bh_adjust",
    "headline_pass",
    "PairedSample",
    "TrialTable",
    "aggregate_scores",
    "build_sample",
    "filter_trials",
    "pair_sessions",
    "read_long_csv",
    "verify_archive",
    "DEFAULT_SPEC",
    "MultiverseCell",
    "Specification",
    "build_grid",
    "run_cell",
    "run_measure",
    "summarize",
    "RunConfig",
    "cmd_multiverse",
    "cmd_run",
    "cmd_verify",
    "GateReport",
    "ProvenanceRecord",
    "build_provenance",
    "run_gate",
    "ContractRegistry",
    "MeasureContract",
    "Tier",
    "assert_headline_eligible",
    "load_contract",
]

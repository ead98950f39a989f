"""reliakit: test-retest reliability with information-theoretic indices.

Core quantities: the nonlinear reliability difference (KSG mutual
information minus the Gaussian baseline implied by the test-retest
correlation), classical ICC(2,1)/ICC(3,1), BCa bootstrap intervals with
one-sided p-values, Benjamini-Hochberg q-values over the primary measure
tier, and a 24-cell estimator multiverse. Execution is contract-bound,
hash-verified, and byte-deterministic.

One engine computes every cell: run_measure evaluates a measure's observed
and leave-one-out terms once, and run_cell draws each specification's
replicates (resample_statistic) and builds its interval (bca_interval) and
p-value (one_sided_p) around them. The run command passes it the default
specification, multiverse the whole grid.
"""

__version__ = "0.1.0"

# first: scipy's ufunc extension loads scipy's OpenBLAS, whose worker thread
# busy-waits for about 0.13 s after the load; loaded first, most of that wait
# runs alongside the rest of this import instead of inside the first command
from . import special  # noqa: F401
from .bootstrap import (
    bca_interval,
    derive_entropy,
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
    gaussian_mi,
    icc,
    ksg_mi,
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
    build_sample,
    filter_trials,
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
    "bca_interval",
    "derive_entropy",
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
    "gaussian_mi",
    "icc",
    "ksg_mi",
    "nlr_delta_rows",
    "pearson",
    "spearman",
    "ReliabilityEstimate",
    "apply_primary_inference",
    "bh_adjust",
    "headline_pass",
    "PairedSample",
    "TrialTable",
    "build_sample",
    "filter_trials",
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

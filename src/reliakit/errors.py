"""Exception taxonomy and process exit codes.

Every error raised by this package derives from ReliakitError. The CLI maps
error classes to exit codes via the ``exit_code`` attribute; anything else
that escapes is reported as EXIT_OTHER.
"""

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_CONTRACT = 2
EXIT_HASH = 3
EXIT_SCHEMA = 4


class ReliakitError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_OTHER


class ContractError(ReliakitError):
    """Measure contract is malformed or violated."""

    exit_code = EXIT_CONTRACT


class ContractParseError(ContractError):
    """Contract document does not match the expected schema."""


class ImmutabilityViolationError(ContractError):
    """Declared per-tier counts disagree with the contract entries."""


class UnknownMeasureError(ContractError):
    """A measure_id is not present in the contract."""


class ClaimTierViolationError(ContractError):
    """A headline claim was requested for a non-primary measure."""


class IngestError(ReliakitError):
    """Raw or processed input data cannot be ingested."""

    exit_code = EXIT_CONTRACT


class HashMismatchError(ReliakitError):
    """An input file's SHA-256 digest differs from the pinned value."""

    exit_code = EXIT_HASH


class EstimatorError(ReliakitError):
    """An estimator cannot produce a value on this sample."""


class DegenerateSampleError(EstimatorError):
    """Sample admits no estimate (zero variance, all ties, or too small)."""


class BootstrapFailureError(ReliakitError):
    """All bootstrap replicates were degenerate; no interval exists."""


class InvalidPValueError(ReliakitError):
    """A p-value outside [0, 1] entered the FDR adjustment."""


class SchemaError(ReliakitError):
    """An output artifact does not conform to its pinned schema."""

    exit_code = EXIT_SCHEMA

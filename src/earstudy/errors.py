"""Exception taxonomy shared across the pipeline.

Two top-level families matter for the CLI exit codes: configuration
problems (bad flags, malformed run configs, impossible orderings) and
data problems (malformed records, insufficient coverage, domain errors).
"""


class EarStudyError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(EarStudyError):
    """Invalid configuration: bad paths, orderings, or parameter values."""


class ScenarioError(ConfigError):
    """Invalid synthetic-scenario specification."""


class DataError(EarStudyError):
    """Invalid or insufficient input data."""


class MalformedRecordError(DataError):
    """A structurally invalid record (wrong arity, bad field, bad order)."""


class CoverageError(DataError):
    """A requested time window is not covered by the available data."""


class DomainError(DataError):
    """A value outside the mathematical domain of an operation (e.g. log 0)."""


class InsufficientDataError(DataError):
    """Too few observations to perform the requested computation."""


class DegenerateRegressorError(DataError):
    """A regressor or dependent with zero variance: the slope is unidentified,
    or it has no residual variation to be tested against."""

"""Exception hierarchy and warning categories used across the package."""


class LocalEqError(Exception):
    """Base class for all errors raised by localeq."""


class EmptyInputError(LocalEqError):
    """An operation received an empty sample."""


class InvalidWeightError(LocalEqError):
    """A weight vector contains non-positive entries or mismatched length."""


class InvalidBandwidthError(LocalEqError):
    """Kernel bandwidth must be strictly positive."""


class InvalidProbabilityError(LocalEqError):
    """A probability argument fell outside [0, 1]."""


class DimensionError(LocalEqError):
    """Array arity does not match the fitted model or companion vector."""


class TooManyStrataError(LocalEqError):
    """Requested more strata than there are records."""


class EmptyFamilyError(LocalEqError):
    """No conditioning cell qualified to produce a transform."""


class OmittedBinError(LocalEqError):
    """A theta bin is degenerate (zero conditional variance)."""


class SchemaError(LocalEqError):
    """Dataset schema is invalid or a required column is missing."""

    def __init__(self, column: str, message: str | None = None):
        self.column = column
        super().__init__(message or f"schema problem with column {column!r}")


class RowError(LocalEqError):
    """A data row failed validation; carries the 1-based row number."""

    def __init__(self, row: int, message: str):
        self.row = row
        super().__init__(f"row {row}: {message}")


class UsageError(LocalEqError):
    """Command invoked with incompatible method/data combination."""


class ConfigError(LocalEqError):
    """Simulation config contains unknown or invalid keys."""

    def __init__(self, keys, message: str | None = None):
        self.keys = list(keys) if not isinstance(keys, str) else [keys]
        super().__init__(message or f"invalid config keys: {', '.join(self.keys)}")


class WorkerLostError(LocalEqError):
    """A study worker process ended before it sent all its replications."""


class DegenerateColumnWarning(UserWarning):
    """A covariate column had a single observed level and was dropped."""


class SeparationWarning(UserWarning):
    """Logistic fit showed (quasi-)separation; coefficients were clamped."""


class StudyUnstableWarning(UserWarning):
    """More than 5% of simulation replications failed."""

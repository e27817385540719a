"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError and subclasses exit 2
(usage), ShapeError and subclasses, AxisError and FormatError exit 3 (data),
NumericError and subclasses exit 4 (numeric/degenerate). A MemoryError that
still escapes, when an allocation fails below the library's own limit, also
exits 4.
"""


class ShapeError(ValueError):
    """Bad shape or extent: construction mismatch, rank cap, incompatible operands."""


class MemoryLimitError(ShapeError):
    """Input too large: a quadratic buffer would top the memory limit; raised before allocating."""


class AxisError(ValueError):
    """Axis index outside the operand's rank."""


class FormatError(ValueError):
    """Malformed file: bad magic, truncated payload, unparseable diagram line."""


class ConfigError(ValueError):
    """Invalid or mutually inconsistent configuration values."""


class NonDifferentiableError(ConfigError):
    """Gradient requested through the exact sign function."""


class NumericError(ValueError):
    """Degenerate or non-finite numeric input."""


class DegenerateAxisError(NumericError):
    """A compared axis has extent 1 and admits no finite differences."""


class DegenerateBatchError(NumericError):
    """Reference loss is exactly zero on a batch, leaving nothing to match."""


class UndefinedCorrelationError(NumericError):
    """Pearson correlation undefined because a distance vector has zero variance."""


class InfiniteDeathError(NumericError):
    """An infinite death time reached the matcher under the reject policy."""


class TrainingDivergedError(NumericError):
    """Training produced a non-finite loss value."""

    def __init__(self, batch_index: int, message: str | None = None):
        self.batch_index = batch_index
        super().__init__(message or f"non-finite loss at batch {batch_index}")

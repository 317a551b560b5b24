"""Exception hierarchy shared across the package.

Argument/precondition violations on plain values raise ValueError; the
classes below mark failures that callers are expected to branch on
(CLI exit codes, per-approach infeasibility bookkeeping, ...).
"""


class BiasdivError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(BiasdivError):
    """Invalid or incomplete experiment configuration."""


class DataError(BiasdivError):
    """Base class for dataset ingestion/manipulation failures."""


class SchemaError(DataError):
    """CSV column layout does not match the declared schema."""


class CsvParseError(DataError):
    """A cell could not be parsed; message names row and column."""


class LabelError(DataError):
    """A class label is missing from the declared mapping."""


class StratificationError(DataError):
    """A class is too small to split into train and test parts."""


class TrainingError(BiasdivError):
    """Training diverged (non-finite loss); message names the epoch."""


class ProbeError(BiasdivError):
    """The noise probe has no correctly classified inputs to work with."""


class BiasMetricError(BiasdivError):
    """The bias score is undefined (a class with zero correct variants)."""


class NeighborError(BiasdivError):
    """A resampler needs more same-class rows than the dataset has."""


class InfeasibleError(BiasdivError):
    """A resampler cannot be applied to this dataset at all."""

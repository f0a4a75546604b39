"""Exception types shared across the toolkit.

Everything raised on purpose derives from MotionLinkError so callers can
catch toolkit failures without swallowing genuine bugs.  The CLI maps the
subtree onto exit codes: configuration problems, data problems, and
resource refusals each get their own code.
"""

from __future__ import annotations


class MotionLinkError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(MotionLinkError):
    """A config file, CLI flag, or parameter combination is invalid."""


class DataError(MotionLinkError):
    """Input data violates a documented precondition."""


class InvalidLabelCode(DataError):
    """An integer code outside the known activity-label range."""


class LengthMismatch(DataError):
    """Two sequences that must share a length do not."""


class TraceTooShort(DataError):
    """A trace does not cover even a single analysis window."""


class EmptyWindow(DataError):
    """A window contains no samples."""


class InvalidConfusionMatrix(DataError):
    """A confusion matrix is not row-stochastic or has entries outside [0, 1]."""


class ModelMismatch(DataError):
    """A classifier model does not fit the data it was applied to."""


class InsufficientData(DataError):
    """Too few paired observations to compute a statistic."""


class UndefinedCorrelation(DataError):
    """A rank correlation is undefined because one input has zero rank variance."""


class EmptyRanking(DataError):
    """Every candidate had to be skipped; there is nothing to rank."""


class BudgetExceedsLength(ConfigError):
    """An absolute mismatch budget larger than the sequence length."""


class NoOverlap(DataError):
    """A time shift leaves no fully covered window in common."""


class MissingGroundTruth(DataError):
    """An evaluation asked about a record with no ground-truth entry."""


class MemoryCapExceeded(MotionLinkError):
    """Building a structure would exceed the configured memory cap."""

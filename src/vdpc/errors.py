"""Exception hierarchy shared by the library and the CLI.

Each class carries the process exit code the CLI returns for it and the
prefix of its ``vdpc:`` message: data/ingestion problems exit 2
(``data error:``), any pipeline or parameter problem exits 3.  The CLI's
own ``UsageError`` (exit 1) is a ``VdpcError`` too; a bench cell outside
its tolerance (exit 4) is a result, not an error.
"""

from __future__ import annotations

import math
import numbers


class VdpcError(Exception):
    """Base class for all library errors."""

    exit_code = 3
    kind = ""


class DataError(VdpcError):
    """Raised when an input file cannot be ingested."""

    exit_code = 2
    kind = "data error: "


class ParameterError(VdpcError):
    """Raised when a parameter value is outside its valid domain."""


class StageError(VdpcError):
    """Raised when a pipeline stage cannot proceed; names the stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


def _check_positive(name: str, value: float) -> None:
    """Raise ParameterError unless ``value`` is a finite number > 0."""
    if not (math.isfinite(value) and value > 0):
        raise ParameterError("%s must be a finite number > 0, got %s" % (name, value))


def _check_count(name: str, value: int) -> None:
    """Raise ParameterError unless ``value`` is an integer >= 1."""
    if not (isinstance(value, numbers.Integral) and value >= 1):
        raise ParameterError("%s must be an integer >= 1, got %s" % (name, value))

"""Exception types shared across the package.

Two families matter to callers: data problems (bad input files, schema
mismatches, out-of-domain rows) and numerical failures inside a fitting
stage. The CLI maps them to distinct exit codes.
"""

from __future__ import annotations

import numbers

__all__ = ["DataError", "SchemaError", "ParseError", "FitError"]


class DataError(ValueError):
    """Input data is unusable: schema, parsing, or domain problems."""


class SchemaError(DataError):
    """A required column is missing or the file layout is wrong."""


class ParseError(DataError):
    """A cell failed numeric parsing; the message carries the row number."""


class FitError(RuntimeError):
    """A fitting stage failed numerically.

    Parameters
    ----------
    stage : str
        Name of the pipeline stage that failed (e.g. ``"covariance_x"``).
    message : str
        Human-readable description.
    """

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"[{stage}] {message}")


def _require_int(obj, name: str, lo: int) -> None:
    """Store ``obj.<name>`` as a Python int, raising DataError unless it is an
    integer (NumPy's included, bool excluded) of at least ``lo``."""
    value = getattr(obj, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
        raise DataError(f"{name} must be an integer >= {lo}, got {value!r}")
    object.__setattr__(obj, name, int(value))


def _require_real(obj, name: str, sequence: bool = False) -> None:
    """Store ``obj.<name>`` as a Python float, raising DataError unless it is
    a real number (NumPy's included, bool excluded); with ``sequence``, a
    tuple or list of them, stored as a tuple of floats."""
    value = getattr(obj, name)
    items = value if sequence else (value,)
    if (sequence and not isinstance(value, (tuple, list))) or any(
        isinstance(v, bool) or not isinstance(v, numbers.Real) for v in items
    ):
        what = "a tuple of real numbers" if sequence else "a real number"
        raise DataError(f"{name} must be {what}, got {value!r}")
    object.__setattr__(obj, name, tuple(map(float, items)) if sequence else float(value))

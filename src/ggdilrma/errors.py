"""Exception types raised across the toolkit.

Each class's parent names its category, and the CLI maps the category to
its exit code: :class:`InvalidInput` exits 1, :class:`FileError` exits 2,
and every other :class:`SeparationError` (a numerical failure) exits 3.
"""

from __future__ import annotations

import numpy as np


class SeparationError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(SeparationError):
    """An argument or input the toolkit cannot use (CLI exit 1)."""


class FileError(SeparationError):
    """An audio file that cannot be read, written or decoded (CLI exit 2)."""


# --- problem validation: invalid input, exit 1 ---------------------------


class NonFiniteInput(InvalidInput):
    """Input tensor contains NaN or Inf entries."""


class UnsupportedBeta(InvalidInput):
    """Shape parameter outside the supported set (0, 2] and {4}, a domain
    parameter that is not finite and positive, or an update rule invoked
    outside its shape range."""


class DegenerateShape(InvalidInput):
    """A tensor dimension that must be >= 1 is zero."""


# --- STFT: invalid input, exit 1 -----------------------------------------


class SignalTooShort(InvalidInput):
    """Signal shorter than one analysis frame."""


class ShapeMismatch(InvalidInput):
    """Spectrogram shape inconsistent with the transform plan, or a window
    or hop duration that is not finite and positive."""


# --- demixing updates: numerical failure, exit 3 -------------------------


class SingularCovariance(SeparationError):
    """Weighted covariance not invertible above the determinant floor."""


class SingularDemixing(SeparationError):
    """Demixing matrix not invertible above the determinant floor."""


def singular_demixing(absdet, first_bin: int = 0, source: int | None = None) -> SingularDemixing:
    """The error for a singular demixing matrix, naming the bin of the smallest
    ``absdet`` in the whole problem (``absdet[0]`` is bin ``first_bin``) and the
    source being updated, if any."""
    where = f"bin {first_bin + int(np.argmin(absdet))}"
    if source is not None:
        where += f", source {source}"
    return SingularDemixing(f"demixing matrix singular at {where}")


# --- audio I/O: file error, exit 2 ---------------------------------------


class UnsupportedFormat(FileError):
    """Audio file encoding not supported."""


class IoFailure(FileError):
    """File could not be read or written."""


# --- simulation and metrics: invalid input, exit 1 -----------------------


class LengthMismatch(InvalidInput):
    """Waveforms that must share a length do not."""


class ZeroReference(InvalidInput):
    """Reference signal is identically zero."""


class TooManySources(InvalidInput):
    """Exhaustive permutation alignment limited to 6 sources."""

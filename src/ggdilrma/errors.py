"""Exception types raised across the toolkit."""

from __future__ import annotations

import numpy as np


class SeparationError(Exception):
    """Base class for all toolkit errors."""


# --- problem validation -------------------------------------------------


class NonFiniteInput(SeparationError):
    """Input tensor contains NaN or Inf entries."""


class UnsupportedBeta(SeparationError):
    """Shape parameter outside the supported set (0, 2] and {4}, a domain
    parameter that is not finite and positive, or an update rule invoked
    outside its shape range."""


class DegenerateShape(SeparationError):
    """A tensor dimension that must be >= 1 is zero."""


# --- STFT ---------------------------------------------------------------


class SignalTooShort(SeparationError):
    """Signal shorter than one analysis frame."""


class ShapeMismatch(SeparationError):
    """Spectrogram shape inconsistent with the transform plan, or a window
    or hop duration that is not finite and positive."""


# --- demixing updates ---------------------------------------------------


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


# --- audio I/O and simulation -------------------------------------------


class UnsupportedFormat(SeparationError):
    """Audio file encoding not supported."""


class IoFailure(SeparationError):
    """File could not be read or written."""


class LengthMismatch(SeparationError):
    """Waveforms that must share a length do not."""


# --- metrics ------------------------------------------------------------


class ZeroReference(SeparationError):
    """Reference signal is identically zero."""


class TooManySources(SeparationError):
    """Exhaustive permutation alignment limited to 6 sources."""

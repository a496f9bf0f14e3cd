"""Exception types raised across the toolkit.

Each class's parent names its category, and the CLI maps the category to
its exit code: :class:`InvalidInput` exits 1, :class:`FileError` exits 2,
and every other :class:`SeparationError` (a numerical failure, such as a
silent mixture or a cost that is not finite) exits 3.
"""

from __future__ import annotations


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
    """Spectrogram shape inconsistent with the transform plan, a window or
    hop duration that is not finite and positive, or an iSTFT length that is
    not a non-negative integer."""


# --- separation: numerical failure, exit 3 -------------------------------


class SilentMixture(SeparationError):
    """A mixture that is zero everywhere: every output, scale and demixing update
    of it is undefined, so it is refused before any iteration."""


class NonFiniteCost(SeparationError):
    """An iteration whose cost is NaN or infinite, as when ``beta / p`` is so
    large that the whitened ratio overflows: its updates are undefined, so the
    run stops there, before the iteration's record is handed on."""


# --- demixing updates: numerical failure, exit 3 -------------------------


class SingularCovariance(SeparationError):
    """Weighted covariance not invertible above the determinant floor."""


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

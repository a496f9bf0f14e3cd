"""Blind audio source separation with generalized-Gaussian ILRMA.

Estimates per-frequency demixing matrices jointly with low-rank
nonnegative source spectrogram models.  Super-Gaussian and Gaussian
shapes (0 < beta <= 2) use the classical iterative-projection update;
the sub-Gaussian shape beta = 4 uses a majorization-based direction/scale
update with guaranteed monotone cost descent.

:func:`run` separates a mixture spectrogram; the names below are what it
and the command-line interface take and return.  The update layers it
calls stay importable from their modules.
"""

from .cost import audit_descent
from .errors import SeparationError
from .metrics import align_permutation, si_sdr
from .mixsim import MixingSpec, mix, read_wav, synth_source, write_wav
from .pipeline import RunResult, run
from .stft import StftPlan, istft, stft
from .types import ConvergenceTrace, GgdConfig, MixtureSpectrogram, SourceSpectrogram

__version__ = "0.1.0"

__all__ = [
    "ConvergenceTrace",
    "GgdConfig",
    "MixingSpec",
    "MixtureSpectrogram",
    "RunResult",
    "SeparationError",
    "SourceSpectrogram",
    "StftPlan",
    "align_permutation",
    "audit_descent",
    "istft",
    "mix",
    "read_wav",
    "run",
    "si_sdr",
    "stft",
    "synth_source",
    "write_wav",
]

"""Blind audio source separation with generalized-Gaussian ILRMA.

Estimates per-frequency demixing matrices jointly with low-rank
nonnegative source spectrogram models.  Super-Gaussian and Gaussian
shapes (0 < beta <= 2) use the classical iterative-projection update;
the sub-Gaussian shape beta = 4 uses a majorization-based direction/scale
update with guaranteed monotone cost descent.
"""

from .cost import audit_descent, ggd_cost_arrays
from .demix_homogeneous import quartic_majorizer, quartic_sweep
from .demix_ip import ip_sweep
from .errors import SeparationError
from .metrics import align_permutation, si_sdr
from .mixsim import MixingSpec, mix, read_wav, synth_source, write_wav
from .pipeline import RunResult, back_project, initialize, run
from .source_model import update_activations_arrays, update_bases_arrays
from .stft import StftPlan, istft, stft
from .types import (
    ConvergenceTrace,
    GgdConfig,
    MixtureSpectrogram,
    SourceSpectrogram,
    validate_problem,
)

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
    "back_project",
    "ggd_cost_arrays",
    "initialize",
    "ip_sweep",
    "istft",
    "mix",
    "quartic_majorizer",
    "quartic_sweep",
    "read_wav",
    "run",
    "si_sdr",
    "stft",
    "synth_source",
    "update_activations_arrays",
    "update_bases_arrays",
    "validate_problem",
    "write_wav",
]

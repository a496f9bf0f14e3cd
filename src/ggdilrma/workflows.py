"""Audio-level orchestration shared by the CLI, benchmark, and tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import pipeline
from .errors import ShapeMismatch, SignalTooShort
from .metrics import align_permutation, si_sdr
from .stft import StftPlan, istft, stft
from .types import GgdConfig

#: Default analysis window and hop (ms) of :func:`separate_audio`.
WIN_MS = 128.0
HOP_MS = 64.0


def plan_from_ms(win_ms: float, hop_ms: float, sample_rate: int, n_samples=None) -> StftPlan:
    """Build a Hamming analysis plan from window/hop durations.

    Raises :class:`~ggdilrma.errors.ShapeMismatch` unless both durations
    are finite and positive, the frame length fits an array index and the
    hop is at most half the frame, and
    :class:`~ggdilrma.errors.SignalTooShort` if the frame is longer than
    ``n_samples`` (if given). All checks run before a window is built;
    lengths stay floats until then.
    """
    for name, ms in (("window", win_ms), ("hop", hop_ms)):
        if not (0.0 < ms < np.inf):
            raise ShapeMismatch(f"{name} duration must be finite and > 0 ms, got {ms}")
    frame_len = np.rint(win_ms * 1e-3 * sample_rate)  # a float: may be inf
    if n_samples is not None and frame_len > n_samples:
        raise SignalTooShort(f"signal length {n_samples} < frame length {frame_len:.0f}")
    if not frame_len < np.iinfo(np.intp).max:  # strict: compared as a float
        raise ShapeMismatch(f"frame length {frame_len:.0f} samples cannot index an array")
    hop_len = np.rint(hop_ms * 1e-3 * sample_rate)
    if hop_len > frame_len / 2:
        raise ShapeMismatch(f"hop {hop_len:.0f} longer than half the frame length {frame_len:.0f}")
    return StftPlan.hamming(int(frame_len), int(hop_len))


def separate_audio(
    samples: np.ndarray,
    sample_rate: int,
    cfg: GgdConfig,
    win_ms: float = WIN_MS,
    hop_ms: float = HOP_MS,
    reference_channel: int = 0,
    on_record: Optional[Callable] = None,
) -> tuple[np.ndarray, "pipeline.RunResult"]:
    """Separate a multichannel waveform end to end.

    Returns ``(estimates, result)`` where estimates are time-domain
    sources shaped ``(n_samples, N)``.
    """
    n_samples = np.asarray(samples).shape[0]
    plan = plan_from_ms(win_ms, hop_ms, sample_rate, n_samples)
    x = stft(samples, plan, sample_rate)
    result = pipeline.run(x, cfg, reference_channel=reference_channel, on_record=on_record)
    estimates = istft(result.sources, plan, length=n_samples)
    return estimates, result


@dataclass(frozen=True)
class EvaluationRow:
    """Scores for one aligned source."""

    source: int
    estimate_index: int
    sdr_db: float
    sdr_improvement_db: float


def evaluate_separation(
    estimates: Sequence[np.ndarray],
    references: Sequence[np.ndarray],
    mixture_at_ref_channel: np.ndarray,
) -> List[EvaluationRow]:
    """Align estimates to references and score each source."""
    alignment = align_permutation(estimates, references)
    rows = []
    for n, ref in enumerate(references):
        baseline = si_sdr(mixture_at_ref_channel, ref)
        rows.append(
            EvaluationRow(
                source=n + 1,
                estimate_index=alignment.permutation[n],
                sdr_db=alignment.sdr_db[n],
                sdr_improvement_db=alignment.sdr_db[n] - baseline,
            )
        )
    return rows

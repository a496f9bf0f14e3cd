"""Short-time Fourier analysis/synthesis with perfect reconstruction.

Analysis uses a periodic Hamming window; synthesis uses the least-squares
(weighted-overlap-add normalized) dual window so that

    sum_f window[t - f*hop] * synthesis_window[t - f*hop] = 1

holds exactly for every interior sample.  Signals are zero-padded by
``frame_len - hop_len`` on both ends so every original sample is covered
by a full set of frames.  Spectra are one-sided (``I = fft_size/2 + 1``)
with conjugate symmetry restored at synthesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ShapeMismatch, SignalTooShort
from .types import MixtureSpectrogram, SourceSpectrogram


def periodic_hamming(length: int) -> np.ndarray:
    """Periodic (DFT-even) Hamming window of the given length."""
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(length) / length)


@dataclass(frozen=True)
class StftPlan:
    """Analysis/synthesis windows and framing geometry.

    The hop must give at least 50% overlap (``hop <= len(window)/2``) so a
    perfect-reconstruction synthesis window exists for the Hamming family.
    """

    window: np.ndarray
    hop: int
    fft_size: int
    synthesis_window: np.ndarray

    @property
    def frame_len(self) -> int:
        return len(self.window)

    @property
    def pad(self) -> int:
        return self.frame_len - self.hop

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    @classmethod
    def hamming(cls, frame_len: int, hop_len: int) -> "StftPlan":
        """Build a plan from a periodic Hamming window and its LS dual."""
        if not (1 <= hop_len <= frame_len // 2):
            raise ShapeMismatch(
                f"hop {hop_len} must be in [1, frame_len/2] for frame_len {frame_len}"
            )
        window = periodic_hamming(frame_len)
        # Overlapped sum of squared analysis windows is hop-periodic.
        wsq = window**2
        profile = np.zeros(hop_len)
        for offset in range(0, frame_len, hop_len):
            seg = wsq[offset : offset + hop_len]
            profile[: len(seg)] += seg
        denom = profile[np.arange(frame_len) % hop_len]
        synthesis = window / denom
        return cls(
            window=window, hop=hop_len, fft_size=frame_len, synthesis_window=synthesis
        )


def _as_2d(signal: np.ndarray) -> np.ndarray:
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim == 1:
        signal = signal[:, None]
    if signal.ndim != 2:
        raise ShapeMismatch(f"signal must be 1-d or (samples, channels), got {signal.ndim}-d")
    return signal


def n_frames_for(plan: StftPlan, n_samples: int) -> int:
    """Frame count for a signal of the given length under ``plan``."""
    padded = n_samples + 2 * plan.pad
    return int(np.ceil((padded - plan.frame_len) / plan.hop)) + 1


def stft(signal: np.ndarray, plan: StftPlan, sample_rate: int) -> MixtureSpectrogram:
    """Transform multichannel samples into a one-sided complex spectrogram.

    Args:
        signal: ``(samples,)`` or ``(samples, channels)`` float array.
        plan: analysis plan; the signal must span at least one frame.
        sample_rate: sampling rate recorded in the result's metadata.

    Returns:
        :class:`MixtureSpectrogram` with ``data`` shaped ``(I, J, C)``.
    """
    signal = _as_2d(signal)
    n_samples, n_channels = signal.shape
    L, hop = plan.frame_len, plan.hop
    if n_samples < L:
        raise SignalTooShort(f"signal length {n_samples} < frame length {L}")

    J = n_frames_for(plan, n_samples)
    total = (J - 1) * hop + L
    padded = np.zeros((total, n_channels))
    padded[plan.pad : plan.pad + n_samples] = signal

    frames = np.lib.stride_tricks.sliding_window_view(padded, L, axis=0)[::hop]
    # frames: (J, C, L) -> windowed rfft along the last axis
    spec = np.fft.rfft(frames * plan.window, n=plan.fft_size, axis=-1)
    data = np.ascontiguousarray(spec.transpose(2, 0, 1))  # (I, J, C)
    return MixtureSpectrogram(
        data=data, sample_rate=sample_rate, frame_len=L, hop_len=hop
    )


def istft(
    spec: Union[MixtureSpectrogram, SourceSpectrogram, np.ndarray],
    plan: StftPlan,
    length: int,
) -> np.ndarray:
    """Resynthesize ``length`` samples from a one-sided spectrogram.

    Inverse of :func:`stft` up to the padded boundary region: the interior
    of a round trip reproduces the input to near machine precision.
    """
    data = spec.data if hasattr(spec, "data") else np.asarray(spec)
    if data.ndim != 3:
        raise ShapeMismatch(f"spectrogram must be (I, J, C), got {data.ndim}-d")
    I, J, C = data.shape
    if I != plan.n_bins:
        raise ShapeMismatch(f"{I} bins incompatible with fft_size {plan.fft_size}")

    frames = np.fft.irfft(data.transpose(1, 2, 0), n=plan.fft_size, axis=-1)  # (J,C,L)
    frames *= plan.synthesis_window
    total = (J - 1) * plan.hop + plan.frame_len
    out = np.zeros((total, C))
    for j in range(J):
        start = j * plan.hop
        out[start : start + plan.frame_len] += frames[j].T
    signal = out[plan.pad : plan.pad + length]
    if signal.shape[0] < length:
        signal = np.vstack([signal, np.zeros((length - signal.shape[0], C))])
    return signal

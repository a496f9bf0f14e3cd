"""Short-time Fourier analysis/synthesis with perfect reconstruction.

Analysis uses a periodic Hamming window; synthesis uses the least-squares
(weighted-overlap-add normalized) dual window so that

    sum_f window[t - f*hop] * synthesis_window[t - f*hop] = 1

holds exactly for every interior sample.  Signals are zero-padded by
``frame_len - hop_len`` on both ends so every original sample is covered
by a full set of frames.  Each frame is transformed at its own length, so
spectra are one-sided with ``I = frame_len/2 + 1`` bins; conjugate
symmetry is restored at synthesis.

Both directions transform blocks of frames (:func:`~ggdilrma.pool.bin_blocks`
along the frames), on the package's thread pool above the crossover
(:func:`~ggdilrma.pool.run_parts`): :func:`stft` writes each
block's spectra straight into the ``(I, J, C)`` result, and :func:`istft`
writes each block's windowed frames into one ``(C, J, L)`` buffer.  numpy's
FFT transforms every frame on its own, so the blocks give the bytes of one
batch on any number of CPUs.  The overlap-add then takes one vector add per
hop-long segment of the frames, by channel on the pool
(:func:`~ggdilrma.pool.source_block_parts`, with one block of all frames):
output block ``b`` takes segment ``k`` of frame ``b - k``, and the segments
are added from the last to the first, so every sample adds its frames' terms
in the order of the frames, for any hop.  :func:`istft` returns a
``(length, C)`` view of a channels-first buffer, so each channel's samples
are contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ShapeMismatch, SignalTooShort
from .pool import bin_blocks, run_parts, source_block_parts, threads
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
    synthesis_window: np.ndarray

    @property
    def frame_len(self) -> int:
        return len(self.window)

    @property
    def pad(self) -> int:
        return self.frame_len - self.hop

    @property
    def n_bins(self) -> int:
        return self.frame_len // 2 + 1

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
        return cls(window=window, hop=hop_len, synthesis_window=synthesis)


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
    padded = np.zeros((n_channels, total))  # channels first, so each frame is contiguous
    padded[:, plan.pad : plan.pad + n_samples] = signal.T

    frames = np.lib.stride_tricks.sliding_window_view(padded, L, axis=1)[:, ::hop]  # (C, J, L)
    data = np.empty((plan.n_bins, J, n_channels), dtype=np.complex128)

    def analyze(js):  # the windowed rfft of the frames js, into their columns of data
        np.fft.rfft(frames[:, js] * plan.window, axis=-1, out=data[:, js].transpose(2, 1, 0))

    blocks = bin_blocks(J, n_channels * L)
    run_parts(analyze, blocks, threads(len(blocks), J * n_channels * plan.n_bins))
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
    if isinstance(spec, (MixtureSpectrogram, SourceSpectrogram)):
        spec = spec.data
    data = np.asarray(spec)
    if data.ndim != 3:
        raise ShapeMismatch(f"spectrogram must be (I, J, C), got {data.ndim}-d")
    I, J, C = data.shape
    if I != plan.n_bins:
        raise ShapeMismatch(f"{I} bins incompatible with frame_len {plan.frame_len}")

    L, hop = plan.frame_len, plan.hop
    frames = np.empty((C, J, L))

    def synthesize(js):  # the windowed irfft of the frames js
        np.fft.irfft(data[:, js].transpose(2, 1, 0), n=L, axis=-1, out=frames[:, js])
        frames[:, js] *= plan.synthesis_window

    blocks = bin_blocks(J, C * L)
    run_parts(synthesize, blocks, threads(len(blocks), J * C * I))
    # Overlap-add: hop-long block b of the output sums segment k of frame b - k for
    # every k, in the order of the frames, so the segments are added from the last
    # (k = phases - 1) to the first, each with one add over all frames at once.
    phases = -(-L // hop)
    n_hops = max(J + phases - 1, -(-(plan.pad + length) // hop))
    out = np.zeros((C, n_hops, hop))  # zeros past the last frame

    def overlap_add(part):
        cs = part[0]  # every frame's segments, by channel
        for k in reversed(range(phases)):
            seg = min(hop, L - k * hop)
            out[cs, k : k + J, :seg] += frames[cs, :, k * hop : k * hop + seg]

    run_parts(overlap_add, *source_block_parts(C, 1, C * J * L))
    return out.reshape(C, -1)[:, plan.pad : plan.pad + length].T

"""Frame-by-frame synthesis: the test oracle for :func:`ggdilrma.stft.istft`.

It transforms every frame at once and adds the frames into the output one at a
time, in their order, so each output sample takes its frames' terms in the
order of the frames.
"""

import numpy as np


def istft_by_frames(data: np.ndarray, plan, length: int) -> np.ndarray:
    """``length`` samples ``(length, C)`` from a one-sided spectrogram ``(I, J, C)``
    under the :class:`~ggdilrma.stft.StftPlan` ``plan``."""
    J, C = data.shape[1:]
    frames = np.fft.irfft(data.transpose(1, 2, 0), n=plan.frame_len, axis=-1)  # (J, C, L)
    frames *= plan.synthesis_window
    total = (J - 1) * plan.hop + plan.frame_len
    out = np.zeros((max(total, plan.pad + length), C))  # zeros past the last frame
    for j in range(J):
        start = j * plan.hop
        out[start : start + plan.frame_len] += frames[j].T
    return out[plan.pad : plan.pad + length]

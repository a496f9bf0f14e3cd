"""WAV I/O plus synthetic source and mixture generation.

Generators are deterministic under a seed and cover the statistical
regimes the separator is meant to handle: platykurtic (sub-Gaussian)
noise, Gaussian noise, leptokurtic (super-Gaussian) noise, and tonal
material whose magnitude spectrogram is low-rank by construction.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.io import wavfile

from .errors import DegenerateShape, IoFailure, LengthMismatch, UnsupportedFormat

SOURCE_KINDS = ("subgaussian", "gaussian", "supergaussian", "low_rank_tonal")

#: Target RMS of synthesized sources (leaves float32 WAV headroom).
_TARGET_RMS = 0.125

#: Sinusoids in a ``low_rank_tonal`` source (the rank of its spectrogram).
_TONAL_RANK = 2

#: Impulse-response file naming inside an IR directory (1-based indices).
IR_NAME_TEMPLATE = "ir_m{m}_n{n}.wav"


def read_wav(path: str) -> Tuple[np.ndarray, int]:
    """Read a PCM16 or float32 WAV file.

    Returns ``(samples, sample_rate)`` where samples are float64 in
    [-1, 1] shaped ``(n_samples, n_channels)``.
    """
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError as exc:
        raise IoFailure(str(exc)) from exc
    except ValueError as exc:
        raise UnsupportedFormat(str(exc)) from exc
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise UnsupportedFormat(f"unsupported WAV sample format {data.dtype}")
    if samples.ndim == 1:
        samples = samples[:, None]
    return samples, int(rate)


def write_wav(path: str, samples: np.ndarray, sample_rate: int) -> None:
    """Write samples as a float32 WAV file."""
    samples = np.asarray(samples)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2:
        raise DegenerateShape("samples must be (n_samples,) or (n_samples, n_channels)")
    data = samples.astype(np.float32)
    if data.shape[1] == 1:
        data = data[:, 0]
    try:
        wavfile.write(path, int(sample_rate), data)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def synth_source(kind: str, length: int, seed: int) -> np.ndarray:
    """Generate one synthetic test source.

    Kinds:
        ``subgaussian``: uniform noise with a gentle rank-1 spectral
            envelope -- a two-tap tilt plus slow amplitude modulation --
            keeping the sample law platykurtic (empirical excess kurtosis
            around -0.7).
        ``gaussian``: white standard-normal noise.
        ``supergaussian``: white Laplacian noise (excess kurtosis 3).
        ``low_rank_tonal``: sum of two amplitude-modulated sinusoids,
            giving a magnitude spectrogram of rank <= 2.

    All outputs are scaled to a fixed RMS and deterministic per seed.
    """
    if length < 1:
        raise DegenerateShape("length must be >= 1")
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    if kind == "subgaussian":
        u = rng.uniform(-1.0, 1.0, size=length + 1)
        x = u[1:] + 0.3 * u[:-1]
        mod_rate = 10 ** rng.uniform(-4.7, -4.0)
        x = x * (1.0 + 0.3 * np.sin(2.0 * np.pi * mod_rate * t + rng.uniform(0, 2 * np.pi)))
    elif kind == "gaussian":
        x = rng.standard_normal(length)
    elif kind == "supergaussian":
        x = rng.laplace(0.0, 1.0, size=length)
    elif kind == "low_rank_tonal":
        rank = _TONAL_RANK
        freqs = 0.03 + 0.19 * (np.arange(rank) + rng.uniform(0.1, 0.9, size=rank)) / rank
        x = np.zeros(length)
        for k in range(rank):
            mod_rate = 10 ** rng.uniform(-4.7, -4.0)
            env = 0.55 + 0.45 * np.sin(2.0 * np.pi * mod_rate * t + rng.uniform(0, 2 * np.pi))
            x += env * np.sin(2.0 * np.pi * freqs[k] * t + rng.uniform(0, 2 * np.pi))
    else:
        raise DegenerateShape(f"unknown source kind {kind!r}; choose from {SOURCE_KINDS}")
    rms = float(np.sqrt(np.mean(x**2)))
    return x * (_TARGET_RMS / rms) if rms > 0.0 else x


@dataclass(frozen=True)
class MixingSpec:
    """Instantaneous gain matrix or per-pair FIR mixing system.

    Attributes:
        mode: ``"instantaneous"`` or ``"convolutive"``.
        matrix: ``(M, N)`` gains (instantaneous mode).
        impulse_responses: ``(M, N, taps)`` FIR taps (convolutive mode).
    """

    mode: str
    matrix: Optional[np.ndarray] = None
    impulse_responses: Optional[np.ndarray] = None

    def validate(self) -> None:
        if self.mode == "instantaneous":
            A = self.matrix
            if A is None or np.asarray(A).ndim != 2:
                raise DegenerateShape("instantaneous mixing needs an (M, N) matrix")
            A = np.asarray(A)
            if A.shape[0] == A.shape[1] and abs(np.linalg.det(A)) == 0.0:
                raise DegenerateShape("square mixing matrix must be nonsingular")
        elif self.mode == "convolutive":
            H = self.impulse_responses
            if H is None or np.asarray(H).ndim != 3:
                raise DegenerateShape("convolutive mixing needs (M, N, taps) responses")
        else:
            raise DegenerateShape(f"unknown mixing mode {self.mode!r}")

    @property
    def n_sources(self) -> int:
        src = self.matrix if self.mode == "instantaneous" else self.impulse_responses
        return np.asarray(src).shape[1]


def mix(sources: Sequence[np.ndarray], spec: MixingSpec) -> np.ndarray:
    """Mix N equal-length source waveforms into M observation channels.

    Instantaneous: ``x_m = sum_n A[m, n] s_n``.  Convolutive: full
    convolution with each pair's FIR, truncated to the source length.
    Returns samples shaped ``(n_samples, M)``.
    """
    spec.validate()
    sources = [np.asarray(s, dtype=np.float64).ravel() for s in sources]
    if len(sources) != spec.n_sources:
        raise LengthMismatch(f"{len(sources)} sources for an N={spec.n_sources} system")
    length = len(sources[0])
    if any(len(s) != length for s in sources):
        raise LengthMismatch("sources must share one length")
    S = np.stack(sources, axis=1)  # (T, N)
    if spec.mode == "instantaneous":
        return S @ np.asarray(spec.matrix, dtype=np.float64).T
    H = np.asarray(spec.impulse_responses, dtype=np.float64)
    M = H.shape[0]
    out = np.zeros((length, M))
    for m in range(M):
        for n in range(H.shape[1]):
            out[:, m] += np.convolve(S[:, n], H[m, n])[:length]
    return out


def load_impulse_responses(directory: str, n_channels: int, n_sources: int) -> MixingSpec:
    """Load a convolutive mixing system from ``ir_m{m}_n{n}.wav`` files."""
    taps: List[List[np.ndarray]] = []
    length = None
    for m in range(1, n_channels + 1):
        row = []
        for n in range(1, n_sources + 1):
            path = os.path.join(directory, IR_NAME_TEMPLATE.format(m=m, n=n))
            samples, _ = read_wav(path)
            h = samples[:, 0]
            if length is None:
                length = len(h)
            elif len(h) != length:
                raise LengthMismatch("impulse responses must share one length")
            row.append(h)
        taps.append(row)
    return MixingSpec(mode="convolutive", impulse_responses=np.array(taps))


def parse_matrix(text: str) -> np.ndarray:
    """Parse a row-separated gain matrix like ``"1,0.5;0.5,1"``."""
    rows = [r for r in re.split(r";", text.strip()) if r.strip()]
    try:
        mat = np.array([[float(v) for v in row.split(",")] for row in rows])
    except ValueError as exc:
        raise DegenerateShape(f"cannot parse matrix {text!r}") from exc
    if mat.ndim != 2:
        raise DegenerateShape(f"matrix {text!r} is ragged")
    return mat

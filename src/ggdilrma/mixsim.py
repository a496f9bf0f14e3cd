"""WAV I/O plus synthetic source and mixture generation.

WAV files are read and written with numpy and ``struct`` alone. Reading
accepts 16-bit PCM and 32-bit IEEE float samples in RIFF (little-endian),
RIFX (big-endian) and RF64 files, with a plain or ``WAVE_FORMAT_EXTENSIBLE``
``fmt `` chunk; writing produces 32-bit float RIFF files.

Generators are deterministic under a seed and cover the statistical
regimes the separator is meant to handle: platykurtic (sub-Gaussian)
noise, Gaussian noise, leptokurtic (super-Gaussian) noise, and tonal
material whose magnitude spectrogram is low-rank by construction.
"""

from __future__ import annotations

import os
import re
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateShape, IoFailure, LengthMismatch, NonFiniteInput, UnsupportedFormat

SOURCE_KINDS = ("subgaussian", "gaussian", "supergaussian", "low_rank_tonal")

#: Target RMS of synthesized sources (leaves float32 WAV headroom).
_TARGET_RMS = 0.125

#: Sinusoids in a ``low_rank_tonal`` source (the rank of its spectrogram).
_TONAL_RANK = 2

#: Impulse-response file naming inside an IR directory (1-based indices).
IR_NAME_TEMPLATE = "ir_m{m}_n{n}.wav"

#: WAVE format tags: integer PCM, IEEE float, and the extensible form
#: whose sub-format GUID names one of the two.
_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE

#: Last eight bytes of every sub-format GUID (stored big-endian in any file).
_GUID_TAIL = b"\x80\x00\x00\xaa\x00\x38\x9b\x71"


def read_wav(path: str) -> Tuple[np.ndarray, int]:
    """Read a 16-bit PCM or 32-bit IEEE float WAV file.

    Accepts RIFF (little-endian), RIFX (big-endian) and RF64 files, with a
    plain or ``WAVE_FORMAT_EXTENSIBLE`` ``fmt `` chunk. Chunks before
    ``data`` other than ``fmt `` are skipped (word-aligned), and a ``data``
    chunk cut short keeps its whole frames. Returns ``(samples,
    sample_rate)`` where samples are float64 shaped ``(n_samples,
    n_channels)``; PCM16 is scaled by 1/32768.

    Raises :class:`~ggdilrma.errors.IoFailure` if the file cannot be read
    and :class:`~ggdilrma.errors.UnsupportedFormat` for anything else,
    including a header cut short.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    data, rate = _decode_wav(raw)
    if data.dtype.kind == "i":
        return data / 32768.0, rate
    return data.astype(np.float64), rate


def _unpack(layout: str, raw: bytes, offset: int) -> tuple:
    """``struct.unpack_from`` that raises UnsupportedFormat where ``raw`` ends."""
    if offset + struct.calcsize(layout) > len(raw):
        raise UnsupportedFormat(f"WAV file cut short: it ends at byte {len(raw)}")
    return struct.unpack_from(layout, raw, offset)


def _decode_wav(raw: bytes) -> Tuple[np.ndarray, int]:
    """The ``(frames, channels)`` samples of a WAV file, in their stored
    dtype (a read-only view of ``raw``), and its sample rate."""
    magic, _, form = _unpack("<4sI4s", raw, 0)
    if magic not in (b"RIFF", b"RIFX", b"RF64") or form != b"WAVE":
        raise UnsupportedFormat(f"not a RIFF, RIFX or RF64 WAVE file: starts {raw[:12]!r}")
    order = ">" if magic == b"RIFX" else "<"
    pos, fmt = 12, None
    if magic == b"RF64":
        ds64, ds64_size, _, rf64_data_size = _unpack("<4sIQQ", raw, pos)
        if ds64 != b"ds64" or ds64_size < 16:
            raise UnsupportedFormat("RF64 file without a ds64 chunk after its header")
        pos += 8 + ds64_size + ds64_size % 2
    while True:
        chunk_id, size = _unpack(order + "4sI", raw, pos)
        body = pos + 8
        if chunk_id == b"data":
            break
        if chunk_id == b"fmt ":
            fmt = _decode_fmt(raw, body, size, order)
        pos = body + size + size % 2
    if fmt is None:
        raise UnsupportedFormat("WAV data chunk before any fmt chunk")
    channels, rate, dtype = fmt
    if magic == b"RF64":
        size = rf64_data_size
    frames = min(size, len(raw) - body) // (channels * dtype.itemsize)
    data = np.frombuffer(raw, dtype=dtype, count=frames * channels, offset=body)
    return data.reshape(frames, channels), rate


def _decode_fmt(raw: bytes, body: int, size: int, order: str) -> Tuple[int, int, np.dtype]:
    """``(channels, sample_rate, sample dtype)`` of a ``fmt `` chunk."""
    if size < 16:
        raise UnsupportedFormat(f"WAV fmt chunk of {size} bytes; at least 16 expected")
    tag, channels, rate, _, block_align, bits = _unpack(order + "HHIIHH", raw, body)
    if tag == _EXTENSIBLE and size >= 40:
        # The sub-format GUID {XXXXXXXX-0000-0010-8000-00AA00389B71}
        # carries the format tag in its first field.
        sub_tag, guid_tail = _unpack(order + "I12s", raw, body + 24)
        if guid_tail == struct.pack(order + "HH", 0, 0x10) + _GUID_TAIL:
            tag = sub_tag
    if tag == _PCM and 9 <= bits <= 16 and block_align == 2 * channels > 0:
        return channels, rate, np.dtype(order + "i2")
    if tag == _IEEE_FLOAT and bits == 32 and block_align == 4 * channels > 0:
        return channels, rate, np.dtype(order + "f4")
    raise UnsupportedFormat(
        f"unsupported WAV encoding: format tag {tag:#06x}, {bits} bits, "
        f"{channels} channels, {block_align}-byte frames; "
        "only 16-bit PCM and 32-bit IEEE float are read"
    )


def float32_samples(samples: np.ndarray) -> Optional[np.ndarray]:
    """``samples`` as little-endian 32-bit floats, or ``None`` if any is not finite
    as one; a sample that overflows the cast raises no warning."""
    with np.errstate(over="ignore"):  # an overflow reads as inf below
        data = np.asarray(samples).astype("<f4")
    return data if np.all(np.isfinite(data)) else None


def write_wav(path: str, samples: np.ndarray, sample_rate: int) -> None:
    """Write samples as a 32-bit IEEE float RIFF WAV file.

    The layout is the common one for float WAV: an 18-byte ``fmt `` chunk,
    a ``fact`` chunk holding the frame count, then ``data``.  Samples that
    are not finite as 32-bit floats raise ``UnsupportedFormat`` before the
    file is opened.
    """
    samples = np.asarray(samples)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.ndim != 2:
        raise DegenerateShape("samples must be (n_samples,) or (n_samples, n_channels)")
    data = float32_samples(samples)
    if data is None:
        raise UnsupportedFormat("samples must be finite as 32-bit floats")
    frames, channels = data.shape
    rate, frame_bytes = int(sample_rate), 4 * channels
    fits = 0 < frame_bytes <= 0xFFFF and 0 < rate * frame_bytes <= 0xFFFFFFFF
    if not fits or data.nbytes > 0xFFFFFFFF - 50:
        raise UnsupportedFormat(
            f"{channels} channels of {frames} samples at {rate} Hz do not fit a RIFF WAV header"
        )
    fmt = struct.pack("<HHIIHHH", _IEEE_FLOAT, channels, rate, rate * frame_bytes, frame_bytes, 32, 0)
    header = b"RIFF" + struct.pack("<I", 50 + data.nbytes) + b"WAVE"
    header += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    header += b"fact" + struct.pack("<II", 4, frames)
    header += b"data" + struct.pack("<I", data.nbytes)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            data.tofile(fh)
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
            if not np.all(np.isfinite(A)):
                raise NonFiniteInput("mixing gains must be finite")
            if A.shape[0] == A.shape[1] and abs(np.linalg.det(A)) == 0.0:
                raise DegenerateShape("square mixing matrix must be nonsingular")
        elif self.mode == "convolutive":
            H = self.impulse_responses
            if H is None or np.asarray(H).ndim != 3:
                raise DegenerateShape("convolutive mixing needs (M, N, taps) responses")
            if not np.all(np.isfinite(H)):
                raise NonFiniteInput("impulse-response taps must be finite")
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

"""WAV reader and writer against ``scipy.io.wavfile`` as an independent oracle.

scipy is a test dependency only: the package reads and writes WAV files
with numpy and ``struct`` (``test_import_guard.py`` keeps it that way).
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.io import wavfile

from ggdilrma.errors import IoFailure, UnsupportedFormat
from ggdilrma.mixsim import read_wav, write_wav

RATE = 16000
GUID_TAIL = b"\x80\x00\x00\xaa\x00\x38\x9b\x71"
CONTAINERS = ["RIFF", "RIFX", "RF64"]

payloads = st.sampled_from([np.int16, np.float32]).flatmap(
    lambda dtype: arrays(
        dtype,
        st.tuples(st.integers(0, 4000), st.integers(1, 6)),
        elements=st.floats(width=32) if dtype is np.float32 else None,
    )
)
#: What ``write_wav`` accepts: it refuses samples that are not finite.
finite_float32 = arrays(
    np.float32,
    st.tuples(st.integers(0, 4000), st.integers(1, 6)),
    elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
)
examples = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def chunk(chunk_id: bytes, body: bytes, order: str = "<", size: int = None) -> bytes:
    size = len(body) if size is None else size
    return chunk_id + struct.pack(order + "I", size) + body + b"\x00" * (len(body) % 2)


def build_wav(data, container="RIFF", extensible=False, extra=()) -> bytes:
    """A WAV file laid out by hand: any container, either fmt form, and
    ``extra`` ``(id, body)`` chunks both before and after ``data``."""
    order = ">" if container == "RIFX" else "<"
    extra = b"".join(chunk(chunk_id, body, order) for chunk_id, body in extra)
    frames, channels = data.shape
    width = data.dtype.itemsize
    tag = 3 if data.dtype.kind == "f" else 1
    fields = (channels, RATE, RATE * width * channels, width * channels, 8 * width)
    if extensible:
        guid = struct.pack(order + "IHH", tag, 0, 0x10) + GUID_TAIL
        fmt = struct.pack(order + "HHIIHHHHI", 0xFFFE, *fields, 22, 8 * width, 0) + guid
    else:
        fmt = struct.pack(order + "HHIIHH", tag, *fields)
    payload = data.astype(data.dtype.newbyteorder(order)).tobytes()
    if container != "RF64":
        data_chunk = chunk(b"data", payload, order)
        body = b"WAVE" + chunk(b"fmt ", fmt, order) + extra + data_chunk + extra
        return container.encode() + struct.pack(order + "I", len(body)) + body
    tail = chunk(b"fmt ", fmt) + extra + chunk(b"data", payload, size=0xFFFFFFFF) + extra
    riff_size = 4 + 8 + 28 + len(tail)
    ds64 = chunk(b"ds64", struct.pack("<QQQI", riff_size, len(payload), frames, 0))
    return b"RF64\xff\xff\xff\xffWAVE" + ds64 + tail


def as_float64(data: np.ndarray) -> np.ndarray:
    """What ``read_wav`` returns for stored samples ``data``."""
    data = data[:, None] if data.ndim == 1 else data
    return data / 32768.0 if data.dtype.kind == "i" else data.astype(np.float64)


def scipy_wav_bytes(data: np.ndarray, tmp_path) -> bytes:
    path = tmp_path / "scipy.wav"
    wavfile.write(path, RATE, data)
    return path.read_bytes()


def read_bytes(raw: bytes, tmp_path):
    path = tmp_path / "probe.wav"
    path.write_bytes(raw)
    return read_wav(str(path))


def with_list_chunk(raw: bytes) -> bytes:
    """``raw`` with an odd-sized LIST chunk spliced in before ``data``."""
    at = raw.index(b"data", 12)
    spliced = raw[:at] + chunk(b"LIST", b"INFOISFT\x03\x00\x00\x00ab\x00") + raw[at:]
    return spliced[:4] + struct.pack("<I", len(spliced) - 8) + spliced[8:]


@examples
@given(data=payloads)
def test_reads_what_scipy_writes_and_reads(data, tmp_path):
    # scipy writes one channel as a mono file, which both read back as 1-d
    stored = data[:, 0] if data.shape[1] == 1 else data
    plain = scipy_wav_bytes(stored, tmp_path)
    for raw in (plain, with_list_chunk(plain)):
        samples, rate = read_bytes(raw, tmp_path)
        oracle_rate, oracle = wavfile.read(tmp_path / "probe.wav")
        assert rate == oracle_rate == RATE
        assert samples.dtype == np.float64 and samples.shape == data.shape
        np.testing.assert_array_equal(samples, as_float64(oracle))


@examples
@given(data=payloads)
def test_hand_built_headers_read_like_the_plain_file(data, tmp_path):
    expected = as_float64(data)
    for container in CONTAINERS:
        for extensible in (False, True):
            raw = build_wav(data, container, extensible, extra=[(b"LIST", b"INFO\x01")])
            samples, rate = read_bytes(raw, tmp_path)
            assert rate == RATE
            np.testing.assert_array_equal(samples, expected, err_msg=f"{container} {extensible}")
            # the hand-built file is one scipy reads the same way
            _, oracle = wavfile.read(tmp_path / "probe.wav")
            np.testing.assert_array_equal(as_float64(oracle), expected)


@examples
@given(data=finite_float32)
def test_write_wav_is_bit_identical_float32_for_scipy(data, tmp_path):
    path = tmp_path / "out.wav"
    write_wav(str(path), data, RATE)
    rate, back = wavfile.read(path)
    assert rate == RATE and back.dtype == np.float32
    np.testing.assert_array_equal(back.reshape(data.shape).view(np.uint32), data.view(np.uint32))
    stored = data[:, 0] if data.shape[1] == 1 else data
    assert path.read_bytes() == scipy_wav_bytes(stored, tmp_path)


@pytest.mark.parametrize("dtype", [np.int16, np.float32])
def test_every_prefix_reads_whole_frames_or_raises_unsupported_format(dtype, tmp_path):
    data = (np.random.default_rng(0).uniform(-0.9, 0.9, (9, 2)) * 32767).astype(dtype)
    raw = with_list_chunk(scipy_wav_bytes(data, tmp_path))
    data_start = raw.index(b"data", 12) + 8
    expected = as_float64(data)
    for n in range(len(raw) + 1):
        try:
            samples, _ = read_bytes(raw[:n], tmp_path)
        except UnsupportedFormat:
            assert n < data_start, f"a {n}-byte prefix holds the whole header"
            continue
        frames = (n - data_start) // data[0].nbytes
        np.testing.assert_array_equal(samples, expected[:frames], err_msg=f"{n}-byte prefix")


def test_missing_file_or_directory_is_an_io_failure(tmp_path):
    for path in (tmp_path / "absent.wav", tmp_path):
        with pytest.raises(IoFailure):
            read_wav(str(path))
    with pytest.raises(IoFailure):
        write_wav(str(tmp_path / "absent" / "x.wav"), np.zeros(4), RATE)


def pcm16_fmt(tag=1, channels=1, block_align=2, bits=16):
    return chunk(
        b"fmt ", struct.pack("<HHIIHH", tag, channels, RATE, RATE * block_align, block_align, bits)
    )


def riff(*chunks: bytes, form: bytes = b"WAVE") -> bytes:
    body = form + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


DATA = chunk(b"data", bytes(8))


@pytest.mark.parametrize(
    "raw",
    [
        b"",
        riff(pcm16_fmt(), DATA, form=b"AVI "),
        b"RF64\xff\xff\xff\xffWAVE" + chunk(b"JUNK", bytes(28)) + pcm16_fmt() + DATA,
        riff(DATA, pcm16_fmt()),
        riff(chunk(b"fmt ", pcm16_fmt()[8:22]), DATA),
        riff(pcm16_fmt(bits=8, block_align=1), DATA),
        riff(pcm16_fmt(bits=24, block_align=3), DATA),
        riff(pcm16_fmt(tag=6, bits=8, block_align=1), DATA),
        riff(pcm16_fmt(channels=0, block_align=0), DATA),
        riff(pcm16_fmt(tag=0xFFFE), DATA),
    ],
    ids=[
        "empty", "not-wave", "rf64-without-ds64", "data-before-fmt", "short-fmt",
        "pcm8", "pcm24", "a-law", "no-channels", "extensible-without-guid",
    ],
)
def test_other_layouts_raise_unsupported_format(raw, tmp_path):
    with pytest.raises(UnsupportedFormat):
        read_bytes(raw, tmp_path)


@pytest.mark.parametrize(
    "rate, channels", [(0, 2), (-16000, 2), (2**32, 2), (16000, 0), (16000, 2**14)]
)
def test_rate_or_channels_outside_the_header_fields_are_unsupported(rate, channels, tmp_path):
    with pytest.raises(UnsupportedFormat):
        write_wav(str(tmp_path / "x.wav"), np.zeros((4, channels)), rate)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39], ids=["nan", "inf", "float32-overflow"])
def test_samples_not_finite_as_float32_are_unsupported_and_write_nothing(bad, tmp_path):
    samples = np.zeros((4, 2))
    samples[2, 1] = bad
    with pytest.raises(UnsupportedFormat, match="finite"):
        write_wav(str(tmp_path / "x.wav"), samples, 16000)
    assert list(tmp_path.iterdir()) == []

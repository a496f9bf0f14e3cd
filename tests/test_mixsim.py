"""WAV I/O, synthetic source statistics, and mixing operators."""

import numpy as np
import pytest

from ggdilrma.errors import DegenerateShape, LengthMismatch, NonFiniteInput, UnsupportedFormat
from ggdilrma.mixsim import (
    MixingSpec,
    load_impulse_responses,
    mix,
    parse_matrix,
    read_wav,
    synth_source,
    write_wav,
)


def excess_kurtosis(x):
    x = x - x.mean()
    return float(np.mean(x**4) / np.var(x) ** 2 - 3.0)


class TestWavIo:
    def test_float32_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-1, 1, size=(5000, 2)).astype(np.float32).astype(np.float64)
        path = str(tmp_path / "x.wav")
        write_wav(path, samples, 16000)
        back, rate = read_wav(path)
        assert rate == 16000
        np.testing.assert_array_equal(back, samples)

    def test_pcm16_normalization(self, tmp_path):
        from scipy.io import wavfile

        path = str(tmp_path / "pcm.wav")
        wavfile.write(path, 16000, np.array([32767, -32768, 0, 16384], dtype=np.int16))
        samples, rate = read_wav(path)
        assert rate == 16000
        assert samples[0, 0] == pytest.approx(32767 / 32768)
        assert samples[1, 0] == pytest.approx(-1.0)
        assert samples[3, 0] == pytest.approx(0.5)

    def test_mono_fixture_sample_rate(self, tmp_path):
        path = str(tmp_path / "mono.wav")
        write_wav(path, np.zeros(100), 16000)
        samples, rate = read_wav(path)
        assert rate == 16000
        assert samples.shape == (100, 1)

    def test_unsupported_dtype(self, tmp_path):
        from scipy.io import wavfile

        path = str(tmp_path / "f64.wav")
        wavfile.write(path, 8000, np.zeros(16, dtype=np.float64))
        with pytest.raises(UnsupportedFormat):
            read_wav(path)


class TestSynthSource:
    def test_subgaussian_kurtosis_window(self):
        for seed in range(5):
            x = synth_source("subgaussian", 65536, seed=seed)
            assert -1.5 < excess_kurtosis(x) < -0.3

    def test_gaussian_kurtosis_near_zero(self):
        for seed in range(5):
            x = synth_source("gaussian", 65536, seed=seed)
            assert -0.2 < excess_kurtosis(x) < 0.2

    def test_supergaussian_heavy_tails(self):
        for seed in range(5):
            x = synth_source("supergaussian", 65536, seed=seed)
            assert excess_kurtosis(x) > 1.0

    def test_low_rank_tonal_rank_two_energy(self):
        from ggdilrma.stft import StftPlan, stft

        for seed in range(3):
            x = synth_source("low_rank_tonal", 160000, seed=seed)
            plan = StftPlan.hamming(2048, 1024)
            mags = np.abs(stft(x, plan, 16000).data[:, :, 0])
            sv = np.linalg.svd(mags, compute_uv=False)
            energy = np.sum(sv**2)
            assert np.sum(sv[:2] ** 2) >= 0.95 * energy

    def test_deterministic_under_seed(self):
        for kind in ("subgaussian", "gaussian", "supergaussian", "low_rank_tonal"):
            a = synth_source(kind, 4096, seed=11)
            b = synth_source(kind, 4096, seed=11)
            np.testing.assert_array_equal(a, b)


class TestMix:
    def test_identity_matrix(self):
        rng = np.random.default_rng(1)
        s = [rng.standard_normal(500) for _ in range(2)]
        out = mix(s, MixingSpec(mode="instantaneous", matrix=np.eye(2)))
        np.testing.assert_array_equal(out[:, 0], s[0])
        np.testing.assert_array_equal(out[:, 1], s[1])

    def test_unitary_mixing_preserves_energy(self):
        n = 4096
        s = [np.sin(2 * np.pi * 0.05 * np.arange(n)), np.cos(2 * np.pi * 0.125 * np.arange(n))]
        A = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        out = mix(s, MixingSpec(mode="instantaneous", matrix=A))
        for m in range(2):
            assert np.sum(out[:, m] ** 2) == pytest.approx(np.sum(s[m] ** 2), rel=1e-2)

    def test_superposition(self):
        rng = np.random.default_rng(2)
        a = [rng.standard_normal(300) for _ in range(2)]
        b = [rng.standard_normal(300) for _ in range(2)]
        spec = MixingSpec(mode="instantaneous", matrix=np.array([[1.0, 0.6], [0.5, 1.0]]))
        lhs = mix([a[0] + 2 * b[0], a[1] + 2 * b[1]], spec)
        rhs = mix(a, spec) + 2 * mix(b, spec)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_single_tap_convolution_equals_instantaneous(self):
        rng = np.random.default_rng(3)
        s = [rng.standard_normal(400) for _ in range(2)]
        gains = np.array([[1.0, 0.6], [0.5, 1.0]])
        inst = mix(s, MixingSpec(mode="instantaneous", matrix=gains))
        conv = mix(s, MixingSpec(mode="convolutive", impulse_responses=gains[:, :, None]))
        np.testing.assert_allclose(conv, inst, atol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_taps_are_rejected(self, bad):
        taps = np.ones((2, 2, 3))
        taps[1, 0, 2] = bad
        with pytest.raises(NonFiniteInput, match="taps must be finite"):
            mix([np.zeros(10)] * 2, MixingSpec(mode="convolutive", impulse_responses=taps))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mix(
                [np.zeros(10), np.zeros(11)],
                MixingSpec(mode="instantaneous", matrix=np.eye(2)),
            )

    @pytest.mark.parametrize(
        "spec",
        [
            MixingSpec(mode="instantaneous", matrix=np.eye(2)),
            MixingSpec(mode="convolutive", impulse_responses=np.ones((2, 2, 3))),
        ],
        ids=["instantaneous", "convolutive"],
    )
    def test_sources_of_no_samples_are_rejected(self, spec):
        with pytest.raises(DegenerateShape, match="at least one sample"):
            mix([np.zeros(0)] * 2, spec)

    def test_ir_directory_loading(self, tmp_path):
        rng = np.random.default_rng(4)
        taps = rng.standard_normal((2, 2, 8)) * 0.2
        for m in range(2):
            for n in range(2):
                write_wav(str(tmp_path / f"ir_m{m+1}_n{n+1}.wav"), taps[m, n], 16000)
        spec = load_impulse_responses(str(tmp_path), 2, 2)
        s = [rng.standard_normal(600) for _ in range(2)]
        got = mix(s, spec)
        # float32 storage round-trip of the taps
        expected = mix(
            s,
            MixingSpec(
                mode="convolutive", impulse_responses=taps.astype(np.float32).astype(np.float64)
            ),
        )
        np.testing.assert_allclose(got, expected, atol=1e-12)


class TestParseMatrix:
    def test_basic(self):
        np.testing.assert_array_equal(
            parse_matrix("1,0.5;0.5,1"), np.array([[1.0, 0.5], [0.5, 1.0]])
        )

    def test_whitespace_tolerant(self):
        np.testing.assert_array_equal(
            parse_matrix(" 1 , 2 ; 3 , 4 "), np.array([[1.0, 2.0], [3.0, 4.0]])
        )


class TestPerfectDemixSmoke:
    def test_instantaneous_mix_then_inverse_recovers(self):
        from ggdilrma.stft import StftPlan, istft, stft
        from ggdilrma.types import SourceSpectrogram

        rng = np.random.default_rng(5)
        n = 40960
        s = np.stack([rng.standard_normal(n), rng.standard_normal(n)], axis=1) * 0.1
        A = np.array([[1.0, 0.6], [0.5, 1.0]])
        observed = mix([s[:, 0], s[:, 1]], MixingSpec(mode="instantaneous", matrix=A))
        plan = StftPlan.hamming(2048, 1024)
        spec = stft(observed, plan, 16000)
        y = np.einsum("nm,ijm->ijn", np.linalg.inv(A), spec.data)
        back = istft(SourceSpectrogram(data=y), plan, length=n)
        pad = plan.pad
        assert np.max(np.abs(back[pad:-pad] - s[pad:-pad])) < 1e-8

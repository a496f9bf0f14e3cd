"""Analysis/synthesis contracts: reconstruction, Parseval, linearity."""

import numpy as np
import pytest
from reference_stft import istft_by_frames

from ggdilrma.errors import ShapeMismatch, SignalTooShort
from ggdilrma.stft import StftPlan, istft, n_frames_for, periodic_hamming, stft
from ggdilrma.types import SourceSpectrogram
from ggdilrma.workflows import plan_from_ms


def white_noise(n_samples, n_channels=2, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_samples, n_channels))


class TestPlan:
    def test_music_protocol_bin_count(self):
        # 128 ms window / 64 ms hop at 16 kHz
        plan = StftPlan.hamming(2048, 1024)
        assert plan.n_bins == 1025

    def test_overlap_add_identity(self):
        # sum_f window[t - f*hop] * synthesis_window[t - f*hop] == 1
        for L, hop in ((2048, 1024), (4096, 2048), (512, 128), (300, 100)):
            plan = StftPlan.hamming(L, hop)
            prod = plan.window * plan.synthesis_window
            acc = np.zeros(hop)
            for offset in range(0, L, hop):
                seg = prod[offset : offset + hop]
                acc[: len(seg)] += seg
            assert np.max(np.abs(acc - 1.0)) < 1e-10

    def test_rejects_hop_above_half(self):
        with pytest.raises(ShapeMismatch):
            StftPlan.hamming(2048, 1500)

    @pytest.mark.parametrize("win_ms", [1e30, 1e308])
    def test_frame_length_beyond_an_array_index_is_rejected_without_n_samples(self, win_ms):
        # 1e30 ms is 1.6e31 samples at 16 kHz; 1e308 ms overflows to inf
        with pytest.raises(ShapeMismatch, match="cannot index"):
            plan_from_ms(win_ms, 64.0, 16000)

    def test_periodic_window(self):
        w = periodic_hamming(8)
        assert w[0] == pytest.approx(0.08)
        # periodic windows are not symmetric about the last sample
        assert w[1] == pytest.approx(w[7])


class TestRoundTrip:
    @pytest.mark.parametrize("L,hop", [(2048, 1024), (4096, 2048)])
    def test_noise_round_trip_interior(self, L, hop):
        plan = StftPlan.hamming(L, hop)
        x = white_noise(5 * L + 123)
        spec = stft(x, plan, 16000)
        back = istft(spec, plan, length=x.shape[0])
        pad = L - hop
        err = np.max(np.abs(back[pad:-pad] - x[pad:-pad]))
        assert err < 1e-10

    def test_zero_signal(self):
        plan = StftPlan.hamming(256, 128)
        spec = stft(np.zeros((1000, 2)), plan, 8000)
        assert np.all(spec.data == 0)
        back = istft(spec, plan, length=1000)
        assert np.all(back == 0)

    def test_too_short_signal(self):
        plan = StftPlan.hamming(256, 128)
        with pytest.raises(SignalTooShort):
            stft(np.zeros((100, 1)), plan, 8000)

    def test_istft_shape_mismatch(self):
        plan = StftPlan.hamming(256, 128)
        with pytest.raises(ShapeMismatch):
            istft(np.zeros((64, 4, 1), dtype=np.complex128), plan, length=256)

    def test_metadata(self):
        plan = StftPlan.hamming(512, 256)
        spec = stft(white_noise(4000), plan, 44100)
        assert spec.sample_rate == 44100
        assert spec.frame_len == 512
        assert spec.hop_len == 256
        assert spec.data.shape == (512 // 2 + 1, n_frames_for(plan, 4000), 2)
        assert np.iscomplexobj(spec.data) and np.all(np.isfinite(spec.data))


class TestSynthesis:
    @pytest.mark.parametrize("L, hop", [(512, 256), (400, 150), (401, 100)])
    @pytest.mark.parametrize("C", [1, 2, 3])
    @pytest.mark.parametrize("beyond", [0, 3])
    def test_overlap_add_matches_the_frame_by_frame_oracle(self, L, hop, C, beyond):
        # Each sample takes its frames' terms in the frames' order, also where the hop
        # does not divide the frame (401/100: the last of five segments is one sample)
        # and where ``length`` runs ``beyond`` frames past the last frame's end.
        plan = StftPlan.hamming(L, hop)
        n_samples = 20 * L + 37
        J = n_frames_for(plan, n_samples)
        rng = np.random.default_rng(L + C)
        shape = (plan.n_bins, J, C)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        data *= np.exp(rng.uniform(-20.0, 20.0, (1, J, 1)))  # frames of unlike loudness
        length = n_samples + beyond * L
        if beyond:
            assert plan.pad + length > (J - 1) * hop + L
        got = istft(SourceSpectrogram(data), plan, length)
        ref = istft_by_frames(data, plan, length)
        assert got.shape == ref.shape == (length, C)
        assert got.tobytes() == ref.tobytes()

    def test_istft_takes_a_bare_array(self):
        plan = StftPlan.hamming(256, 128)
        spec = stft(white_noise(3000), plan, 8000)
        assert istft(spec.data, plan, 3000).tobytes() == istft(spec, plan, 3000).tobytes()


class TestSpectralProperties:
    def test_sinusoid_concentration(self):
        # bin-centered sinusoid: direct DFT oracle of one windowed frame
        L, hop = 512, 256
        plan = StftPlan.hamming(L, hop)
        k0 = 40
        n = np.arange(8 * L)
        x = np.sin(2 * np.pi * k0 * n / L)
        spec = stft(x, plan, 16000)
        j = spec.data.shape[1] // 2  # interior frame, no padding effects

        frame_start = j * hop - plan.pad
        frame = x[frame_start : frame_start + L] * plan.window
        oracle = np.array([np.sum(frame * np.exp(-2j * np.pi * k * np.arange(L) / L))
                           for k in range(L // 2 + 1)])
        np.testing.assert_allclose(spec.data[:, j, 0], oracle, atol=1e-8)

        mags = np.abs(spec.data[:, j, 0])
        peak = mags[k0]
        far = np.concatenate([mags[: k0 - 2], mags[k0 + 3 :]])
        assert np.max(far) <= peak * 10 ** (-40 / 20)

    def test_parseval_per_frame(self):
        L, hop = 512, 256
        plan = StftPlan.hamming(L, hop)
        x = white_noise(6 * L, 1, seed=3)
        spec = stft(x, plan, 16000)
        j = spec.data.shape[1] // 2
        frame_start = j * hop - plan.pad
        frame = x[frame_start : frame_start + L, 0] * plan.window
        time_energy = np.sum(frame**2)
        X = spec.data[:, j, 0]
        spec_energy = (np.abs(X[0]) ** 2 + np.abs(X[-1]) ** 2 + 2 * np.sum(np.abs(X[1:-1]) ** 2)) / L
        assert abs(time_energy - spec_energy) <= 1e-8 * time_energy

    def test_linearity(self):
        plan = StftPlan.hamming(256, 128)
        x = white_noise(2000, 2, seed=4)
        y = white_noise(2000, 2, seed=5)
        a, b = 2.5, -1.25
        lhs = stft(a * x + b * y, plan, 16000).data
        rhs = a * stft(x, plan, 16000).data + b * stft(y, plan, 16000).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

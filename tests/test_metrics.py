"""SI-SDR, permutation alignment, and improvement scoring."""

import warnings

import numpy as np
import pytest

from ggdilrma.errors import TooManySources, ZeroReference
from ggdilrma.metrics import SDR_CAP_DB, align_permutation, si_sdr
from ggdilrma.workflows import evaluate_separation


def sdr_improvement(estimates, references, mixture_at_ref_channel):
    rows = evaluate_separation(estimates, references, mixture_at_ref_channel)
    return [row.sdr_improvement_db for row in rows]


def tone(n, f, phase=0.0):
    return np.sin(2 * np.pi * f * np.arange(n) + phase)


class TestSiSdr:
    def test_identical_signals_hit_cap(self):
        ref = tone(4000, 0.01)
        assert si_sdr(ref, ref) == SDR_CAP_DB

    def test_scale_invariance(self):
        ref = tone(4000, 0.013)
        assert si_sdr(2.0 * ref, ref) == SDR_CAP_DB
        noisy = ref + 0.05 * tone(4000, 0.207)
        assert si_sdr(noisy, ref) == pytest.approx(si_sdr(-3.7 * noisy, ref), abs=1e-9)

    def test_orthogonal_noise_20db(self):
        rng = np.random.default_rng(0)
        ref = rng.standard_normal(8000)
        noise = rng.standard_normal(8000)
        noise -= (noise @ ref) / (ref @ ref) * ref  # exactly orthogonal
        noise *= np.sqrt(0.01 * (ref @ ref) / (noise @ noise))
        assert si_sdr(ref + noise, ref) == pytest.approx(20.0, abs=0.1)

    @pytest.mark.parametrize("kind", ["zero", "orthogonal", "tiny_target", "nan"])
    def test_degenerate_estimate_scores_the_floor(self, kind):
        ref = tone(4000, 0.01)
        other = tone(4000, 0.01, phase=np.pi / 2)  # orthogonal over whole periods
        est = {
            "zero": np.zeros(4000),
            "orthogonal": other - (other @ ref) / (ref @ ref) * ref,
            "tiny_target": other + 1e-6 * ref,
            "nan": np.full(4000, np.nan),
        }[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert si_sdr(est, ref) == -SDR_CAP_DB

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroReference):
            si_sdr(np.ones(10), np.zeros(10))


class TestAlignment:
    def test_recovers_shuffle_at_cap(self):
        rng = np.random.default_rng(1)
        refs = [rng.standard_normal(2000) for _ in range(3)]
        estimates = [refs[2], refs[0], refs[1]]
        alignment = align_permutation(estimates, refs)
        assert alignment.permutation == (1, 2, 0)
        assert all(s == SDR_CAP_DB for s in alignment.sdr_db)

    def test_single_source_identity(self):
        refs = [tone(1000, 0.02)]
        alignment = align_permutation([0.5 * refs[0]], refs)
        assert alignment.permutation == (0,)

    def test_noisy_swapped_pair(self):
        rng = np.random.default_rng(2)
        refs = [rng.standard_normal(8000) for _ in range(2)]
        noises = []
        for ref in refs:
            v = rng.standard_normal(8000)
            v -= (v @ ref) / (ref @ ref) * ref
            v *= np.sqrt(0.01 * (ref @ ref) / (v @ v))
            noises.append(v)
        estimates = [refs[1] + noises[1], refs[0] + noises[0]]
        alignment = align_permutation(estimates, refs)
        assert alignment.permutation == (1, 0)
        assert alignment.sdr_db[0] == pytest.approx(20.0, abs=0.1)
        assert alignment.sdr_db[1] == pytest.approx(20.0, abs=0.1)

    def test_total_invariant_to_estimate_order(self):
        rng = np.random.default_rng(3)
        refs = [rng.standard_normal(500) for _ in range(3)]
        ests = [r + 0.1 * rng.standard_normal(500) for r in refs]
        t1 = align_permutation(ests, refs).total_db
        t2 = align_permutation(ests[::-1], refs).total_db
        assert t1 == pytest.approx(t2, abs=1e-9)

    def test_too_many_sources(self):
        refs = [tone(100, 0.01 * (k + 1)) for k in range(7)]
        with pytest.raises(TooManySources):
            align_permutation(refs, refs)


class TestImprovement:
    def test_mixture_as_estimate_gives_zero(self):
        rng = np.random.default_rng(4)
        refs = [rng.standard_normal(4000) for _ in range(2)]
        mix_ch = refs[0] + 0.6 * refs[1]
        deltas = sdr_improvement([mix_ch, mix_ch.copy()], refs, mix_ch)
        assert deltas[0] == pytest.approx(0.0, abs=1e-9)
        assert deltas[1] == pytest.approx(0.0, abs=1e-9)

    def test_perfect_estimates(self):
        rng = np.random.default_rng(5)
        refs = [rng.standard_normal(4000) for _ in range(2)]
        mix_ch = refs[0] + 0.6 * refs[1]
        deltas = sdr_improvement(refs, refs, mix_ch)
        for n, d in enumerate(deltas):
            assert d == pytest.approx(SDR_CAP_DB - si_sdr(mix_ch, refs[n]), abs=1e-9)

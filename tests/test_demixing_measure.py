"""The demixing measure of ``demixing_measure`` on a scene with a known mixing
matrix: the true demixing reads as aligned, rows swapped in chosen bins read as
exactly those bins, and the oracle fit of the source model descends."""

import numpy as np
from demixing_measure import alignment, oracle_gap

from ggdilrma import audit_descent, pipeline
from ggdilrma.benchmark import E2E_MATRIX, SAMPLE_RATE, make_test_scene
from ggdilrma.stft import stft
from ggdilrma.types import GgdConfig, MixtureSpectrogram
from ggdilrma.workflows import plan_from_ms


def test_true_demixing_is_aligned_and_its_source_model_fit_descends():
    sources, mixture = make_test_scene(0, 1.0)
    plan = plan_from_ms(128.0, 64.0, SAMPLE_RATE, len(mixture))
    s = stft(np.stack(sources, axis=1), plan, SAMPLE_RATE).data
    x = stft(mixture, plan, SAMPLE_RATE)
    I = s.shape[0]
    W = np.tile(np.linalg.inv(E2E_MATRIX).astype(np.complex128), (I, 1, 1))

    sir_db, permuted, share = alignment(W, E2E_MATRIX, s)
    assert sir_db > 100.0 and permuted.size == 0 and share == 0.0

    swapped = [40, 300]
    W[swapped] = W[swapped][:, ::-1]
    energy = np.sum(np.abs(s) ** 2, axis=(1, 2))
    _, permuted, share = alignment(W, E2E_MATRIX, s)
    assert permuted.tolist() == swapped
    np.testing.assert_allclose(share, energy[swapped].sum() / energy.sum(), rtol=1e-12)

    cfg = GgdConfig(beta=4.0, domain=0.5, n_bases=2, iterations=20, seed=0)
    blind = pipeline.run(MixtureSpectrogram(x.data, SAMPLE_RATE, plan.frame_len, plan.hop), cfg)
    gap, costs = oracle_gap(x.data, E2E_MATRIX, cfg, blind.trace.costs()[-1])
    assert len(costs) == 300 and audit_descent(costs) == []
    assert np.isfinite(gap)

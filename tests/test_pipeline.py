"""The general pipeline against the stand-alone IS-ILRMA oracle."""

import numpy as np
import pytest
from reference_contractions import ggd_cost_einsum
from reference_is_ilrma import is_ilrma_reference

from ggdilrma import pipeline
from ggdilrma.benchmark import SAMPLE_RATE, make_test_scene, random_mixture
from ggdilrma.cost import audit_descent
from ggdilrma.demix_homogeneous import mixture_gram
from ggdilrma.errors import DegenerateShape
from ggdilrma.types import GgdConfig, ProblemShape
from ggdilrma.workflows import separate_audio


def test_gaussian_case_matches_is_ilrma_reference():
    # beta = p = 2 is exactly Itakura-Saito ILRMA: same costs, W and T
    x = random_mixture(9, 40, 2, seed=7)
    cfg = GgdConfig(beta=2.0, domain=2.0, n_bases=3, iterations=15, seed=7)
    result = pipeline.run(x, cfg)
    W, T, _, costs = is_ilrma_reference(x.data, K=3, iterations=15, seed=7)
    np.testing.assert_allclose(result.trace.costs(), costs, rtol=1e-12, atol=0)
    np.testing.assert_allclose(result.W, W, rtol=1e-12, atol=0)
    np.testing.assert_allclose(result.T, T, rtol=1e-12, atol=0)


@pytest.mark.parametrize("beta", [4.0, 2.0])
@pytest.mark.parametrize("N", [2, 3])
def test_step_reports_the_cost_of_the_state_it_returns(N, beta):
    # The cost reads the magnitudes the NMF updates read: those of the swept W.
    I, J, K = 9, 40, 3
    xd = random_mixture(I, J, N, seed=11).data
    cfg = GgdConfig(beta=beta, domain=0.5, n_bases=K, iterations=3, seed=11)
    W, T, V = pipeline.initialize(cfg, ProblemShape(I, J, N, K))
    gram = mixture_gram(xd) if cfg.update_scheme == "quartic" else None
    for _ in range(cfg.iterations):
        W, T, V, cost, _ = pipeline.iteration_step(xd, W, T, V, cfg, gram)
        assert cost == pytest.approx(ggd_cost_einsum(xd, W, T, V, beta, 0.5), rel=1e-12)


class LinalgCalled(Exception):
    pass


@pytest.mark.parametrize("N", [2, 3])
def test_two_source_quartic_iteration_calls_no_linalg(N, monkeypatch):
    # N = 2 takes the closed-form 2 x 2 sweep and cost; N = 3 shows the patch bites.
    def no_linalg(*args, **kwargs):
        raise LinalgCalled

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, no_linalg)
    I, J, K = 9, 40, 3
    xd = random_mixture(I, J, N, seed=12).data
    cfg = GgdConfig(beta=4.0, domain=0.5, n_bases=K, iterations=1, seed=12)
    W, T, V = pipeline.initialize(cfg, ProblemShape(I, J, N, K))
    if N == 2:
        pipeline.iteration_step(xd, W, T, V, cfg, mixture_gram(xd))
    else:
        with pytest.raises(LinalgCalled):
            pipeline.iteration_step(xd, W, T, V, cfg, mixture_gram(xd))


@pytest.mark.parametrize("channel", [-1, 2])
def test_reference_channel_outside_the_mixture_is_rejected_first(channel, monkeypatch):
    def no_initialize(*args):
        raise AssertionError("initialize ran before the reference channel was checked")

    monkeypatch.setattr(pipeline, "initialize", no_initialize)
    x = random_mixture(5, 8, 2, seed=0)
    cfg = GgdConfig(beta=2.0, domain=2.0, n_bases=2, iterations=2)
    with pytest.raises(DegenerateShape, match="reference channel"):
        pipeline.run(x, cfg, reference_channel=channel)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ip_runs_clean_on_collapsing_scenes(seed):
    # 2 s property-suite scenes that collapse under IP; an F formed from the
    # mixture_gram features raises SingularCovariance on each of them, while
    # the QR assembly of ip_sweep keeps det F above the floor and descends.
    _, mixture = make_test_scene(seed, 2.0)
    cfg = GgdConfig(beta=2.0, domain=0.5, n_bases=20, iterations=20, seed=seed)
    _, result = separate_audio(mixture, SAMPLE_RATE, cfg, win_ms=64.0, hop_ms=32.0)
    assert audit_descent(result.trace.costs()) == []

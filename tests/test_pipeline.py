"""The general pipeline against the stand-alone IS-ILRMA oracle."""

import numpy as np
from reference_is_ilrma import is_ilrma_reference

from ggdilrma import pipeline
from ggdilrma.benchmark import random_mixture
from ggdilrma.types import GgdConfig


def test_gaussian_case_matches_is_ilrma_reference():
    # beta = p = 2 is exactly Itakura-Saito ILRMA: same costs, W and T
    x = random_mixture(9, 40, 2, seed=7)
    cfg = GgdConfig(beta=2.0, domain=2.0, n_bases=3, iterations=15, seed=7)
    result = pipeline.run(x, cfg)
    W, T, _, costs = is_ilrma_reference(x.data, K=3, iterations=15, seed=7)
    np.testing.assert_allclose(result.trace.costs(), costs, rtol=1e-12, atol=0)
    np.testing.assert_allclose(result.W, W, rtol=1e-12, atol=0)
    np.testing.assert_allclose(result.T, T, rtol=1e-12, atol=0)

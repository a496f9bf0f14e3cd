"""Cost evaluation oracle checks and descent auditing."""

import numpy as np
import pytest
from reference_contractions import inverse_and_log_det, magnitudes_einsum

from ggdilrma.cost import audit_descent, ggd_cost_arrays
from ggdilrma.pool import bin_blocks
from ggdilrma.source_model import model_cost_terms
from ggdilrma.types import GgdConfig, _replace_row


def cost(yp, log_det, T, V, beta, p):
    """The cost under the scale field of ``T`` and ``V``, its ``1 / S`` dropped."""
    return ggd_cost_arrays(yp, log_det, T, V, np.empty(yp.shape), beta, p)


def unit_factors(N, I, J):
    """Bases and activations of one unit basis each: ``T V = 1``."""
    return np.ones((N, I, 1)), np.ones((N, 1, J))


class TestGgdCost:
    def test_zero_input_unit_model(self):
        yp = np.zeros((1, 1, 4))  # |W x|^p for x = 0
        log_det = np.zeros(1)  # W = 1
        T, V = unit_factors(1, 1, 4)
        assert cost(yp, log_det, T, V, 2.0, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_unit_instance(self):
        # I=J=N=K=1, |x|=1, t*v=1, beta=p=2 -> cost 1
        yp = np.ones((1, 1, 1))  # |W x|^p for W = x = 1
        log_det = np.zeros(1)
        assert cost(yp, log_det, *unit_factors(1, 1, 1), 2.0, 2.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("bins, frames", [(10, 12), (257, 769), (1025, 158)])
    @pytest.mark.parametrize("beta,p", [(4.0, 0.5), (1.5, 0.5)])
    def test_per_source_sums_stay_near_one_sum_per_block(self, beta, p, bins, frames, N):
        # The model terms are summed per source, then over sources; summed over every
        # source of a block at once, then over blocks, they differ only by roundoff.
        rng = np.random.default_rng(bins + N)
        yp = rng.uniform(0.0, 2.0, (N, bins, frames))
        T = rng.uniform(0.5, 1.0, (N, bins, 3))
        V = rng.uniform(0.7, 1.0, (N, 3, frames))
        S = T @ V  # above 1, so every term is positive: no cancellation
        per_block = 0.0
        for blk in bin_blocks(bins, frames):
            per_block += np.sum(model_cost_terms(yp[:, blk], S[:, blk], beta, p))
        got = cost(yp, np.zeros(bins), T, V, beta, p)
        assert got == pytest.approx(per_block, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("beta,p", [(2.0, 2.0), (1.0, 0.5), (4.0, 0.5)])
    def test_matches_naive_summation(self, beta, p):
        rng = np.random.default_rng(5)
        I, J, K = 3, 4, 2
        for N in (2, 3):
            xd = rng.standard_normal((I, J, N)) + 1j * rng.standard_normal((I, J, N))
            W = np.stack(
                [
                    np.eye(N)
                    + 0.2 * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
                    for _ in range(I)
                ]
            )
            T = rng.uniform(0.2, 1.0, (N, I, K))
            V = rng.uniform(0.2, 1.0, (N, K, J))
            log_det = inverse_and_log_det(W)[1]
            got = cost(magnitudes_einsum(xd, W) ** p, log_det, T, V, beta, p)

            naive = 0.0
            for i in range(I):
                naive += -2.0 * J * np.log(abs(np.linalg.det(W[i])))
                for j in range(J):
                    y = W[i] @ xd[i, j]
                    for n in range(N):
                        S = sum(T[n, i, k] * V[n, k, j] for k in range(K))
                        naive += abs(y[n]) ** beta / S ** (beta / p) + (2 / p) * np.log(S)
            assert got == pytest.approx(naive, rel=1e-12)

    def test_diagonal_unitary_invariance(self):
        rng = np.random.default_rng(6)
        I, J, N, K = 2, 5, 2, 2
        xd = rng.standard_normal((I, J, N)) + 1j * rng.standard_normal((I, J, N))
        W = np.stack([np.eye(N) + 0.1j * rng.standard_normal((N, N)) for _ in range(I)])
        T = rng.uniform(0.2, 1.0, (N, I, K))
        V = rng.uniform(0.2, 1.0, (N, K, J))

        def cost_of(W):
            return cost(magnitudes_einsum(xd, W) ** 2, inverse_and_log_det(W)[1], T, V, 2.0, 2.0)

        base = cost_of(W)
        # exactly representable unitary diagonal: entries in {1, -1, i, -i}
        D = np.diag([1j, -1.0])
        exact = cost_of(np.einsum("ab,ibc->iac", D, W))
        assert exact == base  # multiplication by ±1/±i permutes re/im exactly

        theta = rng.uniform(0, 2 * np.pi, N)
        Dg = np.diag(np.exp(1j * theta))
        generic = cost_of(np.einsum("ab,ibc->iac", Dg, W))
        assert generic == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-170, 1e160])
    def test_two_source_log_det_outside_the_double_range(self, scale):
        # det W underflows or overflows as a number; the log-determinant carried
        # through a row replacement adds log|d| and stays finite, as slogdet does.
        W = scale * np.array([[[1.0, 0.5j], [0.25, 1.0]]])
        W_inv, log_det = inverse_and_log_det(W)
        _replace_row(W, W_inv, log_det, 0, scale * np.array([[0.5 - 1.0j, 2.0]]))
        inv_ref, expected = inverse_and_log_det(W)
        assert np.all(np.isfinite(log_det))
        np.testing.assert_allclose(log_det, expected, rtol=1e-14)
        np.testing.assert_allclose(W_inv, inv_ref, rtol=1e-14)
        got = cost(np.zeros((2, 1, 3)), log_det, *unit_factors(2, 1, 3), 2.0, 2.0)
        assert got == pytest.approx(-2.0 * 3 * expected[0], rel=1e-14)


class TestAuditDescent:
    def test_strictly_decreasing_clean(self):
        assert audit_descent(np.linspace(100, 1, 50)) == []

    def test_flags_single_jump(self):
        costs = list(np.linspace(100, 50, 20))
        costs[10] = costs[9] + 1.0
        assert audit_descent(costs) == [11]

    def test_tolerates_tiny_increase(self):
        costs = [10.0, 5.0, 5.0 + 1e-12, 4.0]
        assert audit_descent(costs) == []

    def test_full_quartic_run_audits_clean(self):
        from ggdilrma import pipeline
        from ggdilrma.benchmark import random_mixture

        x = random_mixture(8, 32, 2, seed=123)
        cfg = GgdConfig(beta=4.0, domain=0.5, n_bases=2, iterations=50, seed=123)
        result = pipeline.run(x, cfg)
        assert audit_descent(result.trace.costs()) == []


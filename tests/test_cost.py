"""Cost evaluation oracle checks and descent auditing."""

import numpy as np
import pytest

from ggdilrma.cost import audit_descent, ggd_cost_arrays
from ggdilrma.errors import SingularDemixing
from ggdilrma.types import GgdConfig


class TestGgdCost:
    def test_zero_input_unit_model(self):
        xd = np.zeros((1, 4, 1), dtype=np.complex128)
        W = np.ones((1, 1, 1), dtype=np.complex128)
        T, V = np.ones((1, 1, 1)), np.ones((1, 1, 4))
        assert ggd_cost_arrays(xd, W, T, V, 2.0, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_unit_instance(self):
        # I=J=N=K=1, |x|=1, t*v=1, beta=p=2 -> cost 1
        xd = np.ones((1, 1, 1), dtype=np.complex128)
        W = np.ones((1, 1, 1), dtype=np.complex128)
        T, V = np.ones((1, 1, 1)), np.ones((1, 1, 1))
        assert ggd_cost_arrays(xd, W, T, V, 2.0, 2.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("beta,p", [(2.0, 2.0), (1.0, 0.5), (4.0, 0.5)])
    def test_matches_naive_summation(self, beta, p):
        rng = np.random.default_rng(5)
        I, J, N, K = 3, 4, 2, 2
        xd = rng.standard_normal((I, J, N)) + 1j * rng.standard_normal((I, J, N))
        W = np.stack(
            [
                np.eye(N) + 0.2 * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
                for _ in range(I)
            ]
        )
        T = rng.uniform(0.2, 1.0, (N, I, K))
        V = rng.uniform(0.2, 1.0, (N, K, J))
        got = ggd_cost_arrays(xd, W, T, V, beta, p)

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
        base = ggd_cost_arrays(xd, W, T, V, 2.0, 2.0)

        # exactly representable unitary diagonal: entries in {1, -1, i, -i}
        D = np.diag([1j, -1.0])
        exact = ggd_cost_arrays(xd, np.einsum("ab,ibc->iac", D, W), T, V, 2.0, 2.0)
        assert exact == base  # multiplication by ±1/±i permutes re/im exactly

        theta = rng.uniform(0, 2 * np.pi, N)
        Dg = np.diag(np.exp(1j * theta))
        generic = ggd_cost_arrays(xd, np.einsum("ab,ibc->iac", Dg, W), T, V, 2.0, 2.0)
        assert generic == pytest.approx(base, rel=1e-12)

    def test_singular_demixing_rejected(self):
        xd = np.ones((1, 2, 2), dtype=np.complex128)
        W = np.zeros((1, 2, 2), dtype=np.complex128)
        T = np.ones((2, 1, 1))
        V = np.ones((2, 1, 2))
        with pytest.raises(SingularDemixing):
            ggd_cost_arrays(xd, W, T, V, 2.0, 2.0)


class TestAuditDescent:
    def test_strictly_decreasing_clean(self):
        report = audit_descent(np.linspace(100, 1, 50))
        assert report.ok
        assert report.n_steps == 49

    def test_flags_single_jump(self):
        costs = list(np.linspace(100, 50, 20))
        costs[10] = costs[9] + 1.0
        report = audit_descent(costs)
        assert len(report.violations) >= 1
        assert report.violations[0].iteration == 11
        assert report.violations[0].increase == pytest.approx(1.0)

    def test_tolerates_tiny_increase(self):
        costs = [10.0, 5.0, 5.0 + 1e-12, 4.0]
        assert audit_descent(costs).ok

    def test_full_quartic_run_audits_clean(self):
        from ggdilrma import pipeline
        from ggdilrma.benchmark import random_mixture

        x = random_mixture(8, 32, 2, seed=123)
        cfg = GgdConfig(beta=4.0, domain=0.5, n_bases=2, iterations=50, seed=123)
        result = pipeline.run(x, cfg)
        assert audit_descent(result.trace.costs()).ok

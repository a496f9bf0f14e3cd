"""GGD density values, model cost terms, scale field, NMF update laws,
majorizer gap.

The GGD log density is the oracle in ``reference_ggd.py``.  The batched NMF
updates are pinned to the per-source oracle in ``reference_nmf.py``, which
also holds the Jensen + tangent majorizer.
"""

import math

import numpy as np
import pytest
from reference_ggd import ggd_log_density, log_normalizer
from reference_nmf import (
    equality_auxiliaries,
    nmf_majorizer_gap,
    scale_field,
    update_activations_reference,
    update_bases_reference,
)

from ggdilrma.cost import ggd_cost_arrays
from ggdilrma import pool
from ggdilrma.source_model import (
    model_cost_terms,
    update_activations_arrays,
    update_bases_arrays,
)
from ggdilrma.types import EPS_NMF, EPS_Y


def random_model(N, I, K, J, seed, low=0.2, high=1.5):
    """Bases ``(N, I, K)`` and activations ``(N, K, J)``."""
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, size=(N, I, K)), rng.uniform(low, high, size=(N, K, J))


def random_sources(I, J, N, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((I, J, N)) + 1j * rng.standard_normal((I, J, N))


def source_magnitudes(y):
    """``|y|`` in the ``(N, I, J)`` layout the NMF updates take."""
    return np.abs(np.moveaxis(y, 2, 0))


class TestLogDensity:
    def test_gaussian_at_origin(self):
        # beta=2, r=1: density 1/pi at z=0
        assert ggd_log_density(0, 2.0, 1.0) == pytest.approx(math.log(1 / math.pi), abs=1e-12)

    def test_quartic_at_origin(self):
        # beta=4, r=1: log(4 / (2 pi Gamma(1/2))) with Gamma(1/2) = sqrt(pi)
        expected = math.log(2.0) - 1.5 * math.log(math.pi)
        assert ggd_log_density(0, 4.0, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_unit_magnitude_gaussian(self):
        assert ggd_log_density(1.0, 2.0, 1.0) == pytest.approx(
            math.log(1 / math.pi) - 1.0, abs=1e-12
        )

    def test_matches_quadrature_normalization(self):
        # independent check: the density must integrate to 1 over the plane
        beta, r = 4.0, 1.3
        radii = np.linspace(0, 12 * r, 200001)
        pdf = np.exp([ggd_log_density(z, beta, r) for z in radii])
        integral = np.trapezoid(pdf * 2 * np.pi * radii, radii)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            ggd_log_density(1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            ggd_log_density(1.0, -1.0, 1.0)


class TestModelCostTerms:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.99, 2.0, 4.0])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_is_negative_log_density_up_to_a_beta_constant(self, beta, p):
        rng = np.random.default_rng(11)
        abs_y = rng.uniform(0.0, 3.0, (2, 3, 4))
        S = rng.uniform(0.2, 2.0, (2, 3, 4))
        got = model_cost_terms(abs_y**p, S, beta, p)
        want = [
            -ggd_log_density(a, beta, s ** (1.0 / p)) + log_normalizer(beta)
            for a, s in zip(abs_y.ravel(), S.ravel())
        ]
        np.testing.assert_allclose(got.ravel(), want, rtol=1e-12, atol=1e-12)


def inverse_scale(T, V):
    """``1 / S`` of the scale field ``S = T V`` ``(N, I, J)``, as the cost pass writes
    it, in a fresh buffer."""
    inv_S = np.empty((T.shape[0], T.shape[1], V.shape[2]))
    ggd_cost_arrays(np.ones(inv_S.shape), np.zeros(T.shape[1]), T, V, inv_S, 2.0, 2.0)
    return inv_S


def cost(yp, log_det, T, V, beta, p):
    """The cost under the scale field of ``T`` and ``V``, its ``1 / S`` dropped."""
    return ggd_cost_arrays(yp, log_det, T, V, np.empty(yp.shape), beta, p)


class TestScaleField:
    """The reciprocal ``1 / S`` of the scale field ``S = T V`` ``(N, I, J)`` that the
    cost pass writes and the pipeline carries."""

    def test_single_term(self):
        field = inverse_scale(np.full((1, 1, 1), 2.0), np.full((1, 1, 1), 4.0))
        assert field[0, 0, 0] == 0.125

    def test_two_term_sum(self):
        field = inverse_scale(np.ones((1, 1, 2)), np.ones((1, 2, 1)))
        assert field[0, 0, 0] == 0.5

    def test_matches_triple_loop(self):
        T, V = random_model(N=2, I=4, K=3, J=5, seed=0)
        field = inverse_scale(T, V)
        for n in range(2):
            for i in range(4):
                for j in range(5):
                    direct = sum(T[n, i, k] * V[n, k, j] for k in range(3))
                    assert abs(field[n, i, j] * direct - 1.0) <= 2e-15

    @pytest.mark.parametrize("bins", [1, 3, 7])
    def test_writes_every_block_into_the_given_buffer(self, monkeypatch, bins):
        # The cost forms S a block at a time, with the updates' own product, takes its
        # terms from it, then writes 1 / S over it.
        T, V = random_model(N=2, I=7, K=3, J=5, seed=1)
        yp = source_magnitudes(random_sources(7, 5, 2, seed=2)) ** 0.5
        monkeypatch.setattr(pool, "BLOCK_ENTRIES", bins * 5)
        inv_S = np.full((2, 7, 5), np.nan)
        got = ggd_cost_arrays(yp, np.zeros(7), T, V, inv_S, 4.0, 0.5)
        for blk in pool.bin_blocks(7, 5):
            np.testing.assert_array_equal(inv_S[:, blk], np.divide(1.0, T[:, blk] @ V))
        np.testing.assert_allclose(inv_S, 1.0 / np.moveaxis(scale_field(T, V), 2, 0), rtol=1e-15)
        S = np.moveaxis(scale_field(T, V), 2, 0)
        want = np.sum((yp / S) ** 8 + 4.0 * np.log(S))
        assert got == pytest.approx(want, rel=1e-13)


class TestNmfUpdates:
    def equal_ratio_instance(self, beta, p, N=1, I=3, K=2, J=4, seed=0):
        """|y|^beta == S^(beta/p) everywhere."""
        T, V = random_model(N, I, K, J, seed)
        y = (scale_field(T, V) ** (1.0 / p)).astype(np.complex128)
        return T, V, source_magnitudes(y)

    @pytest.mark.parametrize("beta,p", [(1.0, 0.5), (4.0, 0.5), (1.5, 2.0)])
    def test_equality_case_multiplies_by_constant(self, beta, p):
        T, V, abs_y = self.equal_ratio_instance(beta, p)
        T_new = update_bases_arrays(T, V, inverse_scale(T, V), abs_y**p, beta, p)
        factor = (beta / 2.0) ** (p / (beta + p))
        np.testing.assert_allclose(T_new, T * factor, rtol=1e-12)

    def test_gaussian_fixed_point(self):
        # at beta=2 the equality case is a fixed point of both updates
        T, V, abs_y = self.equal_ratio_instance(2.0, 2.0)
        T_new = update_bases_arrays(T, V, inverse_scale(T, V), abs_y**2, 2.0, 2.0)
        np.testing.assert_allclose(T_new, T, rtol=1e-12)
        V_new = update_activations_arrays(T, V, abs_y**2, 2.0, 2.0)
        np.testing.assert_allclose(V_new, V, rtol=1e-12)

    def test_is_nmf_square_root_exponent(self):
        # beta=p=2 exponent p/(beta+p) = 1/2: ratio**0.5 multiplicative form
        T, V = random_model(N=1, I=4, K=2, J=5, seed=1)
        y = random_sources(4, 5, 1, seed=2)
        T_new = update_bases_arrays(T, V, inverse_scale(T, V), source_magnitudes(y) ** 2, 2.0, 2.0)

        S = T[0] @ V[0]
        P = np.abs(y[:, :, 0]) ** 2
        num = (P / S**2) @ V[0].T
        den = (1.0 / S) @ V[0].T
        np.testing.assert_allclose(T_new[0], T[0] * np.sqrt(num / den), rtol=1e-12)

    @pytest.mark.parametrize("beta,p", [(4.0, 0.5), (1.0, 0.5), (2.0, 2.0), (1.3, 0.7)])
    def test_matches_per_source_oracle(self, beta, p):
        T, V = random_model(N=2, I=4, K=3, J=6, seed=11)
        abs_y = source_magnitudes(random_sources(4, 6, 2, seed=12))
        T_new = update_bases_arrays(T, V, inverse_scale(T, V), abs_y**p, beta, p)
        np.testing.assert_allclose(
            T_new, update_bases_reference(T, V, abs_y, beta, p), rtol=1e-12
        )
        V_new = update_activations_arrays(T_new, V, abs_y**p, beta, p)
        np.testing.assert_allclose(
            V_new, update_activations_reference(T_new, V, abs_y, beta, p), rtol=1e-12
        )

    @pytest.mark.parametrize(
        "beta,p", [(4.0, 0.5), (1.5, 0.5), (1.0, 0.7)], ids=["k=8", "k=3", "k=1.43"]
    )
    def test_one_reciprocal_per_block_matches_the_loop_form(self, beta, p):
        # Each block's 1 / S is formed once, and the ratio multiplied by it twice:
        # roundoff apart from the oracle's direct powers of S, at an even, an odd
        # and a non-integer beta / p, with a third of the outputs below EPS_Y.
        T, V = random_model(N=3, I=5, K=4, J=7, seed=21)
        abs_y = source_magnitudes(random_sources(5, 7, 3, seed=22))
        abs_y[:, ::3] *= 1e-13 / abs_y[:, ::3].max()
        assert (abs_y < EPS_Y).sum() >= abs_y.size // 3
        T_new = update_bases_arrays(T, V, inverse_scale(T, V), abs_y**p, beta, p)
        np.testing.assert_allclose(
            T_new, update_bases_reference(T, V, abs_y, beta, p), rtol=1e-14
        )
        V_new = update_activations_arrays(T_new, V, abs_y**p, beta, p)
        np.testing.assert_allclose(
            V_new, update_activations_reference(T_new, V, abs_y, beta, p), rtol=1e-14
        )

    @pytest.mark.parametrize("beta,p", [(4.0, 0.5), (1.0, 0.5), (2.0, 2.0), (1.99, 0.5)])
    def test_sweep_never_increases_cost(self, beta, p):
        # fixed demixing: a T sweep then V sweep must not increase the cost
        failures = 0
        for seed in range(100):
            T, V = random_model(N=1, I=4, K=2, J=5, seed=seed)
            y = random_sources(4, 5, 1, seed=1000 + seed)
            yp = source_magnitudes(y) ** p
            log_det = np.zeros(4)  # W = 1, so |W x| = |y| with x = y
            before = cost(yp, log_det, T, V, beta, p)
            T1 = update_bases_arrays(T, V, inverse_scale(T, V), yp, beta, p)
            mid = cost(yp, log_det, T1, V, beta, p)
            V1 = update_activations_arrays(T1, V, yp, beta, p)
            after = cost(yp, log_det, T1, V1, beta, p)
            slack = 1e-10 * (1.0 + abs(before))
            if mid > before + slack or after > mid + slack:
                failures += 1
        assert failures == 0

    @pytest.mark.parametrize("p", [0.1, 0.25, 0.5, 0.7, 1.0, 1.5, 2.0])
    def test_floor_of_the_power_is_the_power_of_the_floor(self, p):
        # The updates floor |y|^p, raised in place, at EPS_Y**p: the same bits as
        # flooring |y| at EPS_Y and then raising it to p.
        rng = np.random.default_rng(13)
        near = EPS_Y * rng.uniform(0.0, 2.0, 200_000)
        edges = [0.0, EPS_Y, np.nextafter(EPS_Y, 0.0), np.nextafter(EPS_Y, 1.0)]
        abs_y = np.concatenate([near, edges, rng.uniform(0.0, 10.0, 200_000)])
        yp = abs_y.copy()
        yp **= p
        np.testing.assert_array_equal(np.maximum(yp, EPS_Y**p), np.maximum(abs_y, EPS_Y) ** p)

    def test_nonnegativity_closure(self):
        T, V = random_model(N=2, I=4, K=2, J=5, seed=3, low=1e-12, high=1e-11)
        abs_y = source_magnitudes(random_sources(4, 5, 2, seed=4))
        T = update_bases_arrays(T, V, inverse_scale(T, V), abs_y**0.5, 1.0, 0.5)
        V = update_activations_arrays(T, V, abs_y**0.5, 1.0, 0.5)
        assert np.all(T >= EPS_NMF)
        assert np.all(V >= EPS_NMF)

    def test_model_scaling_invariance(self):
        # T -> cT, V -> V/c leaves the scale field unchanged exactly
        T, V = random_model(N=1, I=4, K=2, J=5, seed=5)
        c = 4.0  # power of two: exact float scaling
        np.testing.assert_array_equal(inverse_scale(T, V), inverse_scale(T * c, V / c))


class TestMajorizerGap:
    def setup_instance(self, seed=0, beta=4.0, p=0.5, I=3, J=4, N=2, K=2):
        T, V = random_model(N, I, K, J, seed)
        y = random_sources(I, J, N, seed + 77)
        return T, V, y, beta, p

    def test_zero_at_equality_conditions(self):
        T, V, y, beta, p = self.setup_instance()
        phi, psi = equality_auxiliaries(T, V)
        assert abs(nmf_majorizer_gap(T, V, y, beta, p, phi, psi)) <= 1e-10

    def test_nonnegative_on_random_feasible(self):
        rng = np.random.default_rng(9)
        for seed in range(200):
            T, V, y, beta, p = self.setup_instance(seed=seed)
            phi = rng.dirichlet(np.ones(2), size=(3, 4, 2))
            phi = np.maximum(phi, 1e-9)
            phi = phi / phi.sum(axis=-1, keepdims=True)
            psi = rng.uniform(0.1, 5.0, size=(3, 4, 2))
            assert nmf_majorizer_gap(T, V, y, beta, p, phi, psi) >= -1e-10

    def test_single_basis_jensen_degenerate(self):
        # K=1 forces phi = 1; with psi at equality the gap vanishes
        T, V, y, beta, p = self.setup_instance(K=1)
        phi, psi = equality_auxiliaries(T, V)
        np.testing.assert_array_equal(phi, np.ones_like(phi))
        assert abs(nmf_majorizer_gap(T, V, y, beta, p, phi, psi)) <= 1e-10

    def test_rejects_non_simplex_phi(self):
        T, V, y, beta, p = self.setup_instance()
        phi, psi = equality_auxiliaries(T, V)
        with pytest.raises(ValueError):
            nmf_majorizer_gap(T, V, y, beta, p, phi * 1.5, psi)
        with pytest.raises(ValueError):
            nmf_majorizer_gap(T, V, y, beta, p, phi, -psi)

"""Iterative-projection update: covariance oracle, normalization, descent.

The batched ``ip_sweep`` is pinned to the per-filter oracle in
``reference_ip.py``; the oracle's covariance and AM-GM bound are checked
against naive loops and the inequality itself.
"""

import numpy as np
import pytest
from reference_contractions import inverse_and_log_det, magnitudes_einsum
from reference_ip import am_gm_gap, ip_update_filter, weighted_covariance
from reference_nmf import scale_field

from ggdilrma.demix_ip import _ip_weights, _weighted_factor, ip_sweep
from ggdilrma.errors import SingularCovariance, UnsupportedBeta


def random_instance(I=3, J=8, M=2, K=2, seed=0):
    """Mixture ``xd``, outputs ``yd = W x``, NMF factors ``(T, V)`` and ``W``."""
    rng = np.random.default_rng(seed)
    xd = rng.standard_normal((I, J, M)) + 1j * rng.standard_normal((I, J, M))
    T = rng.uniform(0.3, 1.2, size=(M, I, K))
    V = rng.uniform(0.3, 1.2, size=(M, K, J))
    W = np.stack(
        [
            np.eye(M) + 0.3 * (rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M)))
            for _ in range(I)
        ]
    ).astype(np.complex128)
    yd = np.einsum("inm,ijm->ijn", W, xd)
    return xd, yd, (T, V), W


def unit_norm_gaps(xd, yd, TV, W, beta, p):
    """``w^H F w - 1`` for every filter ``w`` (a conjugated row of ``W``), with
    ``F`` its source's weighted covariance at the anchor outputs ``yd``."""
    F = weighted_covariance(xd, yd, scale_field(*TV), beta, p)
    return np.einsum("ina,inab,inb->in", W, F, W.conj()) - 1.0


class TestWeightedCovariance:
    def test_gaussian_weights_ignore_y(self):
        # beta=p=2: the |y| exponent is zero, weight is 1/S
        xd, yd, TV, _ = random_instance(seed=1)
        S = scale_field(*TV)
        F = weighted_covariance(xd, yd, S, 2.0, 2.0)
        I, J, M = xd.shape
        for i in range(I):
            for n in range(M):
                direct = np.zeros((M, M), dtype=np.complex128)
                for j in range(J):
                    xx = np.outer(xd[i, j], xd[i, j].conj())
                    direct += xx / S[i, j, n]
                direct /= J
                np.testing.assert_allclose(F[i, n], direct, rtol=1e-13, atol=1e-13)

    def test_single_frame_outer_product(self):
        xd = np.zeros((1, 1, 2), dtype=np.complex128)
        xd[0, 0] = [1.0, 0.0]
        yd = np.full((1, 1, 2), 2.0 + 0j)
        S = np.full((1, 1, 2), 0.7)
        beta, p = 1.0, 0.5
        F = weighted_covariance(xd, yd, S, beta, p)
        w1 = 1.0 / (2.0 ** (2 - beta) * 0.7 ** (beta / p))
        expected = (beta / 2.0) * w1 * np.array([[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(F[0, 0], expected, rtol=1e-13)

    def test_naive_loop_oracle(self):
        xd, yd, TV, _ = random_instance(I=2, J=6, seed=2)
        S = scale_field(*TV)
        beta, p = 1.3, 0.5
        F = weighted_covariance(xd, yd, S, beta, p)
        I, J, M = xd.shape
        for i in range(I):
            for n in range(M):
                direct = np.zeros((M, M), dtype=np.complex128)
                for j in range(J):
                    w = 1.0 / (abs(yd[i, j, n]) ** (2 - beta) * S[i, j, n] ** (beta / p))
                    direct += w * np.outer(xd[i, j], xd[i, j].conj())
                direct *= beta / (2 * J)
                np.testing.assert_allclose(F[i, n], direct, rtol=1e-13)

    def test_hermitian_psd(self):
        xd, yd, TV, _ = random_instance(seed=3)
        F = weighted_covariance(xd, yd, scale_field(*TV), 1.5, 0.5)
        asym = np.max(np.abs(F - F.conj().transpose(0, 1, 3, 2)))
        assert asym < 1e-12
        eigs = np.linalg.eigvalsh(F.reshape(-1, 2, 2))
        assert eigs.min() > -1e-10

    def test_rejects_beta_above_two(self):
        # the AM-GM weights need beta <= 2, so the sweep refuses beta = 4
        xd, _, TV, W = random_instance()
        yp = magnitudes_einsum(xd, W) ** 0.5
        with pytest.raises(UnsupportedBeta):
            ip_sweep(xd, yp, W, 1.0 / np.matmul(*TV), 4.0, 0.5, *inverse_and_log_det(W))


class TestIpUpdateFilter:
    def test_scalar_case(self):
        f = 2.5
        w0 = 0.3 - 0.4j
        w = ip_update_filter(np.array([[w0]]), np.array([[f]], dtype=np.complex128), 0)
        assert abs(w[0]) == pytest.approx(1 / np.sqrt(f), rel=1e-12)

    def test_identity_fixed_point(self):
        W = np.eye(2, dtype=np.complex128)
        F = np.eye(2, dtype=np.complex128)
        w = ip_update_filter(W, F, 0)
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-14)

    def test_normalization_and_majorizer_descent(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            F = B @ B.conj().T + 0.1 * np.eye(2)
            W = np.eye(2) + 0.5 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
            n = trial % 2
            w = ip_update_filter(W, F, n)
            assert abs((w.conj() @ F @ w).real - 1.0) < 1e-10

            # per-bin surrogate: -2 log|det W| + sum_n w_n^H F w_n,
            # with the filter w_n being the conjugate of row n
            def surrogate(Wm):
                quad = sum((Wm[k] @ F @ Wm[k].conj()).real for k in range(2))
                return -2 * np.log(abs(np.linalg.det(Wm))) + quad

            W_new = W.copy()
            W_new[n] = w.conj()
            assert surrogate(W_new) <= surrogate(W) + 1e-10 * (1 + abs(surrogate(W)))

    def test_singular_covariance_rejected(self):
        W = np.eye(2, dtype=np.complex128)
        F = np.zeros((2, 2), dtype=np.complex128)
        with pytest.raises(SingularCovariance):
            ip_update_filter(W, F, 0)


class TestAmGmGap:
    def test_equality_at_alpha_equals_y(self):
        assert am_gm_gap(1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        for y in (0.25, 1.0, 7.5):
            assert am_gm_gap(y, y, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_exact_at_beta_two(self):
        alphas = np.linspace(0.1, 5.0, 20)
        np.testing.assert_allclose(am_gm_gap(2.0, alphas, 2.0), 0.0, atol=1e-12)

    def test_direct_arithmetic_example(self):
        assert am_gm_gap(4.0, 1.0, 1.0) == pytest.approx(4.5)

    def test_nonnegative_over_grid(self):
        y = np.linspace(0.01, 5, 41)[:, None, None]
        a = np.linspace(0.01, 5, 41)[None, :, None]
        b = np.array([0.25, 0.5, 1.0, 1.5, 2.0])[None, None, :]
        assert np.min(am_gm_gap(y, a, b)) >= -1e-12


class TestIpSweep:
    @pytest.mark.parametrize("beta", [1.0, 1.5, 1.99, 2.0])
    def test_sweep_descends_cost(self, beta):
        from ggdilrma.source_model import ggd_cost_arrays

        p = 0.5
        failures = 0
        for seed in range(30):
            xd, _, _, W = random_instance(seed=seed)
            rng = np.random.default_rng(1000 + seed)
            T = rng.uniform(0.3, 1.2, size=(2, 3, 2))
            V = rng.uniform(0.3, 1.2, size=(2, 2, 8))
            W_inv, log_det = inverse_and_log_det(W)
            inv_S = np.empty((2, 3, 8))
            yp = magnitudes_einsum(xd, W) ** p
            before = ggd_cost_arrays(yp, log_det, T, V, inv_S, beta, p)  # writes 1 / S
            W2 = ip_sweep(xd, yp, W.copy(), inv_S, beta, p, W_inv, log_det)[0]
            yp2 = magnitudes_einsum(xd, W2) ** p
            after = ggd_cost_arrays(yp2, log_det, T, V, inv_S, beta, p)
            if after > before + 1e-9 * (1 + abs(before)):
                failures += 1
        assert failures == 0

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_sweep_matches_single_bin_op(self, N):
        xd, yd, TV, W = random_instance(I=4, J=10, M=N, seed=7)
        beta, p = 1.5, 0.5
        inv_S = 1.0 / np.matmul(*TV)
        inputs = xd, magnitudes_einsum(xd, W) ** p, inv_S
        before = [a.copy() for a in inputs]
        W_sweep, skipped = ip_sweep(*inputs[:2], W.copy(), inv_S, beta, p, *inverse_and_log_det(W))
        assert skipped == 0
        for got, ref in zip(inputs, before):  # the mixture, |y|^p and 1 / S, read only
            np.testing.assert_array_equal(got, ref)
        S = scale_field(*TV)

        W_ref = W.copy()
        yd_ref = yd.copy()
        for n in range(N):
            F = weighted_covariance(xd, yd_ref, S, beta, p)
            for i in range(4):
                w = ip_update_filter(W_ref[i], F[i, n], n)
                W_ref[i, n] = w.conj()
            yd_ref[:, :, n] = np.einsum("ijm,im->ij", xd, W_ref[:, n].conj())

        np.testing.assert_allclose(W_sweep, W_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(unit_norm_gaps(xd, yd, TV, W_sweep, beta, p), 0.0, atol=1e-10)

    def test_normalization_postcondition(self):
        xd, yd, TV, W = random_instance(I=5, J=12, seed=8)
        yp = magnitudes_einsum(xd, W) ** 0.5
        W_new = ip_sweep(xd, yp, W.copy(), 1.0 / np.matmul(*TV), 1.0, 0.5, *inverse_and_log_det(W))[0]
        np.testing.assert_allclose(unit_norm_gaps(xd, yd, TV, W_new, 1.0, 0.5), 0.0, atol=1e-10)

    @pytest.mark.parametrize("N", [2, 3])
    def test_factor_is_stable_when_one_frame_dominates(self, N):
        # Frame 5 has y_0 = x_0 - x_1 = 0, so its |y| is floored and its weight is
        # about 1e10 times the others': F is nearly that frame's outer product.
        rng = np.random.default_rng(11)
        J, beta, p = 40, 1.2, 0.5
        xd = rng.standard_normal((1, J, N)) + 1j * rng.standard_normal((1, J, N))
        xd[0, 5] = 1.0 + 0.5j
        W = np.array([[1.0, -1.0, 0.0], [0.3, 1.0, 0.2], [0.1, -0.2, 1.0]], dtype=np.complex128)
        W = W[None, :N, :N].copy()
        T = rng.uniform(0.5, 1.5, (N, 1, 2))
        V = rng.uniform(0.5, 1.5, (N, 2, J))
        yp = magnitudes_einsum(xd, W) ** p
        wgt = _ip_weights(yp[0], 1.0 / scale_field(T, V)[:, :, 0], beta, p)
        wgt *= beta / (2.0 * J)
        assert 1e9 < wgt.max() / np.median(wgt) < 1e11

        # The weighted observation, its Householder R and its condition number.
        A = xd.conj() * np.sqrt(wgt)[:, :, None]
        R = np.linalg.qr(A, mode="r")[0]
        tol = np.linalg.cond(A[0]) * np.finfo(float).eps  # about 3e-12
        w_qr = np.linalg.solve(R, np.linalg.solve(R.conj().T, np.linalg.inv(W[0])[:, 0]))
        w_qr /= np.linalg.norm(R @ w_qr)

        # r_kk from a Schur complement such as F_11 - |F_01|^2 / F_00 would put
        # prod r_kk off by 1e-9 to 1e-8 here.
        det_r = np.prod(np.abs(np.diagonal(R)))
        det_mgs = np.prod(np.diagonal(_weighted_factor(xd, wgt)[0]).real)
        assert abs(det_mgs - det_r) <= tol * det_r
        inv_S = 1.0 / (T @ V)
        w = ip_sweep(xd, yp, W.copy(), inv_S, beta, p, *inverse_and_log_det(W))[0][0, 0].conj()
        assert np.linalg.norm(w - w_qr) <= tol * np.linalg.norm(w_qr)

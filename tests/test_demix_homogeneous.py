"""Quartic majorizer bound, direction/scale step, and sweep contracts.

The batched ``quartic_majorizer`` and ``quartic_sweep`` are pinned to the
per-filter oracle in ``reference_quartic.py``; the oracle's own steps are
checked against the paper's properties.
"""

import warnings

import numpy as np
import pytest
from reference_contractions import inverse_and_log_det
from reference_ip import ip_update_filter
from reference_quartic import (
    direction_scale_step,
    optimal_scale,
    quadratic_objective,
    quartic_majorizer_direct,
    quartic_objective,
    quartic_update_filter,
)

from ggdilrma import demix_homogeneous
from ggdilrma.demix_homogeneous import _cholesky, mixture_gram, quartic_majorizer, quartic_sweep


def random_slab(J, N, seed, r_low=0.5, r_high=2.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((J, N)) + 1j * rng.standard_normal((J, N))
    r = rng.uniform(r_low, r_high, size=J)
    return x, r


def unit_complex(N, rng):
    w = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    return w / np.linalg.norm(w)


def batched_majorizer(x_slab, r_col, w_ref):
    """The pipeline's batched majorizer on a one-bin problem: ``(G, good)``."""
    G, good = quartic_majorizer(x_slab[None], w_ref[None], r_col[None])
    return G[0], bool(good[0])


class TestOptimalScale:
    def test_degree_two(self):
        assert optimal_scale(2.0) == pytest.approx(1.0)

    def test_degree_four(self):
        assert optimal_scale(4.0) == pytest.approx(0.5**0.25)
        assert optimal_scale(4.0) == pytest.approx(0.840896, abs=1e-6)

    def test_grid_search_oracle(self):
        etas = np.linspace(0.5, 1.5, 10001)
        vals = -2.0 * np.log(etas) + etas**4
        assert abs(etas[np.argmin(vals)] - optimal_scale(4.0)) < 1e-4


class TestHomogeneousObjectives:
    @pytest.mark.parametrize("seed", range(5))
    def test_quartic_homogeneity(self, seed):
        rng = np.random.default_rng(seed)
        x, r = random_slab(J=7, N=3, seed=seed)
        obj = quartic_objective(x, r)
        w = unit_complex(3, rng)
        for eta in (0.3, 1.7, 4.0):
            assert obj.evaluate(eta * w) == pytest.approx(
                eta**4 * obj.evaluate(w), rel=1e-10
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_sublevel_midpoint_convexity(self, seed):
        rng = np.random.default_rng(100 + seed)
        x, r = random_slab(J=7, N=3, seed=seed)
        obj = quartic_objective(x, r)
        for _ in range(200):
            u, v = unit_complex(3, rng), unit_complex(3, rng)
            fm = obj.evaluate((u + v) / 2)
            assert fm <= max(obj.evaluate(u), obj.evaluate(v)) + 1e-10

    def test_quartic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x, r = random_slab(J=6, N=2, seed=8)
        obj = quartic_objective(x, r)
        w = unit_complex(2, rng)
        grad = obj.gradient(w)
        h = 1e-6
        for a in range(2):
            for delta, coef in ((h, 1.0), (1j * h, 1j)):
                e = np.zeros(2, dtype=np.complex128)
                e[a] = delta
                num = (obj.evaluate(w + e) - obj.evaluate(w - e)) / (2 * h)
                # d f / d w^H is the conjugate-coordinate derivative:
                # f(w + e) - f(w) ~ 2 Re(grad^H e)
                assert num == pytest.approx(2 * (grad[a].conj() * coef).real, rel=1e-5)


class TestQuarticMajorizer:
    def test_single_frame_tight_everywhere(self):
        rng = np.random.default_rng(3)
        x, r = random_slab(J=1, N=2, seed=3)
        w_ref = unit_complex(2, rng)
        G, _ = batched_majorizer(x, r, w_ref)
        np.testing.assert_allclose(
            G, np.outer(x[0], x[0].conj()) / r[0] ** 2, rtol=1e-12
        )
        obj = quartic_objective(x, r)
        for _ in range(20):
            w = unit_complex(2, rng)
            g = float((w.conj() @ G @ w).real) ** 2
            assert g == pytest.approx(obj.evaluate(w), rel=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_streamed_matches_direct(self, seed):
        rng = np.random.default_rng(seed)
        J = int(rng.choice([1, 2, 5, 17, 64]))
        N = int(rng.integers(1, 5))
        x, r = random_slab(J, N, seed=seed + 50)
        w_ref = unit_complex(N, rng)
        streamed, good = batched_majorizer(x, r, w_ref)
        assert good
        direct = quartic_majorizer_direct(x, r, w_ref)
        np.testing.assert_allclose(streamed, direct, rtol=1e-12, atol=1e-12)

    def test_hermitian_psd(self):
        rng = np.random.default_rng(4)
        x, r = random_slab(J=9, N=3, seed=4)
        G, _ = batched_majorizer(x, r, unit_complex(3, rng))
        assert np.max(np.abs(G - G.conj().T)) < 1e-12
        assert np.linalg.eigvalsh((G + G.conj().T) / 2).min() > -1e-10

    def test_monte_carlo_bound(self):
        rng = np.random.default_rng(11)
        worst_gap, worst_eq = np.inf, 0.0
        for _ in range(2000):
            N = int(rng.integers(1, 5))
            J = int(rng.choice([1, 2, 5, 50]))
            x, r = random_slab(J, N, seed=int(rng.integers(1 << 31)))
            w_ref = unit_complex(N, rng)
            w = unit_complex(N, rng)
            obj = quartic_objective(x, r)
            G, _ = batched_majorizer(x, r, w_ref)
            g = float((w.conj() @ G @ w).real) ** 2
            worst_gap = min(worst_gap, g - obj.evaluate(w))
            g_ref = float((w_ref.conj() @ G @ w_ref).real) ** 2
            worst_eq = max(
                worst_eq, abs(g_ref - obj.evaluate(w_ref)) / max(1.0, obj.evaluate(w_ref))
            )
        assert worst_gap >= -1e-10
        assert worst_eq <= 1e-10

    def test_zero_reference_rejected(self):
        # a zero anchor projection is flagged, so the sweep skips that bin
        for N in (2, 3):
            x, r = random_slab(J=4, N=N, seed=5)
            G, good = batched_majorizer(x, r, np.zeros(N, dtype=np.complex128))
            assert not good
            np.testing.assert_array_equal(G, 0.0)


class TestCholesky:
    @pytest.mark.parametrize("M", [2, 3])
    def test_degenerate_g_is_marked_for_skipping(self, M):
        rng = np.random.default_rng(30 + M)
        v = rng.standard_normal(M) + 1j * rng.standard_normal(M)
        indefinite = np.diag(np.arange(1.0, M + 1.0)).astype(complex)
        indefinite[0, 1] = indefinite[1, 0] = 3.0  # its leading 2 x 2 minor is 2 - 9
        G = np.stack([np.zeros((M, M), complex), np.outer(v, v.conj()), indefinite])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            R, ok = _cholesky(G)
        assert not ok.any()
        # a skipped factor still divides by no zero in the substitution
        assert np.all(np.isfinite(R))
        assert np.all(R.diagonal(axis1=1, axis2=2).real > 0.0)


class TestDirectionScaleStep:
    def test_quadratic_reproduces_ip(self):
        rng = np.random.default_rng(6)
        for trial in range(25):
            B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            F = B @ B.conj().T + 0.05 * np.eye(3)
            W = np.eye(3) + 0.4 * (
                rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            )
            n = trial % 3
            obj = quadratic_objective(F)

            def solver(o, Wm, row):
                e = np.zeros(3, dtype=np.complex128)
                e[row] = 1.0
                return np.linalg.solve(Wm @ F, e)

            w_step = direction_scale_step(obj, W, n, solver)
            w_ip = ip_update_filter(W, F, n)
            np.testing.assert_allclose(w_step, w_ip, rtol=1e-12, atol=1e-14)
            assert obj.evaluate(w_step) == pytest.approx(1.0, rel=1e-10)

    def test_scale_postcondition_any_direction(self):
        # whatever the solver returns, the rescaled filter has f = 2/d
        rng = np.random.default_rng(7)
        x, r = random_slab(J=6, N=2, seed=7)
        obj = quartic_objective(x, r)
        for _ in range(10):
            w_dir = 3.0 * unit_complex(2, rng)
            w = direction_scale_step(obj, None, 0, lambda o, W, n: w_dir)
            assert obj.evaluate(w) == pytest.approx(0.5, rel=1e-10)


def sweep(xd, W, radius):
    """``quartic_sweep`` anchored at ``W``'s outputs, with scale field ``S = radius``
    at ``p = 1``."""
    yd = np.einsum("inm,ijm->ijn", W, xd)
    S = np.moveaxis(radius, 2, 0)
    return quartic_sweep(mixture_gram(xd), yd, W, S, 1.0, *inverse_and_log_det(W))


class TestQuarticUpdateFilter:

    def random_state(self, I, J, N, seed):
        rng = np.random.default_rng(seed)
        xd = rng.standard_normal((I, J, N)) + 1j * rng.standard_normal((I, J, N))
        radius = rng.uniform(0.5, 2.0, size=(I, J, N))
        W = np.stack(
            [
                np.eye(N)
                + 0.3 * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
                for _ in range(I)
            ]
        ).astype(np.complex128)
        return xd, radius, W

    def quartic_cost(self, xd, radius, W):
        J = xd.shape[1]
        yd = np.einsum("inm,ijm->ijn", W, xd)
        logdet = np.log(np.abs(np.linalg.det(W)))
        return float(-2 * J * np.sum(logdet) + np.sum(np.abs(yd / radius) ** 4))

    def test_single_source_pure_scale(self):
        # N=1: the direction is fixed; only the closed-form scale applies
        xd, radius, _ = self.random_state(1, 8, 1, seed=9)
        W = np.array([[[0.7 - 0.2j]]])
        W_new, _, _, skipped = sweep(xd, W.copy(), radius)
        assert skipped == 0
        w = W_new[0, 0].conj()
        obj = quartic_objective(xd[0], radius[0, :, 0])
        assert obj.evaluate(w) == pytest.approx(0.5, rel=1e-10)
        # collinear with the previous filter
        w_old = W[0, 0].conj()
        cos = abs(w_old.conj() @ w) / (np.linalg.norm(w_old) * np.linalg.norm(w))
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_postconditions_and_stationarity(self):
        for seed in range(20):
            xd, radius, W = self.random_state(1, 16, 2, seed=seed)
            w = quartic_update_filter(xd[0], radius[0, :, 0], W[0], 0)
            obj = quartic_objective(xd[0], radius[0, :, 0])
            assert obj.evaluate(w) == pytest.approx(0.5, rel=1e-9)

            # gradient direction parallel to updated-W inverse column:
            # G w stays parallel to W_new^{-1} e_n
            G = quartic_majorizer_direct(xd[0], radius[0, :, 0], W[0, 0].conj())
            W_new = W[0].copy()
            W_new[0] = w.conj()
            b = np.linalg.inv(W_new)[:, 0]
            a = G @ w
            bhat = b / np.linalg.norm(b)
            sine = np.linalg.norm(a - (bhat.conj() @ a) * bhat) / np.linalg.norm(a)
            assert sine < 1e-8

    def test_identity_separated_descent(self):
        # already-separated input with matched scales: update may not increase
        rng = np.random.default_rng(31)
        xd = rng.standard_normal((1, 32, 2)) + 1j * rng.standard_normal((1, 32, 2))
        W = np.eye(2, dtype=np.complex128)[None]
        radius = np.abs(np.einsum("inm,ijm->ijn", W, xd)) + 0.1
        before = self.quartic_cost(xd, radius, W)
        W_new, _, _, skipped = sweep(xd, W.copy(), radius)
        assert skipped == 0
        after = self.quartic_cost(xd, radius, W_new)
        assert after <= before + 1e-9 * (1 + abs(before))

    def test_full_sweep_descends_100_seeds(self):
        failures = 0
        for seed in range(100):
            xd, radius, W = self.random_state(4, 16, 2, seed=seed)
            before = self.quartic_cost(xd, radius, W)
            W2, _, f_check, skipped = sweep(xd, W.copy(), radius)
            after = self.quartic_cost(xd, radius, W2)
            if after > before + 1e-9 * (1 + abs(before)) or skipped:
                failures += 1
        assert failures == 0

    def test_sweep_matches_single_bin_op(self):
        # one Cholesky factor and one substitution at every N; the oracle solves W G
        for N in (2, 3, 4):
            for seed in range(77, 87):
                xd, radius, W = self.random_state(5, 12, N, seed=seed)
                W_sweep, _, f_check, skipped = sweep(xd, W.copy(), radius)
                assert skipped == 0

                W_ref = W.copy()
                for n in range(N):
                    for i in range(5):
                        w = quartic_update_filter(xd[i], radius[i, :, n], W_ref[i], n)
                        W_ref[i, n] = w.conj()
                np.testing.assert_allclose(W_sweep, W_ref, rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(f_check, 0.5, rtol=1e-9)

    @pytest.mark.parametrize("N", [2, 3])
    def test_non_finite_scale_skips_only_its_source(self, N):
        # Source 0's r**2 at bin 4 overflows to inf: that update alone is
        # skipped, and every other filter still matches the oracle.
        xd, radius, W = self.random_state(5, 12, N, seed=41)
        radius[4, :, 0] = 1e300
        with np.errstate(over="ignore"):
            W_sweep, _, f_check, skipped = sweep(xd, W.copy(), radius)
        assert skipped == 1
        np.testing.assert_array_equal(W_sweep[4, 0], W[4, 0])

        W_ref = W.copy()
        for n in range(N):
            for i in range(5):
                if (i, n) != (4, 0):
                    W_ref[i, n] = quartic_update_filter(xd[i], radius[i, :, n], W_ref[i], n).conj()
        np.testing.assert_allclose(W_sweep, W_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(np.delete(f_check.ravel(), 4 * N), 0.5, rtol=1e-9)

    @pytest.mark.parametrize("N", [2, 3])
    def test_sweep_factors_the_majorizer_that_quartic_majorizer_returns(self, N, monkeypatch):
        def no_det(*args, **kwargs):
            raise AssertionError("np.linalg.det called")

        factors = []

        def spy(G):
            R, ok = _cholesky(G)
            factors.append((R, ok))
            return R, ok

        monkeypatch.setattr(np.linalg, "det", no_det)
        monkeypatch.setattr(demix_homogeneous, "_cholesky", spy)
        xd, radius, W = self.random_state(5, 12, N, seed=23)
        sweep(xd, W.copy(), radius)
        [(R, ok)] = factors  # every source of the one block, factored at once
        assert R.shape == (5, N, N, N) and ok.all()
        for n in range(N):
            G, good = quartic_majorizer(xd, W[:, n].conj(), radius[:, :, n])
            assert good.all()
            RhR = R[:, n].conj().transpose(0, 2, 1) @ R[:, n]
            np.testing.assert_allclose(RhR, G, rtol=1e-12)

    def test_scale_postcondition_across_sweep(self):
        xd, radius, W = self.random_state(6, 20, 2, seed=13)
        yd = np.einsum("inm,ijm->ijn", W, xd)
        W_new, yd_out, f_check, _ = sweep(xd, W, radius)
        np.testing.assert_array_equal(yd_out, yd)  # the anchor outputs, untouched
        np.testing.assert_allclose(f_check, 0.5, rtol=1e-9)
        # f_check is the quartic cost of the updated filters' outputs.
        y_new = np.einsum("inm,ijm->ijn", W_new, xd)
        f_new = np.mean(np.abs(y_new / radius) ** 4, axis=1)
        np.testing.assert_allclose(f_check, f_new, rtol=1e-12)

"""Quartic majorizer bound, direction/scale step, and sweep contracts.

The batched ``quartic_majorizer``, whose ``G`` the sweep factors, and
``quartic_sweep`` are pinned to the per-filter oracle in
``reference_quartic.py``; the oracle's own steps are checked against the
paper's properties.
"""

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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

from ggdilrma import demix_homogeneous, pool
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
    """The sweep's majorizer on a one-bin problem with one anchor row, at ``p = 1``
    so that the scale field is ``r``: ``(G, good)``."""
    yd = np.abs(x_slab @ w_ref.conj())[None, None] ** 2  # the anchor's |y~|^2
    G, good, _ = quartic_majorizer(
        mixture_gram(x_slab[None]), yd, w_ref.conj()[None, None], 1.0 / r_col[None, None], 1.0
    )
    return G[0, 0], bool(good[0, 0])


def anchor_power(W, xd):
    """``|y~|^2`` ``(N, I, J)`` of the outputs of ``W`` ``(I, N, M)``: the anchors a
    quartic sweep or majorizer at ``W`` reads."""
    return np.abs(np.einsum("inm,ijm->nij", W, xd)) ** 2


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

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        N=st.integers(1, 4),
        J=st.sampled_from([1, 2, 5, 50]),
        log_c=st.floats(-8.0, 4.0),
    )
    def test_bound_holds_at_any_loudness_and_scale(self, seed, N, J, log_c):
        # Every row of a square W, on a mixture of loudness c, with per-frame scales
        # r log-uniform in [1e-3, 1e3]: g bounds f, with equality at the anchor.
        rng = np.random.default_rng(seed)
        x = 10.0**log_c * (rng.standard_normal((J, N)) + 1j * rng.standard_normal((J, N)))
        r = 10.0 ** rng.uniform(-3.0, 3.0, (N, J))
        W = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        G, good, _ = quartic_majorizer(
            mixture_gram(x[None]), anchor_power(W[None], x[None]), W[None], 1.0 / r[:, None], 1.0
        )
        assert good.all()
        for n in range(N):
            obj = quartic_objective(x, r[n])
            w, w_ref = unit_complex(N, rng), W[n].conj()
            g = float((w.conj() @ G[0, n] @ w).real) ** 2
            assert g >= obj.evaluate(w) * (1.0 - 1e-10)
            g_ref = float((w_ref.conj() @ G[0, n] @ w_ref).real) ** 2
            assert abs(g_ref - obj.evaluate(w_ref)) <= 1e-10 * obj.evaluate(w_ref)

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
    inv_S = 1.0 / np.moveaxis(radius, 2, 0)
    return quartic_sweep(
        mixture_gram(xd), anchor_power(W, xd), W, inv_S, 1.0, *inverse_and_log_det(W)
    )


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
        # Source 0's 1 / r**2 at bin 4 underflows to zero: that update alone is
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
    def test_non_finite_scale_skips_only_its_source_on_the_pool(self, N, monkeypatch):
        # The same sweep with its passes over the frames split into one-bin blocks
        # on the pool, under the caller's errstate, and every warning an error:
        # bin 4's update alone is skipped there too.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(pool, "POOL_CROSSOVER", 1)
        monkeypatch.setattr(pool, "BLOCK_ENTRIES", 2 * 12)  # 12 frames
        calls, tasks = [], pool._tasks
        monkeypatch.setattr(pool, "_tasks", lambda: calls.append(1) or tasks())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.test_non_finite_scale_skips_only_its_source(N)
        assert len(calls) == 3  # the mixture's features, the majorizers, the costs

    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize("cost", [np.nan, 0.0])
    def test_degenerate_direction_returns_its_bin_to_the_entry_state(self, N, cost, monkeypatch):
        # Bin 2's majorizers are good, but its last source's direction is given a cost
        # that is not finite or is zero, through the contraction's coefficients.  The
        # rows written before the costs are known go back: that bin's W, W^-1 and
        # log|det W| are its entry bytes, every source counted as skipped.
        form_coeffs = demix_homogeneous._form_coeffs

        def degenerate(h):
            coeffs = form_coeffs(h)
            coeffs[2, N - 1] = cost
            return coeffs

        monkeypatch.setattr(demix_homogeneous, "_form_coeffs", degenerate)
        xd, radius, W = self.random_state(5, 12, N, seed=43)
        W_inv, log_det = inverse_and_log_det(W)
        state = W.copy(), W_inv.copy(), log_det.copy()
        yd = np.einsum("inm,ijm->ijn", W, xd)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            inv_S = 1.0 / np.moveaxis(radius, 2, 0)
            _, _, f_check, skipped = quartic_sweep(
                mixture_gram(xd), anchor_power(W, xd), state[0], inv_S, 1.0, *state[1:]
            )
        assert skipped == N
        for got, given in zip(state, (W, W_inv, log_det)):
            assert got[2].tobytes() == given[2].tobytes()

        W_ref = W.copy()
        for n in range(N):
            for i in (0, 1, 3, 4):
                W_ref[i, n] = quartic_update_filter(xd[i], radius[i, :, n], W_ref[i], n).conj()
        np.testing.assert_allclose(state[0], W_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(np.delete(f_check, 2, axis=0), 0.5, rtol=1e-9)
        anchor_cost = np.mean(np.abs(yd[2] / radius[2]) ** 4, axis=0)
        np.testing.assert_allclose(f_check[2], anchor_cost, rtol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        N=st.integers(2, 4),
        silent=st.none() | st.integers(0, 3),
        duplicated=st.none() | st.integers(0, 3),
    )
    def test_sweep_skips_exactly_the_degenerate_bins_and_never_ascends(
        self, seed, N, silent, duplicated
    ):
        # Random mixtures of four bins, one of them optionally silent and one with
        # its last channel a copy of its first.  The sweep raises nothing, counts
        # every source of each degenerate bin and no other update, and lowers no
        # bin's objective -2 log|det W_i| + sum_n f_n(w_n) below what it was.
        xd, radius, W = self.random_state(4, 12, N, seed=seed)
        if duplicated is not None:
            xd[duplicated, :, N - 1] = xd[duplicated, :, 0]
        if silent is not None:
            xd[silent] = 0.0
        degenerate = {silent, duplicated} - {None}

        def objective(W):
            f = [
                quartic_objective(xd[i], radius[i, :, n]).evaluate(W[i, n].conj())
                for i in range(4)
                for n in range(N)
            ]
            return -2.0 * np.linalg.slogdet(W)[1] + np.sum(np.reshape(f, (4, N)), axis=1)

        before = objective(W)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            W_new, _, _, skipped = sweep(xd, W.copy(), radius)
        assert skipped == N * len(degenerate)
        for i in degenerate:
            np.testing.assert_array_equal(W_new[i], W[i])
        after = objective(W_new)
        assert np.all(after <= before + 1e-9 * (1.0 + np.abs(before)))

    @pytest.mark.parametrize("N", [2, 3])
    def test_sweep_factors_the_majorizer_that_quartic_majorizer_returns(self, N, monkeypatch):
        # The G the sweep factors is quartic_majorizer's, bit for bit: the function
        # the property suite and the tests above check the bound on.
        def no_det(*args, **kwargs):
            raise AssertionError("np.linalg.det called")

        factored = []

        def spy(G):
            factored.append(G.copy())
            return _cholesky(G)

        monkeypatch.setattr(np.linalg, "det", no_det)
        monkeypatch.setattr(demix_homogeneous, "_cholesky", spy)
        xd, radius, W = self.random_state(5, 12, N, seed=23)
        xd[1] = 0.0  # a silent bin
        xd[3, :, 1] = xd[3, :, 0]  # a rank-deficient bin
        yd = anchor_power(W, xd)
        inv_S = 1.0 / np.moveaxis(radius, 2, 0)
        # each call writes 1 / r**2 over the anchors it reads, so each gets its own
        G, good, _ = quartic_majorizer(mixture_gram(xd), yd.copy(), W, inv_S, 1.0)
        _, _, _, skipped = quartic_sweep(
            mixture_gram(xd), yd, W.copy(), inv_S, 1.0, *inverse_and_log_det(W)
        )
        [G_sweep] = factored  # every source over all bins, factored at once
        np.testing.assert_array_equal(G_sweep, G)
        assert G.shape == (5, N, N, N)
        assert not good[:, 1].any() and good[:, [0, 2, 3, 4]].all()
        _, ok = _cholesky(G)
        assert not ok[3].any() and ok[[0, 2, 4]].all()
        assert skipped == 2 * N

    def test_scale_postcondition_across_sweep(self):
        xd, radius, W = self.random_state(6, 20, 2, seed=13)
        W_new, inv_r2, f_check, _ = sweep(xd, W, radius)
        # the anchors' buffer returns holding 1 / r**2, here (1 / S)**2 at p = 1
        inv_S = 1.0 / np.moveaxis(radius, 2, 0)
        np.testing.assert_array_equal(inv_r2, inv_S * inv_S)
        np.testing.assert_allclose(f_check, 0.5, rtol=1e-9)
        # f_check is the quartic cost of the updated filters' outputs.
        y_new = np.einsum("inm,ijm->ijn", W_new, xd)
        f_new = np.mean(np.abs(y_new / radius) ** 4, axis=1)
        np.testing.assert_allclose(f_check, f_new, rtol=1e-12)

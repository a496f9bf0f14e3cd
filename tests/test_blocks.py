"""Block streaming over frequency bins and the integer-power ratio.

The per-iteration layers run over blocks of bins sized by
``pool.BLOCK_ENTRIES``.  The demixing sweeps are per-bin, so their result
must not depend on the block size at all, and only their work along the
frames runs per block: their small per-bin algebra runs once over all bins,
however many blocks there are.  So is the separation into ``|y|^p``, byte
for byte.  The NMF updates and the cost sum over blocks, so they agree to
roundoff; the cost's ``1 / S`` is the reciprocal of each block's product.
Their per-block chains run in place, in buffers of their own: the integer
power squares into the buffer it is given, and no layer writes into the
arrays it reads.  A ``tracemalloc``
guard keeps every layer's temporaries a fraction of the mixture's size (a
tighter one for the NMF updates and the cost), and a second one bounds what
a whole iteration holds at once.
"""

import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from reference_contractions import inverse_and_log_det
from reference_nmf import scale_field

from ggdilrma import demix_homogeneous, demix_ip, pipeline, pool
from ggdilrma.demix_homogeneous import mixture_gram, quartic_sweep
from ggdilrma.demix_ip import ip_sweep
from ggdilrma.errors import SingularCovariance
from ggdilrma.pool import bin_blocks
from ggdilrma.source_model import (
    _int_power,
    _whitened_ratio,
    ggd_cost_arrays,
    model_cost_terms,
    update_activations_arrays,
    update_bases_arrays,
)
from ggdilrma.types import EPS_Y, GgdConfig, MixtureSpectrogram

RTOL = 1e-12
I, J, K = 10, 12, 3

#: Bins per block: one, three (a ragged last block), and every bin at once.
BLOCK_BINS = pytest.mark.parametrize("bins", [1, 3, I])


def set_block_bins(monkeypatch, bins, n_sources=1):
    """Blocks of ``bins`` bins in a layer that holds ``n_sources`` sources in each: the
    layers split by bins hold every source in a block, those cut into (source, block)
    parts size their blocks for one."""
    monkeypatch.setattr(pool, "BLOCK_ENTRIES", bins * J * n_sources)


def instance(N, seed, silent_bin=None):
    """Mixture ``(I, J, N)``, demixing matrices and NMF factors."""
    rng = np.random.default_rng(seed)
    xd = rng.standard_normal((I, J, N)) + 1j * rng.standard_normal((I, J, N))
    if silent_bin is not None:
        xd[silent_bin] = 0.0
    W = np.eye(N) + 0.3 * (rng.standard_normal((I, N, N)) + 1j * rng.standard_normal((I, N, N)))
    T = rng.uniform(0.2, 1.5, (N, I, K))
    V = rng.uniform(0.2, 1.5, (N, K, J))
    return xd, W, T, V


def carried_inverse_scale(T, V):
    """``1 / S`` of the scale field ``S = T V`` ``(N, I, J)`` as the pipeline carries
    it: the reciprocal of each block's product."""
    inv_S = np.empty((T.shape[0], T.shape[1], V.shape[2]))
    for blk in bin_blocks(T.shape[1], V.shape[2]):
        np.divide(1.0, T[:, blk] @ V, out=inv_S[:, blk])
    return inv_S


def carried_magnitudes(xd, W, p):
    """The outputs' ``|y|^p`` ``(N, I, J)`` of ``W``, from the complex outputs."""
    return np.abs(np.moveaxis(pipeline.separate(xd, W), 2, 0), order="C") ** p


def whole(fn, monkeypatch):
    """``fn()`` with every bin in one block, at up to four sources."""
    with monkeypatch.context() as m:
        set_block_bins(m, I, 4)
        return fn()


@pytest.mark.parametrize(
    "n_bins, frames, budget, lengths",
    [
        (1025, 30, 100, [3] * 341 + [2]),  # at most 3 bins of 30 frames
        (513, 64, 2**15, [257, 256]),  # balanced, not 512 + 1
        (257, 626, 2**15, [52, 51, 51, 52, 51]),
        (4, 500, 100, [1, 1, 1, 1]),  # a bin over budget is a block alone
        (7, 3, 2**15, [7]),
        (0, 3, 2**15, []),
    ],
)
def test_bin_blocks_cover_every_bin_once(monkeypatch, n_bins, frames, budget, lengths):
    monkeypatch.setattr(pool, "BLOCK_ENTRIES", budget)
    blocks = bin_blocks(n_bins, frames)
    assert sorted(b.stop - b.start for b in blocks) == sorted(lengths)
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n_bins))


@BLOCK_BINS
@pytest.mark.parametrize("N", [2, 3, 4])
def test_quartic_sweep_is_block_invariant(monkeypatch, bins, N):
    xd, W, T, V = instance(N, 1, silent_bin=I - 2)
    xd[3, :, 1] = xd[3, :, 0]  # rank-deficient bin: skipped, nonzero output
    gram = mixture_gram(xd)
    W_inv, log_det = inverse_and_log_det(W)
    inv_S = carried_inverse_scale(T, V)

    def sweep():
        carried = W_inv.copy(), log_det.copy()
        anchor = pipeline.separate(xd, W, 2.0)
        W_new, _, f_check, skipped = quartic_sweep(gram, anchor, W.copy(), inv_S, 0.5, *carried)
        return (W_new, *carried, f_check), skipped

    state_ref, skipped_ref = whole(sweep, monkeypatch)
    set_block_bins(monkeypatch, bins, N)
    state, skipped = sweep()
    for got, ref in zip(state, state_ref):  # W, W^-1, log|det W|, f_check
        np.testing.assert_array_equal(got, ref)
    assert skipped == skipped_ref == 2 * N  # every source of both degenerate bins
    W_new, W_inv_new, log_det_new, f_new = state
    for i in (3, I - 2):  # the skipped bins' carried state is left as it was
        np.testing.assert_array_equal(W_inv_new[i], W_inv[i])
        assert log_det_new[i] == log_det[i]
    assert_carried(W_new, W_inv_new, log_det_new)
    # f_check is the quartic cost of the updated filters, skipped bins included.
    a2 = np.abs(pipeline.separate(xd, W_new)) ** 2 / scale_field(T, V) ** 4  # r = S**2
    np.testing.assert_allclose(f_new, np.sum(a2 * a2, axis=1) / J, rtol=1e-13)


@pytest.mark.parametrize("M", [2, 3])
def test_mixture_gram_is_block_invariant(monkeypatch, M):
    # Whole, each pair's product of a block is a temporary of 256 KiB or more, which
    # numpy multiplies into in place; in one-bin blocks it is not.
    rng = np.random.default_rng(14)
    xd = rng.standard_normal((300, 158, M)) + 1j * rng.standard_normal((300, 158, M))
    monkeypatch.setattr(pool, "BLOCK_ENTRIES", xd.size)
    whole_gram = mixture_gram(xd)
    monkeypatch.setattr(pool, "BLOCK_ENTRIES", 1)
    assert mixture_gram(xd).tobytes() == whole_gram.tobytes()


@BLOCK_BINS
@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("beta, p", [(2.0, 2.0), (1.0, 0.5)])
def test_ip_sweep_is_block_invariant(monkeypatch, bins, N, beta, p):
    xd, W, T, V = instance(N, 2)
    inv_S = carried_inverse_scale(T, V)
    yp = carried_magnitudes(xd, W, p)

    def sweep():
        carried = inverse_and_log_det(W)
        return ip_sweep(xd, yp, W.copy(), inv_S, beta, p, *carried)[0], *carried

    state_ref = whole(sweep, monkeypatch)
    set_block_bins(monkeypatch, bins, N)
    state = sweep()
    for got, ref in zip(state, state_ref):  # W, W^-1, log|det W|
        np.testing.assert_array_equal(got, ref)
    assert_carried(*state)


def assert_carried(W, W_inv, log_det):
    """The inverse and log-determinants a sweep carried match LAPACK's for its ``W``."""
    inv_ref, log_det_ref = inverse_and_log_det(W)
    np.testing.assert_allclose(W_inv, inv_ref, rtol=0, atol=1e-14 * np.max(np.abs(inv_ref)))
    np.testing.assert_allclose(log_det, log_det_ref, rtol=0, atol=1e-14)


@BLOCK_BINS
@pytest.mark.parametrize("beta, p", [(4.0, 0.5), (2.0, 2.0), (1.5, 2.0)])
def test_nmf_updates_and_cost_are_block_invariant(monkeypatch, bins, beta, p):
    xd, W, T, V = instance(2, 3)
    yp = carried_magnitudes(xd, W, p)

    def layers():
        inv_S = carried_inverse_scale(T, V)
        return (
            update_bases_arrays(T, V, inv_S, yp, beta, p),
            update_activations_arrays(T, V, yp, beta, p),
            ggd_cost_arrays(yp, inverse_and_log_det(W)[1], T, V, inv_S, beta, p),
            inv_S,  # written again by the cost, at the block size under test
        )

    T_ref, V_ref, cost_ref, inv_S_ref = whole(layers, monkeypatch)
    set_block_bins(monkeypatch, bins)
    T_new, V_new, cost, inv_S = layers()
    np.testing.assert_allclose(T_new, T_ref, rtol=RTOL)
    np.testing.assert_allclose(V_new, V_ref, rtol=RTOL)
    assert cost == pytest.approx(cost_ref, rel=RTOL)
    np.testing.assert_allclose(inv_S, inv_S_ref, rtol=RTOL)


@pytest.mark.parametrize("bins", [1, 3, 7])
@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("beta, p", [(4.0, 0.5), (1.5, 0.7)])
def test_nmf_updates_and_cost_leave_their_inputs_unchanged(monkeypatch, bins, N, beta, p):
    # The layers overwrite block buffers of their own only: none writes into a
    # view of the factors, 1 / S or |y|^p it was given.  The cost writes 1 / S of
    # the factors it is given into its buffer, the bytes it holds already.
    xd, W, T, V = instance(N, 10)
    yp = carried_magnitudes(xd, W, p)
    yp[:, ::4] = 0.5 * EPS_Y**p  # below the updates' floor
    log_det = inverse_and_log_det(W)[1]
    set_block_bins(monkeypatch, bins)
    inv_S = carried_inverse_scale(T, V)  # by the cost's blocks
    inputs = (T, V, inv_S, yp, log_det)
    before = [a.copy() for a in inputs]
    update_bases_arrays(T, V, inv_S, yp, beta, p)
    update_activations_arrays(T, V, yp, beta, p)
    model_cost_terms(yp, 1.0 / inv_S, beta, p)
    ggd_cost_arrays(yp, log_det, T, V, inv_S, beta, p)
    for got, ref in zip(inputs, before):
        np.testing.assert_array_equal(got, ref)


@BLOCK_BINS
@pytest.mark.parametrize("beta, p", [(4.0, 0.5), (2.0, 2.0)])
def test_run_trace_is_block_invariant(monkeypatch, bins, beta, p):
    xd = instance(2, 4)[0]
    x = MixtureSpectrogram(data=xd, sample_rate=16000, frame_len=2 * (I - 1), hop_len=I - 1)
    cfg = GgdConfig(beta=beta, domain=p, n_bases=K, iterations=5, seed=5)

    def trace():
        return pipeline.run(x, cfg).trace.costs()

    costs_ref = whole(trace, monkeypatch)
    set_block_bins(monkeypatch, bins)
    np.testing.assert_allclose(trace(), costs_ref, rtol=RTOL)


@BLOCK_BINS
def test_singular_bin_is_named_by_its_global_index(monkeypatch, bins):
    # The IP sweep takes det F before dividing by the silent bin's zero r00, at
    # N = 2 and N = 3 alike, so no RuntimeWarning.
    set_block_bins(monkeypatch, bins)
    for N in (2, 3):
        xd, W, T, V = instance(N, 6, silent_bin=7)
        with pytest.raises(SingularCovariance, match=r"at bin 7, source 0$"):
            yp, inv_S = carried_magnitudes(xd, W, 2.0), carried_inverse_scale(T, V)
            ip_sweep(xd, yp, W, inv_S, 2.0, 2.0, *inverse_and_log_det(W))


def vanishing_inverse_column(N):
    """An instance whose carried ``W^-1 e_0`` is zero at bin 7: an update of source 0
    there would multiply ``det W_7`` by ``h W^-1 e_0 = 0``."""
    xd, W, T, V = instance(N, 6)
    W_inv, log_det = inverse_and_log_det(W)
    W_inv[7, :, 0] = 0.0
    return xd, W, T, V, W_inv, log_det


def sweep_rules(xd, T, V):
    """Both rules' sweeps of a state ``(W, W^-1, log|det W|)``, each updated in place
    and returning ``(W, skipped)``: quartic at ``p = 1/2``, IP at ``beta = p = 2``."""
    gram, inv_S = mixture_gram(xd), carried_inverse_scale(T, V)

    def quartic(W, W_inv, log_det):
        anchor = pipeline.separate(xd, W, 2.0)
        return quartic_sweep(gram, anchor, W, inv_S, 0.5, W_inv, log_det)[::3]

    def ip(W, W_inv, log_det):
        return ip_sweep(xd, carried_magnitudes(xd, W, 2.0), W, inv_S, 2.0, 2.0, W_inv, log_det)

    return {"quartic": quartic, "ip": ip}


@BLOCK_BINS
@pytest.mark.parametrize("N", [2, 3])
def test_singular_demixing_is_named_by_its_global_bin(monkeypatch, bins, N):
    # Both rules skip and count that one update, at its global bin: the direction
    # solved from the zero column is zero, and ||z||^2 with it, which is read
    # before anything divides by it, so no RuntimeWarning.
    xd, W, T, V, W_inv, log_det = vanishing_inverse_column(N)
    set_block_bins(monkeypatch, bins, N)
    for rule, sweep in sweep_rules(xd, T, V).items():
        W_new, skipped = sweep(W.copy(), W_inv.copy(), log_det.copy())
        assert skipped == 1, rule
        kept = np.all(W_new == W, axis=2)  # (bin, source) pairs left as they were
        assert np.argwhere(kept).tolist() == [[7, 0]], rule


@BLOCK_BINS
@pytest.mark.parametrize("N", [2, 3])
def test_ip_singular_demixing_is_named_by_its_global_bin(monkeypatch, bins, N):
    # Every bin but the skipped update's is written as a sweep from the true
    # inverse writes it, byte for byte: the skip touches its own bin only.
    xd, W, T, V, W_inv, log_det = vanishing_inverse_column(N)
    set_block_bins(monkeypatch, bins, N)
    ip = sweep_rules(xd, T, V)["ip"]
    W_ref = ip(W.copy(), *inverse_and_log_det(W))[0]
    W_new, skipped = ip(W.copy(), W_inv, log_det)
    assert skipped == 1
    others = np.arange(I) != 7
    np.testing.assert_array_equal(W_new[others], W_ref[others])
    np.testing.assert_array_equal(W_new[7, 0], W[7, 0])


def test_ip_singular_covariance_changes_no_row(monkeypatch):
    # Every source's det F is checked before any row changes, so a singular
    # covariance in the last block leaves the carried state as it was given.
    set_block_bins(monkeypatch, 3)
    for N in (2, 3):
        xd, W, T, V = instance(N, 6, silent_bin=I - 1)
        W_inv, log_det = inverse_and_log_det(W)
        state = W.copy(), W_inv.copy(), log_det.copy()
        with pytest.raises(SingularCovariance, match=rf"at bin {I - 1}, source 0$"):
            yp = carried_magnitudes(xd, W, 2.0)
            ip_sweep(xd, yp, state[0], carried_inverse_scale(T, V), 2.0, 2.0, *state[1:])
        for got, given in zip(state, (W, W_inv, log_det)):
            np.testing.assert_array_equal(got, given)


@pytest.mark.parametrize("bins, named", [(3, "bin 1, source 1"), (I, "bin 7, source 0")])
def test_ip_singular_covariance_names_the_first_block_then_source(monkeypatch, bins, named):
    # Source 1's covariance is singular at bin 1 (S is huge there, so its weights
    # vanish) and every source's at the silent bin 7: in blocks of three bins
    # the first block comes first, in one block the first source does.
    xd, W, T, V = instance(2, 6, silent_bin=7)
    inv_S = carried_inverse_scale(T, V)
    inv_S[1, 1] = 1e-20
    set_block_bins(monkeypatch, bins, 2)
    with pytest.raises(SingularCovariance, match=rf"at {named}$"):
        ip_sweep(xd, carried_magnitudes(xd, W, 2.0), W, inv_S, 2.0, 2.0, *inverse_and_log_det(W))


@pytest.mark.parametrize("bins", [3, I])
def test_ip_skips_and_counts_each_vanishing_direction(monkeypatch, bins):
    # W^-1 e_1 vanishes at bin 1, and W^-1 e_0 at bins 8 and 5.  Source 0's row
    # replacement at bin 1 keeps column 1 of W^-1 zero, so all three updates are
    # skipped, whatever the blocks, and every other one is taken.
    xd, W, T, V = instance(2, 6)
    W_inv, log_det = inverse_and_log_det(W)
    W_inv[[8, 5], :, 0] = 0.0
    W_inv[1, :, 1] = 0.0
    set_block_bins(monkeypatch, bins)
    yp = carried_magnitudes(xd, W, 2.0)
    W_new, skipped = ip_sweep(xd, yp, W.copy(), carried_inverse_scale(T, V), 2.0, 2.0, W_inv, log_det)
    assert skipped == 3
    kept = np.all(W_new == W, axis=2)
    assert np.argwhere(kept).tolist() == [[1, 1], [5, 0], [8, 0]]


@pytest.mark.parametrize("bins", [1, 2])  # ten blocks, five blocks
@pytest.mark.parametrize("N", [2, 3, 4])
def test_sweeps_take_the_per_bin_algebra_once_over_all_bins(monkeypatch, bins, N):
    # Only the work along the frames runs per block.  The quartic majorizers and
    # their Cholesky factors are formed once per sweep, and both sweeps take the
    # shared row phase once, which solves each source over all bins: the counts do
    # not follow the blocks.
    # The quartic sweep passes over the frames twice, for the majorizers and then
    # for every direction's cost.  The first pass forms 1 / r**2 once per block and
    # writes it over the block's anchors, from where the second pass reads it.
    set_block_bins(monkeypatch, bins, N)
    n_blocks = len(bin_blocks(I, J * N))
    assert n_blocks >= 4
    calls = Counter()

    def spy(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[module.__name__.rsplit(".", 1)[1], name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("quartic_majorizer", "_cholesky", "_row_sweep", "_power"):
        spy(demix_homogeneous, name)
    spy(demix_ip, "_row_sweep")
    xd, W, T, V = instance(N, 3)
    inv_S = carried_inverse_scale(T, V)
    yd = pipeline.separate(xd, W, 2.0)
    returned = quartic_sweep(mixture_gram(xd), yd, W.copy(), inv_S, 0.5, *inverse_and_log_det(W))[1]
    yp = carried_magnitudes(xd, W, 0.5)
    ip_sweep(xd, yp, W.copy(), inv_S, 1.0, 0.5, *inverse_and_log_det(W))
    assert calls == {
        ("demix_homogeneous", "quartic_majorizer"): 1,
        ("demix_homogeneous", "_cholesky"): 1,
        ("demix_homogeneous", "_row_sweep"): 1,
        ("demix_homogeneous", "_power"): n_blocks,
        ("demix_ip", "_row_sweep"): 1,
    }
    # S^(-2/p) = (1 / S)^4, raised from the carried 1 / S with no divide
    assert returned is yd and yd.tobytes() == squaring(inv_S, 4).tobytes()


@pytest.mark.parametrize("bins", [1, 3])
@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("p", [2.0, 0.5, 1.5])
def test_separate_writes_the_powered_outputs_block_by_block(monkeypatch, bins, N, p):
    # Each block's outputs go to a block temporary, and from there to their bins of
    # the (N, I, J) result as |y| raised to p in place: the bytes of the powered
    # complex outputs, at any block size.
    xd, W = instance(N, 5)[:2]
    set_block_bins(monkeypatch, bins, N)
    expected = np.abs(pipeline.separate(xd, W)).transpose(2, 0, 1) ** p
    out = np.full((N, I, J), np.nan)
    assert pipeline.separate(xd, W, p, out) is out
    assert out.tobytes() == expected.tobytes()
    fresh = pipeline.separate(xd, W, p)
    assert fresh.shape == (N, I, J) and fresh.tobytes() == expected.tobytes()


def fresh_scale_cost(yp, log_det, T, V, beta, p):
    """The cost from a fresh ``S = T V``, formed a block at a time, each block's
    terms summed per source and the sums added in the blocks' order."""
    N, I, J = yp.shape
    model = np.zeros(N)
    for blk in bin_blocks(I, J):
        terms = model_cost_terms(yp[:, blk], T[:, blk] @ V, beta, p)
        model += np.sum(terms.reshape(N, -1), axis=1)
    return float(-2.0 * J * np.sum(log_det) + np.sum(model))


@pytest.mark.parametrize("bins", [1, 3])
@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("beta", [4.0, 2.0, 1.5])
def test_step_carries_the_reciprocal_scale_of_the_factors_it_returns(monkeypatch, bins, N, beta):
    # The cost pass forms S = T V of the updated factors, takes the cost from it and
    # writes 1 / S over it: after every step the carried field is the reciprocal of
    # each block's product, and the cost is the one a fresh S gives, byte for byte.
    set_block_bins(monkeypatch, bins)
    xd = instance(N, 6)[0]
    cfg = GgdConfig(beta=beta, domain=0.5, n_bases=K, iterations=3, seed=6)
    W, T, V, W_inv, log_det, inv_S, yp = pipeline.initialize(cfg, xd)
    gram = mixture_gram(xd) if cfg.update_scheme == "quartic" else None
    assert inv_S.tobytes() == carried_inverse_scale(T, V).tobytes()
    for _ in range(cfg.iterations):
        W, T, V, cost, _ = pipeline.iteration_step(
            xd, W, T, V, cfg, gram, W_inv, log_det, inv_S, yp
        )
        assert inv_S.tobytes() == carried_inverse_scale(T, V).tobytes()
        assert cost == fresh_scale_cost(yp, log_det, T, V, beta, 0.5)


@pytest.mark.parametrize("bins", [1, 3])
@pytest.mark.parametrize("N", [2, 3])
def test_quartic_step_leaves_yp_the_powered_outputs_of_the_new_w(monkeypatch, bins, N):
    # The quartic sweep borrows the carried |y|^p for its 1 / r**2, which the step's
    # refresh then overwrites with |y|^p of the updated W.
    set_block_bins(monkeypatch, bins, N)
    xd = instance(N, 4)[0]
    cfg = GgdConfig(beta=4.0, domain=0.5, n_bases=K, iterations=1, seed=4)
    state = pipeline.initialize(cfg, xd)
    yp = state[-1]
    W_new = pipeline.iteration_step(xd, *state[:3], cfg, mixture_gram(xd), *state[3:])[0]
    assert yp.tobytes() == carried_magnitudes(xd, W_new, 0.5).tobytes()


@pytest.mark.parametrize(
    "beta, p",
    [(2.0, 2.0), (1.0, 0.5), (4.0, 1.0), (4.0, 0.5), (1.5, 2.0), (1.0, 0.4)],
    ids=["k=1", "k=2", "k=4", "k=8", "k=0.75", "k=2.5"],
)
def test_whitened_ratio_matches_generic_power(beta, p):
    rng = np.random.default_rng(7)
    abs_y = rng.uniform(1e-3, 30.0, (2, 9, 11))
    S = rng.uniform(1e-2, 20.0, (2, 9, 11))
    expected = (abs_y**p / S) ** (beta / p)
    np.testing.assert_allclose(_whitened_ratio(abs_y**p, S, beta, p), expected, rtol=1e-14)


def squaring(x, k):
    """``x**k`` by out-of-place repeated squaring, each product a new array."""
    result = None
    while True:
        if k & 1:
            result = x if result is None else result * x
        k >>= 1
        if not k:
            return result
        x = x * x


@pytest.mark.parametrize("k", range(1, 9))
def test_int_power_squares_into_the_given_buffer(k):
    # At odd k the result takes the buffer before it is squared (k = 3, 5, 7), and
    # at k = 6 after one square: the squares then go to a buffer of their own.
    x = np.random.default_rng(11).uniform(0.3, 3.0, (2, 9, 11))
    buf = x.copy()
    got = _int_power(buf, k)
    assert got is buf
    np.testing.assert_array_equal(got, squaring(x, k))


@pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 7, 8, 0.75, 2.5])
@pytest.mark.parametrize("into", ["new", "out", "yp"])
def test_whitened_ratio_writes_into_out(k, into):
    rng = np.random.default_rng(12)
    yp = rng.uniform(1e-3, 5.0, (2, 9, 11))
    S = rng.uniform(1e-2, 20.0, (2, 9, 11))
    yp_in = yp.copy()
    out = {"new": None, "out": np.empty_like(yp), "yp": yp_in}[into]
    got = _whitened_ratio(yp_in, S, 0.5 * k, 0.5, out=out)
    ratio = yp / S
    expected = squaring(ratio, k) if k == int(k) else ratio**k
    np.testing.assert_array_equal(got, expected)
    if into == "new":
        np.testing.assert_array_equal(yp_in, yp)
    else:
        assert got is out


#: Bound on a layer's transient allocation peak, as a fraction of the
#: mixture's bytes.  Unblocked, each layer holds two to four full-size
#: temporaries (peaks of 2.0-3.9 times the mixture).
PEAK_FRACTION = 0.75

#: Tighter bound for the two NMF updates and the cost, whose per-block chains
#: run in place in at most two block buffers each (one in the basis update,
#: which reads the carried 1 / S), on at most one thread per source, and the
#: activation update's per-block products, (K, J) per source: they read 0.036
#: (bases), 0.082 (activations) and 0.056 (cost) on one CPU, and 0.037-0.066,
#: 0.083-0.138 and 0.056-0.112 on two (four runs).  A new block-sized temporary
#: per operation reads 0.29 and 0.34.
NMF_PEAK_FRACTION = 0.2


def test_layer_temporaries_stay_block_sized():
    peaks_stay_block_sized()


@pytest.mark.parametrize("cpus", [2, 4])
def test_layer_temporaries_stay_block_sized_on_the_pool(monkeypatch, cpus):
    # Each part holds one block of BLOCK_ENTRIES entries, every source counted, as
    # on one CPU.
    calls = use_the_pool(monkeypatch, cpus)
    peaks_stay_block_sized()
    # one hand-off per layer call: the separation of the anchor's |y|^2, of |y|^p and
    # of |y|^p again under the tracer, the mixture's features, the two NMF updates,
    # the cost, the quartic sweep's two passes over the frames and both IP sweeps'
    # factors
    assert len(calls) == 11


def use_the_pool(monkeypatch, cpus):
    """Let the process run on ``cpus`` CPUs; returns a list that gains an entry each
    time a layer hands parts to the pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    calls, tasks = [], pool._tasks
    monkeypatch.setattr(pool, "_tasks", lambda: calls.append(1) or tasks())
    return calls


def peaks_stay_block_sized():
    frames = 256
    bins = 8 * (pool.BLOCK_ENTRIES // frames) + 1
    assert len(bin_blocks(bins, frames)) >= 8
    rng = np.random.default_rng(8)
    N = 2
    xd = rng.standard_normal((bins, frames, N)) + 1j * rng.standard_normal((bins, frames, N))
    W = np.eye(N) + 0.1 * rng.standard_normal((bins, N, N)).astype(complex)
    T = rng.uniform(0.2, 1.5, (N, bins, K))
    V = rng.uniform(0.2, 1.5, (N, K, frames))
    yd = pipeline.separate(xd, W, 2.0)
    yp = pipeline.separate(xd, W, 0.5)
    gram = mixture_gram(xd)
    W_inv, log_det = inverse_and_log_det(W)
    inv_S = carried_inverse_scale(T, V)

    def carried():
        return W_inv.copy(), log_det.copy()

    calls = {
        # |y|^p into the carried buffer: one block of outputs per part
        "separate": (pipeline.separate, xd, W, 0.5, np.empty_like(yp)),
        "update_bases_arrays": (update_bases_arrays, T, V, inv_S, yp, 4.0, 0.5),
        "update_activations_arrays": (update_activations_arrays, T, V, yp, 4.0, 0.5),
        "ggd_cost_arrays": (ggd_cost_arrays, yp, log_det, T, V, np.empty_like(inv_S), 4.0, 0.5),
        "quartic_sweep": (quartic_sweep, gram, yd, W.copy(), inv_S, 0.5, *carried()),
        # At beta = 2 the weights read no output; at beta = 1 they read |y|^p.
        "ip_sweep": (ip_sweep, xd, yp, W.copy(), inv_S, 2.0, 2.0, *carried()),
        "ip_sweep_beta1": (ip_sweep, xd, yp, W.copy(), inv_S, 1.0, 0.5, *carried()),
    }
    peaks = {}
    for name, (layer, *args) in calls.items():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            layer(*args)
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / xd.nbytes
        finally:
            tracemalloc.stop()
    over = {name: round(peak, 2) for name, peak in peaks.items() if peak >= PEAK_FRACTION}
    assert not over, f"transient peak / xd.nbytes above {PEAK_FRACTION}: {over}"
    nmf = ("update_bases_arrays", "update_activations_arrays", "ggd_cost_arrays")
    over = {name: round(peaks[name], 2) for name in nmf if peaks[name] >= NMF_PEAK_FRACTION}
    assert not over, f"transient peak / xd.nbytes above {NMF_PEAK_FRACTION}: {over}"


#: Bound on the transient allocation peak of one ``iteration_step`` of the
#: quartic scheme, as a fraction of the mixture's bytes.  The step forms no
#: full-size array: the anchor ``|y~|^2`` is separated into the carried
#: ``|y|^p``, whose buffer the sweep then overwrites with its ``1 / r^2`` and the
#: refresh with ``|y|^p``.  ``|y|^p`` is carried state, like ``1 / S`` and
#: ``gram``: allocated outside the step and written in place, so it is not part
#: of this transient.  With the block temporaries and the sweep's per-bin
#: algebra a quartic step reads 0.18 at N = 2 and 0.30 at N = 3 on one CPU,
#: 0.33 and 0.30 on two and 0.33 and 0.37 on four (three runs each).  An anchor
#: in a real array of its own, ``(N, I, J)``, read 0.68 and 0.80 on one CPU and
#: 0.83-0.87 on two and four; a complex anchor, with the refresh of ``|y|^p``
#: from a complex separation, read 1.19 to 1.34.
STEP_PEAK_FRACTION = 0.5

#: Bound for an IP step (beta <= 2), which separates once, straight into the
#: carried ``|y|^p``: it reads 0.31 at N = 2 and 0.32 at N = 3, at beta = 2 and
#: 1 alike, on one CPU, 0.36-0.59 on two and 0.49-0.83 on four (three runs):
#: above the quartic bound.  The refresh from a complex separation read 1.00; a
#: step that forms ``|y|^p`` in a new array, or an IP sweep that forms an anchor,
#: reads 1.50.
IP_STEP_PEAK_FRACTION = 1.25


@pytest.mark.parametrize("beta", [4.0, 2.0, 1.0])
@pytest.mark.parametrize("N", [2, 3])
def test_iteration_holds_one_full_size_output_at_a_time(N, beta):
    step_peak_stays_bounded(N, beta)


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("beta", [4.0, 2.0])
@pytest.mark.parametrize("N", [2, 3])
def test_iteration_peak_on_the_pool(monkeypatch, N, beta, cpus):
    calls = use_the_pool(monkeypatch, cpus)
    step_peak_stays_bounded(N, beta)
    assert calls


def step_peak_stays_bounded(N, beta):
    bins, frames = 1025, 158  # paper scale: 128 ms windows of 10 s at 16 kHz
    rng = np.random.default_rng(9)
    xd = rng.standard_normal((bins, frames, N)) + 1j * rng.standard_normal((bins, frames, N))
    cfg = GgdConfig(beta=beta, domain=0.5, n_bases=K, iterations=1, seed=9)
    # W, T, V, W^-1, log|det W|, S, |y|^p
    state = pipeline.initialize(cfg, xd)
    gram = mixture_gram(xd) if cfg.update_scheme == "quartic" else None  # cached per run
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pipeline.iteration_step(xd, *state[:3], cfg, gram, *state[3:])
        peak = (tracemalloc.get_traced_memory()[1] - base) / xd.nbytes
    finally:
        tracemalloc.stop()
    bound = STEP_PEAK_FRACTION if cfg.update_scheme == "quartic" else IP_STEP_PEAK_FRACTION
    assert peak < bound, f"iteration peak / xd.nbytes = {peak:.2f}"

"""Block streaming over frequency bins and the integer-power ratio.

The per-iteration layers run over blocks of bins sized by
``types.BLOCK_ENTRIES``.  The demixing sweeps are per-bin, so their result
must not depend on the block size at all; the NMF updates and the cost sum
over blocks, so they agree to roundoff.  A ``tracemalloc`` guard keeps every
layer's temporaries a fraction of the mixture's size, and a second one
bounds what a whole iteration holds at once.
"""

import tracemalloc

import numpy as np
import pytest
from reference_nmf import scale_field

from ggdilrma import pipeline, types
from ggdilrma.cost import ggd_cost_arrays
from ggdilrma.demix_homogeneous import mixture_gram, quartic_sweep
from ggdilrma.demix_ip import ip_sweep
from ggdilrma.errors import SingularCovariance, SingularDemixing
from ggdilrma.source_model import (
    _whitened_ratio,
    update_activations_arrays,
    update_bases_arrays,
)
from ggdilrma.types import GgdConfig, MixtureSpectrogram, ProblemShape, bin_blocks

RTOL = 1e-12
I, J, K = 10, 12, 3

#: Bins per block: one, three (a ragged last block), and every bin at once.
BLOCK_BINS = pytest.mark.parametrize("bins", [1, 3, I])


def set_block_bins(monkeypatch, bins):
    monkeypatch.setattr(types, "BLOCK_ENTRIES", bins * J)


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


def whole(fn, monkeypatch):
    """``fn()`` with every bin in one block."""
    with monkeypatch.context() as m:
        set_block_bins(m, I)
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
    monkeypatch.setattr(types, "BLOCK_ENTRIES", budget)
    blocks = bin_blocks(n_bins, frames)
    assert sorted(b.stop - b.start for b in blocks) == sorted(lengths)
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n_bins))


@BLOCK_BINS
@pytest.mark.parametrize("N", [2, 3, 4])
def test_quartic_sweep_is_block_invariant(monkeypatch, bins, N):
    xd, W, T, V = instance(N, 1, silent_bin=I - 2)
    xd[3, :, 1] = xd[3, :, 0]  # rank-deficient bin: skipped, nonzero output
    gram = mixture_gram(xd)

    def sweep():
        return quartic_sweep(xd, pipeline.separate(xd, W), W.copy(), T, V, 0.5, gram)

    W_ref, _, f_ref, skipped_ref = whole(sweep, monkeypatch)
    set_block_bins(monkeypatch, bins)
    W_new, _, f_new, skipped = sweep()
    np.testing.assert_array_equal(W_new, W_ref)
    np.testing.assert_array_equal(f_new, f_ref)
    assert skipped == skipped_ref == 2 * N  # every source of both degenerate bins
    # f_check is the quartic cost of the updated filters, skipped bins included.
    a2 = np.abs(pipeline.separate(xd, W_new)) ** 2 / scale_field(T, V) ** 4  # r = S**2
    np.testing.assert_allclose(f_new, np.sum(a2 * a2, axis=1) / J, rtol=1e-13)


@BLOCK_BINS
@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("beta, p", [(2.0, 2.0), (1.0, 0.5)])
def test_ip_sweep_is_block_invariant(monkeypatch, bins, N, beta, p):
    xd, W, T, V = instance(N, 2)

    def sweep():
        return ip_sweep(xd, pipeline.separate(xd, W), W.copy(), T, V, beta, p)

    W_ref = whole(sweep, monkeypatch)
    set_block_bins(monkeypatch, bins)
    np.testing.assert_array_equal(sweep(), W_ref)


@BLOCK_BINS
@pytest.mark.parametrize("beta, p", [(4.0, 0.5), (2.0, 2.0), (1.5, 2.0)])
def test_nmf_updates_and_cost_are_block_invariant(monkeypatch, bins, beta, p):
    xd, W, T, V = instance(2, 3)
    abs_y = np.abs(np.moveaxis(pipeline.separate(xd, W), 2, 0), order="C")

    def layers():
        return (
            update_bases_arrays(T, V, abs_y, beta, p),
            update_activations_arrays(T, V, abs_y, beta, p),
            ggd_cost_arrays(abs_y, W, T, V, beta, p),
        )

    T_ref, V_ref, cost_ref = whole(layers, monkeypatch)
    set_block_bins(monkeypatch, bins)
    T_new, V_new, cost = layers()
    np.testing.assert_allclose(T_new, T_ref, rtol=RTOL)
    np.testing.assert_allclose(V_new, V_ref, rtol=RTOL)
    assert cost == pytest.approx(cost_ref, rel=RTOL)


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
    xd, W, T, V = instance(2, 6, silent_bin=7)
    set_block_bins(monkeypatch, bins)
    with pytest.raises(SingularCovariance, match=r"at bin 7, source 0$"):
        ip_sweep(xd, pipeline.separate(xd, W), W, T, V, 2.0, 2.0)


@BLOCK_BINS
@pytest.mark.parametrize("N", [2, 3])  # the closed-form 2 x 2 path and batched LAPACK
def test_singular_demixing_is_named_by_its_global_bin(monkeypatch, bins, N):
    xd, W, T, V = instance(N, 6)
    W[7] = 1.0
    gram = mixture_gram(xd)
    set_block_bins(monkeypatch, bins)
    with pytest.raises(SingularDemixing, match=r"at bin 7, source 0$"):
        quartic_sweep(xd, pipeline.separate(xd, W), W, T, V, 0.5, gram)


@BLOCK_BINS
@pytest.mark.parametrize("N", [2, 3])
def test_ip_singular_demixing_is_named_by_its_global_bin(monkeypatch, bins, N):
    xd, W, T, V = instance(N, 6)
    W[7] = 1.0
    set_block_bins(monkeypatch, bins)
    with pytest.raises(SingularDemixing, match=r"at bin 7, source 0$"):
        ip_sweep(xd, pipeline.separate(xd, W), W, T, V, 2.0, 2.0)


@pytest.mark.parametrize("N", [2, 3])
def test_back_projection_names_its_singular_bin(N):
    xd, W, _, _ = instance(N, 6)
    W[7] = 1.0
    with pytest.raises(SingularDemixing, match=r"singular at bin 7$"):
        pipeline.back_project(pipeline.separate(xd, W), W)


@pytest.mark.parametrize("N", [2, 3])  # the closed-form 2 x 2 log-det and slogdet
def test_cost_names_its_singular_bin(N):
    xd, W, T, V = instance(N, 6)
    W[7] = 1.0
    abs_y = np.abs(np.moveaxis(pipeline.separate(xd, W), 2, 0), order="C")
    with pytest.raises(SingularDemixing, match=r"singular at bin 7$"):
        ggd_cost_arrays(abs_y, W, T, V, 4.0, 0.5)


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
    np.testing.assert_allclose(_whitened_ratio(abs_y, S, beta, p), expected, rtol=1e-14)


#: Bound on a layer's transient allocation peak, as a fraction of the
#: mixture's bytes.  Unblocked, each layer holds two to four full-size
#: temporaries (peaks of 2.0-3.9 times the mixture).
PEAK_FRACTION = 0.75


def test_layer_temporaries_stay_block_sized():
    frames = 256
    bins = 8 * (types.BLOCK_ENTRIES // frames) + 1
    assert len(bin_blocks(bins, frames)) >= 8
    rng = np.random.default_rng(8)
    N = 2
    xd = rng.standard_normal((bins, frames, N)) + 1j * rng.standard_normal((bins, frames, N))
    W = np.eye(N) + 0.1 * rng.standard_normal((bins, N, N)).astype(complex)
    T = rng.uniform(0.2, 1.5, (N, bins, K))
    V = rng.uniform(0.2, 1.5, (N, K, frames))
    yd = pipeline.separate(xd, W)
    abs_y = np.abs(np.moveaxis(yd, 2, 0), order="C")
    gram = mixture_gram(xd)
    calls = {
        update_bases_arrays: (T, V, abs_y, 4.0, 0.5),
        update_activations_arrays: (T, V, abs_y, 4.0, 0.5),
        ggd_cost_arrays: (abs_y, W, T, V, 4.0, 0.5),
        quartic_sweep: (xd, yd, W.copy(), T, V, 0.5, gram),
        ip_sweep: (xd, yd, W.copy(), T, V, 2.0, 2.0),
    }
    peaks = {}
    for layer, args in calls.items():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            layer(*args)
            peaks[layer.__name__] = (tracemalloc.get_traced_memory()[1] - base) / xd.nbytes
        finally:
            tracemalloc.stop()
    over = {name: round(peak, 2) for name, peak in peaks.items() if peak >= PEAK_FRACTION}
    assert not over, f"transient peak / xd.nbytes above {PEAK_FRACTION}: {over}"


#: Bound on the transient allocation peak of one ``iteration_step``, as a
#: fraction of the mixture's bytes.  Its only full-size arrays are the
#: separated signal (the sweep's anchor, then the refreshed one: one at a
#: time) and the magnitudes the NMF updates read: 1.5 in all, 1.6 with the
#: IP sweep's block temporaries.  Keeping the scale field, the anchor and the
#: refresh alive together reads 2.7.
STEP_PEAK_FRACTION = 1.75


@pytest.mark.parametrize("beta", [4.0, 2.0])
@pytest.mark.parametrize("N", [2, 3])
def test_iteration_holds_one_full_size_output_at_a_time(N, beta):
    bins, frames = 1025, 158  # paper scale: 128 ms windows of 10 s at 16 kHz
    rng = np.random.default_rng(9)
    xd = rng.standard_normal((bins, frames, N)) + 1j * rng.standard_normal((bins, frames, N))
    cfg = GgdConfig(beta=beta, domain=0.5, n_bases=K, iterations=1, seed=9)
    W, T, V = pipeline.initialize(cfg, ProblemShape(bins, frames, N, K))
    gram = mixture_gram(xd) if cfg.update_scheme == "quartic" else None  # cached per run
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pipeline.iteration_step(xd, W, T, V, cfg, gram)
        peak = (tracemalloc.get_traced_memory()[1] - base) / xd.nbytes
    finally:
        tracemalloc.stop()
    assert peak < STEP_PEAK_FRACTION, f"iteration peak / xd.nbytes = {peak:.2f}"

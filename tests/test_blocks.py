"""Block streaming over frequency bins and the integer-power ratio.

The per-iteration layers run over blocks of bins sized by
``types.BLOCK_ENTRIES``.  The demixing sweeps are per-bin, so their result
must not depend on the block size at all, and only their work along the
frames runs per block: their small per-bin algebra runs once over all bins,
however many blocks there are.  The NMF updates and the cost sum over
blocks, so they agree to roundoff.  Their per-block chains run in
place, in buffers of their own: the integer power squares into the buffer it
is given, and no layer writes into the arrays it reads.  A ``tracemalloc``
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

from ggdilrma import demix_homogeneous, demix_ip, pipeline, types
from ggdilrma.cost import ggd_cost_arrays
from ggdilrma.demix_homogeneous import mixture_gram, quartic_sweep
from ggdilrma.demix_ip import ip_sweep
from ggdilrma.errors import SingularCovariance, SingularDemixing
from ggdilrma.source_model import (
    _int_power,
    _whitened_ratio,
    model_cost_terms,
    refresh_scale,
    update_activations_arrays,
    update_bases_arrays,
)
from ggdilrma.types import EPS_Y, GgdConfig, MixtureSpectrogram, ProblemShape, bin_blocks

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


def carried_scale(T, V):
    """The scale field ``T V`` ``(N, I, J)`` as the pipeline carries it."""
    return refresh_scale(T, V, np.empty((T.shape[0], T.shape[1], V.shape[2])))


def carried_magnitudes(xd, W, p):
    """The outputs' ``|y|^p`` ``(N, I, J)`` of ``W`` as the pipeline carries it."""
    return np.abs(np.moveaxis(pipeline.separate(xd, W), 2, 0), order="C") ** p


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
    W_inv, log_det = inverse_and_log_det(W)
    S = carried_scale(T, V)

    def sweep():
        carried = W_inv.copy(), log_det.copy()
        W_new, _, f_check, skipped = quartic_sweep(
            gram, pipeline.separate(xd, W), W.copy(), S, 0.5, *carried
        )
        return (W_new, *carried, f_check), skipped

    state_ref, skipped_ref = whole(sweep, monkeypatch)
    set_block_bins(monkeypatch, bins)
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


@BLOCK_BINS
@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("beta, p", [(2.0, 2.0), (1.0, 0.5)])
def test_ip_sweep_is_block_invariant(monkeypatch, bins, N, beta, p):
    xd, W, T, V = instance(N, 2)
    S = carried_scale(T, V)
    yp = carried_magnitudes(xd, W, p)

    def sweep():
        carried = inverse_and_log_det(W)
        return ip_sweep(xd, yp, W.copy(), S, beta, p, *carried), *carried

    state_ref = whole(sweep, monkeypatch)
    set_block_bins(monkeypatch, bins)
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
        S = carried_scale(T, V)  # formed at the block size under test too
        return (
            update_bases_arrays(T, V, S, yp, beta, p),
            update_activations_arrays(T, V, yp, beta, p),
            ggd_cost_arrays(yp, inverse_and_log_det(W)[1], S, beta, p),
        )

    T_ref, V_ref, cost_ref = whole(layers, monkeypatch)
    set_block_bins(monkeypatch, bins)
    T_new, V_new, cost = layers()
    np.testing.assert_allclose(T_new, T_ref, rtol=RTOL)
    np.testing.assert_allclose(V_new, V_ref, rtol=RTOL)
    assert cost == pytest.approx(cost_ref, rel=RTOL)


@pytest.mark.parametrize("bins", [1, 3, 7])
@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("beta, p", [(4.0, 0.5), (1.5, 0.7)])
def test_nmf_updates_and_cost_leave_their_inputs_unchanged(monkeypatch, bins, N, beta, p):
    # The layers overwrite block buffers of their own only: none writes into a
    # view of the factors, the scale field or |y|^p it was given.
    xd, W, T, V = instance(N, 10)
    yp = carried_magnitudes(xd, W, p)
    yp[:, ::4] = 0.5 * EPS_Y**p  # below the updates' floor
    S = carried_scale(T, V)
    log_det = inverse_and_log_det(W)[1]
    inputs = (T, V, S, yp, log_det)
    before = [a.copy() for a in inputs]
    set_block_bins(monkeypatch, bins)
    update_bases_arrays(T, V, S, yp, beta, p)
    update_activations_arrays(T, V, yp, beta, p)
    ggd_cost_arrays(yp, log_det, S, beta, p)
    model_cost_terms(yp, S, beta, p)
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
            S = carried_scale(T, V)
            ip_sweep(xd, carried_magnitudes(xd, W, 2.0), W, S, 2.0, 2.0, *inverse_and_log_det(W))


def vanishing_inverse_column(N):
    """An instance whose carried ``W^-1 e_0`` is zero at bin 7: an update of source 0
    there would multiply ``det W_7`` by ``h W^-1 e_0 = 0``."""
    xd, W, T, V = instance(N, 6)
    W_inv, log_det = inverse_and_log_det(W)
    W_inv[7, :, 0] = 0.0
    return xd, W, T, V, W_inv, log_det


@BLOCK_BINS
@pytest.mark.parametrize("N", [2, 3])
def test_singular_demixing_is_named_by_its_global_bin(monkeypatch, bins, N):
    # The quartic sweep skips and counts that one update, at its global bin: the
    # direction solved from the zero column is zero, and its cost with it.
    xd, W, T, V, W_inv, log_det = vanishing_inverse_column(N)
    gram = mixture_gram(xd)
    set_block_bins(monkeypatch, bins)
    W_new, _, _, skipped = quartic_sweep(
        gram, pipeline.separate(xd, W), W.copy(), carried_scale(T, V), 0.5, W_inv, log_det
    )
    assert skipped == 1
    kept = np.all(W_new == W, axis=2)  # (bin, source) pairs left as they were
    assert np.argwhere(kept).tolist() == [[7, 0]]


@BLOCK_BINS
@pytest.mark.parametrize("N", [2, 3])
def test_ip_singular_demixing_is_named_by_its_global_bin(monkeypatch, bins, N):
    # IP raises, naming the bin and source; ||z|| = 0 is read before w is divided
    # by it, so no RuntimeWarning.
    xd, W, T, V, W_inv, log_det = vanishing_inverse_column(N)
    set_block_bins(monkeypatch, bins)
    with pytest.raises(SingularDemixing, match=r"at bin 7, source 0$"):
        yp = carried_magnitudes(xd, W, 2.0)
        ip_sweep(xd, yp, W, carried_scale(T, V), 2.0, 2.0, W_inv, log_det)


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
            ip_sweep(xd, yp, state[0], carried_scale(T, V), 2.0, 2.0, *state[1:])
        for got, given in zip(state, (W, W_inv, log_det)):
            np.testing.assert_array_equal(got, given)


@pytest.mark.parametrize("bins, named", [(3, "bin 1, source 1"), (I, "bin 7, source 0")])
def test_ip_singular_covariance_names_the_first_block_then_source(monkeypatch, bins, named):
    # Source 1's covariance is singular at bin 1 (S is huge there, so its weights
    # vanish) and every source's at the silent bin 7: in blocks of three bins
    # the first block comes first, in one block the first source does.
    xd, W, T, V = instance(2, 6, silent_bin=7)
    S = carried_scale(T, V)
    S[1, 1] = 1e20
    set_block_bins(monkeypatch, bins)
    with pytest.raises(SingularCovariance, match=rf"at {named}$"):
        ip_sweep(xd, carried_magnitudes(xd, W, 2.0), W, S, 2.0, 2.0, *inverse_and_log_det(W))


@pytest.mark.parametrize("bins", [3, I])
def test_ip_singular_demixing_names_the_lowest_bin_of_the_first_source(monkeypatch, bins):
    # W^-1 e_1 vanishes at bin 1, and W^-1 e_0 at bins 8 and 5.  Source 0 is
    # solved over all bins before source 1, whatever the blocks.
    xd, W, T, V = instance(2, 6)
    W_inv, log_det = inverse_and_log_det(W)
    W_inv[[8, 5], :, 0] = 0.0
    W_inv[1, :, 1] = 0.0
    set_block_bins(monkeypatch, bins)
    yp = carried_magnitudes(xd, W, 2.0)
    with pytest.raises(SingularDemixing, match=r"at bin 5, source 0$"):
        ip_sweep(xd, yp, W, carried_scale(T, V), 2.0, 2.0, W_inv, log_det)


@pytest.mark.parametrize("bins", [1, 2])  # ten blocks, five blocks
@pytest.mark.parametrize("N", [2, 3, 4])
def test_sweeps_take_the_per_bin_algebra_once_over_all_bins(monkeypatch, bins, N):
    # Only the work along the frames runs per block.  The quartic majorizers and
    # their Cholesky factors are formed once per sweep, and each source is solved
    # once, over all bins, in both sweeps: the counts do not follow the blocks.
    # The quartic sweep passes over the frames twice, for the majorizers and then
    # for every direction's cost, each forming 1 / r**2 once per block.
    set_block_bins(monkeypatch, bins)
    n_blocks = len(bin_blocks(I, J))
    assert n_blocks >= 4
    calls = Counter()

    def spy(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[module.__name__.rsplit(".", 1)[1], name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("quartic_majorizer", "_cholesky", "_substitute", "_whitened_ratio"):
        spy(demix_homogeneous, name)
    spy(demix_ip, "_substitute")
    xd, W, T, V = instance(N, 3)
    S = carried_scale(T, V)
    yd = pipeline.separate(xd, W)
    quartic_sweep(mixture_gram(xd), yd, W.copy(), S, 0.5, *inverse_and_log_det(W))
    ip_sweep(xd, carried_magnitudes(xd, W, 0.5), W.copy(), S, 1.0, 0.5, *inverse_and_log_det(W))
    assert calls == {
        ("demix_homogeneous", "quartic_majorizer"): 1,
        ("demix_homogeneous", "_cholesky"): 1,
        ("demix_homogeneous", "_substitute"): N,
        ("demix_homogeneous", "_whitened_ratio"): 2 * n_blocks,
        ("demix_ip", "_substitute"): N,
    }


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
#: run in one block buffer each: they read 0.12 (bases), 0.17 (activations) and
#: 0.11 (cost).  A new block-sized temporary per operation reads 0.29 and 0.34.
NMF_PEAK_FRACTION = 0.2


def test_layer_temporaries_stay_block_sized():
    peaks_stay_block_sized()


@pytest.mark.parametrize("cpus", [2, 4])
def test_layer_temporaries_stay_block_sized_on_the_pool(monkeypatch, cpus):
    # Each part of the quartic sweep's passes holds its bin range's blocks of
    # BLOCK_ENTRIES // parts entries; the separation allocates nothing.
    calls = use_the_pool(monkeypatch, cpus)
    peaks_stay_block_sized()
    # the separation of its outputs and the quartic sweep's two passes over the
    # frames; the NMF updates, the scale refresh, the cost and the IP sweep never
    assert len(calls) == 3


def use_the_pool(monkeypatch, cpus):
    """Let the process run on ``cpus`` CPUs; returns a list that gains an entry each
    time a layer hands parts to the pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    calls, tasks = [], types._tasks
    monkeypatch.setattr(types, "_tasks", lambda: calls.append(1) or tasks())
    return calls


def peaks_stay_block_sized():
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
    yp = np.abs(np.moveaxis(yd, 2, 0), order="C") ** 0.5
    gram = mixture_gram(xd)
    W_inv, log_det = inverse_and_log_det(W)
    S = carried_scale(T, V)

    def carried():
        return W_inv.copy(), log_det.copy()

    calls = {
        "refresh_scale": (refresh_scale, T, V, S),
        "update_bases_arrays": (update_bases_arrays, T, V, S, yp, 4.0, 0.5),
        "update_activations_arrays": (update_activations_arrays, T, V, yp, 4.0, 0.5),
        "ggd_cost_arrays": (ggd_cost_arrays, yp, log_det, S, 4.0, 0.5),
        "quartic_sweep": (quartic_sweep, gram, yd, W.copy(), S, 0.5, *carried()),
        # At beta = 2 the weights read no output; at beta = 1 they read |y|^p.
        "ip_sweep": (ip_sweep, xd, yp, W.copy(), S, 2.0, 2.0, *carried()),
        "ip_sweep_beta1": (ip_sweep, xd, yp, W.copy(), S, 1.0, 0.5, *carried()),
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


#: Bound on the transient allocation peak of one ``iteration_step``, as a
#: fraction of the mixture's bytes.  Its only full-size arrays are the
#: separated signal: the quartic sweep's anchor, then the refreshed one, one
#: at a time.  ``|y|^p`` is carried state, like the scale field ``S`` and
#: ``gram``: allocated outside the step and refreshed in place, so it is not
#: part of this transient.  With the sweeps' block temporaries a quartic step
#: reads 1.53 at N = 2 and 1.59 at N = 3.  Keeping the scale field, the anchor
#: and the refresh alive together reads 2.7.
STEP_PEAK_FRACTION = 1.75

#: Tighter bound for an IP step (beta <= 2), which separates once: it reads
#: 1.00 at beta = 2 and 1, at N = 2 and N = 3 alike.  A step that forms
#: ``|y|^p`` in a new array, or an IP sweep that forms an anchor, reads 1.50.
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
    state = pipeline.initialize(cfg, ProblemShape(bins, frames, N, K), xd)
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

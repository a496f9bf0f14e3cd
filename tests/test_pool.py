"""The layers' parts on the pool: the same bytes as on one CPU, the caller's
errstate and exceptions, and a forked child.

The pool is switched by the CPU set the process may run on, as a user does with
``taskset``: the tests replace ``os.sched_getaffinity``.  The shapes sit on
both sides of the crossover (``pool.POOL_CROSSOVER``), so the layers run on the
calling thread below it and on the pool above it, where the tests check that
the pool was given work.  The parts themselves follow the shape alone.
"""

import importlib
import os
import signal
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from reference_contractions import inverse_and_log_det

from ggdilrma import demix_homogeneous, demix_ip, pipeline, pool, source_model
from ggdilrma.demix_homogeneous import mixture_gram, quartic_sweep
from ggdilrma.demix_ip import ip_sweep
from ggdilrma.errors import SingularCovariance
from ggdilrma.pool import run_parts
from ggdilrma.source_model import ggd_cost_arrays, update_activations_arrays, update_bases_arrays
from ggdilrma.stft import StftPlan, istft, stft
from ggdilrma.types import GgdConfig, MixtureSpectrogram, SourceSpectrogram

#: (bins, frames): below the crossover, and above it at every N here: each source
#: holds 197633 entries, more than the crossover.
SHAPES = {"below": (10, 12), "above": (257, 769)}
K = 4


def set_cpus(monkeypatch, n):
    """Let the process run on ``n`` CPUs, as far as the package can tell."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def count_pool_use(monkeypatch):
    """A list that gains an entry each time a layer hands parts to the pool."""
    calls = []
    tasks = pool._tasks

    def counted():
        calls.append(1)
        return tasks()

    monkeypatch.setattr(pool, "_tasks", counted)
    return calls


def instance(I, J, N, seed):
    """Mixture ``(I, J, N)`` with a silent bin and a rank-deficient bin, demixing
    matrices, their inverses and log-determinants, and NMF factors."""
    rng = np.random.default_rng(seed)
    xd = rng.standard_normal((I, J, N)) + 1j * rng.standard_normal((I, J, N))
    xd[I - 2] = 0.0
    xd[3, :, 1] = xd[3, :, 0]
    W = np.eye(N) + 0.3 * (rng.standard_normal((I, N, N)) + 1j * rng.standard_normal((I, N, N)))
    T = rng.uniform(0.2, 1.5, (N, I, K))
    V = rng.uniform(0.2, 1.5, (N, K, J))
    return xd, W, *inverse_and_log_det(W), T, V


def layer_outputs(xd, W, W_inv, log_det, T, V, beta=4.0):
    """Everything the threaded layers return or write, from fresh copies of their
    inputs; ``beta`` is the NMF updates' and the cost's shape, at ``p = 0.5``."""
    y = pipeline.separate(xd, W)
    yp = pipeline.separate(xd, W, 0.5)
    anchor = pipeline.separate(xd, W, 2.0)
    inv_S = np.empty_like(yp)
    cost = np.float64(ggd_cost_arrays(yp, log_det, T, V, inv_S, beta, 0.5))
    carried = W_inv.copy(), log_det.copy()
    inv_r2 = anchor.copy()  # the sweep's anchors, which it overwrites with 1 / r**2
    W_new, _, f_check, skipped = quartic_sweep(
        mixture_gram(xd), inv_r2, W.copy(), inv_S, 0.5, *carried
    )
    return {
        "y": y,
        "yp": yp,
        "anchor": anchor,
        "inv_S": inv_S,
        "T": update_bases_arrays(T, V, inv_S, yp, beta, 0.5),
        "V": update_activations_arrays(T, V, yp, beta, 0.5),
        "cost": cost,
        "W": W_new,
        "W_inv": carried[0],
        "log_det": carried[1],
        "f_check": f_check,
        "inv_r2": inv_r2,
        "skipped": np.int64(skipped),
    }


def assert_same_bytes(got, ref):
    assert got.keys() == ref.keys()
    for name in ref:
        assert np.asarray(got[name]).tobytes() == np.asarray(ref[name]).tobytes(), name


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_layers_give_the_same_bytes_on_the_pool(monkeypatch, shape, cpus, N):
    same_bytes_on_the_pool(monkeypatch, shape, cpus, N, 4.0)


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_odd_power_gives_the_same_bytes_on_the_pool(monkeypatch, cpus, N):
    # beta / p = 3: each part of the NMF updates and the cost squares into one more
    # buffer of its own (source_model._int_power)
    same_bytes_on_the_pool(monkeypatch, "above", cpus, N, 1.5)


def same_bytes_on_the_pool(monkeypatch, shape, cpus, N, beta):
    state = instance(*SHAPES[shape], N, seed=N)
    set_cpus(monkeypatch, 1)
    ref = layer_outputs(*state, beta)
    assert ref["skipped"] == 2 * N  # both degenerate bins, every source
    set_cpus(monkeypatch, cpus)
    pool_use = count_pool_use(monkeypatch)
    assert_same_bytes(layer_outputs(*state, beta), ref)
    # one hand-off per layer call: separate (its outputs, |y|^p and the anchor's
    # |y|^2), the cost, the mixture's features, the sweep's two passes over the
    # frames and the two NMF updates, or none of them
    assert len(pool_use) == (9 if shape == "above" else 0)


def setup_and_synthesis(shape, N):
    """A separation's once-per-run layers, on a signal whose STFT has the ``shape``,
    and the IP sweep at beta = 1.5, whose weights read ``|y|^p``."""
    plan = StftPlan.hamming(2 * (SHAPES[shape][0] - 1), SHAPES[shape][0] - 1)
    signal = np.random.default_rng(N).standard_normal(((SHAPES[shape][1] - 1) * plan.hop, N))
    xd = stft(signal, plan, 16000).data
    cfg = GgdConfig(beta=1.5, domain=0.5, n_bases=K, seed=N)
    W, T, V, W_inv, log_det, inv_S, yp = pipeline.initialize(cfg, xd)
    got = {"x": xd, "T": T, "V": V, "inv_S": inv_S, "yp": yp, "gram": mixture_gram(xd)}
    got["W"] = ip_sweep(xd, yp, W, inv_S, cfg.beta, cfg.domain, W_inv, log_det)[0]
    got["W_inv"], got["log_det"] = W_inv, log_det
    got["sources"] = pipeline.back_project(pipeline.separate(xd, W), W_inv, N - 1)
    # past the frames' last sample, as the CLI asks for the input's length
    length = len(signal) + plan.frame_len
    got["samples"] = istft(SourceSpectrogram(got["sources"]), plan, length)
    return got


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("N", [2, 3])
def test_setup_and_synthesis_give_the_same_bytes_on_the_pool(monkeypatch, cpus, N):
    set_cpus(monkeypatch, 1)
    ref = setup_and_synthesis("above", N)
    assert ref["x"].shape == (*SHAPES["above"], N)
    set_cpus(monkeypatch, cpus)
    pool_use = count_pool_use(monkeypatch)
    assert_same_bytes(setup_and_synthesis("above", N), ref)
    # the STFT, |x|^p and the cost of initialize, the mixture's features,
    # the IP sweep's factors, separate, back_project, and the iSTFT's transforms and
    # its overlap-add
    assert len(pool_use) == 9


#: Every layer that hands parts to the pool, by the name of its part.
LAYERS = {
    "stft.<locals>.analyze",
    "istft.<locals>.synthesize",
    "istft.<locals>.overlap_add",
    "_powered_magnitudes.<locals>.part",
    "separate.<locals>.part",
    "back_project.<locals>.part",
    "mixture_gram.<locals>.part",
    "quartic_majorizer.<locals>.frame_pass",
    "quartic_sweep.<locals>.cost_pass",
    "ip_sweep.<locals>.factor",
    "update_bases_arrays.<locals>.part",
    "update_activations_arrays.<locals>.part",
    "ggd_cost_arrays.<locals>.part",
}


#: The layers whose parts are (sources, block) pairs, each source's bins summed or
#: multiplied block by block.
SOURCE_BLOCK_LAYERS = {
    "update_activations_arrays.<locals>.part",
    "ggd_cost_arrays.<locals>.part",
}


def part_record(part):
    """A part as its bins or frames, or as its sources and its block."""
    if isinstance(part, slice):
        return part.start, part.stop
    sources, block = part
    return (sources.start, sources.stop), block


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("N", [2, 3, 4])
def test_every_layer_hands_the_pool_the_same_parts_on_any_number_of_cpus(monkeypatch, shape, N):
    # The blocks of bins or frames, and the sources, of each layer's parts follow the
    # shape alone; only the number of threads that run them follows the CPUs.
    def handed(cpus):
        set_cpus(monkeypatch, cpus)
        calls = []

        def spy(fn, parts, threads=None):
            calls.append((fn.__qualname__, [part_record(p) for p in parts], threads))
            return run_parts(fn, parts, threads)

        stft_module = importlib.import_module("ggdilrma.stft")  # the package's stft is the function
        modules = (pipeline, source_model, demix_homogeneous, demix_ip, stft_module)
        with monkeypatch.context() as m:
            for module in modules:
                m.setattr(module, "run_parts", spy)
            layer_outputs(*instance(*SHAPES[shape], N, seed=N))
            setup_and_synthesis(shape, N)
        return calls

    ref = handed(1)
    assert {name for name, _, _ in ref} == LAYERS
    for cpus in (2, 4):
        calls = handed(cpus)
        assert [call[:2] for call in calls] == [call[:2] for call in ref]
        assert all((threads > 1) == (shape == "above") for _, _, threads in calls)
    # Above the crossover the layers that sum or multiply over bins source by source
    # hand the pool each source's blocks, one part each; below it, each block with
    # every source in it.
    n_blocks = len(pool.bin_blocks(*SHAPES[shape]))
    per_source = [(slice(n, n + 1), k) for n in range(N) for k in range(n_blocks)]
    every_source = [(slice(0, N), k) for k in range(n_blocks)]
    expected = [part_record(p) for p in (per_source if shape == "above" else every_source)]
    source_block_calls = [parts for name, parts, _ in ref if name in SOURCE_BLOCK_LAYERS]
    assert len(source_block_calls) == 3  # the cost twice: once in initialize
    assert all(parts == expected for parts in source_block_calls)


def last_to_first(fn, parts, threads=None):
    """``run_parts`` with the parts run last to first on the calling thread."""
    for part in reversed(parts):
        fn(part)


def first_held_back(fn, parts, threads=None):
    """``run_parts`` on two threads, the first part held back until the others finish."""
    rest_done = threading.Event()

    def first():
        assert rest_done.wait(timeout=60.0)
        fn(parts[0])

    held = threading.Thread(target=first, daemon=True)
    held.start()
    try:
        for part in parts[1:]:
            fn(part)
    finally:
        rest_done.set()
        held.join(timeout=60.0)
    assert not held.is_alive(), "the held-back part did not finish"


@pytest.mark.parametrize("run_out_of_order", [last_to_first, first_held_back])
@pytest.mark.parametrize("beta", [4.0, 1.5])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_source_block_parts_give_the_same_bytes_when_they_finish_out_of_order(
    monkeypatch, run_out_of_order, beta, N
):
    # Each part writes its block sums into a slot of its own, and the calling thread
    # adds the slots in the blocks' order after the last part, whichever part
    # finishes first, so the sums, the activations and the cost are the bytes of one
    # CPU.  Seven blocks of bins, the first louder than the rest, so that its sums
    # are orders of magnitude above theirs, and adding them in the order they
    # finish rounds differently.
    xd, W, W_inv, log_det, T, V = instance(*SHAPES["above"], N, seed=N)
    yp = np.abs(xd.transpose(2, 0, 1), order="C") ** 0.5
    blocks = pool.bin_blocks(*SHAPES["above"])
    assert len(blocks) == 7
    yp[:, blocks[0]] *= 16.0

    def outputs():
        inv_S = np.empty(yp.shape)
        return {
            "V": update_activations_arrays(T, V, yp, beta, 0.5),
            "cost": np.float64(ggd_cost_arrays(yp, log_det, T, V, inv_S, beta, 0.5)),
            "inv_S": inv_S,
        }

    set_cpus(monkeypatch, 1)
    ref = outputs()
    set_cpus(monkeypatch, 2)
    with monkeypatch.context() as m:
        m.setattr(source_model, "run_parts", run_out_of_order)
        assert_same_bytes(outputs(), ref)


def test_source_block_parts_on_more_threads_than_cores_give_the_same_bytes(monkeypatch):
    # Four sources on four threads of this machine's cores, with thread switches as
    # often as the interpreter allows: an add to a source's sums that was lost, or
    # made out of the blocks' order, would change the bytes of one CPU.
    N = 4
    xd, W, W_inv, log_det, T, V = instance(*SHAPES["above"], N, seed=9)
    yp = np.abs(xd.transpose(2, 0, 1), order="C") ** 0.5

    def outputs():
        inv_S = np.empty(yp.shape)
        return {
            "V": update_activations_arrays(T, V, yp, 4.0, 0.5),
            "cost": np.float64(ggd_cost_arrays(yp, log_det, T, V, inv_S, 4.0, 0.5)),
            "inv_S": inv_S,
        }

    set_cpus(monkeypatch, 1)
    ref = outputs()
    set_cpus(monkeypatch, 8)
    pool_use = count_pool_use(monkeypatch)
    got = []
    caller = threading.Thread(target=lambda: got.extend(outputs() for _ in range(5)), daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller.start()
        caller.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive(), "the layers did not return within 60 s"
    assert len(got) == 5 and pool_use
    for outputs_of_a_call in got:
        assert_same_bytes(outputs_of_a_call, ref)


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("I, J, N", [(1025, 158, 2), (257, 626, 3), (513, 64, 2), (513, 316, 4)])
def test_separation_and_projection_give_the_same_bytes_on_the_pool(monkeypatch, I, J, N, cpus):
    # The benchmark workloads' shapes and a four-source one.  Both layers split at
    # two sources at 1025 x 158 (10 s at 128 ms windows), and stay on the calling
    # thread at 513 x 64 (2 s at 64 ms windows).
    xd, W, W_inv, *_ = instance(I, J, N, seed=N)

    def outputs():
        y = pipeline.separate(xd, W)
        return {"y": y.copy(), "sources": pipeline.back_project(y, W_inv, N - 1)}

    set_cpus(monkeypatch, 1)
    ref = outputs()
    set_cpus(monkeypatch, cpus)
    pool_use = count_pool_use(monkeypatch)
    assert_same_bytes(outputs(), ref)
    assert len(pool_use) == (0 if (I, J, N) == (513, 64, 2) else 2)


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_ip_singular_covariance_is_named_by_the_serial_blocks_on_the_pool(monkeypatch, cpus):
    # Source 1's covariance is singular at the first bin of the factor's second block,
    # source 0's at its last: the block names source 0, on any number of CPUs, and the
    # sweep changes no row.
    I, J = SHAPES["above"]
    rng = np.random.default_rng(2)
    xd = rng.standard_normal((I, J, 2)) + 1j * rng.standard_normal((I, J, 2))
    W = np.tile(np.eye(2, dtype=complex), (I, 1, 1))
    W_inv, log_det = W.copy(), np.zeros(I)
    T, V = rng.uniform(0.2, 1.5, (2, I, K)), rng.uniform(0.2, 1.5, (2, K, J))
    inv_S = np.divide(1.0, T @ V)
    blk = pool.bin_blocks(I, J * 2)[1]
    inv_S[1, blk.start] = inv_S[0, blk.stop - 1] = 1e-20  # the weights vanish there
    yp = np.abs(np.moveaxis(xd, 2, 0), order="C") ** 0.5
    set_cpus(monkeypatch, cpus)
    state = W.copy(), W_inv.copy(), log_det.copy()
    pool_use = count_pool_use(monkeypatch)
    with pytest.raises(SingularCovariance, match=rf"at bin {blk.stop - 1}, source 0$"):
        ip_sweep(xd, yp, state[0], inv_S, 1.5, 0.5, *state[1:])
    assert bool(pool_use) == (cpus > 1)
    for got, given in zip(state, (W, W_inv, log_det)):
        assert got.tobytes() == given.tobytes()


@pytest.mark.parametrize("cpus", [2, 4])
def test_basis_blocks_do_not_follow_the_cpus(monkeypatch, cpus):
    # If the basis update's blocks shrank with the threads, OpenBLAS would take
    # another kernel for their shorter products at 20 bases, and the bases of this
    # 10 s, 64 ms-window shape would change in their last bits on two CPUs.
    rng = np.random.default_rng(13)
    N, I, J = 2, 513, 313
    T, V = rng.uniform(0.2, 1.5, (N, I, 20)), rng.uniform(0.2, 1.5, (N, 20, J))
    yp = rng.uniform(0.0, 2.0, (N, I, J))
    inv_S = np.divide(1.0, T @ V)
    set_cpus(monkeypatch, 1)
    ref = update_bases_arrays(T, V, inv_S, yp, 4.0, 0.5)
    set_cpus(monkeypatch, cpus)
    pool_use = count_pool_use(monkeypatch)
    assert update_bases_arrays(T, V, inv_S, yp, 4.0, 0.5).tobytes() == ref.tobytes()
    assert pool_use


@pytest.mark.parametrize("cpus", [2, 4])
@pytest.mark.parametrize("beta", [4.0, 2.0])
def test_runs_give_the_same_bytes_on_the_pool(monkeypatch, beta, cpus):
    I, J = SHAPES["above"]
    rng = np.random.default_rng(21)
    xd = rng.standard_normal((I, J, 2)) + 1j * rng.standard_normal((I, J, 2))
    x = MixtureSpectrogram(data=xd, sample_rate=16000, frame_len=2 * (I - 1), hop_len=I - 1)
    cfg = GgdConfig(beta=beta, domain=0.5, n_bases=K, iterations=20, seed=4)
    step = pipeline.iteration_step

    def run():
        carried = {}

        def spy(*args):
            result = step(*args)
            carried.update(zip(("W_inv", "log_det", "inv_S", "yp"), args[6:]))
            return result

        with monkeypatch.context() as m:
            m.setattr(pipeline, "iteration_step", spy)
            result = pipeline.run(x, cfg)
        costs = result.trace.costs()
        skipped = np.array([r.skipped_updates for r in result.trace.records])
        outputs = (result.sources.data, result.W, result.T, result.V, costs, skipped)
        names = ("sources", "W", "T", "V", "costs", "skipped")
        return {**dict(zip(names, outputs)), **carried}

    set_cpus(monkeypatch, 1)
    ref = run()
    set_cpus(monkeypatch, cpus)
    pool_use = count_pool_use(monkeypatch)
    assert_same_bytes(run(), ref)
    assert pool_use


def test_an_exception_in_a_part_reaches_the_caller_unchanged(monkeypatch):
    set_cpus(monkeypatch, 2)
    raised = {1: KeyError("part 1"), 2: ValueError("part 2")}

    def part(k):
        if k in raised:
            raise raised[k]

    # The exception of the first part in their order that raised one reaches the
    # caller, whichever thread ran it.
    with pytest.raises(ValueError) as info:
        run_parts(part, [0, 2, 1])
    assert info.value is raised[2]
    with pytest.raises(KeyError) as info:
        run_parts(part, [1, 2])
    assert info.value is raised[1]


def test_a_call_holds_no_reference_to_its_function_or_parts_on_return(monkeypatch):
    # The pool's one thread waits on an event, so the caller takes every part and
    # the helper it handed the pool has not begun when the caller cancels it.  That
    # helper is held in the pool's queue until the thread is free: it must not hold
    # the call's function or parts, and it must run no part once the thread takes
    # it.  More CPUs found later make a larger pool, which the next call runs on.
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(pool, "_executor", None)
    release = threading.Event()
    with pool._pool_lock:
        held = pool._tasks().submit(release.wait, 60.0)

    class Part:
        pass

    ran = []

    def fn(part):
        ran.append(threading.get_ident())

    parts = [Part() for _ in range(3)]
    refs = weakref.ref(fn), weakref.ref(parts[1])
    run_parts(fn, parts)
    assert ran == [threading.get_ident()] * 3
    del fn, parts
    assert [ref() for ref in refs] == [None, None]
    release.set()
    assert held.result(timeout=60.0)
    with pool._pool_lock:  # queued after the cancelled helper, so it runs after it
        pool._tasks().submit(lambda: None).result(timeout=60.0)
    assert len(ran) == 3

    set_cpus(monkeypatch, 4)
    all_four = threading.Barrier(4, timeout=30.0)
    names = set()

    def wait_for_all(k):
        names.add(threading.current_thread().name)
        all_four.wait()

    run_parts(wait_for_all, range(4))
    pool_threads = names - {threading.current_thread().name}
    assert len(pool_threads) == 3 and all(name.startswith("ggdilrma") for name in pool_threads)


def test_parts_of_a_part_on_the_pool_run_on_its_thread(monkeypatch):
    # Handed to the pool from its only thread, they would wait on that thread.  The
    # two outer parts wait for each other, so one of them runs on the pool.
    set_cpus(monkeypatch, 2)
    both = threading.Barrier(2, timeout=30.0)
    ran = []

    def outer(k):
        both.wait()
        run_parts(lambda j: ran.append((k, j, threading.get_ident())), ["a", "b"])

    caller = threading.Thread(target=run_parts, args=(outer, [0, 1]), daemon=True)
    caller.start()
    caller.join(timeout=30.0)
    assert not caller.is_alive(), "parts of a part on the pool never ran"
    assert sorted(k_j for *k_j, _ in ran) == [[0, "a"], [0, "b"], [1, "a"], [1, "b"]]
    threads = {k: {t for k2, _, t in ran if k2 == k} for k in (0, 1)}
    assert all(len(t) == 1 for t in threads.values())  # each outer part's own thread
    assert threads[0] != threads[1] and caller.ident in threads[0] | threads[1]


def test_many_parts_on_more_threads_than_cores_all_run_once(monkeypatch):
    # Eight CPUs' worth of threads on this machine's cores, two callers at once,
    # and thread switches as often as the interpreter allows: every part of every
    # call runs exactly once, and each call returns only after its own parts.
    set_cpus(monkeypatch, 8)
    counts = np.zeros((2, 50, 16), dtype=np.int64)

    def caller(c):
        for r in range(50):

            def part(k):
                time.sleep(1e-4 * (k % 4))  # parts finish out of order
                counts[c, r, k] += 1

            run_parts(part, range(16))
            assert np.all(counts[c, r] == 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(c,), daemon=True) for c in (0, 1)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers), "a call did not return within 60 s"
    assert np.all(counts == 1)


def test_the_callers_errstate_holds_in_the_pool(monkeypatch):
    # Both parts wait for each other, so one runs on a pool thread, and each divides
    # by zero.  The caller's errstate turns that into FloatingPointError on both
    # threads; without it the pool thread would warn instead.
    set_cpus(monkeypatch, 2)
    both = threading.Barrier(2, timeout=30.0)
    raised = {}

    def part(k):
        both.wait()
        try:
            np.divide(1.0, np.zeros(3))
        except FloatingPointError:
            raised[k] = threading.get_ident()
            raise

    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        run_parts(part, [0, 1])
    assert sorted(raised) == [0, 1]
    assert threading.get_ident() in raised.values() and len(set(raised.values())) == 2


def test_the_callers_errstate_holds_in_a_layer_on_the_pool(monkeypatch):
    # Source 1's scale field is 1e-100 in one entry, whose 1 / r**2 = S^-4 the
    # quartic sweep's first pass over the frames overflows, on whichever thread takes
    # its block: the caller's errstate raises there as it would on the calling thread.
    set_cpus(monkeypatch, 2)
    xd, W, W_inv, log_det, T, V = instance(*SHAPES["above"], 2, seed=8)
    inv_S = np.divide(1.0, T @ V)
    inv_S[1, -5, 7] = 1e100
    anchor = pipeline.separate(xd, W, 2.0)
    pool_use = count_pool_use(monkeypatch)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        quartic_sweep(
            mixture_gram(xd), anchor, W.copy(), inv_S, 0.5, W_inv.copy(), log_det.copy()
        )
    assert pool_use


def test_without_an_affinity_mask_or_fork_hooks():
    # Where os has no sched_getaffinity (macOS, Windows) the pool is sized from
    # os.cpu_count, and where it has no register_at_fork (Windows) the package
    # still imports.  A run above the crossovers on two CPUs' worth of pool then
    # gives the bytes of a run on one CPU.
    script = """
import os, sys
import numpy as np
del os.sched_getaffinity, os.register_at_fork
os.cpu_count = lambda: int(sys.argv[1])
from ggdilrma import pipeline, pool
from ggdilrma.types import GgdConfig, MixtureSpectrogram
I, J = {shape}
rng = np.random.default_rng(3)
xd = rng.standard_normal((I, J, 2)) + 1j * rng.standard_normal((I, J, 2))
x = MixtureSpectrogram(data=xd, sample_rate=16000, frame_len=2 * (I - 1), hop_len=I - 1)
used = []
tasks = pool._tasks
pool._tasks = lambda: used.append(1) or tasks()
cfg = GgdConfig(beta=4.0, domain=0.5, n_bases={K}, iterations=3, seed=2)
sys.stdout.buffer.write(pipeline.run(x, cfg).sources.data.tobytes())
assert bool(used) == (int(sys.argv[1]) > 1), used
""".format(shape=SHAPES["above"], K=K)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    command = [sys.executable, "-c", script]
    runs = [
        subprocess.run(command + [cpus], env=env, capture_output=True, timeout=120)
        for cpus in ("1", "2")
    ]
    for run in runs:
        assert run.returncode == 0, run.stderr.decode()
    assert runs[0].stdout == runs[1].stdout


def test_parts_run_on_the_calling_thread_at_interpreter_exit():
    # The pool's threads are joined, and its executor takes no more work, before
    # the atexit handlers run: a layer called from one runs its parts itself.
    script = """
import atexit, os, threading
from ggdilrma.pool import run_parts
os.sched_getaffinity = lambda pid: {0, 1}
ran = []
run_parts(lambda k: None, range(4))  # the pool's thread is started
atexit.register(lambda: run_parts(ran.append, range(4)) or print(ran, threading.active_count()))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=60)
    assert run.returncode == 0 and run.stderr == b"", run.stderr.decode()
    assert run.stdout == b"[0, 1, 2, 3] 1\n"  # every part, and no thread but the main one


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
def test_a_forked_child_separates_after_the_parent_used_the_pool(monkeypatch):
    # The child has none of the parent's pool threads; it starts its own.  Without
    # that, it would hand its parts to threads that are not there and wait forever.
    # Another thread holds the pool's lock as the parent forks, and no thread of
    # the child would release it, so the child takes a fresh lock.
    set_cpus(monkeypatch, 2)
    I, J = SHAPES["above"]
    rng = np.random.default_rng(5)
    xd = rng.standard_normal((I, J, 2)) + 1j * rng.standard_normal((I, J, 2))
    x = MixtureSpectrogram(data=xd, sample_rate=16000, frame_len=2 * (I - 1), hop_len=I - 1)
    cfg = GgdConfig(beta=4.0, domain=0.5, n_bases=K, iterations=3, seed=1)
    pool_use = count_pool_use(monkeypatch)
    expected = pipeline.run(x, cfg).sources.data.tobytes()
    assert pool_use
    held, release = threading.Event(), threading.Event()

    def hold_the_lock():
        with pool._pool_lock:
            held.set()
            release.wait(timeout=60.0)

    holder = threading.Thread(target=hold_the_lock, daemon=True)
    holder.start()
    assert held.wait(timeout=30.0)
    pid = os.fork()
    if pid == 0:  # the child: exit 0 if it separates as the parent did
        code = 1
        try:
            code = 0 if pipeline.run(x, cfg).sources.data.tobytes() == expected else 2
        finally:
            os._exit(code)
    release.set()
    holder.join()
    deadline = time.monotonic() + 60.0
    while not (status := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its separation within 60 s")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status[1]) == 0

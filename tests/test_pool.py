"""The layers' parts on the pool: the same bytes as on one CPU, the caller's
errstate and exceptions, and a forked child.

The pool is switched by the CPU set the process may run on, as a user does with
``taskset``: the tests replace ``os.sched_getaffinity``.  The shapes sit on
both sides of the crossovers (``types.POOL_CROSSOVER``), so the layers run as
one part below them and as parts on the pool above them, where the tests check
that the pool was given work.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from reference_contractions import inverse_and_log_det

from ggdilrma import pipeline, types
from ggdilrma.cost import ggd_cost_arrays
from ggdilrma.demix_homogeneous import mixture_gram, quartic_sweep
from ggdilrma.source_model import refresh_scale, update_activations_arrays, update_bases_arrays
from ggdilrma.types import GgdConfig, MixtureSpectrogram, run_parts

#: (bins, frames): below every crossover, and above all three at every N here:
#: each source holds 197633 entries, and the bins two ranges' worth or more of the
#: separation's and the sweep's.
SHAPES = {"below": (10, 12), "above": (257, 769)}
K = 4


def set_cpus(monkeypatch, n):
    """Let the process run on ``n`` CPUs, as far as the package can tell."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def count_pool_use(monkeypatch):
    """A list that gains an entry each time a layer hands parts to the pool."""
    calls = []
    tasks = types._tasks

    def counted():
        calls.append(1)
        return tasks()

    monkeypatch.setattr(types, "_tasks", counted)
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


def layer_outputs(xd, W, W_inv, log_det, T, V):
    """Everything the threaded layers return or write, from fresh copies of their
    inputs."""
    S = refresh_scale(T, V, np.empty((T.shape[0], T.shape[1], V.shape[2])))
    y = pipeline.separate(xd, W)
    yp = np.abs(np.moveaxis(y, 2, 0), order="C") ** 0.5
    carried = W_inv.copy(), log_det.copy()
    W_new, _, f_check, skipped = quartic_sweep(mixture_gram(xd), y, W.copy(), S, 0.5, *carried)
    return {
        "S": S,
        "y": y,
        "T": update_bases_arrays(T, V, S, yp, 4.0, 0.5),
        "V": update_activations_arrays(T, V, yp, 4.0, 0.5),
        "cost": np.float64(ggd_cost_arrays(yp, log_det, S, 4.0, 0.5)),
        "W": W_new,
        "W_inv": carried[0],
        "log_det": carried[1],
        "f_check": f_check,
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
    state = instance(*SHAPES[shape], N, seed=N)
    set_cpus(monkeypatch, 1)
    ref = layer_outputs(*state)
    assert ref["skipped"] == 2 * N  # both degenerate bins, every source
    set_cpus(monkeypatch, cpus)
    pool_use = count_pool_use(monkeypatch)
    assert_same_bytes(layer_outputs(*state), ref)
    # separate and the sweep's two passes over the frames, or none of them; the NMF
    # updates, the scale refresh and the cost never
    assert len(pool_use) == (3 if shape == "above" else 0)


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
            carried.update(zip(("W_inv", "log_det", "S", "yp"), args[6:]))
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
    # Source 1's scale field is zero in one entry, which the quartic sweep's first
    # pass over the frames divides by, on whichever thread takes its block: the
    # caller's errstate raises there as it would on the calling thread.
    set_cpus(monkeypatch, 2)
    xd, W, W_inv, log_det, T, V = instance(*SHAPES["above"], 2, seed=8)
    S = refresh_scale(T, V, np.empty((2, xd.shape[0], xd.shape[1])))
    S[1, -5, 7] = 0.0
    y = pipeline.separate(xd, W)
    pool_use = count_pool_use(monkeypatch)
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        quartic_sweep(mixture_gram(xd), y, W.copy(), S, 0.5, W_inv.copy(), log_det.copy())
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
from ggdilrma import pipeline, types
from ggdilrma.types import GgdConfig, MixtureSpectrogram
I, J = {shape}
rng = np.random.default_rng(3)
xd = rng.standard_normal((I, J, 2)) + 1j * rng.standard_normal((I, J, 2))
x = MixtureSpectrogram(data=xd, sample_rate=16000, frame_len=2 * (I - 1), hop_len=I - 1)
used = []
tasks = types._tasks
types._tasks = lambda: used.append(1) or tasks()
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
        with types._pool_lock:
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

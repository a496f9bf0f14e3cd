"""The call shapes that the benchmark's timing wrappers read.

``perfbench/layers.py`` wraps each layer by the module attribute its caller
looks up, and reads positions of some calls: ``W`` at ``args[2]`` and the
skip count at ``result[3]`` of ``quartic_sweep(gram, yd, W, inv_S, domain,
W_inv, log_det, inv_r2)``, the mixture at ``args[0]`` and ``W`` at ``result[0]``
of ``iteration_step(xd, W, T, V, cfg, gram, W_inv, log_det, inv_S, yp)``.  The
mixture's ``gram`` takes the sweep's first slot, the anchors' ``|y~|^2`` its
second, and ``1 / S`` of the scale field follows ``W``; the carried inverse,
log-determinants, the sweep's ``1 / r**2`` buffer and, in the step, ``1 / S``
and ``|y|^p`` come after every position it reads.  Its skip count swallows a
moved position and reads 0, so the positions are pinned here.  Its span
stack is not thread-safe, so the wrapped layers must also run on the calling
thread when the layers split their work on the thread pool.
"""

import importlib.util
import os
import sys
import threading
from pathlib import Path

import numpy as np

from ggdilrma import cli, pipeline, pool, workflows
from ggdilrma.benchmark import random_mixture
from ggdilrma.demix_homogeneous import mixture_gram
from ggdilrma.types import GgdConfig, ProblemShape

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
MODULES = {"pipeline": pipeline, "workflows": workflows, "cli": cli}


def load_layers(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_layer_resolves_to_a_callable(monkeypatch):
    layers = load_layers(monkeypatch)
    unresolved = [
        name for name, key, attr in layers.LAYERS if not callable(getattr(MODULES[key], attr, None))
    ]
    assert unresolved == []


def test_sweep_and_step_positions_carry_w_and_the_skip_count(monkeypatch):
    for N in (2, 3):
        with monkeypatch.context() as m:
            check_positions(m, N)


def check_positions(monkeypatch, N):
    I, J, K = 6, 16, 2
    xd = np.array(random_mixture(I, J, N, seed=3).data)
    xd[4] = 0.0  # one silent bin: every one of its sources' updates is skipped
    cfg = GgdConfig(beta=4.0, domain=0.5, n_bases=K, iterations=1, seed=3)
    state = pipeline.initialize(cfg, ProblemShape(I, J, N, K), xd)

    sweeps = []
    sweep = pipeline.quartic_sweep

    def spy(*args):
        result = sweep(*args)
        sweeps.append((args, result))
        return result

    monkeypatch.setattr(pipeline, "quartic_sweep", spy)
    tracer = load_layers(monkeypatch).Tracer()
    steps = []
    tracer.step_hook = lambda args, result: steps.append((args[0], result[0]))
    tracer.install(MODULES)
    try:
        W_out = pipeline.iteration_step(xd, *state[:3], cfg, mixture_gram(xd), *state[3:])[0]
    finally:
        tracer.uninstall()

    [(args, result)] = sweeps
    assert args[2].shape == (I, N, N)
    assert result[3] == N
    assert (tracer.skipped, tracer.skip_attempts, tracer.absent) == (N, I * N, [])
    [(x_read, W_read)] = steps
    assert x_read is xd and W_read is W_out


def test_wrapped_layers_stay_on_the_calling_thread_with_the_pool(monkeypatch):
    # The tracer's span stack is not thread-safe, so every wrapped layer must be
    # entered and left on the calling thread, the STFT and the iSTFT too: the pool's
    # threads run only the layers' own unwrapped parts.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    calls, tasks = [], pool._tasks
    monkeypatch.setattr(pool, "_tasks", lambda: calls.append(1) or tasks())
    K = 2  # 768 hops of 16 ms: 769 frames of 257 bins, every threaded layer above its crossover
    samples = np.random.default_rng(6).standard_normal((768 * 256, 2))
    for beta in (4.0, 2.0):
        tracer = load_layers(monkeypatch).Tracer()
        threads = []
        for method in ("_open", "_close"):
            traced = getattr(tracer, method)
            monkeypatch.setattr(tracer, method, lambda arg, f=traced: threads.append(
                threading.get_ident()) or f(arg))
        tracer.install(MODULES)
        try:
            cfg = GgdConfig(beta=beta, domain=0.5, n_bases=K, iterations=2, seed=6)
            workflows.separate_audio(samples, 16000, cfg, win_ms=32.0, hop_ms=16.0)
        finally:
            tracer.uninstall()
        assert set(threads) == {threading.get_ident()}
        layers = load_layers(monkeypatch)
        names = [span.name for span in tracer.spans]
        loose = [s.name for k, s in enumerate(tracer.spans) if not layers.in_loop(tracer.spans, k)]
        # outside the two steps: the STFT, the cost pass that writes the first 1 / S,
        # the steps, then the final separation, the back-projection and the iSTFT
        assert loose == ["stft.stft", "cost.ggd_cost", *[layers.ITERATION] * 2,
                         "pipeline.separate", "pipeline.back_project", "stft.istft"]
        assert names.count("pipeline.separate") == (5 if beta == 4.0 else 3)
    assert calls

"""The call shapes that the benchmark's timing wrappers read.

``perfbench/layers.py`` wraps each layer by the module attribute its caller
looks up, and reads positions of some calls: ``W`` at ``args[2]`` and the
skip count at ``result[3]`` of ``quartic_sweep(xd, yd, W, S, domain,
gram, W_inv, log_det)``, the mixture at ``args[0]`` and ``W`` at
``result[0]`` of ``iteration_step(xd, W, T, V, cfg, gram, W_inv,
log_det, S)``.  The scale field ``S`` takes the place of ``T, V`` in the
sweep, after ``W``; the carried inverse, log-determinants and, in the step,
``S`` come after every position it reads.  Its skip count swallows a moved position and reads 0,
so the positions are pinned here.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from ggdilrma import cli, pipeline, workflows
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
    W, T, V, W_inv, log_det, S = pipeline.initialize(cfg, ProblemShape(I, J, N, K))

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
        W_out = pipeline.iteration_step(xd, W, T, V, cfg, mixture_gram(xd), W_inv, log_det, S)[0]
    finally:
        tracer.uninstall()

    [(args, result)] = sweeps
    assert args[2].shape == (I, N, N)
    assert result[3] == N
    assert (tracer.skipped, tracer.skip_attempts, tracer.absent) == (N, I * N, [])
    [(x_read, W_read)] = steps
    assert x_read is xd and W_read is W_out

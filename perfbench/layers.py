"""Timing wrappers around the package's layers, installed from outside.

Each wrapper replaces a function on the module attribute its caller looks
up at call time (``pipeline.iteration_step`` calls ``separate`` through the
``pipeline`` module, ``cli`` calls ``read_wav`` through ``cli``, and so on),
so no file of the package changes.  A wrapped name that no longer exists is
recorded as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

#: (layer name, module key, attribute the caller resolves).
LAYERS = (
    ("pipeline.iteration_step", "pipeline", "iteration_step"),
    ("pipeline.separate", "pipeline", "separate"),
    ("demix_homogeneous.quartic_sweep", "pipeline", "quartic_sweep"),
    ("demix_ip.ip_sweep", "pipeline", "ip_sweep"),
    ("source_model.update_bases", "pipeline", "update_bases_arrays"),
    ("source_model.update_activations", "pipeline", "update_activations_arrays"),
    ("cost.ggd_cost", "pipeline", "ggd_cost_arrays"),
    ("pipeline.back_project", "pipeline", "back_project"),
    ("stft.stft", "workflows", "stft"),
    ("stft.istft", "workflows", "istft"),
    ("cli.read_wav", "cli", "read_wav"),
    ("cli.write_wav", "cli", "write_wav"),
)

ITERATION = "pipeline.iteration_step"


@dataclass
class Span:
    name: str
    parent: Optional[int]
    start: float
    end: float = float("nan")
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def array_bytes(*objs) -> int:
    """Bytes of every ndarray among ``objs``, looking one level into tuples."""
    total = 0
    for obj in objs:
        items = obj if isinstance(obj, (tuple, list)) else (obj,)
        total += sum(a.nbytes for a in items if isinstance(a, np.ndarray))
    return total


@dataclass
class Tracer:
    """In-memory span recorder with a clock that skips paused intervals.

    ``step_hook(args, result)`` runs after every ``iteration_step`` span has
    closed; work it does inside :meth:`paused` is not timed.
    """

    spans: List[Span] = field(default_factory=list)
    absent: List[str] = field(default_factory=list)
    raises: Counter = field(default_factory=Counter)
    skipped: int = 0
    skip_attempts: int = 0
    step_hook: Optional[Callable] = None
    _stack: List[int] = field(default_factory=list)
    _saved: list = field(default_factory=list)
    _paused: int = 0
    _excluded: float = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._excluded

    @contextmanager
    def paused(self):
        """Run a block untimed: no spans, and its wall time leaves the clock."""
        t0 = time.perf_counter()
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1
            if self._paused == 0:
                self._excluded += time.perf_counter() - t0

    @contextmanager
    def span(self, name: str):
        """A span recorded around benchmark-side code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self.clock()))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = self.clock()

    def install(self, modules: dict) -> None:
        for name, key, attr in LAYERS:
            module = modules.get(key)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.raises[(name, type(exc).__name__)] += 1
                raise
            finally:
                self._close(index)
            self.spans[index].nbytes = array_bytes(args, tuple(kwargs.values()), result)
            if name == "demix_homogeneous.quartic_sweep":
                self._count_skips(args, result)
            if name == ITERATION and self.step_hook is not None:
                self.step_hook(args, result)
            return result

        return wrapper

    def _count_skips(self, args, result) -> None:
        try:
            I, N = args[2].shape[:2]
            self.skipped += int(result[3])
            self.skip_attempts += I * N
        except (AttributeError, IndexError, TypeError, ValueError):
            pass


def in_loop(spans: List[Span], index: int) -> bool:
    """Whether span ``index`` runs inside an iteration step."""
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == ITERATION:
            return True
        parent = spans[parent].parent
    return False

"""Shared tensor containers, index conventions, and problem validation.

Index conventions used throughout the package:

* ``i`` -- frequency bin, ``0 .. I-1``,
* ``j`` -- time frame, ``0 .. J-1``,
* ``m`` -- input channel, ``0 .. M-1``,
* ``n`` -- source, ``0 .. N-1`` (determined case, ``N == M``),
* ``k`` -- NMF basis, ``0 .. K-1``.

Complex spectrogram tensors are stored ``(I, J, channels)`` in row-major
order so that a per-frequency slab ``data[i]`` is contiguous; only the
separated outputs inside a run are laid out sources first
(:func:`~ggdilrma.pipeline.separate`).
Demixing matrices are stored ``(I, N, N)`` where row ``n`` of ``W[i]``
holds the Hermitian transpose of the demixing filter, i.e. ``y[i, j, n] =
W[i, n, :] @ x[i, j, :]``.  NMF factors are per-source stacks: bases
``T`` shaped ``(N, I, K)`` and activations ``V`` shaped ``(N, K, J)``.

All containers are frozen dataclasses treated as immutable values after
construction; invariants are checked once per run by
:func:`validate_problem` rather than on every construction.

Per-iteration layers run their work as independent parts through
:func:`run_parts`: the calling thread and a pool of threads, one per further
CPU that the process may run on (``os.sched_getaffinity`` where the platform
has it, so ``taskset`` restricts it; ``os.cpu_count`` elsewhere), take the
parts one at a time.  The pool is created on first use.  A layer is cut only
along an axis that no sum and no BLAS call crosses: by source
(:func:`source_parts`), or by bins with every source in each
(:func:`bin_ranges`, :func:`bin_parts`, :func:`basis_parts`).  So each part
makes the kernel calls, with the operands, that the layer makes on one
thread, and the results are the same bytes on any number of CPUs.  On one
CPU, or where a thread's share would hold fewer entries than the layer's
measured crossover (:data:`POOL_CROSSOVER`), the layer runs on the calling
thread: one part that holds every source and every bin, the batched code
itself, or the serial layer's blocks in order.
"""

from __future__ import annotations

import contextvars
import json
import os
import queue
import threading
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from .errors import DegenerateShape, NonFiniteInput, SilentMixture, UnsupportedBeta

#: Numerical floors: NMF entries, |y| in denominators, and the determinant guard:
#: absolute on IP's det F, relative on the quartic det G (over prod_k G_kk).
EPS_NMF = 1e-12
EPS_Y = 1e-12
EPS_DET = 1e-12


def _replace_row(W, W_inv, log_det, n, h, where=True) -> None:
    """Set row ``n`` of each ``W_i`` ``(b, N, N)`` to ``h_i`` ``(b, N)`` where ``where``
    holds, and keep ``W_inv`` (``W^{-1}``) and ``log_det`` (``log|det W_i|``) in step;
    all three are updated in place, and the other bins are left untouched.

    The new row multiplies ``det W_i`` by ``d = h W_i^{-1} e_n``, which the caller
    has checked is nonzero, and ``W_i^{-1}`` takes the Sherman-Morrison update
    ``W^{-1} - W^{-1} e_n (h W^{-1} - e_n^T) / d``: O(N^2) per bin, no solve.
    The update runs on ``(N, N, b)`` views, so with ``W_inv`` laid out bins last,
    as :func:`~ggdilrma.pipeline.initialize` lays it out, every operation's
    inner loop runs over the bins; any layout gives the same numbers."""
    inv_t = W_inv.transpose(1, 2, 0)
    g = np.sum(h.T[:, None, :] * inv_t, axis=0)  # h W^-1 (N, b); its row n is d
    d = np.where(where, g[n], 1.0)
    g[n] -= 1.0
    g /= d
    np.subtract(inv_t, inv_t[:, n, None, :] * g, out=inv_t, where=where)
    np.add(log_det, np.log(np.abs(d)), out=log_det, where=where)
    np.copyto(W[:, n].T, h.T, where=where)


def _substitute(R: np.ndarray, c: np.ndarray):
    """``(w, z)`` ``(b, M)`` with ``R^H z = c`` and ``R w = z``, by substitution, for a
    block of upper triangular ``R`` ``(b, M, M)`` with a positive real diagonal: ``w``
    solves ``R^H R w = c``, and ``w^H R^H R w = ||z||^2``."""
    r = R.diagonal(axis1=1, axis2=2).real
    M = c.shape[1]
    z = c.copy()
    for k in range(M):  # R^H z = c
        if k:
            z[:, k] -= np.vecdot(R[:, :k, k], z[:, :k])
        z[:, k] /= r[:, k]
    w = z.copy()
    for k in reversed(range(M)):  # R w = z
        if k < M - 1:
            w[:, k] -= np.sum(R[:, k, k + 1 :] * w[:, k + 1 :], axis=1)
        w[:, k] /= r[:, k]
    return w, z


#: (bin, frame) entries per block of frequency bins in the per-iteration
#: layers.  Their temporaries then stay cache-sized and are reused from the
#: allocator's free lists, instead of full-size arrays whose pages are
#: handed back to the kernel and faulted in again on every call.
BLOCK_ENTRIES = 2**15


def bin_blocks(n_bins: int, entries_per_bin: int, parts: int = 1) -> list[slice]:
    """Fewest consecutive slices covering ``range(n_bins)`` with at most
    ``BLOCK_ENTRIES // parts`` entries of ``entries_per_bin`` each (and at least
    one bin), their lengths differing by at most one bin."""
    max_bins = max(1, BLOCK_ENTRIES // parts // max(1, entries_per_bin))
    n_blocks = -(-n_bins // max_bins)
    stops = [k * n_bins // n_blocks for k in range(1, n_blocks + 1)]
    return [slice(start, stop) for start, stop in zip([0] + stops, stops)]


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask, which ``taskset`` sets,
    where the platform has one (Linux), and every CPU elsewhere."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: The measured crossovers, in (bin, frame) entries, every source counted: a layer
#: runs on more than one thread only where each thread's share holds at least its
#: layer's entries; below them it runs on the calling thread.  ``"sources"`` gates
#: the layers split by source (the ``|y|^p`` refresh, the activation update, the
#: scale refresh and the cost) and the basis update (:func:`basis_parts`);
#: ``"separate"`` and ``"sweep"`` gate the separation and the quartic sweep's two
#: passes over the frames, split by bins.
#: Each was measured on whole iterations across problem sizes (CHANGES.md): waking
#: an idle pool thread costs a few hundred microseconds, which the shares must
#: outweigh, and the separation, a few multiply-adds per byte, gains least.
POOL_CROSSOVER = {"sources": 2**17, "separate": 3 * 2**16, "sweep": 2**17}


def source_parts(n_sources: int, entries_per_source: int) -> list[slice]:
    """One slice per source where there are several, each holds the ``"sources"``
    crossover of entries or more and the process may run on more than one CPU;
    else one slice of every source."""
    if n_sources > 1 and entries_per_source >= POOL_CROSSOVER["sources"] and _cpu_count() > 1:
        return [slice(n, n + 1) for n in range(n_sources)]
    return [slice(0, n_sources)]


def _bin_threads(n_bins: int, entries_per_bin: int, layer: str) -> int:
    """Threads for a layer split by bins: one per CPU, at most one per bin, and none
    with a share of fewer entries than the ``layer``'s crossover; at least one."""
    threads = min(n_bins, n_bins * entries_per_bin // POOL_CROSSOVER[layer])
    return min(threads, _cpu_count()) if threads > 1 else 1


def bin_ranges(n_bins: int, entries_per_bin: int, layer: str) -> list[slice]:
    """The bins cut into one range per :func:`_bin_threads` thread, of nearly equal
    length: one range of every bin on one thread."""
    parts = _bin_threads(n_bins, entries_per_bin, layer)
    if parts == 1:
        return [slice(0, n_bins)]
    stops = [k * n_bins // parts for k in range(parts + 1)]
    return [slice(a, z) for a, z in zip(stops, stops[1:])]


def bin_parts(n_bins: int, n_frames: int, n_sources: int) -> tuple[list[slice], int]:
    """The quartic sweep's parts and threads: its :func:`bin_blocks` of
    ``BLOCK_ENTRIES // threads`` entries, so the threads hold one block's worth
    between them, and the ``"sweep"`` :func:`_bin_threads`.  On one thread, the
    blocks of the serial passes.  The blocks follow the threads, which only the
    sweep's per-bin products may: each has its one bin's rows in any block."""
    threads = _bin_threads(n_bins, n_frames * n_sources, "sweep")
    return bin_blocks(n_bins, n_frames, threads), threads


def basis_parts(n_bins: int, n_frames: int, n_sources: int) -> tuple[list[slice], int]:
    """The basis update's blocks and threads.  At or above the ``"sources"``
    crossover, :func:`bin_blocks` of ``BLOCK_ENTRIES`` entries over all sources, on
    as many threads as :func:`source_parts` gives parts, so the threads hold at most
    one serial block's worth between them; below it, the serial blocks, on one
    thread.  Unlike :func:`bin_parts`, the blocks follow the shape and never the
    CPUs: each per-source product then has the rows it has on one CPU."""
    entries = n_bins * n_frames
    per_bin = n_frames * n_sources if entries >= POOL_CROSSOVER["sources"] else n_frames
    return bin_blocks(n_bins, per_bin), len(source_parts(n_sources, entries))


#: The pool: one queue of work for the life of the process, and how many threads
#: serve it, one per CPU beside the caller's.  Created on first use, and given more
#: threads if more CPUs are found later; a forked child, which has none of its
#: parent's threads, starts afresh, with a fresh lock.
_queue = None
_served = 0
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    global _queue, _served, _pool_lock
    _queue, _served, _pool_lock = None, 0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


#: Set on the pool's threads, whose parts run any parts of their own themselves.
_on_pool = threading.local()


def _serve(tasks: queue.SimpleQueue) -> None:
    """A pool thread: take a share of some call's parts, for the life of the
    process."""
    _on_pool.serving = True
    while True:
        work, context = tasks.get()
        context.run(work)
        del work, context


def _tasks() -> queue.SimpleQueue:
    """The pool's queue, served by one thread per CPU beside the caller's (at least
    one)."""
    global _queue, _served
    size = max(1, _cpu_count() - 1)
    with _pool_lock:
        if _queue is None:
            _queue = queue.SimpleQueue()
        for _ in range(_served, size):
            threading.Thread(target=_serve, args=(_queue,), name="ggdilrma", daemon=True).start()
            _served += 1
        return _queue


class _Share:
    """The parts of one :func:`run_parts` call, which its threads take one at a
    time, each the next that no thread has taken."""

    def __init__(self, fn: Callable, parts) -> None:
        self.fn, self.parts = fn, parts
        self.taken = self.running = 0
        self.errors: dict = {}
        self.lock = threading.Lock()
        self.done = threading.Event()

    def work(self) -> None:
        """Run parts until none is left, or one has raised.  A thread drops its
        references to a part before it reports the part finished, so every array a
        layer allocated is freed by the caller, at the point it would be serially."""
        while True:
            with self.lock:
                if self.parts is None or self.taken == len(self.parts) or self.errors:
                    return
                k, fn, part = self.taken, self.fn, self.parts[self.taken]
                self.taken += 1
                self.running += 1
            try:
                fn(part)
                error = None
            except BaseException as exc:  # handed to the caller, which raises it
                error = exc
            del fn, part
            with self.lock:
                self.running -= 1
                if error is not None:
                    self.errors[k] = error
                if not self.running and (self.taken == len(self.parts) or self.errors):
                    self.done.set()
            del error


def run_parts(fn: Callable, parts, threads: int | None = None) -> None:
    """Call ``fn(part)`` for every part and return once all have finished.

    The parts run on ``threads`` threads (one per part by default), at most one per
    CPU: the calling thread and threads of the pool.  Each takes the next part that
    no thread has taken, so the calling thread goes on with the parts while a pool
    thread wakes up, and waits only for parts a pool thread has begun.  On one
    thread the parts run in order on the calling thread; one part is the batched
    code itself.

    Each pool thread runs in a copy of the caller's context, so an ``np.errstate``
    set by the caller holds there too.  No part begins after one has raised; the
    exception of the first part, in the order of ``parts``, that raised one reaches
    the caller unchanged, after every part begun has finished.  A pool thread that
    calls this runs the parts itself.  A layer's parts write disjoint pieces of
    arrays the caller allocated and read only what no part writes, so their
    results do not depend on which thread runs them, or when.
    """
    threads = min(len(parts) if threads is None else threads, len(parts))
    if threads > 1 and getattr(_on_pool, "serving", False):
        threads = 1  # handed to the pool, a pool thread's parts could wait on itself
    if threads > 1:
        threads = min(threads, _cpu_count())
    if threads < 2:
        for part in parts:
            fn(part)
        return
    share = _Share(fn, parts)
    tasks = _tasks()
    for _ in range(threads - 1):
        tasks.put((share.work, contextvars.copy_context()))
    share.work()
    share.done.wait()
    with share.lock:  # a pool thread that wakes up later finds nothing to take
        share.fn = share.parts = None
    if share.errors:
        raise share.errors[min(share.errors)]


@dataclass(frozen=True)
class MixtureSpectrogram:
    """Complex STFT tensor of an M-channel observation.

    Attributes:
        data: complex tensor shaped ``(I, J, M)``.
        sample_rate: sampling rate in Hz.
        frame_len: analysis frame length in samples (``I == frame_len//2 + 1``).
        hop_len: hop between frames in samples.
    """

    data: np.ndarray
    sample_rate: int
    frame_len: int
    hop_len: int


@dataclass(frozen=True)
class SourceSpectrogram:
    """Complex spectrogram tensor of N separated sources, shaped ``(I, J, N)``."""

    data: np.ndarray


@dataclass(frozen=True)
class GgdConfig:
    """Separation settings: source-model shape, NMF rank, and run control.

    ``beta`` is the generalized-Gaussian shape parameter.  Supported values
    are ``0 < beta <= 2`` (iterative projection) and ``beta == 4``
    (majorization-based quartic update); anything else is rejected because
    no demixing update exists for it here.  ``domain`` is the finite,
    positive exponent linking the NMF factorization to the scale parameter
    (``r**domain = sum_k t v``).
    """

    beta: float = 4.0
    domain: float = 0.5
    n_bases: int = 20
    iterations: int = 1000
    seed: int = 0

    @property
    def update_scheme(self) -> str:
        """``"ip"`` for 0 < beta <= 2, ``"quartic"`` for beta == 4."""
        return "ip" if self.beta <= 2.0 else "quartic"

    def violations(self) -> list[tuple[type, str]]:
        """Every violated setting as ``(error class, message)``, in check order."""
        found = []
        if not (0.0 < self.beta <= 2.0 or self.beta == 4.0):
            found.append(
                (UnsupportedBeta, f"beta={self.beta} unsupported; valid range is (0, 2] or exactly 4")
            )
        if not (0.0 < self.domain < np.inf):
            found.append(
                (UnsupportedBeta, f"domain parameter must be finite and > 0, got {self.domain}")
            )
        if self.n_bases < 1:
            found.append((DegenerateShape, "n_bases must be >= 1"))
        if self.iterations < 0:
            found.append((DegenerateShape, "iterations must be >= 0"))
        if self.seed < 0:
            found.append((DegenerateShape, f"seed must be >= 0, got {self.seed}"))
        return found

    def validate(self) -> None:
        _raise_violations(self.violations())


@dataclass(frozen=True)
class ProblemShape:
    """Checked dimensions of a separation problem."""

    n_bins: int
    n_frames: int
    n_sources: int
    n_bases: int


@dataclass(frozen=True)
class TraceRecord:
    """Cost and timing snapshot for one iteration."""

    iteration: int
    cost: float
    elapsed_ms: float
    skipped_updates: int = 0

    def to_json(self) -> str:
        """One trace line: ``iter``, ``cost``, ``elapsed_ms``, ``skipped_updates``."""
        return json.dumps(
            {
                "iter": self.iteration,
                "cost": self.cost,
                "elapsed_ms": self.elapsed_ms,
                "skipped_updates": self.skipped_updates,
            }
        )


@dataclass(frozen=True)
class ConvergenceTrace:
    """Per-iteration cost values for monotonicity auditing."""

    records: List[TraceRecord] = field(default_factory=list)

    def costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.records], dtype=np.float64)


def _raise_violations(violations: list[tuple[type, str]]) -> None:
    """Raise the first violation's error with a message listing all of them."""
    if violations:
        err_cls = violations[0][0]
        raise err_cls("; ".join(msg for _, msg in violations))


def validate_problem(x: MixtureSpectrogram, cfg: GgdConfig) -> ProblemShape:
    """Check every invariant of a separation problem.

    Returns the checked ``(I, J, N, K)`` descriptor with ``N = M``
    (determined case), or raises the error for the first violated
    invariant (mixture first, then configuration) with a message listing
    all violations.  A usable problem whose mixture is zero everywhere raises
    :class:`~ggdilrma.errors.SilentMixture`, at every ``beta``.
    """
    violations: list[tuple[type, str]] = []

    shape_ok = x.data.ndim == 3 and min(x.data.shape, default=0) >= 1
    if not shape_ok:
        violations.append(
            (DegenerateShape, f"tensor shape {x.data.shape} has an empty dimension")
        )
    if shape_ok and not np.all(np.isfinite(x.data)):
        violations.append((NonFiniteInput, "mixture contains NaN/Inf entries"))
    _raise_violations(violations + cfg.violations())
    if not np.any(x.data):
        raise SilentMixture(f"mixture of shape {x.data.shape} is zero everywhere")

    I, J, M = x.data.shape
    return ProblemShape(n_bins=I, n_frames=J, n_sources=M, n_bases=cfg.n_bases)

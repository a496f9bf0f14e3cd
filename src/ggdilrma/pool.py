"""The package's thread pool, and the blocks the layers cut their work into.

A layer runs its work as independent parts through :func:`run_parts`: the
calling thread and a pool of threads, one per further CPU that the process may
run on (``os.sched_getaffinity`` where the platform has it, so ``taskset``
restricts it; ``os.cpu_count`` elsewhere), take the parts one at a time.  The
pool is created on first use.  A layer is cut only along an axis that no sum
and no BLAS call crosses: by source or channel (:func:`source_parts`), by bins
with every source in each (:func:`bin_ranges`, :func:`bin_parts`,
:func:`basis_parts`), or by frames (:func:`bin_blocks` and
:func:`block_threads` along the frames).  So each part makes the kernel calls,
with the operands, that the layer makes on one thread, and the results are the
same bytes on any number of CPUs.  On one CPU, or where a thread's share would
hold fewer entries than the layer's measured crossover
(:data:`POOL_CROSSOVER`), the layer runs on the calling thread: one part that
holds every source and every bin, the batched code itself, or the serial
layer's blocks in order.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
from typing import Callable

#: (bin, frame) entries per block of frequency bins in the per-iteration
#: layers, and per block of frames in the STFT and the iSTFT.  Their
#: temporaries then stay cache-sized and are reused from the allocator's free
#: lists, instead of full-size arrays whose pages are handed back to the kernel
#: and faulted in again on every call.
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


#: The measured crossovers, in (bin, frame) entries, every source or channel
#: counted: a layer runs on more than one thread only where each thread's share
#: holds at least its layer's entries; below them it runs on the calling thread.
#: ``"sources"`` gates the layers split by source or channel (``|x|^p`` at the
#: start of a run, the ``|y|^p`` refresh, the activation update, the scale
#: refresh, the cost and the iSTFT's overlap-add) and the basis update
#: (:func:`basis_parts`); ``"separate"`` gates the separation and the
#: back-projection, split by bins; ``"sweep"`` the quartic sweep's two passes
#: over the frames; ``"blocks"`` the layers cut into blocks of bins or frames:
#: the STFT's and the iSTFT's transforms, the mixture's features and the IP
#: sweep's factors.
#: Each was measured across problem sizes (CHANGES.md): a pool thread starts a part
#: about 10 us after the call right after its last part, but about 200 us after it
#: has been idle for a few milliseconds, on a two-CPU VM, which the shares must
#: outweigh.  The separation, one real product per bin, made a whole iteration
#: 3-6 % faster on two threads from 141 k entries per thread and up to 3 % slower
#: at 123 k or fewer, so it splits at two sources from 2**18 entries (I = 1025,
#: J = 158 among them); the back-projection gained on two threads at 162 k entries
#: each and lost at 122 k.
POOL_CROSSOVER = {"sources": 2**17, "separate": 2**17, "sweep": 2**17, "blocks": 2**16}


def source_parts(n_sources: int, entries_per_source: int) -> list[slice]:
    """One slice per source where there are several, each holds the ``"sources"``
    crossover of entries or more and the process may run on more than one CPU;
    else one slice of every source."""
    if n_sources > 1 and entries_per_source >= POOL_CROSSOVER["sources"] and _cpu_count() > 1:
        return [slice(n, n + 1) for n in range(n_sources)]
    return [slice(0, n_sources)]


def block_threads(n_items: int, entries_per_item: int, layer: str) -> int:
    """Threads for a layer split into blocks of bins (or of frames): one per CPU, at
    most one per item, and none with a share of fewer entries than the ``layer``'s
    crossover; at least one."""
    threads = min(n_items, n_items * entries_per_item // POOL_CROSSOVER[layer])
    return min(threads, _cpu_count()) if threads > 1 else 1


def bin_ranges(n_bins: int, entries_per_bin: int, layer: str) -> list[slice]:
    """The bins cut into one range per :func:`block_threads` thread, of nearly equal
    length: one range of every bin on one thread."""
    parts = block_threads(n_bins, entries_per_bin, layer)
    if parts == 1:
        return [slice(0, n_bins)]
    stops = [k * n_bins // parts for k in range(parts + 1)]
    return [slice(a, z) for a, z in zip(stops, stops[1:])]


def bin_parts(n_bins: int, n_frames: int, n_sources: int, layer: str) -> tuple[list[slice], int]:
    """The parts and threads of a sweep's passes over the frames: its
    :func:`bin_blocks` of ``BLOCK_ENTRIES // threads`` entries, so the threads hold
    one block's worth between them, and the ``layer``'s :func:`block_threads`.  On
    one thread, the blocks of the serial passes.  The blocks follow the threads,
    which only the sweeps' per-bin products may: each has its one bin's rows in any
    block."""
    threads = block_threads(n_bins, n_frames * n_sources, layer)
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

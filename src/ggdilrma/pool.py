"""The package's thread pool, and the blocks the layers cut their work into.

A layer runs its work as independent parts through :func:`run_parts`: the
calling thread and a pool of threads, one per further CPU that the process may
run on (``os.sched_getaffinity`` where the platform has it, so ``taskset``
restricts it; ``os.cpu_count`` elsewhere), take the parts one at a time.  The
pool is created on first use.  A layer is cut only along an axis that no BLAS
call crosses, and by its shape alone, never by the number of CPUs: into
:func:`bin_blocks` of bins with every source in each, or of frames with every
channel in each, or into (source, block) parts where a layer's bytes follow
blocks sized for one source (:func:`source_block_parts`).  A sum across parts
is added in the parts' order, whichever finishes first.  So each part makes
the kernel calls, with the operands, that the layer makes on one thread, and
the results are the same bytes on any number of CPUs.  Only the number of
threads that take the parts follows the CPUs (:func:`threads`): on one CPU,
or where a thread's share would hold fewer entries than the measured
crossover (:data:`POOL_CROSSOVER`), the parts run in order on the
calling thread.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
from typing import Callable

#: (bin, frame) entries per block of frequency bins in the per-iteration
#: layers, every source counted, and per block of frames in the STFT and the
#: iSTFT.  Their temporaries then stay cache-sized and are reused from the
#: allocator's free lists, instead of full-size arrays whose pages are handed back
#: to the kernel and faulted in again on every call.
BLOCK_ENTRIES = 2**15


def bin_blocks(n_bins: int, entries_per_bin: int) -> list[slice]:
    """Fewest consecutive slices covering ``range(n_bins)`` with at most
    ``BLOCK_ENTRIES`` entries of ``entries_per_bin`` each (and at least one bin),
    their lengths differing by at most one bin."""
    max_bins = max(1, BLOCK_ENTRIES // max(1, entries_per_bin))
    n_blocks = -(-n_bins // max_bins)
    stops = [k * n_bins // n_blocks for k in range(1, n_blocks + 1)]
    return [slice(start, stop) for start, stop in zip([0] + stops, stops)]


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask, which ``taskset`` sets,
    where the platform has one (Linux), and every CPU elsewhere."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: The measured crossover, in (bin, frame) entries with every source or channel
#: counted: a layer runs on one more thread for each of these in its entries.  A
#: pool thread starts a part about 10 us after the call right after its last part,
#: but about 200 us after it has been idle for a few milliseconds, on a two-CPU VM,
#: which the shares must outweigh.  The separation, one real product per bin, made
#: a whole iteration 3-6 % faster on two threads from 141 k entries per thread and
#: up to 3 % slower at 123 k or fewer; the back-projection gained on two threads at
#: 162 k entries each and lost at 122 k.  The STFT, the iSTFT, the mixture's
#: features and the IP sweep's factors, once split from half of it, took 1.00-1.13
#: times one thread's time on two between 162 k and 237 k entries (CHANGES.md).
POOL_CROSSOVER = 2**17


def threads(n_parts: int, entries: int) -> int:
    """Threads for a layer of ``n_parts`` parts and ``entries`` entries in all: one
    per CPU, at most one per part, and none with a share of fewer than
    :data:`POOL_CROSSOVER` entries; at least one."""
    return max(1, min(n_parts, _cpu_count(), entries // POOL_CROSSOVER))


def source_block_parts(n_sources: int, n_blocks: int, entries: int) -> tuple[list, int]:
    """``(sources, block)`` parts, a slice of sources and the index of one of
    ``n_blocks`` blocks, and the :func:`threads` to run them on.  Where the
    ``entries`` of every source hold two crossovers or more, one part per source
    and block, the blocks of each source in order, on at most one thread per
    source, so that no more parts hold their block buffers at once than one part
    per source would; else one part per block with every source in each, in
    order on the calling thread."""
    if entries // POOL_CROSSOVER > 1:
        parts = [(slice(n, n + 1), k) for n in range(n_sources) for k in range(n_blocks)]
        return parts, threads(n_sources, entries)
    return [(slice(0, n_sources), k) for k in range(n_blocks)], 1


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

"""The package's thread pool, and the blocks the layers cut their work into.

A layer runs its work as independent parts through :func:`run_parts`: the
calling thread and a pool of threads, one per further CPU that the process may
run on (``os.sched_getaffinity`` where the platform has it, so ``taskset``
restricts it; ``os.cpu_count`` elsewhere), take the parts one at a time.  The
pool is the standard library's :class:`~concurrent.futures.ThreadPoolExecutor`,
made on first use; its threads are joined at interpreter exit.  A layer is cut
only along an axis that no BLAS call crosses, and by its shape alone, never by
the number of CPUs: into :func:`bin_blocks` of bins with every source in each,
or of frames with every channel in each, or into (source, block) parts where a
layer's bytes follow blocks sized for one source (:func:`source_block_parts`).
Parts write disjoint slots of arrays the caller owns and read nothing that
another part writes; a sum across parts is added by the caller from its parts'
slots, in the parts' order, once :func:`run_parts` returns.  So each part makes
the kernel calls, with the operands, that the layer makes on one thread, and the
results are the same bytes on any number of CPUs.  Only the
number of threads that take the parts follows the CPUs (:func:`threads`): on
one CPU, or where a thread's share would hold fewer entries than the measured
crossover (:data:`POOL_CROSSOVER`), the parts run in order on the calling
thread.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
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


#: The pool: one executor for the life of the process, with one thread per CPU
#: beside the caller's.  Made on first use, and made again with more threads, the
#: old one shut down, if more CPUs are found later; a forked child, which has none
#: of its parent's threads, starts afresh, with a fresh lock.
_executor: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    global _executor, _pool_lock
    _executor, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


#: Set on the pool's threads, whose parts run any parts of their own themselves.
_on_pool = threading.local()


def _serving() -> None:
    _on_pool.serving = True


def _tasks() -> ThreadPoolExecutor:
    """The pool, with one thread per CPU beside the caller's (at least one).  Called
    with ``_pool_lock`` held, so that no other call shuts it down before this one
    has submitted its helpers."""
    global _executor
    size = max(1, _cpu_count() - 1)
    if _executor is None or _executor._max_workers < size:
        if _executor is not None:
            _executor.shutdown(wait=False)  # its threads finish what is queued, then end
        _executor = ThreadPoolExecutor(size, "ggdilrma", initializer=_serving)
    return _executor


def run_parts(fn: Callable, parts, threads: int | None = None) -> None:
    """Call ``fn(part)`` for every part and return once all have finished.

    The parts run on ``threads`` threads (one per part by default), at most one per
    CPU: the calling thread and threads of the pool.  Each takes the next part that
    no thread has taken, so the calling thread goes on with the parts while a pool
    thread wakes up.  Once the calling thread finds no part left, it cancels each
    helper that no pool thread has begun, and waits only for those that have.  On
    one thread the parts run in order on the calling thread; one part is the
    batched code itself.

    Each pool thread runs in a copy of the caller's context, so an ``np.errstate``
    set by the caller holds there too.  No part begins after one has raised; the
    exception of the first part, in the order of ``parts``, that raised one reaches
    the caller unchanged, after every part begun has finished.  A pool thread that
    calls this runs the parts itself, and so does a call made while the interpreter
    exits, once the pool's threads are joined.  A layer's parts write disjoint
    pieces of arrays the caller allocated and read only what no part writes, so
    their results do not depend on which thread runs them, or when.  No reference to
    ``fn`` or to a part outlives the call.
    """
    threads = min(len(parts) if threads is None else threads, len(parts))
    if threads > 1 and getattr(_on_pool, "serving", False):
        threads = 1  # handed to the pool, a pool thread's parts could wait on itself
    if threads > 1 and not threading.main_thread().is_alive():
        threads = 1  # the interpreter is exiting, and its executors take no more work
    if threads > 1:
        threads = min(threads, _cpu_count())
    if threads < 2:
        for part in parts:
            fn(part)
        return
    todo, errors, lock = enumerate(parts), {}, threading.Lock()

    def work() -> None:
        # Run parts until none is left, or one has raised.  A thread drops its
        # references to a part before it takes the next or returns, so every array a
        # layer allocated is freed by the caller, at the point it would be serially.
        while True:
            with lock:
                taken = None if errors else next(todo, None)
                if taken is None:
                    return
            k, part = taken
            try:
                fn(part)
            except BaseException as exc:  # handed to the caller, which raises it
                with lock:
                    errors[k] = exc
            del taken, part

    with _pool_lock:
        executor = _tasks()
        helpers = [executor.submit(contextvars.copy_context().run, work) for _ in range(threads - 1)]
    work()
    for helper in helpers:
        if not helper.cancel():
            helper.result()
    fn = todo = None  # a cancelled helper is held in the queue until a pool thread skips it
    if errors:
        raise errors[min(errors)]

"""Full separation runs: init, alternating updates, projection, tracing.

Each iteration performs, in order: (1) one demixing sweep of ``W`` alone
(iterative projection for ``beta <= 2``, quartic majorization on the
mixture's per-frame outer products, cached per run, for ``beta == 4``), (2)
refresh of the separated outputs' ``|y|^p`` in place, which feeds (3) one
basis update, (4) one activation update and (5) the cost; no full-size
complex output is formed in an iteration.  The cost is recorded after every
iteration; the final output is rescaled by back-projection onto a reference
channel.

Only this module forms separated outputs, all through :func:`separate`,
which makes one real matrix product per bin, of the mixture's interleaved
real and imaginary parts: into row-major complex ``(I, J, N)`` outputs, or,
given a power ``p``, a block at a time into a block temporary and from there
into ``|y|^p`` ``(N, I, J)``.  The run carries ``yp = |y|^p`` of its outputs,
formed at entry as ``|x|^p`` (exact, as ``W = I`` there) and refreshed in
place by :func:`separate` after each sweep, so at every iteration boundary it
is ``|y|^p`` of the current ``W``.  The NMF updates and the cost read it, and
so does the IP sweep, whose weights read the outputs of the ``W`` it is
given only where ``beta != 2``.  The quartic sweep reads ``|y~|^2`` of its
entry ``W``, separated before the sweep into a real array of its own, so a
quartic iteration separates twice and an IP iteration once.  It never reads
``yp``, so it borrows that buffer for its ``1 / r^2``, which the refresh
then overwrites.

Beside ``T`` and ``V`` the run carries ``inv_S = 1 / S`` of their scale
field ``S = T V`` ``(N, I, J)``.  The cost pass forms ``S`` of the factors
it is given a block at a time, takes the cost from it and writes its
reciprocal over it (:func:`~ggdilrma.cost.ggd_cost_arrays`): in
:func:`initialize`, whose cost is not recorded, and at the end of each
iteration, so the next sweep and the next basis update read ``1 / S`` of
the factors that iteration returns, with no divide of their own.

Beside ``W`` the run carries its inverse and ``log|det W_i|``, from the
identity and zero.  Each sweep keeps them in step as it replaces rows
(:func:`~ggdilrma.types._replace_row`), so the sweeps read ``W_i^{-1} e_n``,
the cost reads the log-determinants and back-projection reads a row of the
inverse, and a separation makes no LAPACK call.

Every layer splits its work on the package's thread pool
(:func:`~ggdilrma.pool.run_parts`), above the measured crossover and only
where the process may run on more than one CPU.  Its parts follow the shape
alone: blocks of bins with every source in each for :func:`separate`, with
or without its power, :func:`back_project`, ``|x|^p`` in :func:`initialize`,
the mixture's features, the IP sweep's weights and factors, the quartic
sweep's passes over the frames and the basis update; by source and block of
one source's bins for the activation update and the cost, with its
``1 / S``, whose ``(b, K) @ (K, J)`` products would change their bits with
the rows ``b`` of a block, and whose sums over bins are added in the blocks'
order whichever part finishes first.  Only the sweeps' per-bin algebra and
the IP sweep's per-source solves stay on the calling thread.  The parts run
inside the layer calls, so every layer is entered and left on the thread
that called :func:`run`, and the run's bytes do not depend on the number of
CPUs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cost import ggd_cost_arrays
from .demix_homogeneous import mixture_gram, quartic_sweep
from .demix_ip import ip_sweep
from .errors import DegenerateShape
from .pool import bin_blocks, run_parts, threads
from .source_model import update_activations_arrays, update_bases_arrays
from .types import (
    EPS_NMF,
    ConvergenceTrace,
    GgdConfig,
    MixtureSpectrogram,
    ProblemShape,
    SourceSpectrogram,
    TraceRecord,
    validate_problem,
)


@dataclass(frozen=True)
class RunResult:
    """Everything produced by one separation run.

    Attributes:
        sources: back-projected source estimates.
        W: final demixing matrices ``(I, N, N)``.
        T: final NMF bases ``(N, I, K)``.
        V: final NMF activations ``(N, K, J)``.
        trace: per-iteration cost record.
    """

    sources: SourceSpectrogram
    W: np.ndarray
    T: np.ndarray
    V: np.ndarray
    trace: ConvergenceTrace


def initialize(cfg: GgdConfig, shape: ProblemShape, xd: np.ndarray):
    """Identity demixing matrices, their inverses and zero log-determinants,
    uniform-random positive factors, the reciprocal of their scale field and the
    outputs' ``|y|^p`` for the mixture ``xd`` ``(I, J, N)``.

    Factor entries are i.i.d. uniform on ``(EPS_NMF, 1]``; the draw is
    deterministic for ``cfg.seed`` (bases first, then activations).
    Returns ``(W, T, V, W_inv, log_det, inv_S, yp)`` with ``inv_S = 1 / (T V)``,
    written by the cost pass of this state, whose cost is not recorded, and
    ``yp = |x|^p``, the outputs of ``W = I``, both ``(N, I, J)``.
    """
    I, J, N, K = shape.n_bins, shape.n_frames, shape.n_sources, shape.n_bases
    W = np.tile(np.eye(N, dtype=np.complex128), (I, 1, 1))
    rng = np.random.default_rng(cfg.seed)
    T = EPS_NMF + (1.0 - EPS_NMF) * (1.0 - rng.random((N, I, K)))
    V = EPS_NMF + (1.0 - EPS_NMF) * (1.0 - rng.random((N, K, J)))
    # W^-1 = I, laid out bins last so that types._replace_row runs along the bins
    W_inv = np.tile(np.eye(N, dtype=np.complex128)[:, :, None], I).transpose(2, 0, 1)
    log_det = np.zeros(I)
    yp = _powered_magnitudes(xd, cfg.domain, np.empty((N, I, J)))
    inv_S = np.empty((N, I, J))
    ggd_cost_arrays(yp, log_det, T, V, inv_S, cfg.beta, cfg.domain)
    return W, T, V, W_inv, log_det, inv_S, yp


def _magnitudes_into(y_blk: np.ndarray, p: float, out_blk: np.ndarray) -> None:
    """Write ``|y|^p`` of a block of outputs ``(b, J, N)`` into ``out_blk`` ``(N, b, J)``."""
    np.abs(y_blk.transpose(2, 0, 1), out=out_blk)
    out_blk **= p


def _powered_magnitudes(y: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """Write ``|y|^p`` of the outputs ``y`` ``(I, J, N)`` into ``out`` ``(N, I, J)`` and
    return it.  Each block of bins reads its contiguous rows of ``y``; the blocks
    run one per part on the thread pool."""
    I, J, N = y.shape

    def part(blk):
        _magnitudes_into(y[blk], p, out[:, blk])

    blocks = bin_blocks(I, J * N)
    run_parts(part, blocks, threads(len(blocks), I * J * N))
    return out


def separate(
    xd: np.ndarray, W: np.ndarray, p: Optional[float] = None, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Apply per-bin demixing: ``y[i, j, n] = W[i, n, :] @ x[i, j, :]``.

    Without ``p``, returns the outputs as a C-contiguous complex ``(I, J, N)``
    array.  With ``p``, returns their ``|y|^p`` ``(N, I, J)`` instead, written into
    ``out`` or into a new array when ``out`` is ``None``: each block's outputs go to
    a block temporary and from there, as ``|y|`` raised to ``p`` in place, to their
    bins of the result, so no full-size complex output is formed.  Each bin is one
    real product: the mixture's ``(J, M)`` complex rows, read as ``(J, 2M)``
    interleaved real and imaginary parts, times ``W[i]^T`` written as the real
    ``(2M, 2N)`` matrix of 2x2 blocks ``[[Re, Im], [-Im, Re]]``, into the outputs
    read the same way.  A mixture that is not C-contiguous ``complex128`` is
    copied into one first.  The blocks of bins run one per part on the thread
    pool; each bin's product is the same in any block.
    """
    I, J, M = xd.shape
    N = W.shape[1]
    xr = np.ascontiguousarray(xd, dtype=np.complex128).view(np.float64)
    Wt = W.transpose(0, 2, 1)
    Wr = np.empty((I, M, 2, N, 2))
    Wr[:, :, 0, :, 0] = Wr[:, :, 1, :, 1] = Wt.real
    Wr[:, :, 0, :, 1] = Wt.imag
    Wr[:, :, 1, :, 0] = -Wt.imag
    Wr = Wr.reshape(I, 2 * M, 2 * N)
    if p is None:
        y = np.empty((I, J, N), dtype=np.complex128)
        yr = y.view(np.float64)

        def part(blk):
            np.matmul(xr[blk], Wr[blk], out=yr[blk])

    else:
        y = np.empty((N, I, J)) if out is None else out

        def part(blk):
            _magnitudes_into(np.matmul(xr[blk], Wr[blk]).view(np.complex128), p, y[:, blk])

    blocks = bin_blocks(I, J * N)
    run_parts(part, blocks, threads(len(blocks), I * J * N))
    return y


def back_project(yd: np.ndarray, W_inv: np.ndarray, reference_channel: int = 0) -> np.ndarray:
    """Fix the per-source scale by projecting onto a reference channel.

    ``y_hat[i, j, n] = W_inv[i, ref, n] * y[i, j, n]`` with ``W_inv`` the carried
    ``W^{-1}``; summing the result over sources reconstructs the reference
    channel of the observation.  The result is C-contiguous ``(I, J, N)`` whatever
    the layout of ``yd``; its blocks of bins are multiplied one per part on the
    thread pool.
    """
    I, J, N = yd.shape
    projected = np.empty((I, J, N), dtype=np.result_type(yd, W_inv))
    scale = W_inv[:, None, reference_channel, :]

    def part(blk):
        np.multiply(yd[blk], scale[blk], out=projected[blk])

    blocks = bin_blocks(I, J * N)
    run_parts(part, blocks, threads(len(blocks), I * J * N))
    return projected


def iteration_step(
    xd, W, T, V, cfg: GgdConfig, gram: Optional[np.ndarray], W_inv, log_det, inv_S, yp
):
    """One alternating-update round on raw state arrays (updated in place).

    Order: sweep of ``W`` alone, refresh of the outputs' ``|y|^p`` in ``yp``
    (:func:`separate` with ``p``), which feeds the basis update, the activation
    update and the cost; no full-size complex array is formed.  ``yp`` is
    ``|y|^p`` of the entry ``W`` on entry, which the IP sweep reads; the quartic
    sweep is handed ``|y~|^2`` of the entry ``W`` instead, in a real array of its
    own, so a quartic step separates twice and an IP step once, and borrows
    ``yp`` as its ``1 / r^2`` buffer until the refresh.  ``gram`` is the quartic
    scheme's cached :func:`~ggdilrma.demix_homogeneous.mixture_gram` of ``xd``.
    The sweep keeps ``W_inv`` (``W^{-1}``) and ``log_det`` (``log|det W_i|``) in
    step with ``W``, and the cost reads ``log_det``.  ``inv_S`` is ``1 / S`` of
    the scale field ``S = T V`` on entry; the sweep and the basis update read it,
    and the cost pass, which forms ``S`` of the updated factors, writes its
    reciprocal there for the next iteration.
    Returns ``(W, T, V, cost, skipped)``.
    """
    beta, p = cfg.beta, cfg.domain
    skipped = 0
    if cfg.update_scheme == "ip":
        W = ip_sweep(xd, yp, W, inv_S, beta, p, W_inv, log_det)
    else:
        # The anchor is |y~|^2 of the entry W; [::3] keeps W and the skip count.  The
        # sweep borrows yp for its 1 / r**2, and the refresh below overwrites it.
        W, skipped = quartic_sweep(
            gram, separate(xd, W, 2.0), W, inv_S, p, W_inv, log_det, yp
        )[::3]
    separate(xd, W, p, yp)  # |y|^p of the new W
    T = update_bases_arrays(T, V, inv_S, yp, beta, p)
    V = update_activations_arrays(T, V, yp, beta, p)
    cost = ggd_cost_arrays(yp, log_det, T, V, inv_S, beta, p)
    return W, T, V, cost, skipped


def run(
    x: MixtureSpectrogram,
    cfg: GgdConfig,
    reference_channel: int = 0,
    on_record: Optional[Callable[[TraceRecord], None]] = None,
) -> RunResult:
    """Run the configured number of alternating update iterations.

    Returns the back-projected source estimates together with the final
    demixing matrices, NMF factors, and per-iteration convergence trace.
    ``on_record`` is invoked with each trace record as it is produced
    (lets callers flush the trace even if a later iteration fails).
    Deterministic for fixed input, configuration, and seed.
    ``reference_channel`` must index a channel of ``x``
    (:class:`~ggdilrma.errors.DegenerateShape` otherwise, before any
    iteration runs).
    """
    shape = validate_problem(x, cfg)
    if not 0 <= reference_channel < shape.n_sources:
        raise DegenerateShape(
            f"reference channel {reference_channel} outside 0..{shape.n_sources - 1}"
        )
    xd = np.ascontiguousarray(x.data, dtype=np.complex128)
    W, T, V, W_inv, log_det, inv_S, yp = initialize(cfg, shape, xd)
    gram = mixture_gram(xd) if cfg.update_scheme == "quartic" else None

    records = []
    for it in range(1, cfg.iterations + 1):
        t0 = time.perf_counter()
        W, T, V, cost, skipped = iteration_step(xd, W, T, V, cfg, gram, W_inv, log_det, inv_S, yp)
        record = TraceRecord(it, cost, (time.perf_counter() - t0) * 1e3, skipped)
        records.append(record)
        if on_record is not None:
            on_record(record)

    del gram, inv_S, yp
    projected = back_project(separate(xd, W), W_inv, reference_channel)
    return RunResult(
        sources=SourceSpectrogram(data=projected),
        W=W,
        T=T,
        V=V,
        trace=ConvergenceTrace(records=records),
    )

"""Full separation runs: init, alternating updates, projection, tracing.

Each iteration runs two stages, each a majorize-minimize step on the cost.
The demixing stage, :func:`sweep_step`, makes (1) one sweep of ``W`` alone
(iterative projection for ``beta <= 2``, quartic majorization on the
mixture's per-frame outer products, cached per run, for ``beta == 4``) and
(2) the refresh of the separated outputs' ``|y|^p`` in place.  The
source-model stage, :func:`model_step`, makes (3) one basis update, (4) one
activation update and (5) the cost pass.  :func:`iteration_step` runs the
two in that order, and this module is the only place that writes the order
down; a different schedule is a different loop over the two stages.  No
full-size array is formed in an iteration.  The cost is recorded after every
iteration; the final complex output is rescaled in place by back-projection
onto a reference channel.

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
entry ``W`` instead, separated before the sweep into the buffer of ``yp``,
which it then overwrites with its ``1 / r^2`` and the refresh with ``|y|^p``,
so a quartic iteration separates twice and an IP iteration once, and neither
forms a full-size array.

Beside ``T`` and ``V`` the run carries ``inv_S = 1 / S`` of their scale
field ``S = T V`` ``(N, I, J)``, which the cost pass writes
(:mod:`~ggdilrma.source_model`): in :func:`initialize`, whose cost is not
recorded, and at the end of each iteration, so the next sweep and the next
basis update read ``1 / S`` of the factors that iteration returns.

Beside ``W`` the run carries its inverse and ``log|det W_i|``, from the
identity and zero.  Each sweep keeps them in step as it replaces rows
(:func:`~ggdilrma.demix_homogeneous._replace_row`), so the sweeps read
``W_i^{-1} e_n``, the cost reads the log-determinants and back-projection
reads a row of the inverse, and a separation makes no LAPACK call.

Every layer splits its work on the package's thread pool
(:func:`~ggdilrma.pool.run_parts`), above the measured crossover and only
where the process may run on more than one CPU.  Its parts follow the shape
alone: blocks of bins with every source in each for :func:`separate`, with
or without its power, :func:`back_project`, ``|x|^p`` in :func:`initialize`,
the mixture's features, the IP sweep's weights and factors, the quartic
sweep's passes over the frames and the basis update; by source and block of
one source's bins for the activation update and the cost, with its
``1 / S``, whose ``(b, K) @ (K, J)`` products would change their bits with
the rows ``b`` of a block, and whose sums over bins the calling thread adds
in the blocks' order once every part has finished.  Only the sweeps' per-bin
algebra, their shared per-source direction phase among it, stays on the
calling thread.  The parts run inside the layer calls, so every layer is
entered and left on the thread that called :func:`run`, and the run's bytes
do not depend on the number of CPUs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .demix_homogeneous import mixture_gram, quartic_sweep
from .demix_ip import ip_sweep
from .errors import DegenerateShape, NonFiniteCost
from .pool import bin_blocks, run_parts, threads
from .source_model import ggd_cost_arrays, update_activations_arrays, update_bases_arrays
from .types import (
    EPS_NMF,
    ConvergenceTrace,
    GgdConfig,
    MixtureSpectrogram,
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


def initialize(cfg: GgdConfig, xd: np.ndarray):
    """Identity demixing matrices, their inverses and zero log-determinants,
    uniform-random positive factors, the reciprocal of their scale field and the
    outputs' ``|y|^p`` for the mixture ``xd`` ``(I, J, N)``, with ``K =
    cfg.n_bases`` bases per source.

    Factor entries are i.i.d. uniform on ``(EPS_NMF, 1]``; the draw is
    deterministic for ``cfg.seed`` (bases first, then activations).
    Returns ``(W, T, V, W_inv, log_det, inv_S, yp)`` with ``inv_S = 1 / (T V)``,
    written by the cost pass of this state, whose cost is not recorded, and
    ``yp = |x|^p``, the outputs of ``W = I``, both ``(N, I, J)``.
    """
    I, J, N, K = *xd.shape, cfg.n_bases
    W = np.tile(np.eye(N, dtype=np.complex128), (I, 1, 1))
    rng = np.random.default_rng(cfg.seed)
    T = EPS_NMF + (1.0 - EPS_NMF) * (1.0 - rng.random((N, I, K)))
    V = EPS_NMF + (1.0 - EPS_NMF) * (1.0 - rng.random((N, K, J)))
    # W^-1 = I, laid out bins last so that the sweeps' row replacements run along the bins
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
    """Fix the per-source scale by projecting onto a reference channel, in place.

    ``y[i, j, n] *= W_inv[i, ref, n]`` with ``W_inv`` the carried ``W^{-1}``;
    summing the result over sources reconstructs the reference channel of the
    observation.  Returns ``yd``, the complex ``(I, J, N)`` outputs, scaled; its
    blocks of bins are multiplied one per part on the thread pool.
    """
    I, J, N = yd.shape
    scale = W_inv[:, None, reference_channel, :]

    def part(blk):
        np.multiply(yd[blk], scale[blk], out=yd[blk])

    blocks = bin_blocks(I, J * N)
    run_parts(part, blocks, threads(len(blocks), I * J * N))
    return yd


def sweep_step(xd, W, cfg: GgdConfig, gram: Optional[np.ndarray], W_inv, log_det, inv_S, yp):
    """The demixing stage on raw state arrays (updated in place): one sweep of ``W``
    alone, then the refresh of the outputs' ``|y|^p`` in ``yp`` (:func:`separate`
    with ``p``).

    ``yp`` is ``|y|^p`` of the entry ``W`` on entry, which the IP sweep reads; the
    quartic sweep reads ``|y~|^2`` of the entry ``W`` instead, separated into
    ``yp``, whose buffer it then overwrites with its ``1 / r^2`` until the
    refresh, so a quartic stage separates twice and an IP stage once.  ``gram`` is
    the quartic scheme's cached :func:`~ggdilrma.demix_homogeneous.mixture_gram`
    of ``xd``.  ``inv_S`` is ``1 / S`` of the scale field ``S = T V``; the sweep
    reads it.  The sweep keeps ``W_inv`` (``W^{-1}``) and ``log_det``
    (``log|det W_i|``) in step with ``W``.
    Returns ``(W, skipped)``, ``skipped`` the number of (bin, source) updates the
    sweep left untouched, under either rule.
    """
    if cfg.update_scheme == "ip":
        W, skipped = ip_sweep(xd, yp, W, inv_S, cfg.beta, cfg.domain, W_inv, log_det)
    else:
        # The anchor is |y~|^2 of the entry W, in yp; the sweep writes its 1 / r**2
        # there and the refresh below overwrites it.  [::3] keeps W and the skip count.
        anchor = separate(xd, W, 2.0, yp)
        W, skipped = quartic_sweep(gram, anchor, W, inv_S, cfg.domain, W_inv, log_det)[::3]
    separate(xd, W, cfg.domain, yp)  # |y|^p of the new W
    return W, skipped


def model_step(T, V, cfg: GgdConfig, log_det, inv_S, yp):
    """The source-model stage on raw state arrays: one basis update, one
    activation update and the cost pass, against the outputs' ``|y|^p`` in ``yp``
    and ``log_det`` (``log|det W_i|``), both read only.

    ``inv_S`` is ``1 / S`` of the scale field ``S = T V`` on entry; the basis
    update reads it, and the cost pass, which forms ``S`` of the updated factors,
    writes its reciprocal there for the next stage.  Returns ``(T, V, cost)``.
    """
    T = update_bases_arrays(T, V, inv_S, yp, cfg.beta, cfg.domain)
    V = update_activations_arrays(T, V, yp, cfg.beta, cfg.domain)
    return T, V, ggd_cost_arrays(yp, log_det, T, V, inv_S, cfg.beta, cfg.domain)


def iteration_step(
    xd, W, T, V, cfg: GgdConfig, gram: Optional[np.ndarray], W_inv, log_det, inv_S, yp
):
    """One alternating-update round on raw state arrays (updated in place): the
    demixing stage (:func:`sweep_step`), then the source-model stage
    (:func:`model_step`), whose cost is that of the state returned.

    The arguments are the two stages'.  Returns ``(W, T, V, cost, skipped)``,
    ``skipped`` the number of (bin, source) updates the sweep left untouched.
    """
    W, skipped = sweep_step(xd, W, cfg, gram, W_inv, log_det, inv_S, yp)
    T, V, cost = model_step(T, V, cfg, log_det, inv_S, yp)
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
    The first iteration whose cost is not finite raises
    :class:`~ggdilrma.errors.NonFiniteCost`, before its record is handed to
    ``on_record``.
    """
    validate_problem(x, cfg)
    xd = np.ascontiguousarray(x.data, dtype=np.complex128)
    N = xd.shape[2]
    if not 0 <= reference_channel < N:
        raise DegenerateShape(f"reference channel {reference_channel} outside 0..{N - 1}")
    W, T, V, W_inv, log_det, inv_S, yp = initialize(cfg, xd)
    gram = mixture_gram(xd) if cfg.update_scheme == "quartic" else None

    records = []
    for it in range(1, cfg.iterations + 1):
        t0 = time.perf_counter()
        W, T, V, cost, skipped = iteration_step(xd, W, T, V, cfg, gram, W_inv, log_det, inv_S, yp)
        if not np.isfinite(cost):
            raise NonFiniteCost(
                f"iteration {it} has cost {cost}; beta/p = {cfg.beta / cfg.domain:g} may overflow the model"
            )
        record = TraceRecord(it, cost, (time.perf_counter() - t0) * 1e3, skipped)
        records.append(record)
        if on_record is not None:
            on_record(record)

    del gram, inv_S, yp
    return RunResult(
        sources=SourceSpectrogram(data=back_project(separate(xd, W), W_inv, reference_channel)),
        W=W,
        T=T,
        V=V,
        trace=ConvergenceTrace(records=records),
    )

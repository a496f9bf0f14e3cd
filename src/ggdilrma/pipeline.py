"""Full separation runs: init, alternating updates, projection, tracing.

Each iteration performs, in order: (1) one demixing sweep of ``W`` alone
(iterative projection for ``beta <= 2``, quartic majorization on the
mixture's per-frame outer products, cached per run, for ``beta == 4``), (2)
refresh of the separated outputs' ``|y|^p`` in place, which feeds (3) one
basis update, (4) one activation update and (5) the cost; no full-size
per-iteration array outlives its use.  The cost is recorded after every
iteration; the final output is rescaled by back-projection onto a reference
channel.

Only this module forms separated outputs, all through :func:`separate`.
The run carries ``yp = |y|^p`` ``(N, I, J)`` of its outputs, formed at
entry as ``|x|^p`` (exact, as ``W = I`` there) and refreshed in place after
each sweep, so at every iteration boundary it is ``|y|^p`` of the current
``W``.  The NMF updates and the cost read it, and so does the
IP sweep, whose weights read the outputs of the ``W`` it is given only
where ``beta != 2``.  The quartic sweep reads the complex outputs of its
entry ``W``, separated before the sweep, so a quartic iteration separates
twice and an IP iteration once.  :func:`separate` lays its outputs out
sources first, so the quartic sweep's ``|y~|`` and the refresh of
``|y|^p`` read each source as one contiguous slab.

Beside ``T`` and ``V`` the run carries their scale field ``S = T V``
``(N, I, J)``.  :func:`initialize` forms it, and each iteration refreshes it
in place once, right after the activation update
(:func:`~ggdilrma.source_model.refresh_scale`), so this iteration's cost,
the next sweep and the next basis update all read that one product.

Beside ``W`` the run carries its inverse and ``log|det W_i|``, from the
identity and zero.  Each sweep keeps them in step as it replaces rows
(:func:`~ggdilrma.types._replace_row`), so the sweeps read ``W_i^{-1} e_n``,
the cost reads the log-determinants and back-projection reads a row of the
inverse, and a separation makes no LAPACK call.

Three layers that make no large BLAS call split their work on the package's
thread pool (:func:`~ggdilrma.types.run_parts`), above their measured
crossovers and only where the process may run on more than one CPU:
:func:`separate` and the quartic sweep's passes over the frames by bins, and
the refresh of ``|y|^p`` by source.  The IP sweep, the NMF updates, the scale
refresh and the cost run on the calling thread.  The parts run inside the
layer calls, so every layer is entered and left on the thread that called
:func:`run`, and the run's bytes do not depend on the number of CPUs.
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
from .source_model import refresh_scale, update_activations_arrays, update_bases_arrays
from .types import (
    EPS_NMF,
    ConvergenceTrace,
    GgdConfig,
    MixtureSpectrogram,
    ProblemShape,
    SourceSpectrogram,
    TraceRecord,
    bin_ranges,
    run_parts,
    source_parts,
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
    uniform-random positive factors, their scale field and the outputs'
    ``|y|^p`` for the mixture ``xd`` ``(I, J, N)``.

    Factor entries are i.i.d. uniform on ``(EPS_NMF, 1]``; the draw is
    deterministic for ``cfg.seed`` (bases first, then activations).
    Returns ``(W, T, V, W_inv, log_det, S, yp)`` with ``S = T V`` and
    ``yp = |x|^p``, the outputs of ``W = I``, both ``(N, I, J)``.
    """
    I, J, N, K = shape.n_bins, shape.n_frames, shape.n_sources, shape.n_bases
    W = np.tile(np.eye(N, dtype=np.complex128), (I, 1, 1))
    rng = np.random.default_rng(cfg.seed)
    T = EPS_NMF + (1.0 - EPS_NMF) * (1.0 - rng.random((N, I, K)))
    V = EPS_NMF + (1.0 - EPS_NMF) * (1.0 - rng.random((N, K, J)))
    # W^-1 = I, laid out bins last so that types._replace_row runs along the bins
    W_inv = np.tile(np.eye(N, dtype=np.complex128)[:, :, None], I).transpose(2, 0, 1)
    S = refresh_scale(T, V, np.empty((N, I, J)))
    yp = np.abs(np.moveaxis(xd, 2, 0), order="C")
    yp **= cfg.domain
    return W, T, V, W_inv, np.zeros(I), S, yp


def separate(xd: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Apply per-bin demixing: ``y[i, j, n] = W[i, n, :] @ x[i, j, :]``.

    The outputs are laid out sources first: the result is the ``(I, J, N)`` view
    of an ``(N, I, J)`` array, so ``np.moveaxis(y, 2, 0)`` is C-contiguous and
    each source's ``y[:, :, n]`` is one contiguous ``(I, J)`` slab.  No BLAS call
    takes that layout, so numpy runs one loop over all bins instead of one BLAS
    call per bin: over each range of bins of :func:`~ggdilrma.types.bin_ranges`,
    one range per part on the thread pool, whose per-bin products are the same.
    """
    I, J, _ = xd.shape
    N = W.shape[1]
    y = np.empty((N, I, J), dtype=np.result_type(xd, W)).transpose(1, 2, 0)
    Wt = W.transpose(0, 2, 1)

    def part(bins):
        np.matmul(xd[bins], Wt[bins], out=y[bins])

    run_parts(part, bin_ranges(I, J * N, "separate"))
    return y


def back_project(yd: np.ndarray, W_inv: np.ndarray, reference_channel: int = 0) -> np.ndarray:
    """Fix the per-source scale by projecting onto a reference channel.

    ``y_hat[i, j, n] = W_inv[i, ref, n] * y[i, j, n]`` with ``W_inv`` the carried
    ``W^{-1}``; summing the result over sources reconstructs the reference
    channel of the observation.  The result is C-contiguous ``(I, J, N)`` whatever
    the layout of ``yd``.
    """
    return np.multiply(yd, W_inv[:, None, reference_channel, :], order="C")


def iteration_step(xd, W, T, V, cfg: GgdConfig, gram: Optional[np.ndarray], W_inv, log_det, S, yp):
    """One alternating-update round on raw state arrays (updated in place).

    Order: sweep of ``W`` alone, refresh of the outputs' ``|y|^p`` in ``yp``
    (by source on the thread pool, above the crossover), which feeds the basis
    update, the activation update and the cost; no full-size array outlives its
    use.  ``yp`` is ``|y|^p`` of the entry ``W`` on entry, which the IP sweep
    reads; the quartic sweep is handed the outputs of the entry ``W`` instead,
    so a quartic step separates twice and an IP step once.  ``gram`` is the
    quartic scheme's cached
    :func:`~ggdilrma.demix_homogeneous.mixture_gram` of ``xd``.  The sweep keeps
    ``W_inv`` (``W^{-1}``) and ``log_det`` (``log|det W_i|``) in step with ``W``,
    and the cost reads ``log_det``.  ``S`` is the scale field ``T V`` on entry;
    the sweep and the basis update read it, and it is refreshed in place after
    the activation update, for the cost and the next iteration.
    Returns ``(W, T, V, cost, skipped)``.
    """
    beta, p = cfg.beta, cfg.domain
    skipped = 0
    if cfg.update_scheme == "ip":
        W = ip_sweep(xd, yp, W, S, beta, p, W_inv, log_det)
    else:
        # [::3] keeps W and the skip count; the anchor outputs are dropped.
        W, skipped = quartic_sweep(gram, separate(xd, W), W, S, p, W_inv, log_det)[::3]
    y = np.moveaxis(separate(xd, W), 2, 0)

    def refresh(ns):  # |y|^p of the new W, in place, for the sources ns
        yp_ns = yp[ns]
        np.abs(y[ns], out=yp_ns)
        yp_ns **= p

    N, I, J = yp.shape
    run_parts(refresh, source_parts(N, I * J))
    del y
    T = update_bases_arrays(T, V, S, yp, beta, p)
    V = update_activations_arrays(T, V, yp, beta, p)
    refresh_scale(T, V, S)
    cost = ggd_cost_arrays(yp, log_det, S, beta, p)
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
    W, T, V, W_inv, log_det, S, yp = initialize(cfg, shape, xd)
    gram = mixture_gram(xd) if cfg.update_scheme == "quartic" else None

    records = []
    for it in range(1, cfg.iterations + 1):
        t0 = time.perf_counter()
        W, T, V, cost, skipped = iteration_step(xd, W, T, V, cfg, gram, W_inv, log_det, S, yp)
        record = TraceRecord(it, cost, (time.perf_counter() - t0) * 1e3, skipped)
        records.append(record)
        if on_record is not None:
            on_record(record)

    del gram, yp
    projected = back_project(separate(xd, W), W_inv, reference_channel)
    return RunResult(
        sources=SourceSpectrogram(data=projected),
        W=W,
        T=T,
        V=V,
        trace=ConvergenceTrace(records=records),
    )

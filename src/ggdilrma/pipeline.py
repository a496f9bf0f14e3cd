"""Full separation runs: init, alternating updates, projection, tracing.

Each iteration performs, in order: (1) one demixing sweep of ``W`` alone
(iterative projection for ``beta <= 2``, quartic majorization on the
mixture's per-frame outer products, cached per run, for ``beta == 4``), (2)
recompute the separated magnitudes ``|y|``, which feed (3) one basis
update, (4) one activation update and (5) the cost; no full-size
per-iteration array outlives its use.  The cost is recorded after every
iteration; the final output is rescaled by back-projection onto a
reference channel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cost import ggd_cost_arrays
from .demix_homogeneous import mixture_gram, quartic_sweep
from .demix_ip import ip_sweep
from .errors import DegenerateShape, singular_demixing
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


def initialize(cfg: GgdConfig, shape: ProblemShape):
    """Identity demixing matrices and uniform-random positive factors.

    Factor entries are i.i.d. uniform on ``(EPS_NMF, 1]``; the draw is
    deterministic for ``cfg.seed`` (bases first, then activations).
    Returns ``(W, T, V)``.
    """
    I, J, N, K = shape.n_bins, shape.n_frames, shape.n_sources, shape.n_bases
    W = np.tile(np.eye(N, dtype=np.complex128), (I, 1, 1))
    rng = np.random.default_rng(cfg.seed)
    T = EPS_NMF + (1.0 - EPS_NMF) * (1.0 - rng.random((N, I, K)))
    V = EPS_NMF + (1.0 - EPS_NMF) * (1.0 - rng.random((N, K, J)))
    return W, T, V


def separate(xd: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Apply per-bin demixing: ``y[i, j, n] = W[i, n, :] @ x[i, j, :]``."""
    return xd @ W.transpose(0, 2, 1)


def back_project(yd: np.ndarray, W: np.ndarray, reference_channel: int = 0) -> np.ndarray:
    """Fix the per-source scale by projecting onto a reference channel.

    ``y_hat[i, j, n] = inv(W_i)[ref, n] * y[i, j, n]``; summing the result
    over sources reconstructs the reference channel of the observation.
    A singular ``W_i`` raises ``SingularDemixing`` naming its bin.
    """
    try:
        coeff = np.linalg.inv(W)[:, reference_channel, :]  # (I, N)
    except np.linalg.LinAlgError as exc:
        raise singular_demixing(np.abs(np.linalg.det(W))) from exc
    return yd * coeff[:, None, :]


def iteration_step(xd, W, T, V, cfg: GgdConfig, gram: Optional[np.ndarray]):
    """One alternating-update round on raw state arrays (updated in place).

    Order: sweep of ``W`` alone, refresh of the magnitudes ``abs_y``, which
    feed the basis update, the activation update and the cost; no full-size
    array outlives its use.  ``gram`` is
    the quartic scheme's cached :func:`~ggdilrma.demix_homogeneous.mixture_gram`
    of ``xd``.  Returns ``(W, T, V, cost, skipped)``.
    """
    beta, p = cfg.beta, cfg.domain
    skipped = 0
    if cfg.update_scheme == "ip":
        W = ip_sweep(xd, separate(xd, W), W, T, V, beta, p)
    else:
        # [::3] keeps W and the skip count; the anchor outputs are dropped.
        W, skipped = quartic_sweep(xd, separate(xd, W), W, T, V, p, gram)[::3]
    abs_y = np.abs(np.moveaxis(separate(xd, W), 2, 0), order="C")  # (N, I, J)
    T = update_bases_arrays(T, V, abs_y, beta, p)
    V = update_activations_arrays(T, V, abs_y, beta, p)
    cost = ggd_cost_arrays(abs_y, W, T, V, beta, p)
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
    W, T, V = initialize(cfg, shape)
    xd = np.ascontiguousarray(x.data, dtype=np.complex128)
    gram = mixture_gram(xd) if cfg.update_scheme == "quartic" else None

    records = []
    for it in range(1, cfg.iterations + 1):
        t0 = time.perf_counter()
        W, T, V, cost, skipped = iteration_step(xd, W, T, V, cfg, gram)
        record = TraceRecord(it, cost, (time.perf_counter() - t0) * 1e3, skipped)
        records.append(record)
        if on_record is not None:
            on_record(record)

    del gram
    projected = back_project(separate(xd, W), W, reference_channel)
    return RunResult(
        sources=SourceSpectrogram(data=projected),
        W=W,
        T=T,
        V=V,
        trace=ConvergenceTrace(records=records),
    )

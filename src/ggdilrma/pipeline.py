"""Full separation runs: init, alternating updates, projection, tracing.

Each iteration performs, in order: (1) refresh the scale field from the
current factors, (2) one demixing sweep (iterative projection for
``beta <= 2``, quartic majorization for ``beta == 4``), (3) recompute the
separated signal, (4) one basis update, (5) one activation update.  The
cost is recorded after every iteration; the final output is rescaled by
back-projection onto a reference channel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cost import ggd_cost_arrays
from .demix_homogeneous import quartic_sweep
from .demix_ip import ip_sweep
from .errors import SingularDemixing
from .source_model import scale_field, update_activations_arrays, update_bases_arrays
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


def initialize(cfg: GgdConfig, shape: ProblemShape, seed: Optional[int] = None):
    """Identity demixing matrices and uniform-random positive factors.

    Factor entries are i.i.d. uniform on ``(EPS_NMF, 1]``; the draw is
    deterministic for a given seed (bases first, then activations).
    Returns ``(W, T, V)``.
    """
    if seed is None:
        seed = cfg.seed
    I, J, N, K = shape.n_bins, shape.n_frames, shape.n_sources, shape.n_bases
    W = np.tile(np.eye(N, dtype=np.complex128), (I, 1, 1))
    rng = np.random.default_rng(seed)
    T = EPS_NMF + (1.0 - EPS_NMF) * (1.0 - rng.random((N, I, K)))
    V = EPS_NMF + (1.0 - EPS_NMF) * (1.0 - rng.random((N, K, J)))
    return W, T, V


def separate(xd: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Apply per-bin demixing: ``y[i, j, n] = W[i, n, :] @ x[i, j, :]``."""
    return np.einsum("inm,ijm->ijn", W, xd)


def back_project(yd: np.ndarray, W: np.ndarray, reference_channel: int = 0) -> np.ndarray:
    """Fix the per-source scale by projecting onto a reference channel.

    ``y_hat[i, j, n] = inv(W_i)[ref, n] * y[i, j, n]``; summing the result
    over sources reconstructs the reference channel of the observation.
    """
    try:
        coeff = np.linalg.inv(W)[:, reference_channel, :]  # (I, N)
    except np.linalg.LinAlgError as exc:
        raise SingularDemixing(str(exc)) from exc
    return yd * coeff[:, None, :]


def iteration_step(xd: np.ndarray, W: np.ndarray, T: np.ndarray, V: np.ndarray, cfg: GgdConfig):
    """One alternating-update round on raw state arrays (updated in place).

    Order: scale field refresh, demixing sweep, separated-signal refresh,
    basis update, activation update.  Returns ``(W, T, V, cost, skipped)``.
    """
    beta, p = cfg.beta, cfg.domain
    S = scale_field(T, V)  # r**p, (I, J, N)
    yd = separate(xd, W)
    skipped = 0
    if cfg.update_scheme == "ip":
        W, yd, _ = ip_sweep(xd, yd, W, S, beta, p)
    else:
        radius = S ** (1.0 / p)
        W, yd, _, skipped = quartic_sweep(xd, yd, W, radius)
    yd = separate(xd, W)
    abs_y = np.abs(np.moveaxis(yd, 2, 0))
    T, V = update_bases_arrays(T, V, abs_y, beta, p)
    T, V = update_activations_arrays(T, V, abs_y, beta, p)
    cost = ggd_cost_arrays(xd, W, T, V, beta, p)
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
    """
    shape = validate_problem(x, cfg)
    W, T, V = initialize(cfg, shape)
    xd = np.ascontiguousarray(x.data, dtype=np.complex128)

    records = []
    for it in range(1, cfg.iterations + 1):
        t0 = time.perf_counter()
        W, T, V, cost, skipped = iteration_step(xd, W, T, V, cfg)
        record = TraceRecord(
            iteration=it,
            cost=cost,
            elapsed_ms=(time.perf_counter() - t0) * 1e3,
            skipped_updates=skipped,
        )
        records.append(record)
        if on_record is not None:
            on_record(record)

    projected = back_project(separate(xd, W), W, reference_channel)
    return RunResult(
        sources=SourceSpectrogram(data=projected),
        W=W,
        T=T,
        V=V,
        trace=ConvergenceTrace(records=records),
    )

"""Iterative-projection demixing updates for shapes 0 < beta <= 2.

For these shapes the weighted arithmetic-geometric-mean inequality

    |y|^beta <= (beta/2) |y|^2 / alpha^(2-beta) + (1 - beta/2) alpha^beta

(tight at ``alpha = |y|``) turns the per-filter cost into a quadratic form
``w^H F w`` plus the log-determinant term, so each filter has the closed
coordinate-descent update::

    F_in = (beta / 2J) sum_j x_ij x_ij^H / (|y_ijn|^(2-beta) S_ijn^(beta/p))
    w    <- F_in^{-1} W_i^{-1} e_n
    w    <- w / sqrt(w^H F_in w)

At ``beta = p = 2`` this is exactly the Itakura-Saito variant.  Frequency
bins are independent; within one bin the sources are updated sequentially
against the freshest demixing matrix.  The sweep runs in two phases.  First
it streams over blocks of bins (:func:`~ggdilrma.pool.bin_blocks`), so its
frame-length temporaries stay cache-sized, and forms every source's weights,
weighted factor ``R`` (below) and ``det F`` at once: no source's weights read
another source's row.  Its blocks hold ``BLOCK_ENTRIES`` entries over all
sources, and above the crossover they run one per part on the package's
thread pool (:func:`~ggdilrma.pool.run_parts`); every per-bin product is the
same in any block.  A singular covariance is raised after the blocks, at the
first (block, source) that has one; the blocks follow the shape alone, so
the error does not depend on the number of CPUs, and it comes before any row
changes.  Then it updates the sources in turn, each over all bins at once,
on the calling thread, so numpy's per-call cost is paid once per source, not
once per block: the solve, the norm check and the write-back.  An update
that would make ``W_i`` singular is raised at the lowest such bin of the
source being updated.  Both errors name the bin in the whole problem, and
the result does not depend on the block size.
The sweep reads ``1 / S`` of the scale field ``S = T V``, which the
pipeline carries from the cost pass of the last factor update
(:func:`~ggdilrma.cost.ggd_cost_arrays`), and raises a copy of it to
``beta/p`` with no divide; only ``W`` is updated: source ``n``'s weights
read ``y_n`` alone, the output of the ``W`` the sweep was given, which no
other source's update changes.
The sweep reads that anchor as ``|y|^p``, the magnitudes the pipeline
carries for the NMF updates, floored at ``EPS_Y**p`` as they floor it, and
raises them to ``(beta - 2)/p``; it forms no output itself.  At
``beta = 2`` the AM-GM bound is exact, and the weights
``S^(-beta/p) beta/(2J)`` read no ``y`` at all.

``F`` is never formed.  It is ``A^H A`` for the weighted observation ``A``
(row ``j`` is ``c_j^(1/2) x_j^H``, ``c_j`` the weight above), and the sweep
solves through the triangular factor ``R`` of ``A``: ``F = R^H R``, so
``w = R^{-1} z`` with ``z = R^{-H} W_i^{-1} e_n`` and ``w^H F w = ||R w||^2
= ||z||^2`` is nonnegative by construction, even when a single floored
frame dominates ``F``.  An ``F`` formed from the outer products instead
squares the condition number of ``A``, and its ``det F`` drops below
``EPS_DET`` or turns negative once a scene collapses (test_pipeline's
``test_ip_runs_clean_on_collapsing_scenes``).

``R`` comes from modified Gram-Schmidt over the ``M`` columns of the
block's weighted observation, batched over its bins and sources.  With
``u_m`` the residual of channel ``m`` (``x_m`` at the start), step ``k``
takes

    r_kk^2    = sum_j c_j |u_kj|^2
    r_kk r_km = sum_j c_j u_kj conj(u_mj)        (m > k)
    u_m      <- u_m - u_k conj(r_km) / r_kk

so each ``r_kk`` is the weighted norm of an explicit residual, never a
Schur complement such as ``F_11 - |F_01|^2 / F_00``: that difference of
two large numbers loses what a dominant frame contributes to both, the
same squaring of the condition number, whereas modified Gram-Schmidt
gives a backward-stable ``R`` like Householder QR (Bjorck, BIT 7, 1967).
The residual reads a silent bin's zero ``r_kk`` as 1, and ``det F =
(prod_k r_kk)^2`` is taken against ``EPS_DET`` before anything divides
by an ``r_kk``.  The two triangular systems are solved by substitution in
:func:`~ggdilrma.types._substitute`, with ``W_i^{-1} e_n`` read from the
inverse that the pipeline carries beside ``W``.  The new row multiplies
``det W_i`` by ``||z||``, which is checked to be positive before ``w`` is
divided by it, and :func:`~ggdilrma.types._replace_row` writes it and
updates the carried inverse and ``log|det W_i|``.  The quartic sweep shares
both helpers, with the Cholesky factor of its majorizer in place of ``R``.
The sweep makes no LAPACK call.

The per-filter form of this update (``ip_update_filter``), the weighted
covariance it solves against (``weighted_covariance``) and the AM-GM gap
(``am_gm_gap``) live in ``tests/reference_ip.py`` as test oracles.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularCovariance, SingularDemixing, UnsupportedBeta
from .source_model import _power
from .pool import bin_blocks, run_parts, threads
from .types import EPS_DET, EPS_Y, _replace_row, _substitute


def _ip_weights(yp, inv_S, beta, domain):
    """Per-frame weights ``S^(-beta/p) |y|^(beta-2)`` from ``inv_S = 1 / S`` and
    ``yp = |y|^p``, floored at ``EPS_Y**p``; ``yp`` is read only when ``beta != 2``."""
    wgt = _power(inv_S.copy(), beta / domain)  # S^(-beta/p)
    if beta != 2.0:
        abs_y = np.maximum(yp, EPS_Y**domain)  # raised in place
        abs_y **= (beta - 2.0) / domain
        wgt *= abs_y
    return wgt


def _weighted_factor(xb, wgt):
    """Upper triangular ``R`` ``(..., b, M, M)``, with a real diagonal, of the weighted
    observation of a block ``xb`` ``(b, J, M)`` against each of the weights ``wgt``
    ``(..., b, J)``, by modified Gram-Schmidt over its columns."""
    M = xb.shape[2]
    R = np.zeros(wgt.shape[:-1] + (M, M), dtype=np.complex128)
    u = [xb[:, :, m] for m in range(M)]  # the residuals, strided views at first
    for k in range(M):
        cu = u[k] * wgt
        r_sq = np.vecdot(u[k], cu).real
        f = [np.vecdot(u[m], cu) for m in range(k + 1, M)]  # r_kk r_km
        del cu  # the residuals below reuse its memory
        R[..., k, k] = np.sqrt(r_sq)
        r_sq = np.where(r_sq > 0.0, r_sq, 1.0)  # a silent bin's zero r_kk read as 1
        for m, f_m in enumerate(f, k + 1):
            R[..., k, m] = f_m / np.sqrt(r_sq)
            res = u[k] * (f_m.conj() / r_sq)[..., None]
            u[m] = np.subtract(u[m], res, out=res)
    return R


def ip_sweep(xd, yp, W, inv_S, beta: float, domain: float, W_inv, log_det):
    """One full update of all filters, batched over frequency bins.

    Args:
        xd: mixture ``(I, J, N)``; read only.
        yp: ``|y|^p`` ``(N, I, J)`` of the outputs ``y = W x`` of ``W`` on entry;
            read only, and only where ``beta != 2``.
        W: demixing matrices ``(I, N, N)``; updated in place.
        inv_S: ``1 / S`` of the scale field ``S = r**p = T V`` ``(N, I, J)``; read
            only.
        W_inv, log_det: ``W^{-1}`` ``(I, N, N)`` and ``log|det W_i|`` ``(I,)``,
            kept in step with ``W`` in place.

    Returns:
        ``W``, each updated filter normalized to ``w^H F w = 1`` against the
        weighted covariance ``F`` of its source's outputs ``y = W x`` under the
        ``W`` of entry.

    Raises:
        SingularCovariance: at the first (block, source) whose ``det F`` is at
            most ``EPS_DET``, before any row changes.
        SingularDemixing: at the lowest bin where a source's update would make
            ``W_i`` singular; the sources before it have been updated.
    """
    if not (0.0 < beta <= 2.0):
        raise UnsupportedBeta(f"iterative projection requires 0 < beta <= 2, got {beta}")
    I, J, N = xd.shape
    # Frame-length work per block: every source's weights and factor at once.
    R = np.empty((N, I, N, N), dtype=np.complex128)
    det_f = np.empty((N, I))

    def factor(blk):
        wgt = _ip_weights(yp[:, blk], inv_S[:, blk], beta, domain)
        wgt *= beta / (2.0 * J)
        R[:, blk] = Rb = _weighted_factor(xd[blk], wgt)
        det_f[:, blk] = np.prod(Rb.diagonal(axis1=2, axis2=3).real, axis=2) ** 2

    blocks = bin_blocks(I, J * N)
    run_parts(factor, blocks, threads(len(blocks), I * J * N))
    singular = det_f <= EPS_DET
    if np.any(singular):
        blk, n = next((b, n) for b in blocks for n in range(N) if np.any(singular[n, b]))
        bad = blk.start + int(np.argmin(det_f[n, blk]))
        raise SingularCovariance(f"weighted covariance singular at bin {bad}, source {n}")
    # The per-bin solves, once per source over all bins, against the freshest W^{-1}.
    for n in range(N):
        w, z = _substitute(R[n], W_inv[:, :, n])
        norm_z = np.sqrt(np.vecdot(z, z).real)  # ||R w||, and the factor det W_i takes
        failed = ~(norm_z > 0.0)
        if np.any(failed):
            bad = int(np.argmax(failed))
            raise SingularDemixing(f"demixing matrix would turn singular at bin {bad}, source {n}")
        _replace_row(W, W_inv, log_det, n, (w / norm_z[:, None]).conj())
    return W

"""Iterative-projection demixing updates for shapes 0 < beta <= 2.

For these shapes the weighted arithmetic-geometric-mean inequality

    |y|^beta <= (beta/2) |y|^2 / alpha^(2-beta) + (1 - beta/2) alpha^beta

(tight at ``alpha = |y|``) turns the per-filter cost into a quadratic form
``w^H F w`` plus the log-determinant term, so each filter has the closed
coordinate-descent update::

    F_in = (beta / 2J) sum_j x_ij x_ij^H / (|y_ijn|^(2-beta) S_ijn^(beta/p))
    w    <- F_in^{-1} W_i^{-1} e_n
    w    <- w / sqrt(w^H F_in w)

At ``beta = p = 2`` this is exactly the Itakura-Saito variant.  ``w^H F w``
is homogeneous of degree 2, so this is the ``d = 2`` case of the
direction-and-scale update of :mod:`~ggdilrma.demix_homogeneous`, whose
direction and scale phases the sweep shares: this module brings the weights,
the factor ``R`` of ``F = R^H R`` and the scale ``1 / ||z||``, with
``w^H F w = ||R w||^2 = ||z||^2`` from the direction phase.  A direction the
phase skips is counted and its row kept, as in the quartic sweep.

The weights read ``1 / S`` of the scale field ``S = T V``, which the
pipeline carries from the cost pass of the last factor update
(:func:`~ggdilrma.source_model.ggd_cost_arrays`), and raise a copy of it to
``beta/p`` with no divide.  Where ``beta != 2`` they also read the anchor
outputs ``y`` of the ``W`` the sweep was given, as ``|y|^p``, the
magnitudes the pipeline carries for the NMF updates, floored at ``EPS_Y**p``
as they floor it, and raised to ``(beta - 2)/p``; the sweep forms no output
itself.  At ``beta = 2`` the AM-GM bound is exact, and the weights
``S^(-beta/p) beta/(2J)`` read no ``y`` at all.  Source ``n``'s weights read
``y_n`` alone, which no other source's update changes.

``F`` is never formed.  It is ``A^H A`` for the weighted observation ``A``
(row ``j`` is ``c_j^(1/2) x_j^H``, ``c_j`` the weight above), and the sweep
works with the triangular factor ``R`` of ``A``, so ``||z||^2`` is
nonnegative by construction, even when a single floored frame dominates
``F``.  An ``F`` formed from the outer products instead squares the
condition number of ``A``, and its ``det F`` drops below ``EPS_DET`` or
turns negative once a scene collapses (test_pipeline's
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
by an ``r_kk``.  A factor that is not finite, as where a large ``beta/p``
overflows the weights, is singular too; numpy's warnings on the way to it are
silenced, as the raise names it.

The sweep streams over blocks of bins (:func:`~ggdilrma.pool.bin_blocks`),
so its frame-length temporaries stay cache-sized, and forms every source's
weights, factor ``R`` and ``det F`` at once: no source's weights read
another source's row.  Its blocks hold ``BLOCK_ENTRIES`` entries over all
sources, and above the crossover they run one per part on the package's
thread pool (:func:`~ggdilrma.pool.run_parts`); every per-bin product is the
same in any block.  A singular covariance is raised after the blocks, at the
first (block, source) that has one, naming the bin in the whole problem; the
blocks follow the shape alone, so the error does not depend on the number of
CPUs, and it comes before any row changes.  The direction and scale phases
then run on the calling thread over all bins at once, so the result does not
depend on the block size.

The per-filter form of this update (``ip_update_filter``), the weighted
covariance it solves against (``weighted_covariance``) and the AM-GM gap
(``am_gm_gap``) live in ``tests/reference_ip.py`` as test oracles.
"""

from __future__ import annotations

import numpy as np

from .demix_homogeneous import _row_sweep, _scale_rows
from .errors import SingularCovariance, UnsupportedBeta
from .source_model import _power
from .pool import bin_blocks, run_parts, threads
from .types import EPS_DET, EPS_Y


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
        ``(W, n_skipped)``: ``W`` with each updated filter normalized to
        ``w^H F w = 1`` against the weighted covariance ``F`` of its source's
        outputs ``y = W x`` under the ``W`` of entry, and the number of
        (bin, source) updates skipped because their direction was degenerate
        (``||z||^2`` not positive), whose rows are left as they were.

    Raises:
        SingularCovariance: at the first (block, source) whose factor ``R`` is
            not finite or whose ``det F`` is at most ``EPS_DET``, before any row
            changes; the message gives ``beta/p``, as a large one underflows or
            overflows the weights ``S^(-beta/p)``.
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
        with np.errstate(over="ignore", invalid="ignore"):  # a factor not finite raises below
            R[:, blk] = Rb = _weighted_factor(xd[blk], wgt)
            det_f[:, blk] = np.prod(Rb.diagonal(axis1=2, axis2=3).real, axis=2) ** 2

    blocks = bin_blocks(I, J * N)
    run_parts(factor, blocks, threads(len(blocks), I * J * N))
    if not np.isfinite(R).all():  # singular, and named before a finite one
        det_f[~np.isfinite(R).all(axis=(2, 3))] = -np.inf
    singular = det_f <= EPS_DET
    if np.any(singular):
        blk, n = next((b, n) for b in blocks for n in range(N) if np.any(singular[n, b]))
        bad = blk.start + int(np.argmin(det_f[n, blk]))
        raise SingularCovariance(
            f"weighted covariance singular (its weights are S^(-beta/p), beta/p ="
            f" {beta / domain:g}) at bin {bad}, source {n}"
        )
    # The directions, then the degree-2 scale 1 / ||z||, where w^H F w = ||z||^2.
    good = np.ones((N, I), dtype=bool)
    z2 = _row_sweep(R, good, W, W_inv, log_det)
    _scale_rows(W, W_inv, log_det, 1.0 / np.sqrt(np.where(good, z2, 1.0)))
    return W, int(np.sum(~good))

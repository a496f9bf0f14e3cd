"""Iterative-projection demixing updates for shapes 0 < beta <= 2.

For these shapes the weighted arithmetic-geometric-mean inequality

    |y|^beta <= (beta/2) |y|^2 / alpha^(2-beta) + (1 - beta/2) alpha^beta

(tight at ``alpha = |y|``) turns the per-filter cost into a quadratic form
``w^H F w`` plus the log-determinant term, so each filter has the closed
coordinate-descent update::

    F_in = (beta / 2J) sum_j x_ij x_ij^H / (|y_ijn|^(2-beta) S_ijn^(beta/p))
    w    <- solve(F_in, solve(W_i, e_n))
    w    <- w / sqrt(w^H F_in w)

At ``beta = p = 2`` this is exactly the Itakura-Saito variant.  Frequency
bins are independent; within one bin the sources are updated sequentially
against the freshest demixing matrix.  The sweep streams over blocks of
bins (:func:`~ggdilrma.types.bin_blocks`), every source of a block in turn,
so its temporaries stay cache-sized and its result does not depend on the
block size; a singular covariance or demixing matrix is reported by its
bin in the whole problem and the source being updated.
``S = T V`` is formed once per block, and only ``W`` is updated: source
``n``'s weights read ``y_n`` alone, which no other source's update changes.

``F`` is never formed.  It is ``A^H A`` for the weighted observation ``A``
(row ``j`` is ``c_j^(1/2) x_j^H``, ``c_j`` the weight above), and the sweep
solves through the triangular factor ``R`` of ``A``: ``F = R^H R``, so
``w = R^{-1} z`` with ``z = R^{-H} W_i^{-1} e_n`` and ``w^H F w = ||R w||^2
= ||z||^2`` is nonnegative by construction, even when a single floored
frame dominates ``F``.  An ``F`` formed from the outer products instead
squares the condition number of ``A``, and its ``det F`` drops below
``EPS_DET`` or turns negative once a scene collapses (test_pipeline's
``test_ip_runs_clean_on_collapsing_scenes``).

For two sources (``N = 2``) ``R`` comes in closed form from two-column
modified Gram-Schmidt over the block's frames:

    r00^2   = sum_j c_j |x_0j|^2
    r00 r01 = sum_j c_j x_0j conj(x_1j)
    r11^2   = sum_j c_j |x_1j - x_0j conj(r01) / r00|^2

The last is the weighted norm of the explicit residual, never the Schur
complement ``F_11 - |F_01|^2 / F_00``: that difference of two large
numbers loses what a dominant frame contributes to both, the same
squaring of the condition number, whereas modified Gram-Schmidt gives a
backward-stable ``R`` like Householder QR (Bjorck, BIT 7, 1967).
``W_i^{-1} e_n`` is the adjugate's column over ``det W_i``, and the two
triangular solves are two divisions each; a two-source sweep makes no
LAPACK call.  For ``N > 2`` ``R`` is a batched ``numpy.linalg.qr`` and the
solves are batched LAPACK.  Both paths take ``det F = (prod_m r_mm)^2``
against ``EPS_DET`` before the solves divide by any ``r_mm``; the residual
reads a silent bin's ``r00 = 0`` as 1, so nothing divides by zero first.

The per-filter form of this update (``ip_update_filter``), the weighted
covariance it solves against (``weighted_covariance``) and the AM-GM gap
(``am_gm_gap``) live in ``tests/reference_ip.py`` as test oracles.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularCovariance, UnsupportedBeta, singular_demixing
from .source_model import _whitened_ratio, block_scale
from .types import EPS_DET, EPS_Y, _adjugate_column, bin_blocks


def _ip_weights(abs_y, S, beta, domain):
    """Per-frame weights ``1 / (|y|^(2-beta) S^(beta/p))`` with |y| floored."""
    ay = np.maximum(abs_y, EPS_Y)
    return _whitened_ratio(ay, S, beta, domain) / ay**2


def _check_covariance(det_f, first_bin, n):
    """Raise ``SingularCovariance`` naming the bin of the smallest ``det F`` in the
    whole problem (``det_f[0]`` is bin ``first_bin``) if any is below the floor."""
    if np.any(det_f <= EPS_DET):
        bad = first_bin + int(np.argmin(det_f))
        raise SingularCovariance(f"weighted covariance singular at bin {bad}, source {n}")


def _gram_schmidt_2x2(xb, wgt):
    """``(r00, r00 r01, r11)``, ``(b,)`` each, of ``R`` for the weighted observation
    of a two-channel block ``xb`` ``(b, J, 2)`` against the weights ``wgt``
    ``(b, J)``, by two-column modified Gram-Schmidt; ``r00`` and ``r11`` are real."""
    x0, x1 = xb[:, :, 0], xb[:, :, 1]
    cx0 = x0 * wgt
    r00_sq, f01 = np.vecdot(x0, cx0).real, np.vecdot(x1, cx0)
    del cx0
    # the residual x1 - x0 conj(r01) / r00, a silent bin's zero r00 read as 1
    res = x0 * (f01.conj() / np.where(r00_sq > 0.0, r00_sq, 1.0))[:, None]
    np.subtract(x1, res, out=res)
    res_sq = np.abs(res)
    res_sq *= res_sq
    return np.sqrt(r00_sq), f01, np.sqrt(np.vecdot(wgt, res_sq))


def _ip_filter_2x2(xb, wgt, Wb, n, first_bin):
    """Updated filters ``w`` ``(b, 2)`` of source ``n`` for two sources, in closed form."""
    r00, f01, r11 = _gram_schmidt_2x2(xb, wgt)
    _check_covariance((r00 * r11) ** 2, first_bin, n)
    (v0, v1), det_w = _adjugate_column(Wb, n, first_bin)
    r01 = f01 / r00
    z0 = v0 / (det_w * r00)  # R^H z = W^{-1} e_n
    z1 = (v1 / det_w - r01.conj() * z0) / r11
    w1 = z1 / r11  # R w = z
    w0 = (z0 - r01 * w1) / r00
    norm = np.sqrt(z0.real**2 + z0.imag**2 + z1.real**2 + z1.imag**2)  # ||R w||
    return np.stack([w0, w1], axis=1) / norm[:, None]


def _ip_filter_qr(xb, wgt, Wb, n, first_bin):
    """:func:`_ip_filter_2x2` for any number of sources, through a batched QR."""
    N = Wb.shape[1]
    A = xb.conj()
    A *= np.sqrt(wgt)[:, :, None]
    R = np.linalg.qr(A, mode="r")
    _check_covariance(np.prod(np.abs(np.diagonal(R, axis1=1, axis2=2)), axis=1) ** 2, first_bin, n)
    rhs = np.broadcast_to(np.eye(N, dtype=np.complex128)[n][:, None], (len(R), N, 1))
    try:
        c = np.linalg.solve(Wb, rhs)[..., 0]  # W^{-1} e_n
    except np.linalg.LinAlgError as exc:
        raise singular_demixing(np.abs(np.linalg.det(Wb)), first_bin, n) from exc
    z = np.linalg.solve(R.conj().transpose(0, 2, 1), c[:, :, None])
    w = np.linalg.solve(R, z)[..., 0]
    Rw = (R @ w[:, :, None])[..., 0]  # w^H F w = ||R w||^2
    norm = np.sqrt(np.sum(np.abs(Rw) ** 2, axis=1))
    return w / norm[:, None]


def ip_sweep(xd, yd, W, T, V, beta: float, domain: float):
    """One full update of all filters, batched over frequency bins.

    Args:
        xd: mixture ``(I, J, M)``.
        yd: separated signal ``(I, J, N)`` of ``W`` on entry; read only.
        W: demixing matrices ``(I, N, N)``; updated in place.
        T, V: NMF factors; ``S = r**p = T V`` is formed a block at a time.

    Returns:
        ``W``, each updated filter normalized to ``w^H F w = 1`` against the
        weighted covariance ``F`` of its source's outputs in ``yd``.
    """
    if not (0.0 < beta <= 2.0):
        raise UnsupportedBeta(f"iterative projection requires 0 < beta <= 2, got {beta}")
    I, J, N = yd.shape
    update = _ip_filter_2x2 if N == 2 else _ip_filter_qr
    for blk in bin_blocks(I, J):
        xb, yb, Wb = xd[blk], yd[blk], W[blk]
        S = block_scale(T, V, blk)
        for n in range(N):
            wgt = _ip_weights(np.abs(yb[:, :, n]), S[n], beta, domain)
            wgt *= beta / (2.0 * J)
            Wb[:, n, :] = update(xb, wgt, Wb, n, blk.start).conj()
    return W

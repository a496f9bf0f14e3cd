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

The per-filter form of this update (``ip_update_filter``), the weighted
covariance it solves against (``weighted_covariance``) and the AM-GM gap
(``am_gm_gap``) live in ``tests/reference_ip.py`` as test oracles.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularCovariance, UnsupportedBeta, singular_demixing
from .source_model import _whitened_ratio, block_scale
from .types import EPS_DET, EPS_Y, bin_blocks


def _ip_weights(abs_y, S, beta, domain):
    """Per-frame weights ``1 / (|y|^(2-beta) S^(beta/p))`` with |y| floored."""
    ay = np.maximum(abs_y, EPS_Y)
    return _whitened_ratio(ay, S, beta, domain) / ay**2


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
    eye = np.eye(N, dtype=np.complex128)
    for blk in bin_blocks(I, J):
        xb, yb, Wb = xd[blk], yd[blk], W[blk]
        S = block_scale(T, V, blk)
        for n in range(N):
            wgt = _ip_weights(np.abs(yb[:, :, n]), S[n], beta, domain)
            # F = A^H A with A the weighted observation; solving through the
            # triangular factor of A halves the condition number of a direct
            # F solve and keeps w^H F w = ||R w||^2 nonnegative by
            # construction even when a single floored frame dominates.  An F
            # formed from the mixture_gram features squares that condition
            # number, and its det F drops below EPS_DET or turns negative once
            # a scene collapses (test_pipeline's
            # test_ip_runs_clean_on_collapsing_scenes; ROADMAP Direction 4).
            A = xb.conj()
            A *= np.sqrt(wgt * (beta / (2.0 * J)))[:, :, None]
            R = np.linalg.qr(A, mode="r")
            absdet_F = np.prod(np.abs(np.diagonal(R, axis1=1, axis2=2)), axis=1) ** 2
            if np.any(absdet_F <= EPS_DET):
                bad = blk.start + int(np.argmin(absdet_F))
                raise SingularCovariance(
                    f"weighted covariance singular at bin {bad}, source {n}"
                )
            rhs = np.broadcast_to(eye[n][:, None], (len(R), N, 1))
            try:
                c = np.linalg.solve(Wb, rhs)[..., 0]  # W^{-1} e_n
            except np.linalg.LinAlgError as exc:
                raise singular_demixing(np.abs(np.linalg.det(Wb)), blk.start, n) from exc
            z = np.linalg.solve(R.conj().transpose(0, 2, 1), c[:, :, None])
            w = np.linalg.solve(R, z)[..., 0]
            Rw = (R @ w[:, :, None])[..., 0]  # w^H F w = ||R w||^2
            norm = np.sqrt(np.sum(np.abs(Rw) ** 2, axis=1))
            w /= norm[:, None]
            Wb[:, n, :] = w.conj()
    return W

"""Direction/scale-decomposed demixing update for the quartic source cost.

When the per-filter cost ``f_in`` is differentiable, has convex sublevel
sets, and is homogeneous of degree ``d`` (``f(c w) = c^d f(w)``), the
per-bin objective ``-2 log|det W_i| + sum_n f_in(w_in)`` splits into an
optimization of each filter's direction (maximize ``|det|`` on the
``f``-unit sphere) and a closed-form scale.  One filter update is:

(a) find ``w'`` whose gradient is parallel to ``W_i^{-1} e_n``;
(b) rescale ``w <- w' * (2 / (d * f(w')))**(1/d)`` so ``f(w) = 2/d``.

For the quartic cost of the sub-Gaussian (shape 4) source model,

    f(w) = (1/J) sum_j |w^H x_j|^4 / r_j^4,

step (a) would be a cubic vector equation, so it is majorized instead:
with ``H = [x_1/r_1, ..., x_J/r_J]``, ``q~ = H^H w~`` at the current
iterate ``w~``, and

    Q~ = ||q~||^2 I - q~ q~^H + diag(|q~_j|^2),
    G  = H Q~ H^H / sqrt(J sum_j |q~_j|^4),

the surrogate ``g(w) = (w^H G w)^2`` satisfies ``f(w) <= g(w)`` with
equality at ``w = w~``, and its direction step is the linear solve
``w' = G^{-1} W_i^{-1} e_n``.  ``G`` is accumulated in streamed
O(J N^2) form -- the J x J matrix ``Q~`` is never materialized.  With
``X = [x_1, ..., x_J]`` the bin's ``(M, J)`` observation matrix, the
``1/r_j^2`` of ``H`` is folded into real per-frame weights::

    G = [ X diag(c) X^H - u u^H ] / sqrt(J sum_j |q~_j|^4),
    c_j = (||q~||^2 + |q~_j|^2) / r_j^2,   u = X b,   b_j = q~_j / r_j,

so both accumulations are batched matrix products on one contiguous
``(I, M, J)`` conjugate transpose of the mixture.

Bins are independent, so :func:`quartic_sweep` streams over blocks of bins
(:func:`~ggdilrma.types.bin_blocks`) and updates every source of a block
before moving on: its temporaries stay cache-sized, the conjugate
transpose is formed once per block and ``1/r^2 = S^(-2/p)`` once per
source, and the result does not depend on the block size.

The scale step then uses the true ``f``, which minimizes the exact cost
along the ray, so every update decreases the quartic cost.

The per-filter forms of this update (``quartic_update_filter``,
``direction_scale_step``, the homogeneous objectives, ``optimal_scale``)
and the direct O(J^2) majorizer live in ``tests/reference_quartic.py`` as
test oracles for :func:`quartic_majorizer` and :func:`quartic_sweep`.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularDemixing
from .types import EPS_DET, bin_blocks


def _sum_abs4(y: np.ndarray, inv_r2: np.ndarray) -> np.ndarray:
    """``sum_j |y_ij|^4 / r_ij^4`` per bin, as a squared ``|y|^2 / r^2``."""
    a2 = np.abs(y) ** 2 * inv_r2
    return np.sum(a2 * a2, axis=1)


def _majorizer(xd: np.ndarray, xh: np.ndarray, y: np.ndarray, inv_r2: np.ndarray):
    """:func:`quartic_majorizer` given ``xh``, the C-ordered conjugate
    transpose ``(I, M, J)`` of ``xd``, and ``inv_r2 = 1 / r**2``; also
    returns the anchor's ``sum_j |y|^4 / r^4`` per bin."""
    J = xd.shape[1]
    aq2 = np.abs(y) ** 2 * inv_r2  # |q~|^2
    s4 = np.sum(aq2 * aq2, axis=1)
    norm_q2 = np.sum(aq2, axis=1)
    good = np.isfinite(s4) & (s4 > 0.0)

    # xh = conj(X) per bin; u = X b = conj(xh conj(b)) with conj(b) = y / r^2,
    # and X diag(c) X^H = conj(xh diag(c) X^T) with X^T = xd.
    u = (xh @ (y * inv_r2)[:, :, None])[..., 0].conj()
    CD = ((xh * ((norm_q2[:, None] + aq2) * inv_r2)[:, None, :]) @ xd).conj()
    denom = np.sqrt(J * np.where(good, s4, 1.0))
    G = (CD - u[:, :, None] * u.conj()[:, None, :]) / denom[:, None, None]
    return G, good, s4


def quartic_majorizer(xd: np.ndarray, y: np.ndarray, radius: np.ndarray):
    """Streamed majorizer matrices ``G`` for one source, batched over bins.

    Args:
        xd: mixture ``(I, J, M)``.
        y: anchor outputs ``y[i, j] = w~_i^H x_ij`` of the filter being
            majorized, shaped ``(I, J)``.
        radius: that source's scale parameters ``r`` shaped ``(I, J)``.

    Returns:
        ``(G, good)``: ``(I, M, M)`` Hermitian PSD matrices such that
        ``(w^H G_i w)^2`` upper-bounds the quartic cost at bin ``i``, tight
        at the anchor, and the mask of bins whose anchor projection ``q~``
        is finite and nonzero (``G_i`` is not a majorizer elsewhere).
    """
    xh = np.conjugate(xd.transpose(0, 2, 1), order="C")
    return _majorizer(xd, xh, y, 1.0 / radius**2)[:2]


def quartic_sweep(
    xd: np.ndarray, yd: np.ndarray, W: np.ndarray, S: np.ndarray, domain: float
):
    """One full quartic update of all filters, batched over bins.

    Bins whose majorizer is degenerate or below the determinant floor are
    skipped for the iteration (skipping cannot increase the cost) and
    counted.

    Args:
        xd: mixture ``(I, J, M)``.
        yd: current separated signal ``(I, J, N)``, updated in place.
        W: demixing matrices ``(I, N, N)``, updated in place.
        S: scale field ``r**p`` shaped ``(I, J, N)``.
        domain: the exponent ``p``; ``1/r**2`` is formed from ``S`` one
            block and source at a time.

    Returns:
        ``(W, yd, f_check, n_skipped)`` with ``f_check[i, n]`` the quartic
        cost of each updated filter (1/2 up to roundoff) and ``n_skipped``
        the number of (bin, source) updates left untouched.
    """
    I, J, M = xd.shape
    N = W.shape[1]
    eye = np.eye(N, dtype=np.complex128)
    f_check = np.empty((I, N))
    n_skipped = 0
    for blk in bin_blocks(I, J):
        xb, yb, Wb = xd[blk], yd[blk], W[blk]
        xh = np.conjugate(xb.transpose(0, 2, 1), order="C")
        for n in range(N):
            inv_r2 = 1.0 / (S[blk, :, n] ** (1.0 / domain)) ** 2
            G, good, s4 = _majorizer(xb, xh, yb[:, :, n], inv_r2)
            good &= ~(np.abs(np.linalg.det(G)) <= EPS_DET)
            G_solve = np.where(good[:, None, None], G, eye)
            rhs = np.broadcast_to(eye[n][:, None], (len(G), N, 1))
            try:
                w_dir = np.linalg.solve(Wb @ G_solve, rhs)[..., 0]
            except np.linalg.LinAlgError as exc:
                raise SingularDemixing(str(exc)) from exc

            y_dir = (xb @ w_dir.conj()[:, :, None])[..., 0]
            s4_dir = _sum_abs4(y_dir, inv_r2)
            good &= np.isfinite(s4_dir) & (s4_dir > 0.0)
            scale = (J / (2.0 * np.where(good, s4_dir, 1.0))) ** 0.25
            y_new = y_dir * scale[:, None]

            # Skipped bins keep their filter, output and anchor cost s4.
            np.copyto(Wb[:, n, :], (w_dir * scale[:, None]).conj(), where=good[:, None])
            np.copyto(yb[:, :, n], y_new, where=good[:, None])
            f_check[blk, n] = np.where(good, _sum_abs4(y_new, inv_r2), s4) / J
            n_skipped += int(np.sum(~good))
    return W, yd, f_check, n_skipped

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
O(J N^2) form -- the J x J matrix ``Q~`` is never materialized::

    G = [ ||q~||^2 C - u u^H + D ] / sqrt(J sum_j |q~_j|^4),
    C = sum_j x_j x_j^H / r_j^2,   u = sum_j (q~_j / r_j) x_j,
    D = sum_j |q~_j|^2 x_j x_j^H / r_j^2.

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
from .types import EPS_DET


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
    J = xd.shape[1]
    Xr = xd / radius[:, :, None]
    q = y.conj() / radius
    aq2 = np.abs(q) ** 2
    s4 = np.sum(aq2**2, axis=1)
    norm_q2 = np.sum(aq2, axis=1)
    good = np.isfinite(s4) & (s4 > 0.0)

    # ||q~||^2 C + D folded into a single weighted accumulation.
    weights = norm_q2[:, None] + aq2
    CD = np.einsum("ij,ija,ijb->iab", weights, Xr, Xr.conj())
    u = np.einsum("ij,ijm->im", q, Xr)
    denom = np.sqrt(J * np.where(good, s4, 1.0))
    G = (CD - u[:, :, None] * u.conj()[:, None, :]) / denom[:, None, None]
    return G, good


def quartic_sweep(xd: np.ndarray, yd: np.ndarray, W: np.ndarray, radius: np.ndarray):
    """One full quartic update of all filters, batched over bins.

    Bins whose majorizer is degenerate or below the determinant floor are
    skipped for the iteration (skipping cannot increase the cost) and
    counted.

    Args:
        xd: mixture ``(I, J, M)``.
        yd: current separated signal ``(I, J, N)``, updated in place.
        W: demixing matrices ``(I, N, N)``, updated in place.
        radius: scale parameters ``r`` (not ``r**p``) shaped ``(I, J, N)``.

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
    for n in range(N):
        rn = radius[:, :, n]
        G, good = quartic_majorizer(xd, yd[:, :, n], rn)
        good &= ~(np.abs(np.linalg.det(G)) <= EPS_DET)
        G_solve = np.where(good[:, None, None], G, eye)
        rhs = np.broadcast_to(eye[n][:, None], (I, N, 1))
        try:
            w_dir = np.linalg.solve(W @ G_solve, rhs)[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularDemixing(str(exc)) from exc

        y_dir = np.einsum("ijm,im->ij", xd, w_dir.conj())
        s4_dir = np.sum(np.abs(y_dir / rn) ** 4, axis=1)
        good &= np.isfinite(s4_dir) & (s4_dir > 0.0)
        scale = (J / (2.0 * np.where(good, s4_dir, 1.0))) ** 0.25
        w_new = w_dir * scale[:, None]

        W[good, n, :] = w_new[good].conj()
        yd[good, :, n] = (y_dir * scale[:, None])[good]
        f_check[:, n] = np.sum(np.abs(yd[:, :, n] / rn) ** 4, axis=1) / J
        n_skipped += int(np.sum(~good))
    return W, yd, f_check, n_skipped

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
``w' = G^{-1} W_i^{-1} e_n``.  The J x J matrix ``Q~`` is never formed:

    G = [ C - u u^H ] / sqrt(J sum_j |q~_j|^4),   u = A w~,
    C = sum_j c_j x_j x_j^H,   c_j = (||q~||^2 + |q~_j|^2) / r_j^2,
    A = sum_j x_j x_j^H / r_j^2.

The outer products never change during a run, so :func:`mixture_gram`
stores them once as ``M^2`` real features ``P_j`` per frame, and the
features of ``C`` and ``A`` are real matvecs against the weights ``c`` and
``1/r^2``; ``u`` is then an ``M x M`` matvec.  The direction's cost
``sum_j |h x_j|^4 / r_j^4`` for a demixing row ``h`` is a matvec too, as
``|h x_j|^2 = a(h) . P_j`` with ``a(h)`` the coefficients of the Hermitian
form.  The scale step uses
this true ``f``, which minimizes the exact cost along the ray, so every
update decreases the quartic cost.

For two sources (``N = 2``, the paper's stereo setting) ``G`` and ``W_i``
are 2 x 2, and the sweep never forms them as matrices: ``G``'s three
distinct entries (``g_00``, ``g_11`` real, ``g_01`` complex) come straight
from the features of ``C`` and ``A`` (one ``(M^2, J) @ (J,)`` matvec each)
and ``u``, and the direction is Cramer's rule,

    w' = adj(G) adj(W_i) e_n / (det W_i det G),

which is forward stable for 2 x 2 systems (Higham, *Accuracy and Stability
of Numerical Algorithms*, 2nd ed., section 1.10.1) and costs a few vector
operations per block where batched LAPACK pays its per-matrix overhead on
every bin.  For ``N > 2`` the sweep assembles the ``(b, N, N)`` majorizers
and takes ``det G`` and the solve of ``W_i G`` from batched LAPACK.  Both
paths skip the same bins and raise ``SingularDemixing`` naming the bin of
the whole problem where ``W_i`` is singular.

:func:`quartic_sweep` streams over blocks of bins
(:func:`~ggdilrma.types.bin_blocks`), every source of a block in turn, so
its temporaries stay cache-sized and its result does not depend on the
block size.  It updates ``W`` only.  A source's anchor outputs (which give
``|q~|^2``) and its row of ``W`` (read as ``w~`` before it is overwritten)
depend on no other source's update.

The per-filter forms of this update (``quartic_update_filter``,
``direction_scale_step``, the homogeneous objectives, ``optimal_scale``)
and the direct O(J^2) majorizer live in ``tests/reference_quartic.py`` as
test oracles for :func:`quartic_majorizer` and :func:`quartic_sweep`.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .errors import SingularDemixing
from .source_model import block_scale
from .types import EPS_DET, _det2, bin_blocks


@cache
def _pairs(M: int):
    """Row and column indices of the channel pairs ``m < m'``, row-major."""
    return np.triu_indices(M, 1)


def mixture_gram(xd: np.ndarray) -> np.ndarray:
    """Real features ``(I, M**2, J)`` of the outer products ``x_j x_j^H``:
    ``|x_m|^2`` for each channel, then ``Re`` and then ``Im`` of
    ``x_m conj(x_m')`` for each pair ``m < m'`` in row-major order."""
    I, J, M = xd.shape
    rows, cols = _pairs(M)
    gram = np.empty((I, M * M, J))
    for blk in bin_blocks(I, J):
        xt = xd[blk].transpose(0, 2, 1)
        cross = xt[:, rows] * xt[:, cols].conj()
        gram[blk] = np.concatenate([xt.real**2 + xt.imag**2, cross.real, cross.imag], axis=1)
    return gram


def _form_coeffs(h: np.ndarray) -> np.ndarray:
    """Coefficients ``a(h)`` of ``|h x|^2 = a(h) . P`` for demixing rows ``h``."""
    rows, cols = _pairs(h.shape[-1])
    v = 2.0 * h[..., rows] * h[..., cols].conj()
    return np.concatenate([h.real**2 + h.imag**2, v.real, -v.imag], axis=-1)


def _hermitian(feat: np.ndarray, M: int) -> np.ndarray:
    """The ``(..., M, M)`` Hermitian matrices whose features are ``feat``."""
    rows, cols = _pairs(M)
    upper = feat[..., M : M + len(rows)] + 1j * feat[..., M + len(rows) :]
    H = np.empty(feat.shape[:-1] + (M, M), dtype=np.complex128)
    H[..., range(M), range(M)] = feat[..., :M]
    H[..., rows, cols] = upper
    H[..., cols, rows] = upper.conj()
    return H


def _majorizer(gram: np.ndarray, aq2: np.ndarray, w: np.ndarray, inv_r2: np.ndarray):
    """:func:`quartic_majorizer` from the :func:`mixture_gram`, the anchor's ``|q~|^2``,
    its filters ``w`` and ``inv_r2 = 1 / r**2``; also returns ``sum_j |q~_j|^4``."""
    J, M = gram.shape[2], w.shape[1]
    s4 = np.sum(aq2 * aq2, axis=1)
    norm_q2 = np.sum(aq2, axis=1)
    good = np.isfinite(s4) & (s4 > 0.0)

    c = (norm_q2[:, None] + aq2) * inv_r2
    CA = _hermitian((gram @ np.stack([c, inv_r2], axis=2)).transpose(0, 2, 1), M)
    u = (CA[:, 1] @ w[:, :, None])[..., 0]  # A w~ = X b
    denom = np.sqrt(J * np.where(good, s4, 1.0))
    G = (CA[:, 0] - u[:, :, None] * u.conj()[:, None, :]) / denom[:, None, None]
    return G, good, s4


def quartic_majorizer(xd: np.ndarray, w: np.ndarray, radius: np.ndarray):
    """Streamed majorizer matrices ``G`` for one source, batched over bins.

    Args:
        xd: mixture ``(I, J, M)``.
        w: anchor filters ``w~`` shaped ``(I, M)``, with outputs ``y[i, j] = w~_i^H x_ij``.
        radius: that source's scale parameters ``r`` shaped ``(I, J)``.

    Returns:
        ``(G, good)``: ``(I, M, M)`` Hermitian PSD matrices such that
        ``(w^H G_i w)^2`` upper-bounds the quartic cost at bin ``i``, tight
        at the anchor, and the mask of bins whose anchor projection ``q~``
        is finite and nonzero (``G_i`` is not a majorizer elsewhere).
    """
    gram, inv_r2 = mixture_gram(xd), 1.0 / radius**2
    aq2 = (_form_coeffs(w.conj())[:, None, :] @ gram)[:, 0] * inv_r2  # |y~|^2 / r^2
    return _majorizer(gram, aq2, w, inv_r2)[:2]


def _singular(blk: slice, n: int, absdet: np.ndarray) -> SingularDemixing:
    """The error for a singular demixing matrix, named by its bin in the whole problem."""
    bad = blk.start + int(np.argmin(absdet))
    return SingularDemixing(f"demixing matrix singular at bin {bad}, source {n}")


def _direction_2x2(Pb, aq2, inv_r2, Wb, n, blk):
    """Direction ``w' = G^{-1} W^{-1} e_n`` of source ``n`` for two sources, by
    Cramer's rule; returns it with the majorizer's mask and ``sum_j |q~_j|^4``."""
    J = Pb.shape[2]
    s4 = np.vecdot(aq2, aq2)
    good = np.isfinite(s4) & (s4 > 0.0)
    fa = (Pb @ inv_r2[:, :, None])[..., 0]  # features of A
    # features of C, with c_j = (||q~||^2 + |q~_j|^2) / r_j^2 split in two
    fc = np.sum(aq2, axis=1)[:, None] * fa + (Pb @ (aq2 * inv_r2)[:, :, None])[..., 0]
    w0, w1 = Wb[:, n, 0].conj(), Wb[:, n, 1].conj()  # the anchor filter w~
    a01 = fa[:, 2] + 1j * fa[:, 3]
    u0 = fa[:, 0] * w0 + a01 * w1  # u = A w~
    u1 = a01.conj() * w0 + fa[:, 1] * w1
    denom = np.sqrt(J * np.where(good, s4, 1.0))
    g00 = (fc[:, 0] - (u0.real**2 + u0.imag**2)) / denom
    g11 = (fc[:, 1] - (u1.real**2 + u1.imag**2)) / denom
    g01 = (fc[:, 2] + 1j * fc[:, 3] - u0 * u1.conj()) / denom
    det_g = g00 * g11 - (g01.real**2 + g01.imag**2)
    good &= ~(np.abs(det_g) <= EPS_DET)
    det_w = _det2(Wb)
    if np.any(det_w == 0.0):
        raise _singular(blk, n, np.abs(det_w))
    # v = adj(W) e_n; skipped bins divide by 1 and are never written back
    v0, v1 = (Wb[:, 1, 1], -Wb[:, 1, 0]) if n == 0 else (-Wb[:, 0, 1], Wb[:, 0, 0])
    scale = det_w * np.where(good, det_g, 1.0)
    w_dir = np.stack([g11 * v0 - g01 * v1, g00 * v1 - g01.conj() * v0], axis=1)
    return w_dir / scale[:, None], good, s4


def _direction_lapack(Pb, aq2, inv_r2, Wb, n, blk):
    """:func:`_direction_2x2` for any number of sources, by batched LAPACK."""
    N = Wb.shape[1]
    G, good, s4 = _majorizer(Pb, aq2, Wb[:, n].conj(), inv_r2)
    good &= ~(np.abs(np.linalg.det(G)) <= EPS_DET)
    WG = Wb @ np.where(good[:, None, None], G, np.eye(N))
    rhs = np.broadcast_to(np.eye(N)[n][:, None], (len(G), N, 1))
    try:
        return np.linalg.solve(WG, rhs)[..., 0], good, s4
    except np.linalg.LinAlgError as exc:
        raise _singular(blk, n, np.abs(np.linalg.det(WG))) from exc


def quartic_sweep(xd, yd, W, T, V, domain: float, gram: np.ndarray):
    """One full quartic update of all filters, batched over bins.

    Bins whose majorizer is degenerate or below the determinant floor are
    skipped for the iteration (skipping cannot increase the cost) and
    counted.  A singular ``W_i`` raises ``SingularDemixing`` naming its bin
    and the source being updated.

    Args:
        xd: mixture ``(I, J, M)``, read only through ``gram``, its :func:`mixture_gram`.
        yd: the anchors: separated signal ``(I, J, N)`` of ``W`` on entry.
        W: demixing matrices ``(I, N, N)``, updated in place.
        T, V: NMF factors; ``S = r**p = T V`` is formed a block at a time.
        domain: the exponent ``p``.

    Returns:
        ``(W, yd, f_check, n_skipped)`` with ``yd`` as given, ``f_check[i, n]``
        the quartic cost of each updated filter (1/2 up to roundoff; the
        anchor's cost where skipped) and ``n_skipped`` the number of
        (bin, source) updates left untouched.
    """
    I, J, N = yd.shape
    direction = _direction_2x2 if N == 2 else _direction_lapack
    f_check = np.empty((I, N))
    n_skipped = 0
    for blk in bin_blocks(I, J):
        Wb, Pb = W[blk], gram[blk]
        inv_r2 = 1.0 / (block_scale(T, V, blk) ** (1.0 / domain)) ** 2  # (N, b, J)
        aq2 = np.abs(yd[blk].transpose(2, 0, 1), order="C")  # the anchors' |y~|^2 / r^2
        aq2 *= aq2
        aq2 *= inv_r2
        for n in range(N):
            w_dir, good, s4 = direction(Pb, aq2[n], inv_r2[n], Wb, n, blk)
            h_dir = w_dir.conj()  # the demixing row of the direction
            a2 = (_form_coeffs(h_dir)[:, None, :] @ Pb)[:, 0] * inv_r2[n]  # |y_dir|^2 / r^2
            s4_dir = np.vecdot(a2, a2)
            good &= np.isfinite(s4_dir) & (s4_dir > 0.0)
            scale = (J / (2.0 * np.where(good, s4_dir, 1.0))) ** 0.25

            # Skipped bins keep their filter and anchor cost s4.
            np.copyto(Wb[:, n, :], h_dir * scale[:, None], where=good[:, None])
            f_check[blk, n] = np.where(good, scale**4 * s4_dir, s4) / J
            n_skipped += int(np.sum(~good))
    return W, yd, f_check, n_skipped

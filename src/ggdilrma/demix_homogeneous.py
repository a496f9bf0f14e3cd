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
stores them once as ``M^2`` real features ``P_j`` per frame.  The features
of ``A`` are ``P`` against the weights ``1/r^2``, and those of ``C`` are
``||q~||^2`` times them plus ``P`` against ``|q~|^2 / r^2``; ``u`` is then
an ``M x M`` matvec.  The direction's cost ``sum_j |h x_j|^4 / r_j^4`` for
a demixing row ``h`` is a matvec too, as ``|h x_j|^2 = a(h) . P_j`` with
``a(h)`` the coefficients of the Hermitian form.  The scale step uses this
true ``f``, which minimizes the exact cost along the ray, so every update
decreases the quartic cost.

``G`` for source ``n`` reads only that source's anchor outputs, as their
``|y~_n|^2``, its scale ``r_n = S_n^(1/p)``, from the ``1 / S`` of the scale
field ``S = T V`` that the pipeline carries, and its row ``w~_n`` of ``W_i``
on entry; rows ``m != n`` never enter it, and no other source's update
changes any of the three.  So :func:`quartic_sweep` assembles the majorizers
of every source before updating any row, in :func:`quartic_majorizer`, the
one place ``G`` is built: one ``(M^2, J) @ (J, 2N)`` product per bin takes
the features of every ``A`` and ``C`` at once, and every ``G`` follows from
them.  The sweep then takes the Cholesky factors ``G = R^H R`` of all of them
in one pass, and skips a source's update where ``sum_j |q~_j|^4`` is zero or
not finite, where a pivot is not positive, or where ``det G = prod_k r_kk^2``
is at most ``EPS_DET`` times ``prod_k G_kk``.  That ratio lies in ``[0, 1]``
(Hadamard) and does not change when the mixture is scaled, so a quiet input
is updated as a loud one is.  Only what reads rows already updated stays per
source: ``W_i^{-1} e_n``, the direction and its write-back.

The direction ``w' = G^{-1} W_i^{-1} e_n`` is the two triangular systems
``R^H z = W_i^{-1} e_n`` and ``R w' = z``, solved by substitution in
:func:`~ggdilrma.types._substitute`, the step the iterative-projection sweep
takes with the factor of its weighted covariance; the two rules differ in
the factor and the scale only.  ``W_i^{-1} e_n`` is read from the inverse
that the pipeline carries beside ``W``, and the new row, which multiplies
``det W_i`` by ``||z||^2``, goes through
:func:`~ggdilrma.types._replace_row`, which keeps that inverse and
``log|det W_i|`` in step.  Where ``W_i^{-1} e_n`` vanishes, so does ``z``,
and that update is skipped like a degenerate majorizer.  The sweep makes no
LAPACK call.

The scale of row ``n`` multiplies that row alone, so it multiplies
``det W_i`` by itself and divides column ``n`` of ``W_i^{-1}`` only; the
columns ``m != n``, which the later sources' directions read, do not depend
on it.  So the rows are written back unscaled, every direction's cost is
taken afterwards in one pass over the frames, and the scales come last, in
closed form.  A bin where a good majorizer gives a direction whose cost is
zero or not finite gets its entry ``W``, ``W^{-1}`` and ``log|det W_i|``
back, every source skipped.

:func:`quartic_sweep` runs in three steps, so that numpy's per-call cost is
paid once per sweep for the small per-bin algebra and its frame-length
temporaries stay cache-sized.  First, :func:`quartic_majorizer` streams over
blocks of bins (:func:`~ggdilrma.pool.bin_blocks`) for the work that runs
along the frames: ``1 / r^2 = S^(-2/p)``, a copy of the block's ``1 / S``
raised in place by the kernel that raises the IP weights
(:func:`~ggdilrma.source_model._power`), which it keeps in an ``(N, I, J)``
buffer that the caller provides, the anchors' ``|q~|^2 = |y~|^2 / r^2``, and
for every source one product of features, of ``A`` and of the sum in ``C``,
with ``||q~||^2`` and ``sum_j |q~_j|^4``, each into one array over all bins;
then it assembles the features of every ``A`` and ``C``, builds every ``G``
over all bins at once, and the sweep factors them all.  Second, the
directions: per source, over all bins, the solve and the unscaled
write-back.  Third, one more pass over the blocks takes every direction's
cost ``a(h) . P`` against the kept ``1 / r^2``, once for all sources; then
every scale, ``f_check``, and the skipped bins' entry state are applied over
all bins at once.  Its result does not depend on the block size.  It updates
``W`` and the ``1 / r^2`` buffer only; the pipeline lends it the buffer of
``|y|^p``, which nothing reads between the sweep's start and its refresh.

The two passes over the frames are per bin, every source at once, so above
the crossover their blocks, of ``BLOCK_ENTRIES`` entries over all sources,
run on the package's thread pool (:func:`~ggdilrma.pool.run_parts`), each
block a part that writes its bins of ``1 / r^2``, the features,
``||q~||^2``, ``s4`` and the directions' costs, which the caller allocated.
The blocks follow the shape alone, as :func:`mixture_gram`'s do, and every
per-bin product keeps its ``2N`` (or ``N``) columns, so the sweep's bytes do
not depend on the number of CPUs either.

The per-filter forms of this update (``quartic_update_filter``,
``direction_scale_step``, the homogeneous objectives, ``optimal_scale``)
and the direct O(J^2) majorizer live in ``tests/reference_quartic.py`` as
test oracles for :func:`quartic_majorizer` and :func:`quartic_sweep`.  The
property suite (:func:`ggdilrma.benchmark.majorizer_trial`) and the tests
check the bound on :func:`quartic_majorizer` itself, with one anchor row
where a single filter is wanted.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .source_model import _power
from .pool import bin_blocks, run_parts, threads
from .types import EPS_DET, _replace_row, _substitute


@cache
def _pairs(M: int):
    """Row and column indices of the channel pairs ``m < m'``, row-major."""
    return np.triu_indices(M, 1)


def mixture_gram(xd: np.ndarray) -> np.ndarray:
    """Real features ``(I, M**2, J)`` of the outer products ``x_j x_j^H``:
    ``|x_m|^2`` for each channel, then ``Re`` and then ``Im`` of
    ``x_m conj(x_m')`` for each pair ``m < m'`` in row-major order.  Formed by
    blocks of bins, every channel in each, on the thread pool above the crossover."""
    I, J, M = xd.shape
    rows, cols = _pairs(M)
    gram = np.empty((I, M * M, J))

    def part(blk):
        xt = xd[blk].transpose(0, 2, 1)
        # The conjugate goes first: numpy multiplies into a right-hand temporary of
        # 256 KiB or more in place, with the operands swapped, and a complex product
        # rounds by its operands' order; so would the bits follow the block's size.
        cross = xt[:, cols].conj() * xt[:, rows]
        g = gram[blk]
        np.add(xt.real**2, xt.imag**2, out=g[:, :M])
        g[:, M : M + len(rows)] = cross.real
        g[:, M + len(rows) :] = cross.imag

    blocks = bin_blocks(I, J * M)
    run_parts(part, blocks, threads(len(blocks), I * J * M))
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


def quartic_majorizer(gram: np.ndarray, yd, W, inv_S, domain: float, inv_r2):
    """Majorizers ``G`` of every row, batched over bins: the first phase of
    :func:`quartic_sweep`, which factors exactly what this returns.

    Args:
        gram: the :func:`mixture_gram` ``(I, M**2, J)`` of an ``M``-channel mixture.
        yd: the anchors' ``|y~|^2`` ``(N, I, J)``, of the outputs of the rows of ``W``.
        W: the anchor rows ``w~^H`` ``(I, N, M)``; ``N`` need not equal ``M``.
        inv_S: ``1 / S`` of the scale field ``S = r**p`` ``(N, I, J)``.
        domain: the exponent ``p``.
        inv_r2: an ``(N, I, J)`` buffer, overwritten with ``1 / r**2 = S^(-2/p)``.

    Returns:
        ``(G, good, s4)``: ``(I, N, M, M)`` Hermitian PSD matrices such that
        ``(w^H G w)^2`` upper-bounds row ``n``'s quartic cost at bin ``i``, tight
        at its anchor; the ``(N, I)`` mask where ``s4 = sum_j |q~_j|^4`` is finite
        and nonzero (``G`` is not a majorizer elsewhere); and ``s4`` ``(N, I)``.
    """
    I, features, J = gram.shape
    N, M = yd.shape[0], W.shape[-1]
    # Per block, the work along the frames: 1 / r**2, kept in inv_r2, the anchors'
    # |q~|^2, and every row's features of A and of the sum in C, with ||q~||^2 and
    # s4, all kept for all bins.
    feat = np.empty((I, features, 2 * N))
    q2, s4 = np.empty((2, N, I))

    def frame_pass(blk):
        wts = np.empty((2, N, blk.stop - blk.start, J))  # 1 / r**2, then |y~|^2 / r**4
        np.copyto(wts[0], inv_S[:, blk])
        _power(wts[0], 2.0 / domain)  # S^(-2/p) = 1 / r**2
        inv_r2[:, blk] = wts[0]
        aq2 = np.multiply(yd[:, blk], wts[0])  # |q~|^2 = |y~|^2 / r^2
        np.multiply(aq2, wts[0], out=wts[1])
        # one (M^2, J) @ (J, 2N) product per bin, through a strided view of wts
        np.matmul(gram[blk], wts.reshape(2 * N, -1, J).transpose(1, 2, 0), out=feat[blk])
        q2[:, blk] = np.sum(aq2, axis=2)
        s4[:, blk] = np.vecdot(aq2, aq2)

    blocks = bin_blocks(I, J * N)
    run_parts(frame_pass, blocks, threads(len(blocks), I * J * N))
    good = np.isfinite(s4) & (s4 > 0.0)
    denom = np.sqrt(J * np.where(good, s4, 1.0))
    # Then every G over all bins at once.
    fa = feat[..., :N]
    fc = q2.T[:, None, :] * fa + feat[..., N:]  # ||q~||^2 A + ...
    u = (_hermitian(fa.transpose(0, 2, 1), M) @ W.conj()[..., None])[..., 0]  # A w~
    C = _hermitian(fc.transpose(0, 2, 1), M)
    G = (C - u[..., :, None] * u.conj()[..., None, :]) / denom.T[:, :, None, None]
    return G, good, s4


def _cholesky(G):
    """Upper triangular ``R`` with a real diagonal and ``G = R^H R``, for Hermitian
    ``G`` ``(..., M, M)``, and the mask of the factors to solve with: every pivot is
    positive and their product ``det G`` is above ``EPS_DET`` times the product of
    ``G``'s diagonal, which bounds it (Hadamard), so the test does not depend on the
    scale of ``G``.  A pivot that fails is read as 1, so nothing divides by zero or
    takes a negative root."""
    M = G.shape[-1]
    R = np.zeros_like(G)
    ok, det_g, schur = True, 1.0, G
    for k in range(M):
        ok = ok & (schur[..., 0, 0].real > 0.0)
        pivot = np.where(ok, schur[..., 0, 0].real, 1.0)
        det_g = det_g * pivot
        R[..., k, k] = r_kk = np.sqrt(pivot)
        if k < M - 1:  # row k of R, then the Schur complement of the pivot
            R[..., k, k + 1 :] = r = schur[..., 0, 1:] / r_kk[..., None]
            schur = schur[..., 1:, 1:] - r.conj()[..., :, None] * r[..., None, :]
    hadamard = np.prod(G.diagonal(axis1=-2, axis2=-1).real, axis=-1)  # bounds det G
    return R, ok & (det_g > EPS_DET * hadamard)


def quartic_sweep(gram: np.ndarray, yd, W, inv_S, domain: float, W_inv, log_det, inv_r2):
    """One full quartic update of all filters, batched over bins: the
    :func:`quartic_majorizer` of every source and its Cholesky factor; then
    every source's direction, written back unscaled; then every direction's
    cost, in one pass over the frames; then every scale.

    Bins whose majorizer is degenerate, whose majorizer's Hadamard ratio
    ``det G / prod_k G_kk`` is at most ``EPS_DET``, or where ``W_i^{-1} e_n``
    vanishes, are skipped for that source; a bin where a good majorizer gives a
    direction whose cost is zero or not finite gets its entry ``W``, ``W^{-1}``
    and ``log|det W|`` back, every source skipped.  Skipping cannot increase the
    cost; each skipped (bin, source) update is counted.

    Args:
        gram: the :func:`mixture_gram` of the mixture ``(I, J, M)``.
        yd: the anchors' ``|y~|^2`` ``(N, I, J)``, of the outputs of ``W`` on entry.
        W: demixing matrices ``(I, N, N)``, updated in place.
        inv_S: ``1 / S`` of the scale field ``S = r**p = T V`` ``(N, I, J)``; read
            only.
        domain: the exponent ``p``.
        W_inv, log_det: ``W^{-1}`` ``(I, N, N)`` and ``log|det W_i|`` ``(I,)``,
            kept in step with ``W`` in place.
        inv_r2: an ``(N, I, J)`` buffer, overwritten with ``1 / r**2 = S^(-2/p)``
            by the first pass over the frames and read by the second.

    Returns:
        ``(W, yd, f_check, n_skipped)`` with ``yd`` as given, ``f_check[i, n]``
        the quartic cost of each updated filter (1/2 up to roundoff; the
        anchor's cost where skipped) and ``n_skipped`` the number of
        (bin, source) updates left untouched.

    The returned ``yd`` and ``f_check`` stay because the benchmark's timing
    wrapper reads ``W`` at ``args[2]`` and ``n_skipped`` at ``result[3]`` of
    this call; they go once it takes the skip count from the trace records
    instead (ROADMAP Direction 2 (A)).
    """
    N, I, J = yd.shape
    # Every source's G reads W on entry only, so all are built and factored at once,
    # over all bins.
    G, good, s4 = quartic_majorizer(gram, yd, W, inv_S, domain, inv_r2)
    R, factored = _cholesky(G)
    good &= factored.T
    entry = W.copy(), W_inv.copy(), log_det.copy()
    # Directions, each over all bins.  Scaling row n would divide only column n of
    # W^-1, which no later direction reads, so the rows are written unscaled.
    for n in range(N):
        w_dir, z = _substitute(R[:, n], W_inv[:, :, n])
        good[n] &= np.vecdot(z, z).real > 0.0  # ||z||^2 = h W^-1 e_n, the det factor
        _replace_row(W, W_inv, log_det, n, w_dir.conj(), good[n])
    # Every direction's cost sum_j |h x_j|^4 / r_j^4 in one pass over the frames, for
    # all sources, against the 1 / r**2 that the first pass kept.
    coeffs = _form_coeffs(W)
    s4_dir = np.empty((N, I))

    def cost_pass(blk):
        a2 = np.empty((N, blk.stop - blk.start, J))
        np.matmul(coeffs[blk], gram[blk], out=a2.transpose(1, 0, 2))  # |y_dir|^2
        a2 *= inv_r2[:, blk]  # over r^2
        s4_dir[:, blk] = np.vecdot(a2, a2)

    blocks = bin_blocks(I, J * N)
    run_parts(cost_pass, blocks, threads(len(blocks), I * J * N))
    # A good majorizer whose direction has no finite positive cost: the whole bin
    # returns to its entry state.
    restored = np.any(good & ~(np.isfinite(s4_dir) & (s4_dir > 0.0)), axis=0)
    ok = good & ~restored
    np.copyto(W, entry[0], where=restored[:, None, None])
    np.copyto(W_inv, entry[1], where=restored[:, None, None])
    np.copyto(log_det, entry[2], where=restored)
    # Scales: row n times s multiplies det W_i by s and divides column n of W^-1.
    scale = np.where(ok, J / (2.0 * np.where(ok, s4_dir, 1.0)), 1.0) ** 0.25
    W *= scale.T[:, :, None]
    W_inv /= scale.T[:, None, :]
    log_det += np.sum(np.log(scale), axis=0)
    f_check = np.where(ok, scale**4 * s4_dir, s4).T / J
    return W, yd, f_check, int(np.sum(~ok))

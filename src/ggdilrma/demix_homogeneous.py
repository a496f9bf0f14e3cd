"""Direction/scale-decomposed demixing updates: the phases both rules share,
and the quartic source cost's sweep.

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

The direction and scale phases are shared by both demixing rules.
Iterative projection (:mod:`~ggdilrma.demix_ip`) is the ``d = 2`` member of
this family: its surrogate is ``f(w) = w^H F w``, so its direction is
``w' = F^{-1} W_i^{-1} e_n`` and its scale ``1 / sqrt(f(w'))``.  Each rule
brings the upper triangular factor ``R`` of its quadratic form (``G = R^H R``
here, ``F = R^H R`` there), with a positive real diagonal, and the mask of
the (bin, source) updates its factor allows.  The direction phase,
:func:`_row_sweep`, takes the sources in turn, each over all bins against
the freshest ``W_i^{-1}``, which the pipeline carries beside ``W``: it
solves the two triangular systems ``R^H z = W_i^{-1} e_n`` and ``R w' = z``
by substitution, so ``f(w') = ||z||^2`` for IP, and writes ``w'^H`` back
unscaled through :func:`_replace_row`, which keeps ``W_i^{-1}`` and
``log|det W_i|`` in step by a Sherman-Morrison update.  The new row
multiplies ``det W_i`` by ``||z||^2``.  Where that is not positive, because
``W_i^{-1} e_n`` vanishes or the factor is not finite, the update is
skipped.  Both rules follow one policy: a degenerate (bin, source) update
keeps its row and is counted in the sweep's skip count, which the pipeline
records in each iteration's trace record; none is raised.

The scale of row ``n`` multiplies that row alone, so it multiplies
``det W_i`` by itself and divides column ``n`` of ``W_i^{-1}`` only; the
columns ``m != n``, which the later sources' directions read, do not depend
on it.  So every direction is written back before any scale, and the scale
phase, :func:`_scale_rows`, applies every scale at once over all bins:
``W``'s rows times ``s``, ``W^{-1}``'s columns divided by ``s``, and
``sum log s`` added to ``log|det W_i|``; a skipped update's scale is 1.
IP's scale ``1 / ||z||`` comes from the direction phase itself.  The
quartic scale needs each direction's true cost, which one more pass over the
frames takes, and a bin where a good majorizer gives a direction whose cost
is zero or not finite gets its entry ``W``, ``W^{-1}`` and ``log|det W_i|``
back, every source skipped.  Neither phase makes a LAPACK call.

:func:`quartic_sweep` runs in three steps, so that numpy's per-call cost is
paid once per sweep for the small per-bin algebra and its frame-length
temporaries stay cache-sized.  First, :func:`quartic_majorizer` streams over
blocks of bins (:func:`~ggdilrma.pool.bin_blocks`) for the work that runs
along the frames: ``1 / r^2 = S^(-2/p)``, a copy of the block's ``1 / S``
raised in place by the kernel that raises the IP weights
(:func:`~ggdilrma.source_model._power`), the anchors' ``|q~|^2 = |y~|^2 / r^2``,
after which it writes the block's ``1 / r^2`` over its anchors, and
for every source one product of features, of ``A`` and of the sum in ``C``,
with ``||q~||^2`` and ``sum_j |q~_j|^4``, each into one array over all bins;
then it assembles the features of every ``A`` and ``C``, builds every ``G``
over all bins at once, and the sweep factors them all.  Second, the
direction phase.  Third, one more pass over the blocks takes every direction's
cost ``a(h) . P`` against the kept ``1 / r^2``, once for all sources; then
the skipped bins' entry state, then the scale phase and ``f_check``, over
all bins at once.  Its result does not depend on the block size.  It writes
``W`` and the anchors' buffer only, so it needs no full-size scratch.

The two passes over the frames are per bin, every source at once, so above
the crossover their blocks, of ``BLOCK_ENTRIES`` entries over all sources,
run on the package's thread pool (:func:`~ggdilrma.pool.run_parts`), each
block a part that writes its bins of ``1 / r^2`` over the anchors, the features,
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
from .types import EPS_DET


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


def quartic_majorizer(gram: np.ndarray, yd, W, inv_S, domain: float):
    """Majorizers ``G`` of every row, batched over bins: the first phase of
    :func:`quartic_sweep`, which factors exactly what this returns.

    Args:
        gram: the :func:`mixture_gram` ``(I, M**2, J)`` of an ``M``-channel mixture.
        yd: the anchors' ``|y~|^2`` ``(N, I, J)``, of the outputs of the rows of
            ``W``; each block of bins is read, then overwritten with its
            ``1 / r**2 = S^(-2/p)``.
        W: the anchor rows ``w~^H`` ``(I, N, M)``; ``N`` need not equal ``M``.
        inv_S: ``1 / S`` of the scale field ``S = r**p`` ``(N, I, J)``.
        domain: the exponent ``p``.

    Returns:
        ``(G, good, s4)``: ``(I, N, M, M)`` Hermitian PSD matrices such that
        ``(w^H G w)^2`` upper-bounds row ``n``'s quartic cost at bin ``i``, tight
        at its anchor; the ``(N, I)`` mask where ``s4 = sum_j |q~_j|^4`` is finite
        and nonzero (``G`` is not a majorizer elsewhere); and ``s4`` ``(N, I)``.
    """
    I, features, J = gram.shape
    N, M = yd.shape[0], W.shape[-1]
    # Per block, the work along the frames: 1 / r**2, the anchors' |q~|^2, then
    # 1 / r**2 over the anchors, and every row's features of A and of the sum in C,
    # with ||q~||^2 and s4, all kept for all bins.
    feat = np.empty((I, features, 2 * N))
    q2, s4 = np.empty((2, N, I))

    def frame_pass(blk):
        wts = np.empty((2, N, blk.stop - blk.start, J))  # 1 / r**2, then |y~|^2 / r**4
        np.copyto(wts[0], inv_S[:, blk])
        _power(wts[0], 2.0 / domain)  # S^(-2/p) = 1 / r**2
        aq2 = np.multiply(yd[:, blk], wts[0])  # |q~|^2 = |y~|^2 / r^2
        yd[:, blk] = wts[0]  # the block's anchors are read: keep 1 / r**2 there
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


def _replace_row(W, W_inv, log_det, n, h, where=True) -> None:
    """Set row ``n`` of each ``W_i`` ``(b, N, N)`` to ``h_i`` ``(b, N)`` where ``where``
    holds, and keep ``W_inv`` (``W^{-1}``) and ``log_det`` (``log|det W_i|``) in step;
    all three are updated in place, and the other bins are left untouched.

    The new row multiplies ``det W_i`` by ``d = h W_i^{-1} e_n``, which the caller
    has checked is nonzero, and ``W_i^{-1}`` takes the Sherman-Morrison update
    ``W^{-1} - W^{-1} e_n (h W^{-1} - e_n^T) / d``: O(N^2) per bin, no solve.
    Its column ``n`` is written directly as ``W^{-1} e_n / d``: the difference
    form reaches that column only through a cancellation that leaves a relative
    error near ``eps |d|``, which the next row's ``log|d|`` would read.
    The update runs on ``(N, N, b)`` views, so with ``W_inv`` laid out bins last,
    as :func:`~ggdilrma.pipeline.initialize` lays it out, every operation's
    inner loop runs over the bins; any layout gives the same numbers."""
    inv_t = W_inv.transpose(1, 2, 0)
    g = np.sum(h.T[:, None, :] * inv_t, axis=0)  # h W^-1 (N, b); its row n is d
    d = np.where(where, g[n], 1.0)
    g[n] = 0.0  # column n is divided by d below
    g /= d
    np.subtract(inv_t, inv_t[:, n, None, :] * g, out=inv_t, where=where)
    inv_t[:, n] /= d
    np.add(log_det, np.log(np.abs(d)), out=log_det, where=where)
    np.copyto(W[:, n].T, h.T, where=where)


def _row_sweep(R, good, W, W_inv, log_det):
    """The direction phase of both sweeps: for each source ``n`` in turn, over all
    bins and against the freshest ``W^{-1}``, ``R_n^H z = W_i^{-1} e_n`` and
    ``R_n w = z`` by substitution, for the upper triangular factors ``R`` ``(N, I,
    M, M)`` of ``F = R^H R``, with a positive real diagonal; then ``w^H`` is row
    ``n``, unscaled, wherever ``good`` ``(N, I)`` holds and ``||z||^2`` is positive.
    ``good`` is cleared where ``||z||^2`` is not.  Returns ``||z||^2 = w^H F w``
    ``(N, I)``, the factor that the new row multiplies ``det W_i`` by."""
    N, I, M = R.shape[:3]
    z2 = np.empty((N, I))
    for n in range(N):
        r = R[n].diagonal(axis1=1, axis2=2).real
        z = W_inv[:, :, n].copy()
        for k in range(M):  # R^H z = W^-1 e_n
            if k:
                z[:, k] -= np.vecdot(R[n, :, :k, k], z[:, :k])
            z[:, k] /= r[:, k]
        w = z.copy()
        for k in reversed(range(M)):  # R w = z
            if k < M - 1:
                w[:, k] -= np.sum(R[n, :, k, k + 1 :] * w[:, k + 1 :], axis=1)
            w[:, k] /= r[:, k]
        z2[n] = np.vecdot(z, z).real
        good[n] &= z2[n] > 0.0
        _replace_row(W, W_inv, log_det, n, w.conj(), good[n])
    return z2


def _scale_rows(W, W_inv, log_det, scale) -> None:
    """The scale phase of both sweeps: row ``n`` of each ``W_i`` times ``scale[n, i]``
    ``(N, I)``, which divides column ``n`` of ``W_i^{-1}`` by it and adds its log to
    ``log|det W_i|``; all three in place."""
    W *= scale.T[:, :, None]
    W_inv /= scale.T[:, None, :]
    log_det += np.sum(np.log(scale), axis=0)


def quartic_sweep(gram: np.ndarray, yd, W, inv_S, domain: float, W_inv, log_det):
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
        yd: the anchors' ``|y~|^2`` ``(N, I, J)``, of the outputs of ``W`` on entry;
            overwritten with ``1 / r**2 = S^(-2/p)`` by the first pass over the
            frames and read by the second.
        W: demixing matrices ``(I, N, N)``, updated in place.
        inv_S: ``1 / S`` of the scale field ``S = r**p = T V`` ``(N, I, J)``; read
            only.
        domain: the exponent ``p``.
        W_inv, log_det: ``W^{-1}`` ``(I, N, N)`` and ``log|det W_i|`` ``(I,)``,
            kept in step with ``W`` in place.

    Returns:
        ``(W, yd, f_check, n_skipped)`` with ``yd`` holding ``1 / r**2``, ``f_check[i, n]``
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
    G, good, s4 = quartic_majorizer(gram, yd, W, inv_S, domain)
    R, factored = _cholesky(G)
    good &= factored.T
    entry = W.copy(), W_inv.copy(), log_det.copy()
    # Directions, each over all bins, written back unscaled.
    _row_sweep(R.swapaxes(0, 1), good, W, W_inv, log_det)
    # Every direction's cost sum_j |h x_j|^4 / r_j^4 in one pass over the frames, for
    # all sources, against the 1 / r**2 that the first pass kept in yd.
    coeffs = _form_coeffs(W)
    s4_dir = np.empty((N, I))

    def cost_pass(blk):
        a2 = np.empty((N, blk.stop - blk.start, J))
        np.matmul(coeffs[blk], gram[blk], out=a2.transpose(1, 0, 2))  # |y_dir|^2
        a2 *= yd[:, blk]  # over r^2
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
    scale = np.where(ok, J / (2.0 * np.where(ok, s4_dir, 1.0)), 1.0) ** 0.25
    _scale_rows(W, W_inv, log_det, scale)
    f_check = np.where(ok, scale**4 * s4_dir, s4).T / J
    return W, yd, f_check, int(np.sum(~ok))

"""Generalized-Gaussian source model and its low-rank (NMF) updates.

Each source spectrogram entry is modeled by an isotropic complex
generalized Gaussian with shape ``beta`` and a time-frequency-varying
scale ``r`` tied to nonnegative factors through the domain parameter
``p``::

    r[i, j, n] ** p = sum_k t[i, k, n] * v[k, j, n]

The factors are refined by majorization-minimization multiplicative
updates::

    t_ikn <- t_ikn * [ (beta * sum_j |y|^beta / S^(beta/p + 1) * v_kjn)
                       / (2 * sum_j v_kjn / S) ] ** (p / (beta + p))

with ``S = sum_k t v``; activations mirror the rule with roles of ``t``
and ``v`` (and the frame/bin sums) exchanged.  One sweep of both updates
never increases the negative log-likelihood for a fixed demixing system.

Both updates stream over blocks of frequency bins
(:func:`~ggdilrma.pool.bin_blocks`), so the ratio terms are formed one
cache-sized block at a time: the bases of a block depend on that block
alone, and the activations' bin sums are accumulated block by block.  The
pipeline carries ``1 / S`` of the full scale field ``S = T V``, which the
cost pass writes a block at a time after each activation update
(:func:`~ggdilrma.cost.ggd_cost_arrays`); the basis update and the demixing
sweeps read it, and only the activation update, whose bases have just
changed, forms its own ``S`` per block.  The updates and the cost read
``|y|^p``, which the pipeline carries and refreshes in place once per
iteration; the updates floor it at ``EPS_Y**p``, the same bits as flooring
``|y|`` at ``EPS_Y`` first, and so do the iterative-projection weights.  The
whitened ratio ``(|y|^p / S)^(beta/p)`` is raised by repeated squaring when
``beta/p`` is a positive integer (8 at beta = 4, p = 1/2), and by the
generic power otherwise.

Each block's elementwise chain runs in place, against one ``1/S`` per block
(:func:`_whitened_terms`).  The basis update reads its block of the carried
``1/S``; the activation update writes it over its block's ``S``, which it
forms in a buffer of its own.  Both floor the block's ``|y|^p`` into one
more new block buffer, multiply it by ``1/S``, raise it and multiply it by
``1/S`` again, and ``1/S`` itself is the denominator's operand: at most one
reciprocal and two products in place of two divides and a second reciprocal.
:func:`model_cost_terms` writes the ratio into a new array and adds the
log-scale term into it.  An odd power takes one more buffer for its
squares (:func:`_int_power`).  No layer writes into ``T``, ``V``, ``1/S`` or
the ``|y|^p`` it is given, and every operation has the operands and order
of the out-of-place form, so the bits are the same.

No source's factors read another source's, so above the crossover both
updates run on the package's thread pool (:func:`~ggdilrma.pool.run_parts`).
The basis update's bases of a block depend on that block alone, so it splits
into its blocks of bins, every source in each, on at most one thread per
source, as the activation update: a part of the basis update holds one block
buffer, the ratio, and a part of the activation update two.  The activation
update and the cost take ``T[:, blk] @ V`` products, whose bits a BLAS
may pick by the rows of the product (OpenBLAS does at 60 rows or fewer for 20
bases); so they keep the blocks of one source's bins, ``bin_blocks(I, J)``,
and above the crossover split by source and block
(:func:`~ggdilrma.pool.source_block_parts`).  The
activation update adds each source's block sums over bins in the blocks'
order as the parts finish.  Every layer's blocks follow its shape
alone, so each part makes the kernel calls, with the operands, that one
thread makes, and the bytes do not depend on the number of CPUs; and at two
sources and 20 bases no per-source product is long enough for OpenBLAS to
wake its own threads beside the pool's.

The per-entry Jensen + tangent-line majorizer behind these updates, and
its equality auxiliaries, live in ``tests/reference_nmf.py`` as a test
oracle, together with a per-source loop form of both updates.  The
generalized-Gaussian log density that :func:`model_cost_terms` negates
(up to a beta-only constant) lives in ``tests/reference_ggd.py``.
"""

from __future__ import annotations

import collections
import threading

import numpy as np

from .pool import bin_blocks, run_parts, source_block_parts, threads
from .types import EPS_NMF, EPS_Y


def _int_power(x: np.ndarray, k: int) -> np.ndarray:
    """``x**k`` for an integer ``k >= 1`` by repeated squaring, written into ``x``,
    which is returned.

    The squares overwrite ``x`` until the result first takes it (the lowest set
    bit of ``k``); from there they go to one new buffer, squared in place, and
    the result multiplies into ``x``.  Every product has the operands of the
    out-of-place squaring, so the bits are the same.
    """
    result = None
    while True:
        if k & 1:
            if result is None:
                result = x
            else:
                result *= x
        k >>= 1
        if not k:
            return result
        if x is result:
            x = x * x
        else:
            x *= x


def _power(x: np.ndarray, k: float) -> np.ndarray:
    """``x**k`` written into ``x``, which is returned: by repeated squaring
    (:func:`_int_power`) for an integer ``k >= 1``, about half the time of the
    generic ``pow`` that a float exponent runs, and by ``**`` otherwise."""
    if k >= 1.0 and k == int(k):
        return _int_power(x, int(k))
    x **= k
    return x


def _whitened_ratio(yp, S: np.ndarray, beta: float, domain: float, out=None) -> np.ndarray:
    """``|y|^beta / S^(beta/p)`` computed as ``(|y|^p / S)^(beta/p)`` from ``yp = |y|^p``,
    written into ``out``, which may be ``yp`` itself, or into a new array when
    ``out`` is ``None``; the array written is returned.

    The ratio-first form keeps intermediates near unity; direct powers of
    ``S`` under/overflow when ``beta/p`` is large (e.g. 8 at beta=4, p=0.5).
    The ratio is raised by :func:`_power`.
    """
    return _power(np.divide(yp, S, out=out), beta / domain)


def _whitened_terms(yp, inv, beta, domain):
    """The ratio term ``|y|^beta / S^(beta/p + 1)`` of both NMF updates, as
    ``(max(|y|^p, EPS_Y**p) / S)^(beta/p) / S`` from ``yp = |y|^p`` and ``inv = 1 / S``,
    in one new array: the floored ``yp`` times ``inv``, raised by :func:`_power`,
    times ``inv`` again."""
    ratio = np.maximum(yp, EPS_Y**domain)
    ratio *= inv
    _power(ratio, beta / domain)
    ratio *= inv
    return ratio


def update_bases_arrays(T, V, inv_S, yp, beta, domain):
    """Multiplicative update of every basis matrix, from ``inv_S = 1 / S`` of the
    scale field ``S = T V`` and ``yp = |y|^p``, both ``(N, I, J)``, by blocks of bins
    with every source in each, one block per part on the thread pool.  Each part
    holds one block buffer, the ratio, and the parts run on at most one thread per
    source, as the activation update's do.

    Returns:
        The new bases, shaped as ``T`` and floored at ``EPS_NMF``; ``T``, ``V``,
        ``inv_S`` and ``yp`` are not modified.
    """
    Vt = V.transpose(0, 2, 1)
    T_new = np.empty_like(T)

    def part(blk):
        inv = inv_S[:, blk]
        num = beta * (_whitened_terms(yp[:, blk], inv, beta, domain) @ Vt)
        den = 2.0 * (inv @ Vt)
        T_blk = np.multiply(T[:, blk], (num / den) ** (domain / (beta + domain)), out=T_new[:, blk])
        np.maximum(T_blk, EPS_NMF, out=T_blk)

    N, I, J = inv_S.shape
    blocks = bin_blocks(I, J * N)
    run_parts(part, blocks, threads(min(len(blocks), N), I * J * N))
    return T_new


class _InOrderSums:
    """Sums over blocks of one part's sources' terms, started from zero and added in
    the blocks' order, whichever block is handed in first."""

    def __init__(self) -> None:
        self.sums = None
        self.added = 0  # blocks added, in order
        self.waiting: dict = {}  # the terms of later blocks handed in first

    def add(self, k: int, terms: tuple) -> int:
        """Hand in block ``k``'s ``terms``, add every block now next in order, and
        return the number of blocks added."""
        self.waiting[k] = terms
        while self.added in self.waiting:
            terms = self.waiting.pop(self.added)
            if self.sums is None:
                for t in terms:
                    t += 0.0  # x + 0 is 0 + x bit for bit: the sum from zero
                self.sums = terms
            else:
                for s, t in zip(self.sums, terms):
                    s += t
            self.added += 1
        return self.added


def update_activations_arrays(T, V, yp, beta, domain):
    """Multiplicative update of every activation matrix from ``yp = |y|^p``
    ``(N, I, J)``; sums run over bins, block by block, by source and block on the
    thread pool (:func:`~ggdilrma.pool.source_block_parts`).

    Each part forms its block's two products and hands them to its sources'
    :class:`_InOrderSums` as it finishes: a block that finishes before an earlier
    one waits there with its products, which a later part adds.  Whichever part
    adds a source's last block takes its step.  So each sum has the operands and
    order of one thread's, on any number of CPUs, and only the blocks that
    finished out of order are held.

    Returns:
        The new activations, shaped as ``V`` and floored at ``EPS_NMF``;
        ``T``, ``V`` and ``yp`` are not modified.
    """
    N, I, J = yp.shape
    V_new = np.empty_like(V)
    blocks = bin_blocks(I, J)
    sums = collections.defaultdict(_InOrderSums)  # by a part's first source
    lock = threading.Lock()

    def part(ns_k):
        ns, k = ns_k
        Tb = T[ns, blocks[k]]
        inv = Tb @ V[ns]  # (n, b, J): S, then 1 / S
        np.divide(1.0, inv, out=inv)
        Tt = Tb.transpose(0, 2, 1)
        terms = Tt @ _whitened_terms(yp[ns, blocks[k]], inv, beta, domain), Tt @ inv
        del inv
        with lock:
            if sums[ns.start].add(k, terms) < len(blocks):
                return
            num, den = sums.pop(ns.start).sums
        # ((beta * num) / (2 * den)) ** (p / (beta + p)), in place
        num *= beta
        den *= 2.0
        num /= den
        num **= domain / (beta + domain)
        V_ns = np.multiply(V[ns], num, out=V_new[ns])
        np.maximum(V_ns, EPS_NMF, out=V_ns)

    run_parts(part, *source_block_parts(N, len(blocks), N * I * J))
    return V_new


def model_cost_terms(yp, S, beta, domain):
    """Per-entry data-fit plus log-scale terms, ``(N, I, J)``, from ``yp = |y|^p``.

    ``|y|^beta / S^(beta/p) + (2/p) log S`` -- the non-determinant part of
    the negative log-likelihood, additive constant omitted.  The log-scale term
    is added into the new ratio array, which is returned; ``yp`` and ``S`` are
    not modified.
    """
    terms = _whitened_ratio(yp, S, beta, domain)
    log_s = np.log(S)
    log_s *= 2.0 / domain
    terms += log_s
    return terms

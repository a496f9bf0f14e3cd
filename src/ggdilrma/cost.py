"""Negative log-likelihood evaluation and monotonicity auditing.

The cost (additive constant omitted) is

    -2 J sum_i log|det W_i|
    + sum_{i,j,n} [ |y_ijn|^beta / S_ijn^(beta/p) + (2/p) log S_ijn ]

with ``y = W x`` and ``S = sum_k t v``.  It reads the iteration's ``|y|^p``,
which the NMF updates read too, and never forms ``y``.  It forms ``S`` from
the factors a block at a time, with the ``T[:, blk] @ V`` product the
activation update forms, into the caller's ``inv_S`` buffer, takes the
block's terms from that ``S`` and then writes ``1 / S`` over it: the
reciprocal scale field that the pipeline carries into the next sweep and
basis update, so no other pass forms the field.  The log-determinants
are the ones the pipeline carries beside ``W``: every demixing update
replaces one row and adds the log of the factor it multiplies ``det W_i``
by (:func:`~ggdilrma.types._replace_row`), so the cost takes no determinant.
The model terms are summed over blocks of bins
(:func:`~ggdilrma.pool.bin_blocks`), so their temporaries stay
cache-sized: each block's ratio is formed in one new array, and the
log-scale term is added into it
(:func:`~ggdilrma.source_model.model_cost_terms`); ``yp``, ``T`` and ``V``
are not modified.  Above the crossover each source's blocks are parts of
their own on the package's thread pool
(:func:`~ggdilrma.pool.source_block_parts`); each part's sum lands in its
(source, block) slot, the slots are added in the blocks' order, and the
sources' sums in theirs, so the cost and ``1 / S`` are the same on any
number of CPUs.  Every update rule in
the package is expected to leave this non-increasing; :func:`audit_descent`
lists the iterations of a recorded cost sequence where it rose.
"""

from __future__ import annotations

import numpy as np

from .source_model import model_cost_terms
from .pool import bin_blocks, run_parts, source_block_parts

#: Relative slack used when flagging cost increases.
DESCENT_SLACK = 1e-9


def ggd_cost_arrays(yp, log_det, T, V, inv_S, beta, domain) -> float:
    """Cost of the demixing matrices whose outputs ``y = W x`` give ``yp = |y|^p``
    ``(N, I, J)`` and whose ``log|det W_i|`` are ``log_det`` ``(I,)``, under the
    scale field ``S = T V`` ``(N, I, J)`` of the bases ``T`` and activations ``V``.

    Each (source, block) part forms its block of ``S`` in ``inv_S``, takes its
    terms from that ``S``, then writes ``1 / S`` over it, so on return ``inv_S``
    holds the reciprocal of the whole field."""
    N, I, J = yp.shape
    blocks = bin_blocks(I, J)
    sums = np.empty((N, len(blocks)))  # each source's sum over each block

    def part(ns_k):
        ns, k = ns_k
        S = np.matmul(T[ns, blocks[k]], V[ns], out=inv_S[ns, blocks[k]])  # S, then 1 / S
        terms = model_cost_terms(yp[ns, blocks[k]], S, beta, domain)
        sums[ns, k] = np.sum(terms.reshape(terms.shape[0], -1), axis=1)
        np.divide(1.0, S, out=S)

    run_parts(part, *source_block_parts(N, len(blocks), N * I * J))
    model = np.zeros(N)
    for block_sums in sums.T:  # in the blocks' order
        model += block_sums
    return float(-2.0 * J * np.sum(log_det) + np.sum(model))


def audit_descent(costs) -> list[int]:
    """Iterations (1-based) whose cost rose beyond tolerance.

    ``costs[k]`` is the cost after iteration ``k + 1``.  An increase counts
    when ``cost_k > cost_{k-1} + DESCENT_SLACK * (1 + |cost_{k-1}|)``.
    """
    costs = np.asarray(costs, dtype=np.float64)
    return [
        k + 1
        for k in range(1, len(costs))
        if costs[k] > costs[k - 1] + DESCENT_SLACK * (1.0 + abs(costs[k - 1]))
    ]

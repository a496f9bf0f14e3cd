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
(:func:`~ggdilrma.types.bin_blocks`), so the ratio terms are formed one
cache-sized block at a time: the bases of a block depend on that block
alone, and the activations' bin sums are accumulated block by block.  The
pipeline carries the full scale field ``S = T V``, which
:func:`refresh_scale` writes a block at a time after each activation update;
the basis update, the demixing sweeps and the cost read it, and only the
activation update, whose bases have just changed, forms its own ``S`` per
block.  The updates and the cost read ``|y|^p``, which the pipeline carries
and refreshes in place once per iteration; the updates floor it at
``EPS_Y**p``, the same bits as flooring ``|y|`` at ``EPS_Y`` first, and so do
the iterative-projection weights.  The whitened ratio
``(|y|^p / S)^(beta/p)`` is raised by repeated squaring when ``beta/p`` is a
positive integer (8 at beta = 4, p = 1/2), and by the generic power
otherwise.

Each block's elementwise chain runs in place.  Both updates floor the
block's ``|y|^p`` into one new block buffer, then divide it by ``S``, raise
it, divide it by ``S`` again and overwrite it with ``1/S``; the activation
update also forms its block's ``S`` in a buffer of its own.
:func:`model_cost_terms` writes the ratio into a new array and adds the
log-scale term into it.  An odd power takes one more buffer for its
squares (:func:`_int_power`).  No layer writes into ``T``, ``V``, ``S`` or
the ``|y|^p`` it is given, and every operation has the operands and order
of the out-of-place form, so the bits are the same.

No source's factors read another source's, yet both updates and
:func:`refresh_scale` run on the calling thread, every source batched, and not
on the package's thread pool (:func:`~ggdilrma.types.run_parts`): their
per-source matrix products are large enough for a threaded BLAS to spread
over the CPUs itself, and pool threads beside BLAS's own would oversubscribe
them.

The per-entry Jensen + tangent-line majorizer behind these updates, and
its equality auxiliaries, live in ``tests/reference_nmf.py`` as a test
oracle, together with a per-source loop form of both updates.  The
generalized-Gaussian log density that :func:`model_cost_terms` negates
(up to a beta-only constant) lives in ``tests/reference_ggd.py``.
"""

from __future__ import annotations

import numpy as np

from .types import EPS_NMF, EPS_Y, bin_blocks


def refresh_scale(T: np.ndarray, V: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Write the scale field ``S = T V`` ``(N, I, J)`` into ``S``, one block of bins at
    a time, with the ``T[:, blk] @ V`` product the updates form; returns ``S``."""
    for blk in bin_blocks(*S.shape[1:]):
        np.matmul(T[:, blk], V, out=S[:, blk])
    return S


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


def _whitened_ratio(yp, S: np.ndarray, beta: float, domain: float, out=None) -> np.ndarray:
    """``|y|^beta / S^(beta/p)`` computed as ``(|y|^p / S)^(beta/p)`` from ``yp = |y|^p``,
    written into ``out``, which may be ``yp`` itself, or into a new array when
    ``out`` is ``None``; the array written is returned.

    The ratio-first form keeps intermediates near unity; direct powers of
    ``S`` under/overflow when ``beta/p`` is large (e.g. 8 at beta=4, p=0.5).
    An integer ``beta/p`` is raised by repeated squaring, about half the
    time of the generic ``pow`` that a float exponent runs.
    """
    ratio = np.divide(yp, S, out=out)
    k = beta / domain
    if k >= 1.0 and k == int(k):
        return _int_power(ratio, int(k))
    ratio **= k
    return ratio


def update_bases_arrays(T, V, S, yp, beta, domain):
    """Multiplicative update of every basis matrix, from the scale field ``S = T V``
    and ``yp = |y|^p``, both ``(N, I, J)``.

    Returns:
        The new bases, shaped as ``T`` and floored at ``EPS_NMF``; ``T``, ``V``,
        ``S`` and ``yp`` are not modified.
    """
    Vt = V.transpose(0, 2, 1)
    T_new = np.empty_like(T)
    for blk in bin_blocks(T.shape[1], V.shape[2]):
        Sb = S[:, blk]
        ratio = np.maximum(yp[:, blk], EPS_Y**domain)  # the block's one buffer
        _whitened_ratio(ratio, Sb, beta, domain, out=ratio)
        ratio /= Sb
        num = beta * (ratio @ Vt)
        den = 2.0 * (np.divide(1.0, Sb, out=ratio) @ Vt)
        T_new[:, blk] = T[:, blk] * (num / den) ** (domain / (beta + domain))
    return np.maximum(T_new, EPS_NMF)


def update_activations_arrays(T, V, yp, beta, domain):
    """Multiplicative update of every activation matrix from ``yp = |y|^p``
    ``(N, I, J)``; sums run over bins.

    Returns:
        The new activations, shaped as ``V`` and floored at ``EPS_NMF``;
        ``T``, ``V`` and ``yp`` are not modified.
    """
    num = np.zeros_like(V)
    den = np.zeros_like(V)
    for blk in bin_blocks(T.shape[1], V.shape[2]):
        Tb = T[:, blk]
        S = Tb @ V  # (N, b, J)
        ratio = np.maximum(yp[:, blk], EPS_Y**domain)  # the block's one buffer
        _whitened_ratio(ratio, S, beta, domain, out=ratio)
        ratio /= S
        Tt = Tb.transpose(0, 2, 1)
        num += Tt @ ratio
        den += Tt @ np.divide(1.0, S, out=ratio)
    V = V * ((beta * num) / (2.0 * den)) ** (domain / (beta + domain))
    return np.maximum(V, EPS_NMF)


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

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
(:func:`~ggdilrma.types.bin_blocks`), so ``S`` and the ratio terms are
formed one cache-sized block at a time: the bases of a block depend on
that block alone, and the activations' bin sums are accumulated block by
block.  The whitened ratio ``(|y|^p / S)^(beta/p)`` is raised by repeated
squaring when ``beta/p`` is a positive integer (8 at beta = 4, p = 1/2),
and by the generic power otherwise.

The per-entry Jensen + tangent-line majorizer behind these updates, and
its equality auxiliaries, live in ``tests/reference_nmf.py`` as a test
oracle, together with a per-source loop form of both updates.  The
generalized-Gaussian log density that :func:`model_cost_terms` negates
(up to a beta-only constant) lives in ``tests/reference_ggd.py``.
"""

from __future__ import annotations

import numpy as np

from .types import EPS_NMF, EPS_Y, bin_blocks


def block_scale(T: np.ndarray, V: np.ndarray, blk: slice) -> np.ndarray:
    """Scale field ``(N, b, J)`` of the bins ``blk``, one ``(K,) @ (K, J)`` product
    per bin, so that a one-bin block rounds as a taller one (BLAS paths differ)."""
    return (T[:, blk, None] @ V[:, None])[:, :, 0]


def _int_power(x: np.ndarray, k: int) -> np.ndarray:
    """``x**k`` for an integer ``k >= 1`` by repeated squaring (``x`` itself for 1)."""
    result = None
    while True:
        if k & 1:
            result = x if result is None else result * x
        k >>= 1
        if not k:
            return result
        x = x * x


def _whitened_ratio(abs_y: np.ndarray, S: np.ndarray, beta: float, domain: float) -> np.ndarray:
    """``|y|^beta / S^(beta/p)`` computed as ``(|y|^p / S)^(beta/p)``.

    The ratio-first form keeps intermediates near unity; direct powers of
    ``S`` under/overflow when ``beta/p`` is large (e.g. 8 at beta=4, p=0.5).
    An integer ``beta/p`` is raised by repeated squaring, about half the
    time of the generic ``pow`` that a float exponent runs.
    """
    ratio = abs_y**domain / S
    k = beta / domain
    if k >= 1.0 and k == int(k):
        return _int_power(ratio, int(k))
    return ratio**k


def update_bases_arrays(T, V, abs_y, beta, domain):
    """Multiplicative update of every basis matrix; ``abs_y`` is ``(N, I, J)``.

    Returns:
        The new bases, shaped as ``T`` and floored at ``EPS_NMF``; ``T`` and
        ``V`` are not modified.
    """
    Vt = V.transpose(0, 2, 1)
    T_new = np.empty_like(T)
    for blk in bin_blocks(T.shape[1], V.shape[2]):
        Tb = T[:, blk]
        S = Tb @ V  # (N, b, J)
        ratio = _whitened_ratio(np.maximum(abs_y[:, blk], EPS_Y), S, beta, domain)
        ratio /= S
        num = beta * (ratio @ Vt)
        den = 2.0 * ((1.0 / S) @ Vt)
        T_new[:, blk] = Tb * (num / den) ** (domain / (beta + domain))
    return np.maximum(T_new, EPS_NMF)


def update_activations_arrays(T, V, abs_y, beta, domain):
    """Multiplicative update of every activation matrix; sums run over bins.

    Returns:
        The new activations, shaped as ``V`` and floored at ``EPS_NMF``;
        ``T`` and ``V`` are not modified.
    """
    num = np.zeros_like(V)
    den = np.zeros_like(V)
    for blk in bin_blocks(T.shape[1], V.shape[2]):
        Tb = T[:, blk]
        S = Tb @ V  # (N, b, J)
        ratio = _whitened_ratio(np.maximum(abs_y[:, blk], EPS_Y), S, beta, domain)
        ratio /= S
        Tt = Tb.transpose(0, 2, 1)
        num += Tt @ ratio
        den += Tt @ (1.0 / S)
    V = V * ((beta * num) / (2.0 * den)) ** (domain / (beta + domain))
    return np.maximum(V, EPS_NMF)


def model_cost_terms(abs_y, S, beta, domain):
    """Per-entry data-fit plus log-scale terms, ``(N, I, J)``.

    ``|y|^beta / S^(beta/p) + (2/p) log S`` -- the non-determinant part of
    the negative log-likelihood, additive constant omitted.
    """
    return _whitened_ratio(abs_y, S, beta, domain) + (2.0 / domain) * np.log(S)

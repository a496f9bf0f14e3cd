"""Generalized-Gaussian NMF updates and their majorizer, source by source.

Test oracle for ``ggdilrma.source_model``, with the full-size scale field
that the package only forms a block of bins at a time.  The updates loop
over sources and write the rule with direct powers of ``S`` (the package
uses a ratio-first form); the majorizer is the per-entry Jensen +
tangent-line surrogate whose minimization yields the updates.

Conventions: bases ``T`` are ``(N, I, K)``, activations ``V`` are
``(N, K, J)``; update inputs ``abs_y`` are ``(N, I, J)``.
"""

import numpy as np

EPS_NMF = 1e-12
EPS_Y = 1e-12


def scale_field(T, V):
    """Scale field ``r**p = sum_k t v`` shaped ``(I, J, N)``."""
    return np.einsum("nik,nkj->ijn", T, V)


def update_bases_reference(T, V, abs_y, beta, p):
    """``t <- t [beta sum_j |y|^beta S^-(beta/p+1) v / (2 sum_j v / S)]^(p/(beta+p))``."""
    T = T.copy()
    for n in range(T.shape[0]):
        S = T[n] @ V[n]
        a = np.maximum(abs_y[n], EPS_Y) ** beta
        num = beta * (a * S ** (-beta / p - 1.0)) @ V[n].T
        den = 2.0 * (1.0 / S) @ V[n].T
        T[n] = np.maximum(T[n] * (num / den) ** (p / (beta + p)), EPS_NMF)
    return T


def update_activations_reference(T, V, abs_y, beta, p):
    """The activation rule: roles of ``t`` and ``v`` and of the sums exchanged."""
    V = V.copy()
    for n in range(V.shape[0]):
        S = T[n] @ V[n]
        a = np.maximum(abs_y[n], EPS_Y) ** beta
        num = beta * T[n].T @ (a * S ** (-beta / p - 1.0))
        den = 2.0 * T[n].T @ (1.0 / S)
        V[n] = np.maximum(V[n] * (num / den) ** (p / (beta + p)), EPS_NMF)
    return V


def nmf_majorizer_gap(T, V, y, beta, p, phi, psi):
    """Majorizer-minus-cost for the Jensen + tangent-line surrogate.

    The surrogate replaces ``S^(-beta/p)`` by the Jensen bound
    ``sum_k phi_k^(beta/p + 1) (t_k v_k)^(-beta/p)`` (``phi`` a simplex
    point over k) and ``log S`` by its tangent at ``psi``:
    ``S/psi - 1 + log psi``.  The gap is nonnegative and vanishes when
    ``phi_k = t_k v_k / S`` and ``psi = S``.

    Args:
        y: separated sources ``(I, J, N)``.
        phi: ``(I, J, N, K)`` positive weights summing to 1 over k.
        psi: ``(I, J, N)`` positive tangent points.
    """
    phi = np.asarray(phi, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64)
    if np.any(phi <= 0.0) or np.any(np.abs(phi.sum(axis=-1) - 1.0) > 1e-8):
        raise ValueError("phi must be strictly positive and sum to 1 over the basis axis")
    if np.any(psi <= 0.0):
        raise ValueError("psi entries must be strictly positive")

    abs_y = np.abs(y)
    tv = np.einsum("nik,nkj->ijnk", T, V)  # t_ikn v_kjn
    S = tv.sum(axis=-1)
    jensen = np.sum(phi ** (beta / p + 1.0) * tv ** (-beta / p), axis=-1)
    maj = np.sum(abs_y**beta * jensen) + (2.0 / p) * np.sum(S / psi - 1.0 + np.log(psi))
    cost = np.sum(abs_y**beta * S ** (-beta / p)) + (2.0 / p) * np.sum(np.log(S))
    return float(maj - cost)


def equality_auxiliaries(T, V):
    """Auxiliary variables ``(phi, psi)`` at which the surrogate touches the cost."""
    tv = np.einsum("nik,nkj->ijnk", T, V)
    S = tv.sum(axis=-1)
    return tv / S[..., None], S
